import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedkit import geodata, spectral
from breedkit.errors import (
    EmptyPlot,
    GeometryMismatch,
    InvalidInput,
    InvalidMask,
    MissingBand,
)

from test_geodata import make_grid, point_in_polygon_oracle, random_simple_polygon, square_plot

MS_CENTERS = {"blue": 450.0, "green": 560.0, "red": 650.0, "red_edge": 730.0, "nir": 840.0}


def make_ms_bands(band_arrays, cell_size=1.0, nodata=-9999.0):
    bands = {}
    for name in ("blue", "green", "red", "red_edge", "nir"):
        values = band_arrays.get(name, np.full_like(next(iter(band_arrays.values())), 0.1))
        grid = make_grid(values, cell_size=cell_size, nodata=nodata)
        bands[name] = (grid, MS_CENTERS[name])
    return geodata.BandSet(bands=bands, sensor_kind="MS")


def make_hs_bands(by_wavelength, cell_size=1.0):
    bands = {
        f"b{nm:g}": (make_grid(values, cell_size=cell_size), float(nm))
        for nm, values in by_wavelength.items()
    }
    return geodata.BandSet(bands=bands, sensor_kind="HS")


# scalar oracles mirroring the per-pixel arithmetic


def ndvi_oracle(nir, r):
    if nir + r == 0.0:
        return None
    return (nir - r) / (nir + r)


def savi_oracle(nir, r, L=0.5):
    if nir + r + L == 0.0:
        return None
    return (1.0 + L) * (nir - r) / (nir + r + L)


def nirv_oracle(nir, r):
    ndvi = ndvi_oracle(nir, r)
    return None if ndvi is None else nir * ndvi


def psri_ms_oracle(r, g, nir):
    if nir == 0.0:
        return None
    return (r - g) / nir


class TestViMap:
    def test_ndvi_direct_value(self):
        bands = make_ms_bands({"nir": np.array([[0.5]]), "red": np.array([[0.1]])})
        vi = spectral.vi_map(bands, "NDVI")
        assert vi.values[0, 0] == pytest.approx(0.4 / 0.6, abs=1e-12)

    def test_nir_equal_red_symmetry(self):
        bands = make_ms_bands({"nir": np.array([[0.3]]), "red": np.array([[0.3]])})
        assert spectral.vi_map(bands, "NDVI").values[0, 0] == 0.0
        assert spectral.vi_map(bands, "kNDVI").values[0, 0] == 0.0
        assert spectral.vi_map(bands, "NIRv").values[0, 0] == 0.0

    def test_savi_direct_value(self):
        bands = make_ms_bands({"nir": np.array([[0.5]]), "red": np.array([[0.1]])})
        vi = spectral.vi_map(bands, "SAVI", L=0.5)
        assert vi.values[0, 0] == pytest.approx(1.5 * 0.4 / 1.1, abs=1e-12)

    def test_psri_ms_direct_value(self):
        bands = make_ms_bands({
            "red": np.array([[0.2]]), "green": np.array([[0.1]]), "nir": np.array([[0.5]]),
        })
        assert spectral.vi_map(bands, "PSRI").values[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_kndvi_is_tanh_ndvi_squared(self):
        rng = np.random.default_rng(2)
        arrays = {"nir": rng.uniform(0, 1, (8, 8)), "red": rng.uniform(0, 1, (8, 8))}
        bands = make_ms_bands(arrays)
        ndvi = spectral.vi_map(bands, "NDVI").values
        kndvi = spectral.vi_map(bands, "kNDVI").values
        assert np.array_equal(kndvi, np.tanh(ndvi * ndvi))
        assert kndvi.min() >= 0.0 and kndvi.max() <= math.tanh(1.0)

    def test_kndvi_explicit_sigma(self):
        bands = make_ms_bands({"nir": np.array([[0.6]]), "red": np.array([[0.2]])})
        vi = spectral.vi_map(bands, "kNDVI", kndvi_sigma=0.25)
        assert vi.values[0, 0] == pytest.approx(math.tanh((0.4 / 0.5) ** 2), rel=1e-12)
        with pytest.raises(InvalidInput):
            spectral.vi_map(bands, "kNDVI", kndvi_sigma=0.0)

    def test_full_map_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        shape = (64, 64)
        arrays = {
            "red": rng.uniform(0, 1, shape),
            "green": rng.uniform(0, 1, shape),
            "nir": rng.uniform(0, 1, shape),
        }
        bands = make_ms_bands(arrays)
        red, green, nir = (arrays[k] for k in ("red", "green", "nir"))
        oracles = {
            "NDVI": lambda i, j: ndvi_oracle(nir[i, j], red[i, j]),
            "SAVI": lambda i, j: savi_oracle(nir[i, j], red[i, j]),
            "NIRv": lambda i, j: nirv_oracle(nir[i, j], red[i, j]),
            "PSRI": lambda i, j: psri_ms_oracle(red[i, j], green[i, j], nir[i, j]),
        }
        for name, oracle in oracles.items():
            vi = spectral.vi_map(bands, name)
            for i in range(shape[0]):
                for j in range(shape[1]):
                    expected = oracle(i, j)
                    if expected is None:
                        assert vi.values[i, j] == vi.nodata
                    else:
                        assert vi.values[i, j] == expected  # identical arithmetic

    def test_zero_denominator_becomes_nodata(self):
        bands = make_ms_bands({
            "nir": np.array([[0.0, 0.5]]), "red": np.array([[0.0, 0.1]]),
            "green": np.array([[0.2, 0.2]]),
        })
        ndvi = spectral.vi_map(bands, "NDVI")
        assert ndvi.values[0, 0] == ndvi.nodata
        assert ndvi.values[0, 1] != ndvi.nodata
        psri = spectral.vi_map(bands, "PSRI")
        assert psri.values[0, 0] == psri.nodata

    def test_nodata_propagates(self):
        nir = np.array([[0.5, -9999.0]])
        bands = make_ms_bands({"nir": nir, "red": np.array([[0.1, 0.1]])})
        ndvi = spectral.vi_map(bands, "NDVI")
        assert ndvi.values[0, 1] == ndvi.nodata

    def test_missing_band(self):
        grid = make_grid(np.array([[0.1]]))
        with pytest.raises(MissingBand):
            geodata.BandSet(bands={"red": (grid, 650.0)}, sensor_kind="MS")

    def test_ms_set_needs_each_named_band(self):
        # one declaration of the MS band names: BandSet checks them, spectral reads them
        assert spectral.MS_BAND_CENTERS_NM is geodata.MS_BAND_CENTERS_NM
        assert tuple(geodata.MS_BAND_CENTERS_NM) == ("blue", "green", "red", "red_edge", "nir")
        grid = make_grid(np.array([[0.1]]))
        for missing in geodata.MS_BAND_CENTERS_NM:
            bands = {name: (grid, nm) for name, nm in geodata.MS_BAND_CENTERS_NM.items()
                     if name != missing}
            with pytest.raises(MissingBand, match=missing):
                geodata.BandSet(bands=bands, sensor_kind="MS")

    def test_unknown_index(self):
        bands = make_ms_bands({"nir": np.array([[0.5]]), "red": np.array([[0.1]])})
        with pytest.raises(InvalidInput):
            spectral.vi_map(bands, "EVI")

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_ndvi_monotone_in_nir(self, nir, red, bump):
        lo = make_ms_bands({"nir": np.array([[nir]]), "red": np.array([[red]])})
        hi = make_ms_bands({"nir": np.array([[min(nir + bump, 1.0)]]), "red": np.array([[red]])})
        v_lo = spectral.vi_map(lo, "NDVI").values[0, 0]
        v_hi = spectral.vi_map(hi, "NDVI").values[0, 0]
        if nir + bump <= 1.0:
            assert v_hi > v_lo
        assert -1.0 <= v_lo <= 1.0


class TestHsIndices:
    def test_psri_hs_exact_bands(self):
        bands = make_hs_bands({
            680: np.array([[0.3]]), 500: np.array([[0.1]]), 750: np.array([[0.4]]),
        })
        vi = spectral.psri_hs(bands)
        assert vi.values[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_tie_breaks_toward_lower_wavelength(self):
        bands = make_hs_bands({
            678: np.array([[0.25]]), 682: np.array([[0.35]]),
            500: np.array([[0.1]]), 750: np.array([[0.5]]),
        })
        assert spectral.resolve_band(bands, 680.0) == "b678"
        vi = spectral.psri_hs(bands)
        assert vi.values[0, 0] == pytest.approx((0.25 - 0.1) / 0.5, abs=1e-15)

    def test_missing_target_band(self):
        bands = make_hs_bands({450: np.array([[0.1]]), 650: np.array([[0.2]])})
        with pytest.raises(MissingBand) as err:
            spectral.psri_hs(bands)
        assert "680" in str(err.value)

    def test_ms_and_hs_ndvi_bit_identical(self):
        rng = np.random.default_rng(4)
        red = rng.uniform(0, 1, (16, 16))
        nir = rng.uniform(0, 1, (16, 16))
        ms = make_ms_bands({"red": red, "nir": nir})
        hs = make_hs_bands({650: red, 840: nir})
        for index in ("NDVI", "SAVI", "kNDVI", "NIRv"):
            a = spectral.vi_map(ms, index).values
            b = spectral.vi_map(hs, index).values
            assert np.array_equal(a, b)

    def test_hs_set_requires_two_bands(self):
        with pytest.raises(InvalidInput):
            make_hs_bands({650: np.array([[0.2]])})


class TestPlotStatistic:
    def test_mean_of_two_cells(self):
        grid = make_grid(np.array([[0.2, 0.4]]))
        plot = square_plot(0.0, 0.0, 2.0, 1.0)
        stat = spectral.plot_statistic(grid, plot, feature_name="NDVI")
        assert stat.value == pytest.approx(0.3, abs=1e-15)
        assert stat.n_cells == 2

    def test_all_nodata_is_empty(self):
        grid = make_grid(np.full((2, 2), -9999.0))
        with pytest.raises(EmptyPlot):
            spectral.plot_statistic(grid, square_plot(0.0, 0.0, 2.0, 2.0))

    def test_restrict_to_mask(self):
        grid = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        veg = make_grid(np.array([[1.0, 0.0], [0.0, 1.0]]))
        plot = square_plot(0.0, 0.0, 2.0, 2.0)
        stat = spectral.plot_statistic(grid, plot, restrict_to=veg)
        assert stat.value == pytest.approx(2.5)
        assert stat.n_cells == 2

    def test_restrict_mask_must_align(self):
        grid = make_grid(np.array([[1.0, 2.0]]))
        veg = make_grid(np.array([[1.0, 0.0]]), origin=(5.0, 5.0))
        with pytest.raises(GeometryMismatch):
            spectral.plot_statistic(grid, square_plot(0.0, 0.0, 2.0, 1.0), restrict_to=veg)

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(9)
        grid = make_grid(rng.normal(size=(10, 10)), cell_size=0.6)
        cx, cy = grid.cell_centers()
        for trial in range(25):
            plot = random_simple_polygon(rng, concave=trial % 2 == 0)
            selected = []
            member = np.zeros((10, 10), dtype=bool)
            for i in range(10):
                for j in range(10):
                    if point_in_polygon_oracle(float(cx[i, j]), float(cy[i, j]), plot.vertices):
                        member[i, j] = True
                        selected.append(grid.values[i, j])
            if not selected:
                with pytest.raises(EmptyPlot):
                    spectral.plot_statistic(grid, plot)
                continue
            stat = spectral.plot_statistic(grid, plot)
            assert stat.value == float(np.mean(np.array(selected)))
            assert stat.n_cells == len(selected)

    def test_mask_checked_over_the_whole_grid(self):
        values = np.zeros((8, 8))
        values[0, 7] = 0.5  # far from the plot
        mask = make_grid(values)
        plot = square_plot(0.0, 0.0, 2.0, 2.0)
        for one_plot in (lambda: spectral.fvc(mask, plot),
                         lambda: spectral.plot_statistic(mask.with_values(np.ones((8, 8))), plot,
                                                         restrict_to=mask)):
            with pytest.raises(InvalidMask, match="^mask holds non-binary value 0.5$"):
                one_plot()
        with pytest.raises(InvalidMask, match="^mask holds non-binary value 0.5$"):
            geodata.require_binary_mask(mask)

    def test_errors_keep_their_order(self):
        # no cells, then a mask of another geometry, then a non-binary mask,
        # then no usable cells, then a mean that is not finite
        layer = make_grid(np.array([[-9999.0, 1e308, 1e308, 1.0]]))
        bad = layer.with_values(np.array([[1.0, 1.0, 1.0, 0.5]]))
        moved = make_grid(bad.values, origin=(0.5, 0.0))
        off, nodata = square_plot(9.0, 0.0, 10.0, 1.0, "off"), square_plot(0.0, 0.0, 1.0, 1.0, "nd")
        over = square_plot(1.0, 0.0, 3.0, 1.0, "over")
        for plot, restrict, error, message in (
                (off, moved, EmptyPlot, "region off selects no cells of the grid"),
                (nodata, moved, GeometryMismatch, "cells of region nd were selected on grid"),
                (nodata, bad, InvalidMask, "mask holds non-binary value 0.5"),
                (nodata, None, EmptyPlot, "plot nd: no usable cells for X"),
                (over, None, InvalidInput, "X for plot over is not finite")):
            with pytest.raises(error, match=f"^{message}"):
                spectral.plot_statistic(layer, plot, restrict, "X")


class TestFvc:
    def test_quarter_coverage(self):
        mask = make_grid(np.array([[1.0, 0.0], [0.0, 0.0]]))
        plot = square_plot(0.0, 0.0, 2.0, 2.0)
        stat = spectral.fvc(mask, plot)
        assert stat.value == 0.25
        assert stat.feature_name == "FVC"

    def test_full_coverage(self):
        mask = make_grid(np.ones((3, 3)))
        assert spectral.fvc(mask, square_plot(0.0, 0.0, 3.0, 3.0)).value == 1.0

    def test_all_zero_mask_is_exactly_zero(self):
        mask = make_grid(np.zeros((3, 3)))
        assert spectral.fvc(mask, square_plot(0.0, 0.0, 3.0, 3.0)).value == 0.0

    def test_nodata_counts_in_denominator_only(self):
        mask = make_grid(np.array([[1.0, -9999.0], [0.0, 0.0]]))
        stat = spectral.fvc(mask, square_plot(0.0, 0.0, 2.0, 2.0))
        assert stat.value == 0.25

    def test_a_nodata_sentinel_of_1_counts_as_0(self, tmp_path):
        # every cell of [1, 0, 1, 0] is nodata or 0: no cell is a 1-cell
        path = tmp_path / "mask.asc"
        path.write_text("ncols 4\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "NODATA_value 1\n1 0 1 0\n")
        layer = make_grid(np.array([[5.0, 6.0, 7.0, 8.0]]))
        plot = square_plot(0.0, 0.0, 4.0, 1.0)
        cells = geodata.stack_cells(layer, [plot])
        for mask in (make_grid(np.array([[1.0, 0.0, 1.0, 0.0]]), nodata=1.0),
                     geodata.load_raster(path)):
            stat = spectral.fvc(mask, plot)
            assert (stat.value, stat.n_cells) == (0.0, 4)
            assert [a.tolist() for a in cells.ratios(mask)[:2]] == [[0.0], [4]]
            assert [a.tolist() for a in cells.values(layer, restrict_to=mask)] == [[], [0]]
            with pytest.raises(EmptyPlot, match="^plot p: no usable cells for value$"):
                spectral.plot_statistic(layer, plot, restrict_to=mask)
        # with another sentinel the same cells are 1-cells
        assert spectral.fvc(make_grid(mask.values, nodata=-1.0), plot).value == 0.5

    def test_non_binary_mask_rejected(self):
        mask = make_grid(np.array([[0.5]]))
        with pytest.raises(InvalidMask):
            spectral.fvc(mask, square_plot(0.0, 0.0, 1.0, 1.0))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(12)
        values = (rng.random((9, 9)) < 0.4).astype(float)
        mask = make_grid(values, cell_size=0.7)
        cx, cy = mask.cell_centers()
        for trial in range(25):
            plot = random_simple_polygon(rng, concave=trial % 2 == 1)
            n_all = n_veg = 0
            for i in range(9):
                for j in range(9):
                    if point_in_polygon_oracle(float(cx[i, j]), float(cy[i, j]), plot.vertices):
                        n_all += 1
                        n_veg += int(values[i, j] == 1.0)
            if n_all == 0:
                with pytest.raises(EmptyPlot):
                    spectral.fvc(mask, plot)
                continue
            assert spectral.fvc(mask, plot).value == n_veg / n_all
