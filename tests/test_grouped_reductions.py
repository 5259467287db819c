"""The grouped reductions over a PlotCellStack against the per-plot functions, bit for bit.

Each grouped reduction reduces every plot at once; the per-plot functions are
its one-plot case. For every plot the grouped value must have the bytes of
the per-plot value and of numpy's 1-D reduction of the plot's values, the
grouped count must be the per-plot ``n_cells`` and the count of a full-grid
selection, and the grouped failure must be the first plot's per-plot error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedkit import geodata, spectral, structural
from breedkit.errors import BreedkitError, GeometryMismatch, InvalidInput

from test_geodata import contains, make_grid, square_plot

NODATA = -9999.0


def cells_plot(n_rows, r0, c0, h, w, plot_id):
    """The plot over rows r0..r0+h-1 and columns c0..c0+w-1 of a grid of 1 m cells at the origin."""
    return square_plot(c0, n_rows - r0 - h, c0 + w, n_rows - r0, plot_id=plot_id)


def layer_values(rng, shape, exponents, nodata_frac, zero_frac):
    """Values of both signs with decimal exponents in ``exponents``, some ±0.0 and some nodata."""
    lo, hi = exponents
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
    zeros = rng.random(shape) < zero_frac
    values[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    values[rng.random(shape) < nodata_frac] = NODATA
    return values


def binary_mask(rng, grid, nodata_frac=0.1):
    values = (rng.random(grid.values.shape) < 0.6).astype(np.float64)
    values[rng.random(values.shape) < nodata_frac] = NODATA
    return grid.with_values(values)


def outcome(call):
    """A per-plot call's result, or its error's type and text."""
    try:
        return call()
    except BreedkitError as exc:
        return type(exc), str(exc)


def assert_grouped_equals_per_plot(grouped, failure, per_plot):
    """``grouped[i]`` has the bytes of each per-plot float; ``failure`` is the first per-plot error."""
    errors = [i for i, value in enumerate(per_plot) if isinstance(value, tuple)]
    if errors:
        assert failure is not None
        assert (failure[0], type(failure[1]), str(failure[1])) == (errors[0], *per_plot[errors[0]])
    else:
        assert failure is None
    for i, value in enumerate(per_plot):
        if isinstance(value, tuple):
            assert np.isnan(grouped[i])
        else:
            assert np.float64(value).tobytes() == grouped[i].tobytes(), (i, value, grouped[i])


def one_plot_oracle(grid, plot, restrict, percentile):
    """The formulas of one plot by numpy's 1-D reductions: mean, nearest-rank, both volume terms.

    The plot's cells come from a test of every cell center of the grid, in
    row-major order. None where the plot selects no usable cell.
    """
    usable = geodata.point_in_polygon(*grid.cell_centers(), plot.vertices)
    usable &= grid.values != grid.nodata
    z = grid.values[usable]
    vals = z if restrict is None else grid.values[usable & (restrict.values == 1.0)]
    if vals.size == 0 or z.size == 0:
        return None
    area = grid.cell_size * grid.cell_size
    return (float(np.mean(vals)),
            float(np.sort(z)[max(1, math.ceil(percentile * z.size)) - 1]),
            float(np.sum(np.abs(z - z.min())) * area),
            float(np.sum(np.abs(z - np.mean(z))) * area))


def full_grid_counts(grid, regions, usable=True):
    """Each region's cells where ``usable`` holds, by a test of every cell center of the grid."""
    cx, cy = grid.cell_centers()
    return [int((contains(region, cx, cy) & usable).sum()) for region in regions]


def assert_counts(counts, per_plot, want):
    """``counts`` are ``want`` and the ``n_cells`` of each per-plot PlotStatistic in ``per_plot``."""
    assert counts.tolist() == want
    for i, stat in enumerate(per_plot):
        if not isinstance(stat, tuple):
            assert stat.n_cells == counts[i], (i, stat, counts[i])


def values_of(per_plot):
    """The value of each per-plot PlotStatistic, or its error's type and text."""
    return [stat if isinstance(stat, tuple) else stat.value for stat in per_plot]


def check_every_reduction(layer, mask, plots, restrict, percentile):
    cells = geodata.stack_cells(layer, plots)
    oracle = [one_plot_oracle(layer, p, restrict, percentile) for p in plots]
    defined = full_grid_counts(layer, plots, layer.values != NODATA)
    usable = defined if restrict is None else full_grid_counts(
        layer, plots, (layer.values != NODATA) & (restrict.values == 1.0))

    means, counts, failure = spectral.plot_statistics(
        layer, cells, None if restrict is None else geodata.binary_mask(restrict), "X")
    per_plot = [outcome(lambda: spectral.plot_statistic(layer, p, restrict, "X")) for p in plots]
    assert_grouped_equals_per_plot(means, failure, values_of(per_plot))
    assert_counts(counts, per_plot, usable)

    heights, counts, failure = structural.plot_canopy_heights(layer, cells, percentile)
    per_plot = [outcome(lambda: structural.plot_canopy_height(layer, p, percentile))
                for p in plots]
    assert_grouped_equals_per_plot(heights, failure, values_of(per_plot))
    assert_counts(counts, per_plot, defined)

    volumes, counts, failure = structural.canopy_volumes(layer, cells)
    per_plot = [outcome(lambda: structural.canopy_volume(layer, p)) for p in plots]
    assert_grouped_equals_per_plot(
        volumes, failure, [v if isinstance(v, tuple) else v.volume for v in per_plot])
    assert counts.tolist() == defined
    low, mean = structural._cut_and_fill(*cells.values(layer), layer.cell_size * layer.cell_size)
    for terms, name in ((low, "volume_lowest_plane"), (mean, "volume_mean_plane")):
        assert_grouped_equals_per_plot(terms, failure, [
            v if isinstance(v, tuple) else getattr(v, name) for v in per_plot])

    for i, want in enumerate(oracle):
        if want is not None:
            got = (means[i], heights[i], low[i], mean[i])
            assert np.array(got).tobytes() == np.array(want).tobytes(), (i, got, want)

    mask_cells = geodata.stack_cells(mask, plots)
    ratios, counts, failure = mask_cells.ratios(geodata.binary_mask(mask))
    per_plot = [outcome(lambda: spectral.fvc(mask, p)) for p in plots]
    assert_grouped_equals_per_plot(ratios, failure, values_of(per_plot))
    assert_grouped_equals_per_plot(ratios, failure, [
        outcome(lambda: structural.classify_lodging(mask, p).ratio) for p in plots])
    assert_counts(counts, per_plot, full_grid_counts(mask, plots))
    rings = [geodata.PlotWithRing(p, 0.5, 1.5) for p in plots]
    ring_cells = geodata.stack_cells(mask, rings)
    ratios, counts, failure = ring_cells.ratios(geodata.binary_mask(mask))
    assert_grouped_equals_per_plot(ratios, failure, [
        outcome(lambda: structural.classify_weed(mask, r).ratio) for r in rings])
    assert_counts(counts, [outcome(lambda: spectral.fvc(mask, r)) for r in rings],
                  full_grid_counts(mask, rings))


@st.composite
def scenes(draw):
    n_rows, n_cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    # a narrow range makes the order of summation show in the last bits
    lo = draw(st.integers(-300, 299))
    exponents = (lo, min(lo + draw(st.sampled_from([0.3, 2, 40])), 300))
    rects = draw(st.lists(st.tuples(st.integers(-3, n_rows), st.integers(-3, n_cols),
                                    st.integers(1, n_rows), st.integers(1, n_cols)),
                          min_size=1, max_size=10))
    # repeated shapes make blocks of several plots, apart and side by side
    rects += rects[:draw(st.integers(0, len(rects)))]
    return dict(
        shape=(n_rows, n_cols), exponents=exponents, rects=rects,
        seed=draw(st.integers(0, 2**32 - 1)),
        nodata_frac=draw(st.sampled_from([0.0, 0.1, 0.5, 0.95])),
        zero_frac=draw(st.sampled_from([0.0, 0.3, 0.9])),
        restrict=draw(st.booleans()),
        percentile=draw(st.sampled_from([0.01, 0.5, 0.95, 1.0])),
    )


class TestGroupedReductions:
    @settings(max_examples=100, deadline=None)
    @given(scene=scenes())
    def test_every_plot_has_the_bytes_of_its_per_plot_value(self, scene):
        rng = np.random.default_rng(scene["seed"])
        n_rows, _ = scene["shape"]
        layer = make_grid(layer_values(rng, scene["shape"], scene["exponents"],
                                       scene["nodata_frac"], scene["zero_frac"]))
        mask = binary_mask(rng, layer)
        plots = [cells_plot(n_rows, *rect, plot_id=f"p{i}") for i, rect in enumerate(scene["rects"])]
        check_every_reduction(layer, mask, plots, mask if scene["restrict"] else None,
                              scene["percentile"])

    @pytest.mark.parametrize("restrict", [False, True])
    def test_counts_past_numpys_buffer_size(self, restrict):
        # one row of cells: plots of 8191 to 8836 cells, two of them in one
        # block by a gather, two side by side, between plots of a few cells
        rng = np.random.default_rng(11)
        layer = make_grid(layer_values(rng, (1, 20000), (0, 0.3), 0.01, 0.05))
        mask = binary_mask(rng, layer, nodata_frac=0.0)
        spans = [(0, 8193), (9000, 5), (100, 8193), (200, 8191), (300, 8192),
                 (9100, 8836), (9200, 8836), (19990, 3)]
        plots = [cells_plot(1, 0, c0, 1, w, f"p{i}") for i, (c0, w) in enumerate(spans)]
        check_every_reduction(layer, mask, plots, mask if restrict else None, 0.95)

    @pytest.mark.parametrize("percentile", [0.3, 0.5, 0.7])
    def test_signed_zeros_keep_the_sign_a_one_plot_sort_gives_them(self, percentile):
        # mostly ±0.0: the nearest-rank cell is a zero, and which zero comes
        # first depends on the sort; plots of one size are sorted as one block
        rng = np.random.default_rng(29)
        values = rng.choice([-0.0, 0.0, -1.0, 1.0], (1, 6000), p=[0.4, 0.4, 0.1, 0.1])
        layer, mask = make_grid(values), binary_mask(rng, make_grid(values))
        widths = [int(w) for w in rng.integers(1, 300, 12)] * 2
        starts = np.cumsum([0, *widths[:-1]]) + rng.integers(0, 5, len(widths))
        plots = [cells_plot(1, 0, int(c0), 1, w, f"p{i}")
                 for i, (c0, w) in enumerate(zip(starts, widths))]
        check_every_reduction(layer, mask, plots, None, percentile)

    def test_a_percentile_out_of_range_fails_after_each_plots_own_checks(self):
        layer = make_grid([[NODATA, 1.0, 2.0, 3.0]])
        plots = [cells_plot(1, 0, 0, 1, 1, "empty"), cells_plot(1, 0, 1, 1, 2, "full")]
        cells = geodata.stack_cells(layer, plots)
        for percentile in (0.0, 1.5):
            heights, _, (i, error) = structural.plot_canopy_heights(layer, cells, percentile)
            assert (i, str(error)) == (0, "plot empty: no defined canopy-height cells")
            assert np.isnan(heights).all()
            cells_from_one = geodata.stack_cells(layer, plots[1:])
            _, _, (i, error) = structural.plot_canopy_heights(layer, cells_from_one, percentile)
            assert (i, str(error)) == (0, f"percentile must be in (0, 1], got {percentile}")

    def test_an_overflow_is_a_failure_or_a_non_finite_volume_without_a_warning(self):
        # pyproject.toml turns a RuntimeWarning into a test error
        layer = make_grid([[1e308, 1e308, -1e308, -1e308, 1.0]])
        plots = [cells_plot(1, 0, 4, 1, 1, "ok"), cells_plot(1, 0, 0, 1, 2, "over"),
                 cells_plot(1, 0, 0, 1, 4, "both")]
        cells = geodata.stack_cells(layer, plots)
        means, _, (i, error) = spectral.plot_statistics(layer, cells, None, "X")
        assert (means[0], i, type(error), str(error)) == (
            1.0, 1, InvalidInput, "X for plot over is not finite")
        volumes, _, failure = structural.canopy_volumes(layer, cells)
        assert failure is None and volumes[0] == 0.0 and not np.isfinite(volumes[1:]).any()

    @pytest.mark.parametrize("reduce", [
        lambda cells, layer, other: spectral.plot_statistics(layer, cells, other, "X"),
        lambda cells, layer, other: spectral.plot_statistics(other, cells, None, "X"),
        lambda cells, layer, other: structural.plot_canopy_heights(other, cells),
        lambda cells, layer, other: structural.canopy_volumes(other, cells),
        lambda cells, layer, other: cells.ratios(other),
    ], ids=["plot_statistics_restrict_to", "plot_statistics", "plot_canopy_heights",
            "canopy_volumes", "ratios"])
    def test_a_grid_of_another_geometry_raises_as_a_read_does(self, reduce):
        # it is no region's failure: the one-plot form raises the same error
        layer = make_grid(np.ones((4, 4)))
        other = make_grid(np.ones((4, 4)), cell_size=0.5)
        plots = [cells_plot(4, 0, 0, 2, 2, "a"), cells_plot(4, 2, 2, 2, 2, "b")]
        with pytest.raises(GeometryMismatch) as one_plot:
            spectral.plot_statistic(layer, plots[0], other, "X")
        with pytest.raises(GeometryMismatch) as raised:
            reduce(geodata.stack_cells(layer, plots), layer, other)
        assert str(raised.value) == str(one_plot.value)
        with pytest.raises(GeometryMismatch, match="^cells of no region were selected on grid"):
            reduce(geodata.stack_cells(layer, []), layer, other)


class TestStackCells:
    def test_stack_holds_each_plots_cells_in_the_order_of_its_values(self):
        rng = np.random.default_rng(3)
        grid = make_grid(rng.random((9, 11)))
        plots = [cells_plot(9, 1, 1, 3, 3, "a"), cells_plot(9, -5, 2, 2, 2, "off"),
                 square_plot(2.2, 1.3, 8.7, 6.1, plot_id="b"), cells_plot(9, 4, 6, 3, 3, "c")]
        rings = [geodata.PlotWithRing(p, 0.2, 1.4) for p in plots]
        cx, cy = grid.cell_centers()
        for regions in (plots, rings):
            stack = geodata.stack_cells(grid, regions)
            assert stack.plot_ids == tuple(r.plot_id for r in regions)
            want = [grid.values[contains(region, cx, cy)] for region in regions]
            assert stack.sizes.tolist() == [values.size for values in want]
            assert 0 in stack.sizes
            assert stack.gather(grid).tobytes() == np.concatenate(want).tobytes()

    def test_reads_take_nodata_and_mask_cells_as_a_full_grid_selection_does(self):
        values = np.arange(16.0).reshape(4, 4)
        values[0, 0] = values[3, 3] = NODATA
        grid = make_grid(values)
        mask = grid.with_values(np.array([[1, 0, 1, 1], [NODATA, 1, 1, 0],
                                          [1, 1, 0, 1], [0, 1, 1, NODATA]], dtype=float))
        plots = [cells_plot(4, 0, 0, 2, 2, "a"), cells_plot(4, 2, 2, 2, 2, "b"),
                 cells_plot(4, 0, 0, 4, 4, "all")]
        stack = geodata.stack_cells(grid, plots)
        cx, cy = grid.cell_centers()
        members = [contains(p, cx, cy) for p in plots]
        for restrict in (None, mask):
            got, counts = stack.values(grid, restrict and geodata.binary_mask(restrict))
            usable = grid.values != NODATA
            if restrict is not None:
                usable &= restrict.values == 1.0
            one = [grid.values[member & usable] for member in members]
            assert got.tobytes() == np.concatenate(one).tobytes()
            assert counts.tolist() == [v.size for v in one]
        assert stack.ratios(geodata.binary_mask(mask))[0].tolist() == [
            int((mask.values[member] == 1.0).sum()) / int(member.sum()) for member in members]

    def test_a_stack_of_no_regions_reads_as_empty(self):
        grid = make_grid(np.arange(16.0).reshape(4, 4))
        mask = geodata.binary_mask(grid.with_values(np.ones((4, 4))))
        cells = geodata.stack_cells(grid, [])
        assert (cells.plot_ids, cells.flat.size, cells.sizes.size) == ((), 0, 0)
        assert cells.gather(grid).size == 0
        values, counts = cells.values(grid, restrict_to=mask)
        assert values.size == 0 and counts.size == 0
        assert cells.first_failure() is None
        for grouped in (cells.ratios(mask), spectral.plot_statistics(grid, cells, mask),
                        structural.plot_canopy_heights(grid, cells),
                        structural.canopy_volumes(grid, cells)):
            assert grouped[0].size == 0 and grouped[1].size == 0 and grouped[2] is None
        other = make_grid(np.zeros((4, 4)), cell_size=0.5)
        for read in (cells.gather, cells.values, cells.ratios):
            with pytest.raises(GeometryMismatch, match="^cells of no region were selected on grid"):
                read(other)
