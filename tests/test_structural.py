import math

import numpy as np
import pytest

from breedkit import geodata, structural
from breedkit.errors import EmptyPlot, GeometryMismatch, InvalidInput, InvalidMask, ParseError

from test_geodata import make_grid, square_plot


class TestCanopyHeightModel:
    def test_plain_difference(self):
        dsm = make_grid(np.array([[10.0]]))
        dem = make_grid(np.array([[8.0]]))
        chm = structural.canopy_height_model(dsm, dem)
        assert chm.values[0, 0] == 2.0

    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(1)
        dsm = make_grid(rng.uniform(5, 9, (6, 6)))
        chm = structural.canopy_height_model(dsm, dsm)
        assert np.array_equal(chm.values, np.zeros((6, 6)))

    def test_noise_floor_clamps_small_negatives(self):
        dsm = make_grid(np.array([[7.98]]))
        dem = make_grid(np.array([[8.0]]))
        chm = structural.canopy_height_model(dsm, dem, noise_floor=0.05)
        assert chm.values[0, 0] == 0.0

    def test_large_negatives_become_nodata(self):
        dsm = make_grid(np.array([[7.0]]))
        dem = make_grid(np.array([[8.0]]))
        chm = structural.canopy_height_model(dsm, dem, noise_floor=0.05)
        assert chm.values[0, 0] == chm.nodata

    def test_nodata_propagates(self):
        dsm = make_grid(np.array([[-9999.0, 10.0]]))
        dem = make_grid(np.array([[8.0, -9999.0]]))
        chm = structural.canopy_height_model(dsm, dem)
        assert (chm.values == chm.nodata).all()

    def test_misaligned_inputs_rejected(self):
        dsm = make_grid(np.zeros((2, 2)))
        dem = make_grid(np.zeros((2, 2)), cell_size=0.5)
        with pytest.raises(GeometryMismatch):
            structural.canopy_height_model(dsm, dem)


class TestPlotCanopyHeight:
    def test_nearest_rank_median(self):
        chm = make_grid(np.array([[1.0, 2.0, 3.0, 4.0]]))
        plot = square_plot(0.0, 0.0, 4.0, 1.0)
        stat = structural.plot_canopy_height(chm, plot, percentile=0.5)
        assert stat.value == 2.0

    def test_constant_surface_any_percentile(self):
        chm = make_grid(np.full((3, 3), 1.7))
        plot = square_plot(0.0, 0.0, 3.0, 3.0)
        for p in (0.05, 0.5, 0.95, 1.0):
            assert structural.plot_canopy_height(chm, plot, percentile=p).value == 1.7

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 2, (8, 8))
        chm = make_grid(values)
        plot = square_plot(1.0, 1.0, 7.0, 7.0)
        member = values[1:7, 1:7].ravel()
        for p in (0.1, 0.5, 0.9, 0.95):
            expected = sorted(member)[max(1, math.ceil(p * member.size)) - 1]
            assert structural.plot_canopy_height(chm, plot, percentile=p).value == expected

    def test_empty_plot(self):
        chm = make_grid(np.full((2, 2), -9999.0))
        with pytest.raises(EmptyPlot):
            structural.plot_canopy_height(chm, square_plot(0.0, 0.0, 2.0, 2.0))

    def test_bad_percentile(self):
        with pytest.raises(InvalidInput):
            structural.nearest_rank_percentiles(np.array([1.0]), [1], 0.0)


class TestCanopyVolume:
    def test_uniform_surface_zero_volume(self):
        grid = make_grid(np.full((4, 4), 3.0))
        result = structural.canopy_volume(grid, square_plot(0.0, 0.0, 4.0, 4.0))
        assert result.volume_lowest_plane == 0.0
        assert result.volume_mean_plane == 0.0
        assert result.volume == 0.0

    def test_two_cell_hand_case(self):
        grid = make_grid(np.array([[0.0, 2.0]]))
        result = structural.canopy_volume(grid, square_plot(0.0, 0.0, 2.0, 1.0))
        assert result.volume_lowest_plane == pytest.approx(2.0, abs=1e-12)
        assert result.volume_mean_plane == pytest.approx(2.0, abs=1e-12)
        assert result.volume == pytest.approx(2.0, abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1.5, (10, 10))
        grid = make_grid(values, cell_size=0.5)
        plot = square_plot(0.5, 0.5, 4.5, 4.5)
        result = structural.canopy_volume(grid, plot)
        z = values[1:9, 1:9].ravel()
        area = 0.25
        v_low = sum(abs(v - z.min()) for v in z) * area
        v_mean = sum(abs(v - np.mean(z)) for v in z) * area
        assert result.volume_lowest_plane == pytest.approx(v_low, rel=1e-9)
        assert result.volume_mean_plane == pytest.approx(v_mean, rel=1e-9)
        assert result.volume == (result.volume_lowest_plane + result.volume_mean_plane) / 2

    def test_translation_invariant_in_z(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = rng.uniform(0, 3, (6, 6))
            shift = rng.uniform(-200, 200)
            plot = square_plot(0.0, 0.0, 6.0, 6.0)
            a = structural.canopy_volume(make_grid(values), plot)
            b = structural.canopy_volume(make_grid(values + shift), plot)
            assert b.volume == pytest.approx(a.volume, rel=1e-9, abs=1e-12)

    def test_scales_with_cell_area_and_vertical_scale(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(0, 2, (5, 5))
        plot_a = square_plot(0.0, 0.0, 5.0, 5.0)
        a = structural.canopy_volume(make_grid(values, cell_size=1.0), plot_a)
        plot_b = square_plot(0.0, 0.0, 10.0, 10.0)
        b = structural.canopy_volume(make_grid(values, cell_size=2.0), plot_b)
        assert b.volume == pytest.approx(4.0 * a.volume, rel=1e-12)
        c = structural.canopy_volume(make_grid(values * 3.0), plot_a)
        assert c.volume == pytest.approx(3.0 * a.volume, rel=1e-9)


class TestLodging:
    def test_label_boundaries(self):
        eps = 1e-9
        assert structural.lodging_level(0.0) == "no_lodging"
        assert structural.lodging_level(eps) == "slight"
        assert structural.lodging_level(0.5 - eps) == "slight"
        assert structural.lodging_level(0.5) == "slight"
        assert structural.lodging_level(0.5 + eps) == "severe"
        assert structural.lodging_level(1.0) == "severe"

    def test_special_overrides(self):
        assert structural.lodging_level(0.0, special=True) == "special"
        assert structural.lodging_level(0.9, special=True) == "special"

    def test_classify_counts_pixels(self):
        mask = make_grid(np.array([[1.0, 1.0], [0.0, 0.0]]))
        plot = square_plot(0.0, 0.0, 2.0, 2.0)
        level = structural.classify_lodging(mask, plot)
        assert level.ratio == 0.5
        assert level.level == "slight"
        assert level.kind == "PL"

    def test_classify_special_flag(self):
        mask = make_grid(np.zeros((2, 2)))
        plot = square_plot(0.0, 0.0, 2.0, 2.0)
        assert structural.classify_lodging(mask, plot, special=True).level == "special"

    def test_level_is_derived_from_kind_ratio_and_special(self):
        assert structural.CategoricalLevel("PL", 0.25).level == "slight"
        assert structural.CategoricalLevel("PL", 0.0, special=True).level == "special"
        assert structural.CategoricalLevel("WL", 0.25).level == "slight"
        assert structural.CategoricalLevel("WL", 0.8).level == "severe"

    @pytest.mark.parametrize("kind,ratio,special,message", [
        ("XX", 0.5, False, "kind must be PL or WL"),
        ("PL", 1.5, False, "ratio must be in"),
        ("WL", -0.1, False, "ratio must be in"),
        ("PL", float("nan"), True, "ratio must be in"),
        ("WL", 0.5, True, "only a PL level can be special"),
    ])
    def test_invalid_level_rejected(self, kind, ratio, special, message):
        with pytest.raises(InvalidInput, match=message):
            structural.CategoricalLevel(kind, ratio, special=special)

    def test_non_binary_mask_rejected(self):
        mask = make_grid(np.array([[2.0]]))
        with pytest.raises(InvalidMask):
            structural.classify_lodging(mask, square_plot(0.0, 0.0, 1.0, 1.0))

    def test_mask_checked_over_the_whole_grid(self):
        values = np.zeros((8, 8))
        values[0, 7] = 0.5  # far from the plot
        with pytest.raises(InvalidMask, match="^mask holds non-binary value 0.5$"):
            structural.classify_lodging(make_grid(values), square_plot(0.0, 0.0, 2.0, 2.0))


class TestWeed:
    def test_label_boundaries(self):
        eps = 1e-9
        assert structural.weed_level(0.0) == "no_weeds"
        assert structural.weed_level(0.10) == "no_weeds"
        assert structural.weed_level(0.10 + eps) == "slight"
        assert structural.weed_level(0.40) == "slight"
        assert structural.weed_level(0.40 + eps) == "moderate"
        assert structural.weed_level(0.70) == "moderate"
        assert structural.weed_level(0.70 + eps) == "severe"
        assert structural.weed_level(1.0) == "severe"

    def test_classify_uses_plot_and_ring(self):
        # 6x6 grid, cell 0.5: plot [1,2]x[1,2] holds 4 centers; ring (0,0.5]
        # adds the 12 surrounding centers at boundary distance 0.25
        values = np.zeros((6, 6))
        values[2:4, 2:4] = 1.0  # all 4 plot cells weedy
        mask = make_grid(values, cell_size=0.5)
        plot = square_plot(1.0, 1.0, 2.0, 2.0)
        level = structural.classify_weed(mask, geodata.PlotWithRing(plot, 0.0, 0.5))
        assert level.ratio == pytest.approx(4 / 16)
        assert level.level == "slight"

    def test_ratio_one_is_severe(self):
        mask = make_grid(np.ones((6, 6)), cell_size=0.5)
        plot = square_plot(1.0, 1.0, 2.0, 2.0)
        level = structural.classify_weed(mask, geodata.PlotWithRing(plot, 0.0, 0.5))
        assert level.ratio == 1.0
        assert level.level == "severe"

    def test_mask_checked_over_the_whole_grid(self):
        values = np.zeros((12, 12))
        values[0, 11] = 2.0  # far from the plot and its ring
        region = geodata.PlotWithRing(square_plot(1.0, 1.0, 2.0, 2.0), 0.0, 0.5)
        with pytest.raises(InvalidMask, match="^mask holds non-binary value 2.0$"):
            structural.classify_weed(make_grid(values, cell_size=0.5), region)


class TestWheatHeadDensity:
    def test_constructed_unit_footprint(self):
        fov = math.degrees(2 * math.atan(1 / 6))
        result = structural.wheat_head_density([50], altitude=3.0, fov_h=fov, fov_v=fov)
        assert result.ground_area == pytest.approx(1.0, rel=1e-12)
        assert result.density == pytest.approx(50.0, rel=1e-12)

    def test_counts_average(self):
        fov = math.degrees(2 * math.atan(1 / 6))
        result = structural.wheat_head_density([40, 60], altitude=3.0, fov_h=fov, fov_v=fov)
        assert result.heads_per_image == 50.0
        assert result.density == pytest.approx(50.0, rel=1e-12)

    def test_zero_altitude_rejected(self):
        with pytest.raises(InvalidInput):
            structural.wheat_head_density([10], altitude=0.0, fov_h=60.0, fov_v=45.0)

    def test_degenerate_fov_rejected(self):
        with pytest.raises(InvalidInput):
            structural.wheat_head_density([10], altitude=3.0, fov_h=180.0, fov_v=45.0)
        with pytest.raises(InvalidInput):
            structural.wheat_head_density([10], altitude=3.0, fov_h=60.0, fov_v=0.0)

    def test_empty_counts_rejected(self):
        with pytest.raises(InvalidInput):
            structural.wheat_head_density([], altitude=3.0, fov_h=60.0, fov_v=45.0)


class TestHeadCountCsv:
    def test_loads_counts(self, tmp_path):
        path = tmp_path / "heads.csv"
        path.write_text("plot_id,image_id,count\np1,i1,40\np1,i2,60\np2,i1,10\n")
        counts = structural.load_head_counts(path)
        assert counts == {"p1": [40, 60], "p2": [10]}

    @pytest.mark.parametrize("rows, message", [
        ("p1,i1,40\np1,i1,40\n", "^line 3: plot p1: duplicate image_id i1$"),
        ("p1,i1,40\n p1 ,i1 ,41\n", "^line 3: plot p1: duplicate image_id i1$"),
        ("p1,i1,40\n,i2,3\n", "^line 3: empty plot_id$"),
    ])
    def test_rejects_repeated_or_unnamed_rows(self, rows, message, tmp_path):
        path = tmp_path / "heads.csv"
        path.write_text("plot_id,image_id,count\n" + rows)
        with pytest.raises(ParseError, match=message):
            structural.load_head_counts(path)

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "heads.csv"
        path.write_text("plot_id,image_id,count\np1,i1,4.5\n")
        with pytest.raises(ParseError):
            structural.load_head_counts(path)
