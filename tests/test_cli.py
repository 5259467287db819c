import contextlib
import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedkit import bench, cli, fusion, geodata, kb, prefopt, spectral, structural
from breedkit.errors import BreedkitError

from conftest import (
    bench_config,
    extract_config,
    fuse_config,
    kb_config,
    prefopt_config,
    scene_path,
    write_config,
)


def run_cli(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1])
    return rc, summary


def run_subprocess(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "breedkit.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


class TestExtract:
    def test_matches_golden_file(self, scene, tmp_path, capsys):
        cfg = write_config(extract_config(tmp_path / "out"), tmp_path / "cfg.json")
        rc, summary = run_cli(["extract", "--config", cfg], capsys)
        assert rc == 0
        assert summary["status"] == "ok"
        got = open(summary["outputs"]["features"], "rb").read()
        want = open(scene_path("golden/features.csv"), "rb").read()
        assert got == want

    def test_missing_raster_path_exits_2_naming_field(self, tmp_path, capsys):
        config = extract_config(tmp_path / "out")
        config["extract"]["ms_bands"]["red"] = str(tmp_path / "missing.asc")
        cfg = write_config(config, tmp_path / "cfg.json")
        rc, summary = run_cli(["extract", "--config", cfg], capsys)
        assert rc == 2
        assert summary["status"] == "config_error"
        assert summary["field"] == "extract.ms_bands.red"

    def test_absent_required_field_exits_2(self, tmp_path, capsys):
        config = extract_config(tmp_path / "out")
        del config["extract"]["plots"]
        cfg = write_config(config, tmp_path / "cfg.json")
        rc, summary = run_cli(["extract", "--config", cfg], capsys)
        assert rc == 2
        assert summary["field"] == "extract.plots"

    def test_set_override_wins_over_file(self, tmp_path, capsys):
        config = extract_config(tmp_path / "a")
        cfg = write_config(config, tmp_path / "cfg.json")
        override_dir = tmp_path / "b"
        rc, summary = run_cli(
            ["extract", "--config", cfg, "--set", f"output_dir={override_dir}"],
            capsys,
        )
        assert rc == 0
        assert str(override_dir) in summary["outputs"]["features"]

    def test_inputs_never_mutated(self, scene, tmp_path, capsys):
        import hashlib

        def digest():
            h = hashlib.sha256()
            for name in sorted(os.listdir(scene)):
                path = os.path.join(scene, name)
                if os.path.isfile(path):
                    h.update(open(path, "rb").read())
            return h.hexdigest()

        before = digest()
        cfg = write_config(extract_config(tmp_path / "out"), tmp_path / "cfg.json")
        rc, _ = run_cli(["extract", "--config", cfg], capsys)
        assert rc == 0
        assert digest() == before
        # outputs land only under the configured output directory
        assert set(os.listdir(tmp_path)) == {"out", "cfg.json"}

    def test_vegetation_restriction_changes_vi_means(self, scene, tmp_path, capsys):
        cfg = write_config(extract_config(tmp_path / "out"), tmp_path / "cfg.json")
        rc, summary = run_cli(
            ["extract", "--config", cfg,
             "--set", "extract.params.vi_restrict_to_vegetation=true"],
            capsys,
        )
        assert rc == 0
        got = open(summary["outputs"]["features"], "rb").read()
        golden = open(scene_path("golden/features.csv"), "rb").read()
        assert got != golden  # restricting to vegetation pixels shifts the means


def restrict_p2_to_no_vegetation(config, tmp_path):
    """Restrict the indices to vegetation, with none in p2's cells: p2 has no usable cells."""
    mask = geodata.load_raster(scene_path("vegetation_mask.asc"))
    (p2,) = [p for p in geodata.load_plots(scene_path("plots.csv")) if p.plot_id == "p2"]
    values = mask.values.copy()
    values.flat[geodata.stack_cells(mask, [p2]).flat] = 0.0
    geodata.write_raster(mask.with_values(values), tmp_path / "vegetation_mask.asc")
    config["extract"]["vegetation_mask"] = str(tmp_path / "vegetation_mask.asc")
    config["extract"]["params"] = {"vi_restrict_to_vegetation": True}


def edit_extract_inputs(config, edits, tmp_path):
    """Break the scene's extract inputs as each of ``edits`` names."""
    if "p1 has no head counts" in edits:
        rows = open(scene_path("head_counts.csv")).read().splitlines()
        (tmp_path / "head_counts.csv").write_text(
            "\n".join(r for r in rows if not r.startswith("p1,")) + "\n")
        config["extract"]["head_counts"] = str(tmp_path / "head_counts.csv")
    if "p2 off the grid" in edits:
        rows = [r.split(",") for r in open(scene_path("plots.csv")).read().splitlines()]
        for r in rows:
            if r[0] == "p2":
                r[3] = repr(float(r[3]) + 40.0)
        (tmp_path / "plots.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        config["extract"]["plots"] = str(tmp_path / "plots.csv")
    if "ring widths reversed" in edits:
        config["extract"]["params"] = {"ring_inner_m": 0.3, "ring_outer_m": 0.2}
    if "p2 has no vegetation" in edits:
        restrict_p2_to_no_vegetation(config, tmp_path)
    if "vegetation mask moved" in edits:
        mask = geodata.load_raster(scene_path("vegetation_mask.asc"))
        moved = geodata.RasterGrid(mask.values, cell_size=mask.cell_size,
                                   origin_x=mask.origin_x + 0.01, origin_y=mask.origin_y)
        geodata.write_raster(moved, tmp_path / "vegetation_mask.asc")
        config["extract"]["vegetation_mask"] = str(tmp_path / "vegetation_mask.asc")
        config["extract"].setdefault("params", {})["vi_restrict_to_vegetation"] = True
    if "kndvi_sigma is 0" in edits:
        config["extract"].setdefault("params", {})["kndvi_sigma"] = 0.0
    if "no 680 nm band" in edits:
        config["extract"]["hs_bands"] = [band for band in config["extract"]["hs_bands"]
                                         if band["wavelength_nm"] != 680]
    if "non-binary lodging mask" in edits:
        lines = open(scene_path("lodging_mask.asc")).read().splitlines()
        lines[6] = "0.5" + lines[6][3:]  # the first cell of the top row is 0.0
        (tmp_path / "lodging_mask.asc").write_text("\n".join(lines) + "\n")
        config["extract"]["lodging_mask"] = str(tmp_path / "lodging_mask.asc")
    if "non-numeric weed mask cell" in edits:
        lines = open(scene_path("weed_mask.asc")).read().splitlines()
        lines[6] = "abc" + lines[6][3:]  # the first cell of the top row
        (tmp_path / "weed_mask.asc").write_text("\n".join(lines) + "\n")
        config["extract"]["weed_mask"] = str(tmp_path / "weed_mask.asc")
    if "non-numeric DSM line" in edits:
        lines = open(scene_path("canopy_cloud.xyz")).read().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " abc"
        (tmp_path / "canopy_cloud.xyz").write_text("\n".join(lines) + "\n")
        config["extract"]["dsm"]["point_cloud"] = str(tmp_path / "canopy_cloud.xyz")
    if "missing DEM file" in edits:
        config["extract"]["dem"]["point_cloud"] = str(tmp_path / "missing.xyz")
    if "duplicate head-count row" in edits:
        rows = open(scene_path("head_counts.csv")).read().splitlines()
        (tmp_path / "head_counts.csv").write_text("\n".join(rows + ["p1,img0,52"]) + "\n")
        config["extract"]["head_counts"] = str(tmp_path / "head_counts.csv")
    if "duplicate measurement row" in edits:
        rows = open(scene_path("measurements.csv")).read().splitlines()
        (tmp_path / "measurements.csv").write_text("\n".join(rows + ["p1,,9.9,,,,"]) + "\n")
        config["extract"]["measurements"] = str(tmp_path / "measurements.csv")


class TestExtractErrorContract:
    def run_extract(self, config, tmp_path, capsys):
        cfg = write_config(config, tmp_path / "cfg.json")
        rc = cli.main(["extract", "--config", cfg])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        return rc, json.loads(lines[0])

    def test_non_binary_mask_cell_outside_every_plot(self, tmp_path, capsys):
        lines = open(scene_path("weed_mask.asc")).read().splitlines()
        header = 6  # top data row is y ~ 4.9 m, far above every plot and its ring
        row = lines[header].split()
        row[0] = "0.5"
        lines[header] = " ".join(row)
        mask = tmp_path / "weed_mask.asc"
        mask.write_text("\n".join(lines) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["weed_mask"] = str(mask)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 1
        assert summary["error"] == "InvalidMask"
        assert "0.5" in summary["message"]

    @pytest.mark.parametrize("edits, error, message", [
        (("p1 has no head counts", "p2 off the grid"), "BreedkitError",
         "no head counts for plot p1"),
        (("p2 off the grid",), "EmptyPlot", "region p2 selects no cells of the grid"),
        (("p2 off the grid", "ring widths reversed"), "InvalidInput",
         "ring widths must satisfy 0 <= inner < outer, got (0.3, 0.2)"),
        (("p2 has no vegetation",), "EmptyPlot", "plot p2: no usable cells for NDVI_MS"),
        # p1 fails after its index columns, p2 at its first index column
        (("p1 has no head counts", "p2 has no vegetation"), "BreedkitError",
         "no head counts for plot p1"),
        # a layer that cannot be built, or a non-binary mask, fails before any plot
        (("p2 has no vegetation", "kndvi_sigma is 0"), "InvalidInput", "kndvi_sigma must be > 0"),
        (("p2 has no vegetation", "no 680 nm band"), "MissingBand", "missing band: 680.0"),
        (("p2 has no vegetation", "non-binary lodging mask"), "InvalidMask",
         "mask holds non-binary value 0.5"),
    ])
    def test_plot_errors_keep_their_order(self, edits, error, message, tmp_path, capsys):
        # every plot is selected before the first plot's features; the errors
        # must still come plot by plot, as each plot's features are computed
        config = extract_config(tmp_path / "out")
        edit_extract_inputs(config, edits, tmp_path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert (rc, summary) == (1, {"status": "error", "error": error, "message": message})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("index_error", [
        "kndvi_sigma is 0", "no 680 nm band", "p2 has no vegetation",
    ])
    @pytest.mark.parametrize("input_error, rc, summary", [
        ("non-numeric weed mask cell", 1, {"status": "error", "error": "ParseError",
                                           "message": "line 7: non-numeric cell: 'abc'"}),
        ("non-numeric DSM line", 1, {"status": "error", "error": "ParseError",
                                     "message": "line 3: non-numeric coordinate: 'abc'"}),
        ("missing DEM file", 2, {"status": "config_error", "field": "extract.dem.point_cloud",
                                 "message": "file not found: {tmp_path}/missing.xyz"}),
        ("duplicate head-count row", 1, {"status": "error", "error": "ParseError",
                                         "message": "line 8: plot p1: duplicate image_id img0"}),
        ("duplicate measurement row", 1, {"status": "error", "error": "ParseError",
                                          "message": "line 5: plot p1: duplicate measurement row"}),
    ], ids=["weed_mask", "dsm", "dem", "head_counts", "measurements"])
    def test_input_errors_come_before_index_errors(self, input_error, rc, summary, index_error,
                                                   tmp_path, capsys):
        # the index columns are read before two of the masks, the clouds and
        # the tables load; an index error must still lose to every input error
        config = extract_config(tmp_path / "out")
        edit_extract_inputs(config, (input_error, index_error), tmp_path)
        summary = dict(summary, message=summary["message"].format(tmp_path=tmp_path))
        assert self.run_extract(config, tmp_path, capsys) == (rc, summary)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column", [
        "SPAD", "LAI", "measured_CH", "raw_mass_kg", "plot_area_ha", "moisture",
    ])
    def test_non_numeric_measurement_is_a_parse_error(self, column, tmp_path, capsys):
        rows = open(scene_path("measurements.csv")).read().splitlines()
        header = rows[0].split(",")
        cells = rows[2].split(",")
        cells[header.index(column)] = "n/a"
        rows[2] = ",".join(cells)
        path = tmp_path / "measurements.csv"
        path.write_text("\n".join(rows) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["measurements"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 1
        assert summary["error"] == "ParseError"
        assert summary["message"].startswith("line 3:")
        assert column in summary["message"]

    @pytest.mark.parametrize("column", ["plot_area_ha", "moisture"])
    def test_yield_columns_required_with_raw_mass(self, column, tmp_path, capsys):
        rows = [line.split(",") for line in open(scene_path("measurements.csv")).read().splitlines()]
        drop = rows[0].index(column)
        path = tmp_path / "measurements.csv"
        path.write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows))
        config = extract_config(tmp_path / "out")
        config["extract"]["measurements"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 1
        assert summary["error"] == "ParseError"
        assert summary["message"] == f"line 2: missing {column}"

    def test_duplicate_measurement_row_is_a_parse_error(self, tmp_path, capsys):
        rows = open(scene_path("measurements.csv")).read().splitlines()
        path = tmp_path / "measurements.csv"
        path.write_text("\n".join(rows + ["p1,,9.9,,,,"]) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["measurements"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "ParseError",
                                     "message": f"line {len(rows) + 1}: plot p1: duplicate measurement row"})
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("p1,img0,52", "plot p1: duplicate image_id img0"),
        (" ,img9,3", "empty plot_id"),
    ])
    def test_bad_head_count_row_is_a_parse_error(self, row, message, tmp_path, capsys):
        rows = open(scene_path("head_counts.csv")).read().splitlines()
        path = tmp_path / "head_counts.csv"
        path.write_text("\n".join(rows + [row]) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["head_counts"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "ParseError",
                                     "message": f"line {len(rows) + 1}: {message}"})
        assert not (tmp_path / "out" / "features.csv").exists()

    def test_measurements_without_plot_id_is_a_parse_error(self, tmp_path, capsys):
        rows = open(scene_path("measurements.csv")).read().splitlines()
        path = tmp_path / "measurements.csv"
        path.write_text("\n".join([rows[0].replace("plot_id", "plot")] + rows[1:]) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["measurements"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 1
        assert summary["error"] == "ParseError"
        assert summary["message"].startswith(f"line 1: {path}: need columns ['plot_id']")

    def test_cell_over_the_csv_field_limit_is_a_parse_error(self, tmp_path, capsys):
        rows = open(scene_path("head_counts.csv")).read().splitlines()
        cells = rows[2].split(",")
        cells[rows[0].split(",").index("image_id")] = "x" * 140_000
        rows[2] = ",".join(cells)
        path = tmp_path / "head_counts.csv"
        path.write_text("\n".join(rows) + "\n")
        config = extract_config(tmp_path / "out")
        config["extract"]["head_counts"] = str(path)
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 1
        assert summary["error"] == "ParseError"
        assert summary["message"].startswith(f"line 3: {path}: field larger than field limit")

    def test_non_numeric_wavelength_names_its_field(self, tmp_path, capsys):
        config = extract_config(tmp_path / "out")
        config["extract"]["hs_bands"][2]["wavelength_nm"] = "650nm"
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 2
        assert summary["status"] == "config_error"
        assert summary["field"] == "extract.hs_bands[2].wavelength_nm"


def write_field(root, n, points_per_cell, seed=0):
    """An extract config over a generated n x n field of 1 m cells; returns it and its raster count.

    Each cloud has ``points_per_cell`` points in every cell, and one square plot
    sits inside each tile of a 4 x 4 split of the field.
    """
    rng = np.random.default_rng(seed)

    def raster(name, values):
        path = str(root / f"{name}.asc")
        geodata.write_raster(geodata.RasterGrid(values, cell_size=1.0, origin_x=0.0, origin_y=0.0),
                             path)
        return path

    extract = {
        "ms_bands": {name: raster(f"ms_{name}", rng.uniform(0.05, 0.6, (n, n)))
                     for name in geodata.MS_BAND_CENTERS_NM},
        "hs_bands": [{"path": raster(f"hs_{nm}", rng.uniform(0.05, 0.6, (n, n))),
                      "wavelength_nm": nm} for nm in (500, 560, 650, 680, 750, 840)],
        **{f"{kind}_mask": raster(kind, (rng.random((n, n)) < 0.5).astype(float))
           for kind in ("vegetation", "lodging", "weed")},
    }
    n_rasters = len(extract["ms_bands"]) + len(extract["hs_bands"]) + 3
    cell = np.repeat(np.arange(n * n), points_per_cell)
    x = cell % n + rng.uniform(0.2, 0.8, cell.size)
    y = cell // n + rng.uniform(0.2, 0.8, cell.size)
    for surface, name, aggregator, z in (("dsm", "canopy", "max", 1.0 + rng.random(cell.size)),
                                         ("dem", "ground", "min", 0.1 * rng.random(cell.size))):
        path = str(root / f"{name}.xyz")
        geodata.write_point_cloud(geodata.PointCloud(np.column_stack([x, y, z])), path)
        extract[surface] = {"point_cloud": path, "cell_size": 1.0, "aggregator": aggregator}
    side = n // 4
    plot_rows, head_rows = ["plot_id,germplasm_id,vertex_index,x,y"], ["plot_id,image_id,count"]
    for k in range(16):
        x0, y0 = (k % 4) * side + 2, (k // 4) * side + 2
        x1, y1 = x0 + side - 4, y0 + side - 4
        plot_rows += [f"q{k},g{k},{v},{vx},{vy}"
                      for v, (vx, vy) in enumerate(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))]
        head_rows.append(f"q{k},img0,50")
    for name, rows in (("plots", plot_rows), ("head_counts", head_rows)):
        (root / f"{name}.csv").write_text("\n".join(rows) + "\n")
        extract[name] = str(root / f"{name}.csv")
    extract.update(date="2024-05-20",
                   flight={"altitude_m": 3.0, "fov_h_deg": 62.2, "fov_v_deg": 48.8})
    return {"output_dir": str(root / "out"), "extract": extract}, n_rasters


def per_plot_extract(cfg: dict, out_dir: str) -> dict:
    """extract with its per-plot loop: each feature of each plot by its public per-plot function.

    The oracle of the grouped reductions: plots are read one at a time, in
    order, each plot's features in the order the CLI computes them, so each
    error is the one a plot-by-plot run meets first.
    """
    for surface in ("dsm", "dem"):
        if cfg[surface]["raster"] is None:
            if cfg[surface]["point_cloud"] is None:
                raise cli.ConfigError(f"extract.{surface}", "need either 'raster' or 'point_cloud'")
            cli._require(cfg[surface], f"extract.{surface}", "cell_size")
    hs_names = [f"b{band['wavelength_nm']:g}" for band in cfg["hs_bands"]]
    for i, name in enumerate(hs_names):
        if name in hs_names[:i]:
            raise cli.ConfigError(f"extract.hs_bands[{i}].wavelength_nm",
                                  f"band name {name} is taken by hs_bands[{hs_names.index(name)}]")
    params, flight = cfg["params"], cfg["flight"]
    plots = geodata.load_plots(cfg["plots"])
    ms = geodata.BandSet(bands={name: (geodata.load_raster(cfg["ms_bands"][name]), nm)
                                for name, nm in geodata.MS_BAND_CENTERS_NM.items()},
                         sensor_kind="MS")
    hs = cli._bands_an_index_reads(geodata.BandSet(
        bands={name: (geodata.load_raster(band["path"]), band["wavelength_nm"])
               for name, band in zip(hs_names, cfg["hs_bands"])},
        sensor_kind="HS"))
    veg_mask = geodata.load_raster(cfg["vegetation_mask"])
    restrict = veg_mask if params["vi_restrict_to_vegetation"] else None

    index_values = [{} for _ in plots]
    first_failed, error, layer_error = len(plots), None, None
    try:
        for index_name in spectral.VI_NAMES:
            for sensor, bands in (("MS", ms), ("HS", hs)):
                column = f"{index_name}_{sensor}"
                if column == "PSRI_HS":
                    layer = spectral.psri_hs(hs)
                else:
                    layer = spectral.vi_map(bands, index_name, L=params["savi_l"],
                                            kndvi_sigma=params["kndvi_sigma"])
                for i in range(first_failed):
                    try:
                        index_values[i][column] = spectral.plot_statistic(
                            layer, plots[i], restrict_to=restrict,
                            feature_name=column).value
                    except BreedkitError as exc:
                        first_failed, error = i, exc
                        break
    except BreedkitError as exc:
        layer_error = exc
    lodging_mask = geodata.load_raster(cfg["lodging_mask"])
    weed_mask = geodata.load_raster(cfg["weed_mask"])
    chm = structural.canopy_height_model(
        cli._load_elevation(cfg["dsm"]), cli._load_elevation(cfg["dem"]),
        noise_floor=params["noise_floor_m"])
    head_counts = structural.load_head_counts(cfg["head_counts"])
    measurements = cli._load_measurements(cfg["measurements"]) if cfg["measurements"] else {}
    if layer_error is not None:
        raise layer_error
    for mask in (veg_mask, lodging_mask, weed_mask):
        geodata.require_binary_mask(mask)

    records, rings = [], None
    for i, plot in enumerate(plots):
        if i == first_failed:
            raise error
        features = index_values[i]
        features["CH"] = structural.plot_canopy_height(
            chm, plot, percentile=params["ch_percentile"]).value
        features["CV"] = structural.canopy_volume(chm, plot).volume
        features["FVC"] = spectral.fvc(veg_mask, plot).value
        features["PL_ratio"] = structural.classify_lodging(lodging_mask, plot).ratio
        if rings is None:
            rings = [geodata.PlotWithRing(p, params["ring_inner_m"], params["ring_outer_m"])
                     for p in plots]
        features["WL_ratio"] = structural.classify_weed(weed_mask, rings[i]).ratio
        if plot.plot_id not in head_counts:
            raise BreedkitError(f"no head counts for plot {plot.plot_id}")
        features["WH_density"] = structural.wheat_head_density(
            head_counts[plot.plot_id], flight["altitude_m"], flight["fov_h_deg"], flight["fov_v_deg"]
        ).density
        extra = measurements.get(plot.plot_id, {})
        features.update((key, extra[key]) for key in fusion.PHENOTYPING_FEATURES if key in extra)
        records.append(fusion.PlotFeatureRecord(
            plot_id=plot.plot_id, germplasm_id=plot.germplasm_id, date=cfg["date"],
            site=cfg["site"], features=features, yield_kg_ha=extra.get("yield_kg_ha")))
    features_path = os.path.join(out_dir, "features.csv")
    fusion.write_feature_records(records, features_path)
    return {"features": features_path, "n_plots": len(records)}


def vary_field(root, seed):
    """A write_field config with plots of 2 to 7 x 2 to 7 cells and random nodata cells.

    About 5 % of each raster's cells hold nodata, and about 5 % of the
    cells have no canopy point, so the CHM is nodata there too.
    """
    config, _ = write_field(root, 40, 1, seed=seed)
    rng = np.random.default_rng(seed)
    extract = config["extract"]
    for path in [*extract["ms_bands"].values(), *(b["path"] for b in extract["hs_bands"]),
                 extract["vegetation_mask"], extract["lodging_mask"], extract["weed_mask"]]:
        grid = geodata.load_raster(path)
        values = grid.values.copy()
        values[rng.random(values.shape) < 0.05] = grid.nodata
        geodata.write_raster(grid.with_values(values), path)
    lines = open(extract["dsm"]["point_cloud"]).read().splitlines()  # one point per cell
    kept = [line for line in lines if rng.random() >= 0.05]
    open(extract["dsm"]["point_cloud"], "w").write("\n".join(kept) + "\n")
    rows = ["plot_id,germplasm_id,vertex_index,x,y"]
    for k in range(16):
        x0, y0 = (k % 4) * 10 + int(rng.integers(0, 3)), (k // 4) * 10 + int(rng.integers(0, 3))
        x1, y1 = x0 + int(rng.integers(2, 8)), y0 + int(rng.integers(2, 8))
        rows += [f"q{k},g{k},{v},{x},{y}"
                 for v, (x, y) in enumerate(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))]
    open(extract["plots"], "w").write("\n".join(rows) + "\n")
    return config


class TestExtractAgainstPerPlotLoop:
    @staticmethod
    def outcome(config, tmp_path, capsys):
        """(exit code, summary line, features.csv bytes or None) of one extract run."""
        rc = cli.main(["extract", "--config", write_config(config, tmp_path / "cfg.json")])
        (line,) = capsys.readouterr().out.strip().splitlines()
        path = tmp_path / "out" / "features.csv"
        features = path.read_bytes() if path.exists() else None
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        return rc, line, features

    def assert_same_as_per_plot(self, config, tmp_path, capsys, monkeypatch):
        config["output_dir"] = str(tmp_path / "out")
        got = self.outcome(config, tmp_path, capsys)
        with monkeypatch.context() as patch:
            patch.setitem(cli._COMMANDS, "extract", per_plot_extract)
            want = self.outcome(config, tmp_path, capsys)
        assert got == want
        return got

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("restrict", [False, True])
    def test_varied_fields(self, seed, restrict, tmp_path, capsys, monkeypatch):
        config = vary_field(tmp_path, seed)
        config["extract"]["params"] = {"vi_restrict_to_vegetation": restrict}
        rc, _, features = self.assert_same_as_per_plot(config, tmp_path, capsys, monkeypatch)
        assert rc == 1 or features.count(b"\n") == 17

    @pytest.mark.parametrize("edits", [
        ("p1 has no head counts", "p2 off the grid"),
        ("p2 off the grid",),
        ("p2 off the grid", "ring widths reversed"),
        ("p2 has no vegetation",),
        ("p1 has no head counts", "p2 has no vegetation"),
        ("p2 has no vegetation", "kndvi_sigma is 0"),
        ("p2 has no vegetation", "no 680 nm band"),
        ("p2 has no vegetation", "non-binary lodging mask"),
        # a vegetation mask of another geometry fails the first plot, after the mask checks
        ("vegetation mask moved",),
        ("vegetation mask moved", "non-binary lodging mask"),
        ("p1 has no head counts", "vegetation mask moved"),
    ])
    def test_plot_error_edits(self, edits, tmp_path, capsys, monkeypatch):
        config = extract_config(tmp_path / "out")
        edit_extract_inputs(config, edits, tmp_path)
        rc, _, features = self.assert_same_as_per_plot(config, tmp_path, capsys, monkeypatch)
        assert (rc, features) == (1, None)

    def test_restrict_mask_on_another_geometry(self, tmp_path, capsys, monkeypatch):
        config = extract_config(tmp_path / "out")
        edit_extract_inputs(config, ("vegetation mask moved",), tmp_path)
        rc, line, _ = self.assert_same_as_per_plot(config, tmp_path, capsys, monkeypatch)
        assert (rc, json.loads(line)["error"]) == (1, "GeometryMismatch")


class TestExtractMemory:
    @pytest.mark.parametrize("p2_has_no_vegetation", [False, True])
    def test_one_index_layer_is_alive_at_a_time(self, p2_has_no_vegetation, tmp_path, capsys,
                                                monkeypatch):
        # p2's error is kept until the plot loop reaches it; it must not keep its layer alive
        layers = []

        def tracked(build):
            def wrapper(*args, **kwargs):
                assert all(ref() is None for ref in layers), "an earlier index layer is alive"
                layer = build(*args, **kwargs)
                layers.append(weakref.ref(layer))
                return layer
            return wrapper

        monkeypatch.setattr(cli.spectral, "vi_map", tracked(spectral.vi_map))
        monkeypatch.setattr(cli.spectral, "psri_hs", tracked(spectral.psri_hs))
        config = extract_config(tmp_path / "out")
        if p2_has_no_vegetation:
            restrict_p2_to_no_vegetation(config, tmp_path)
        rc, _ = run_cli(["extract", "--config", write_config(config, tmp_path / "cfg.json")],
                        capsys)
        assert (rc, len(layers)) == (1 if p2_has_no_vegetation else 0, 10)

    def test_traced_peak_is_bounded_by_the_input_sizes(self, tmp_path):
        n, points_per_cell = 120, 2
        config, n_rasters = write_field(tmp_path, n, points_per_cell)
        cfg = write_config(config, tmp_path / "cfg.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["extract", "--config", cfg]) == 0  # the first run's lazy imports
            tracemalloc.start()
            try:
                assert cli.main(["extract", "--config", cfg]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        grid = n * n * 8
        points = n * n * points_per_cell
        # every raster, one cloud, two grid layers and two cloud-sized index arrays
        bound = n_rasters * grid + points * 3 * 8 + 2 * grid + 2 * points * 8
        assert peak < bound, (peak, bound)


    @pytest.mark.parametrize("edit", [None, "p2 has no vegetation", "kndvi_sigma is 0"])
    def test_no_band_is_alive_while_the_clouds_rasterize(self, edit, tmp_path, capsys,
                                                         monkeypatch):
        # a kept plot or layer error must not keep a band set alive either
        config = extract_config(tmp_path / "out")
        edit_extract_inputs(config, (edit,), tmp_path)
        band_paths = {*config["extract"]["ms_bands"].values(),
                      *(band["path"] for band in config["extract"]["hs_bands"])}
        bands, alive = [], []
        load_raster, rasterize_elevation = geodata.load_raster, geodata.rasterize_elevation

        def tracked(path):
            grid = load_raster(path)
            if path in band_paths:
                bands.append(weakref.ref(grid))
            return grid

        def counted(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in bands))
            return rasterize_elevation(*args, **kwargs)

        monkeypatch.setattr(geodata, "load_raster", tracked)
        monkeypatch.setattr(geodata, "rasterize_elevation", counted)
        rc, _ = run_cli(["extract", "--config", write_config(config, tmp_path / "cfg.json")],
                        capsys)
        assert (rc, len(bands), alive) == (0 if edit is None else 1, 11, [0, 0])

    def test_an_hs_band_no_index_reads_is_freed_before_the_first_layer(self, tmp_path, capsys,
                                                                        monkeypatch):
        config = extract_config(tmp_path / "out")
        unread = str(tmp_path / "hs_900.asc")  # 60 nm from the nearest target
        shutil.copy(scene_path("hs_840.asc"), unread)
        config["extract"]["hs_bands"].append({"path": unread, "wavelength_nm": 900})
        band, alive = [], []
        load_raster, vi_map = geodata.load_raster, spectral.vi_map

        def tracked(path):
            grid = load_raster(path)
            if path == unread:
                band.append(weakref.ref(grid))
            return grid

        def checked(*args, **kwargs):
            alive.append(band[0]() is not None)
            return vi_map(*args, **kwargs)

        monkeypatch.setattr(geodata, "load_raster", tracked)
        monkeypatch.setattr(cli.spectral, "vi_map", checked)
        rc, summary = run_cli(["extract", "--config", write_config(config, tmp_path / "cfg.json")],
                              capsys)
        assert (rc, alive[0]) == (0, False)
        got = open(summary["outputs"]["features"], "rb").read()
        assert got == open(scene_path("golden/features.csv"), "rb").read()

    def test_traced_peak_of_the_cloud_phase_has_no_band_term(self, tmp_path):
        n, points_per_cell = 120, 2
        config, n_rasters = write_field(tmp_path, n, points_per_cell)
        cfg = write_config(config, tmp_path / "cfg.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["extract", "--config", cfg]) == 0  # the first run's lazy imports
            tracemalloc.start()
            try:
                assert cli.main(["extract", "--config", cfg]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        grid = n * n * 8
        points = n * n * points_per_cell
        # while the rasters load and the index layers are read: every raster,
        # and six grids for one index layer with the transients of building
        # it and of selecting every plot on it (3.5 and 4.4 grids measured)
        bands_phase = n_rasters * grid + 6 * grid
        # while the clouds load: the three masks, the DSM and DEM grids, one
        # cloud and two cloud-sized index arrays, and no band
        cloud_phase = 3 * grid + 2 * grid + points * 3 * 8 + 2 * points * 8
        bound = max(bands_phase, cloud_phase)
        assert peak < bound, (peak, bound)


class TestHsBandsAnIndexReads:
    @staticmethod
    def band_set(rng, wavelengths):
        bands = {}
        for i, nm in enumerate(wavelengths):
            nodata = float(rng.choice([-9999.0, -1.0, 7.5]))
            values = rng.choice([0.0, 0.25, 0.5, 1.0], size=(3, 4)) * rng.random((3, 4))
            values[rng.random((3, 4)) < 0.2] = nodata
            grid = geodata.RasterGrid(values, cell_size=0.5, origin_x=1.0, origin_y=2.0,
                                      nodata=nodata)
            bands[f"w{i}"] = (grid, float(nm))
        return geodata.BandSet(bands=bands, sensor_kind="HS")

    @staticmethod
    def outcome(build):
        """The layer's bits and nodata, or its error's type and message."""
        try:
            layer = build()
        except BreedkitError as exc:
            return type(exc), str(exc)
        return layer.values.tobytes(), layer.nodata, layer.geometry

    @staticmethod
    def wavelengths(rng) -> list:
        picks = []
        for t in spectral.HS_INDEX_TARGETS_NM:
            if rng.random() < 0.85:  # within the tolerance, or exactly at its edge
                d = float(rng.choice([10.0, rng.uniform(0.0, 10.0)]))
            else:
                d = float(rng.choice([10.5, rng.uniform(11.0, 40.0)]))
            picks += [t - d, t + d] if rng.random() < 0.3 else [t + float(rng.choice([-d, d]))]
        if rng.random() < 0.4:
            picks.insert(0, float(rng.choice([400.0, 1000.0])))  # a first band no index reads
        return list(dict.fromkeys(picks))

    def test_same_layers_or_same_errors_as_the_full_set(self):
        rng = np.random.default_rng(20)
        fixed = [[1000.0, 1100.0], [650.0, 1000.0], [1000.0, 680.0], [640.0, 660.0],
                 [500.0, 670.0, 690.0, 750.0, 1000.0], [400.0, 490.0, 510.0, 550.0, 570.0,
                                                          640.0, 660.0, 740.0, 760.0, 850.0]]
        cases = fixed + [self.wavelengths(rng) for _ in range(300)]
        narrowed = 0
        for wavelengths in cases:
            if len(wavelengths) < 2:
                continue
            full = self.band_set(rng, wavelengths)
            kept = cli._bands_an_index_reads(full)
            narrowed += len(kept.bands) < len(full.bands)
            builds = [lambda bands: spectral.psri_hs(bands)] + [
                lambda bands, name=name, sigma=sigma: spectral.vi_map(bands, name,
                                                                      kndvi_sigma=sigma)
                for name in spectral.VI_NAMES for sigma in (None, 0.3)]
            for build in builds:
                want = self.outcome(lambda: build(full))
                assert self.outcome(lambda: build(kept)) == want, wavelengths
        assert narrowed >= 50


class TestFuse:
    @pytest.fixture
    def features_csv(self, tmp_path, capsys):
        cfg = write_config(extract_config(tmp_path / "ex"), tmp_path / "ex.json")
        rc, summary = run_cli(["extract", "--config", cfg], capsys)
        assert rc == 0
        return summary["outputs"]["features"]

    def test_writes_metrics_and_scatter(self, features_csv, tmp_path, capsys):
        cfg = write_config(fuse_config(tmp_path / "out", features_csv), tmp_path / "f.json")
        rc, summary = run_cli(["fuse", "--config", cfg], capsys)
        assert rc == 0
        metrics = json.load(open(summary["outputs"]["metrics"]))
        assert metrics["k"] == 3
        assert set(metrics["pooled"]) == {"r2", "rmse"}
        assert len(metrics["per_fold"]) == 3
        scatter = open(summary["outputs"]["scatter"]).read().splitlines()
        assert scatter[0] == "plot_id,germplasm_id,measured,predicted,exceeds_4230_2"
        assert len(scatter) == 4
        for line in scatter[1:]:
            assert line.split(",")[4] in ("true", "false")

    def test_seed_is_mandatory(self, features_csv, tmp_path, capsys):
        config = fuse_config(tmp_path / "out", features_csv)
        del config["fuse"]["seed"]
        cfg = write_config(config, tmp_path / "f.json")
        rc, summary = run_cli(["fuse", "--config", cfg], capsys)
        assert rc == 2
        assert summary["field"] == "fuse.seed"

    def test_fold_column_drops_are_logged_outside_the_artifacts(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("plot_id,germplasm_id,date,NDVI_MS,WL_ratio,yield_kg_ha\n" + "".join(
            f"p{i},g{i},2023-04-22,{0.5 + 0.03 * i ** 2:g},{0.25 if i == 3 else 0.0:g},{5000 + 90 * i}\n"
            for i in range(6)))
        config = fuse_config(tmp_path / "out", features)
        config["fuse"].update(weather=None, germplasm=None, domains=["RS"])
        rc = cli.main(["fuse", "--config", write_config(config, tmp_path / "f.json")])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.splitlines()) == 1
        assert json.loads(captured.out)["status"] == "ok"
        drops = [line for line in captured.err.splitlines() if "dropped zero-variance" in line]
        assert len(drops) == 1
        assert re.fullmatch(r"fuse: fold [0-2] dropped zero-variance columns WL_ratio", drops[0])
        metrics = open(tmp_path / "out" / "metrics.json").read()
        assert "WL_ratio" not in metrics and json.loads(metrics)["n_features"] == 2

    def test_module_error_exits_1_with_error_name(self, features_csv, tmp_path, capsys):
        config = fuse_config(tmp_path / "out", features_csv)
        config["fuse"]["k"] = 10  # only 3 plots
        cfg = write_config(config, tmp_path / "f.json")
        rc, summary = run_cli(["fuse", "--config", cfg], capsys)
        assert rc == 1
        assert summary["status"] == "error"
        assert summary["error"] == "InvalidInput"

    def test_fuse_matches_golden_files(self, tmp_path, capsys):
        cfg = write_config(fuse_config(tmp_path / "out", scene_path("golden/features.csv")),
                           tmp_path / "f.json")
        rc, summary = run_cli(["fuse", "--config", cfg], capsys)
        assert rc == 0
        golden = scene_path("golden/fuse")
        assert sorted(os.listdir(tmp_path / "out")) == sorted(os.listdir(golden))
        for name in os.listdir(golden):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == open(os.path.join(golden, name), "rb").read(), name

    def test_repeated_weather_row_is_a_parse_error(self, tmp_path, capsys):
        rows = open(scene_path("weather.csv")).read().splitlines()
        path = tmp_path / "weather.csv"
        path.write_text("\n".join(rows + [rows[2]]) + "\n")
        config = fuse_config(tmp_path / "out", scene_path("golden/features.csv"))
        config["fuse"]["weather"] = str(path)
        cfg = write_config(config, tmp_path / "f.json")
        rc = cli.main(["fuse", "--config", cfg])
        stdout = capsys.readouterr().out.strip().splitlines()
        site, date = rows[2].split(",")[:2]
        assert rc == 1
        assert [json.loads(line) for line in stdout] == [{
            "status": "error", "error": "ParseError",
            "message": f"line {len(rows) + 1}: site {site}: duplicate weather row for {date}"}]
        assert not (tmp_path / "out" / "metrics.json").exists()

    @staticmethod
    def _with_bad_tables(config, tmp_path):
        """Point ``config`` at a germplasm file with a non-numeric crude_protein and
        a weather file with a NaN t_mean."""
        for key, column, value in (("germplasm", "crude_protein", "abc"),
                                   ("weather", "t_mean", "nan")):
            lines = open(config["fuse"][key], encoding="utf-8").read().splitlines()
            lines[1] = _cell(column, value)(lines, 1)
            path = tmp_path / f"bad_{key}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            config["fuse"][key] = str(path)

    def test_tables_no_selected_domain_reads_are_not_parsed(self, tmp_path, capsys):
        artifacts = {}
        for name in ("bad", "none"):
            config = fuse_config(tmp_path / name, scene_path("golden/features.csv"))
            config["fuse"]["domains"] = ["RS"]
            if name == "bad":
                self._with_bad_tables(config, tmp_path)
            else:
                config["fuse"].update(weather=None, germplasm=None)
            rc, summary = _run_one_line(
                ["fuse", "--config", write_config(config, tmp_path / f"{name}.json")], capsys)
            assert (rc, summary["status"]) == (0, "ok")
            artifacts[name] = {f: (tmp_path / name / f).read_bytes()
                               for f in sorted(os.listdir(tmp_path / name))}
        assert sorted(artifacts["bad"]) == ["metrics.json", "scatter.csv"]
        assert artifacts["bad"] == artifacts["none"]

    @pytest.mark.parametrize("domain, message", [
        ("weather", "line 2: bad weather row: t_mean must be finite, got nan"),
        ("germplasm", "line 2: non-numeric crude_protein: 'abc'"),
    ])
    def test_a_selected_table_is_still_parsed(self, domain, message, tmp_path, capsys):
        config = fuse_config(tmp_path / "out", scene_path("golden/features.csv"))
        config["fuse"]["domains"] = ["RS", domain]
        self._with_bad_tables(config, tmp_path)
        rc, summary = _run_one_line(
            ["fuse", "--config", write_config(config, tmp_path / "f.json")], capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "ParseError", "message": message})
        assert not (tmp_path / "out").exists()

    def test_an_unknown_domain_comes_before_an_unread_bad_table(self, tmp_path, capsys):
        # a config error, found before any input is read: the bad weather
        # table is not parsed even where "weather" is selected
        for domains in (["RS", "soil"], ["weather", "soil"]):
            config = fuse_config(tmp_path / "out", scene_path("golden/features.csv"))
            config["fuse"]["domains"] = domains
            self._with_bad_tables(config, tmp_path)
            rc, summary = _run_one_line(
                ["fuse", "--config", write_config(config, tmp_path / "f.json")], capsys)
            assert (rc, summary) == (2, {"status": "config_error", "field": "fuse.domains",
                                         "message": "unknown domain 'soil'"})
            assert not (tmp_path / "out").exists()

    def test_an_empty_domain_list_is_still_invalid_input(self, tmp_path, capsys):
        config = fuse_config(tmp_path / "out", scene_path("golden/features.csv"))
        config["fuse"]["domains"] = []
        rc, summary = _run_one_line(
            ["fuse", "--config", write_config(config, tmp_path / "f.json")], capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "InvalidInput",
                                     "message": "select at least one domain"})
        assert not (tmp_path / "out").exists()


class TestPrefopt:
    def test_stages_write_diagnostics(self, tmp_path, capsys):
        cfg = write_config(prefopt_config(tmp_path / "out"), tmp_path / "p.json")
        rc, summary = run_cli(["prefopt", "--config", cfg], capsys)
        assert rc == 0
        outs = summary["outputs"]
        for key in ("sft_diagnostics", "rm_diagnostics", "ppo_diagnostics",
                    "policy", "reference", "reward"):
            assert os.path.isfile(outs[key])
        sft = open(outs["sft_diagnostics"]).read().splitlines()
        assert sft[0] == "iteration,loss"
        assert len(sft) == 41
        ppo = open(outs["ppo_diagnostics"]).read().splitlines()
        assert ppo[0] == "iteration,mean_reward,mean_kl,clip_fraction"
        assert len(ppo) == 16

    def test_jsonl_record_that_is_not_an_object_is_a_parse_error(self, tmp_path, capsys):
        lines = open(scene_path("sft.jsonl")).read().splitlines()
        path = tmp_path / "sft.jsonl"
        path.write_text("\n".join([lines[0], "5"] + lines[1:]) + "\n")
        config = prefopt_config(tmp_path / "out")
        config["prefopt"]["sft_data"] = str(path)
        cfg = write_config(config, tmp_path / "p.json")
        rc = cli.main(["prefopt", "--config", cfg])
        stdout = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(stdout) == 1
        summary = json.loads(stdout[0])
        assert summary["error"] == "ParseError"
        assert summary["message"] == "line 2: expected a JSON object"
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []

    @pytest.mark.parametrize("name,token", [("sft.jsonl", "1.7"), ("rm_pairs.jsonl", '"a"'),
                                            ("rm_pairs.jsonl", "null")])
    def test_jsonl_token_that_is_not_an_integer_is_a_parse_error(self, name, token, tmp_path,
                                                                 capsys):
        lines = open(scene_path(name)).read().splitlines()
        record = json.loads(lines[1])
        key = "answer" if name == "sft.jsonl" else "chosen"
        path = tmp_path / name
        path.write_text("\n".join([lines[0], json.dumps(record).replace(
            f'"{key}": [', f'"{key}": [{token}, ', 1)] + lines[2:]) + "\n")
        config = prefopt_config(tmp_path / "out")
        config["prefopt"]["sft_data" if name == "sft.jsonl" else "rm_data"] = str(path)
        rc = cli.main(["prefopt", "--config", write_config(config, tmp_path / "p.json")])
        stdout = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(stdout) == 1
        summary = json.loads(stdout[0])
        assert summary["error"] == "ParseError"
        assert summary["message"] == f"line 2: {key} token {token} is not an integer"
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []

    def test_ppo_alone_requires_model_files(self, tmp_path, capsys):
        config = prefopt_config(tmp_path / "out")
        config["prefopt"]["stages"] = ["ppo"]
        cfg = write_config(config, tmp_path / "p.json")
        rc, summary = run_cli(["prefopt", "--config", cfg], capsys)
        assert rc == 2


def _node(config, path):
    for key in path:
        config = config[key]
    return config


def _set(config, path, value):
    _node(config, path[:-1])[path[-1]] = value


def _run_one_line(args, capsys):
    rc = cli.main(args)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    return rc, json.loads(lines[0])


class TestConfigSchema:
    """The declared schema: unknown fields, null, kinds, and conditional fields."""

    @pytest.mark.parametrize("subcommand, make_config, path, value, field, message", [
        ("extract", extract_config, ("extract", "params"), {"ch_percentil": 0.5},
         "extract.params.ch_percentil", "unknown field"),
        ("extract", extract_config, ("extract", "ms_bands", "red_nm"), 650,
         "extract.ms_bands.red_nm", "unknown field"),
        ("bench", bench_config, ("trial",), {}, "trial", "unknown field"),
        ("extract", extract_config, ("extract", "params"), {"vi_restrict_to_vegetation": "no"},
         "extract.params.vi_restrict_to_vegetation", "expected a boolean, got 'no'"),
        ("extract", extract_config, ("extract", "flight", "altitude_m"), None,
         "extract.flight.altitude_m", "missing required field"),
        ("extract", extract_config, ("extract", "hs_bands", 1), "hs_560.asc",
         "extract.hs_bands[1]", "expected an object, got str"),
        ("extract", extract_config, ("extract", "dem", "cell_size"), None,
         "extract.dem.cell_size", "missing required field"),
        ("extract", extract_config, ("extract", "dsm"), {"aggregator": "max"},
         "extract.dsm", "need either 'raster' or 'point_cloud'"),
        ("extract", extract_config, ("extract", "hs_bands", 4, "wavelength_nm"), 680,
         "extract.hs_bands[4].wavelength_nm", "band name b680 is taken by hs_bands[3]"),
        ("extract", extract_config, ("extract", "hs_bands", 0, "wavelength_nm"), 680.0001,
         "extract.hs_bands[3].wavelength_nm", "band name b680 is taken by hs_bands[0]"),
        ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")),
         ("fuse", "k"), True, "fuse.k", "expected an integer, got True"),
        ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")),
         ("fuse", "lambda"), float("nan"), "fuse.lambda", "expected a finite number, got nan"),
        ("prefopt", prefopt_config, ("prefopt", "ppo", "beta"), float("-inf"),
         "prefopt.ppo.beta", "expected a finite number, got -inf"),
        ("extract", extract_config, ("extract", "flight", "altitude_m"), 10 ** 400,
         "extract.flight.altitude_m", f"expected a finite number, got {10 ** 400!r}"),
        ("prefopt", prefopt_config, ("prefopt", "seed"), None,
         "prefopt.seed", "missing required field"),
        ("prefopt", prefopt_config, ("prefopt", "rm_data"), None,
         "prefopt.rm_data", "missing required field"),
        ("kb", lambda out: kb_config(out, "price"), ("kb", "date"), None,
         "kb.date", "missing required field"),
        ("kb", lambda out: kb_config(out, "screen"), ("kb", "action"), "browse",
         "kb.action", "expected 'screen' or 'price', got 'browse'"),
        ("extract", extract_config, ("extract", "dem", "aggregator"), "median",
         "extract.dem.aggregator", "expected one of min/max/mean, got 'median'"),
        ("extract", extract_config, ("extract", "dsm"), {"raster": scene_path("ms_red.asc"),
                                                         "aggregator": "median"},
         "extract.dsm.aggregator", "expected one of min/max/mean, got 'median'"),
    ])
    def test_exits_2_naming_the_field_and_writes_nothing(
            self, subcommand, make_config, path, value, field, message, tmp_path, capsys):
        config = make_config(tmp_path / "out")
        _set(config, path, value)
        cfg = write_config(config, tmp_path / "cfg.json")
        rc, summary = _run_one_line([subcommand, "--config", cfg], capsys)
        assert rc == 2
        assert summary == {"status": "config_error", "field": field, "message": message}
        assert not (tmp_path / "out").exists()

    def test_unknown_field_set_on_the_command_line(self, tmp_path, capsys):
        cfg = write_config(extract_config(tmp_path / "out"), tmp_path / "cfg.json")
        rc, summary = _run_one_line(
            ["extract", "--config", cfg, "--set", "extract.params.ch_percentil=0.5"], capsys)
        assert rc == 2
        assert summary["field"] == "extract.params.ch_percentil"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_set_on_the_command_line(self, value, tmp_path, capsys):
        cfg = write_config(fuse_config(tmp_path / "out", scene_path("golden/features.csv")),
                           tmp_path / "cfg.json")
        rc, summary = _run_one_line(["fuse", "--config", cfg, "--set", f"fuse.lambda={value}"],
                                    capsys)
        assert rc == 2
        assert summary["field"] == "fuse.lambda"
        assert summary["message"].startswith("expected a finite number, got ")
        assert not (tmp_path / "out").exists()

    def test_null_optional_fields_take_their_defaults(self, tmp_path, capsys):
        config = extract_config(tmp_path / "out")
        config["extract"]["params"] = {"savi_l": None, "ch_percentile": None,
                                       "vi_restrict_to_vegetation": None}
        config["extract"]["dsm"]["raster"] = None
        cfg = write_config(config, tmp_path / "cfg.json")
        rc, summary = _run_one_line(["extract", "--config", cfg], capsys)
        assert rc == 0
        got = open(summary["outputs"]["features"], "rb").read()
        assert got == open(scene_path("golden/features.csv"), "rb").read()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_output_dir_at_or_under_a_file_exits_2(self, under, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(bench_config(blocker / under), tmp_path / "cfg.json")
        rc, summary = _run_one_line(["bench", "--config", cfg], capsys)
        assert rc == 2
        assert summary == {"status": "config_error", "field": "output_dir",
                           "message": f"not a directory: {blocker}"}
        assert blocker.read_text() == "a file, not a directory"

    def test_set_fills_an_object_the_file_sets_to_null(self, tmp_path, capsys):
        config = bench_config(tmp_path / "want")
        rc, _ = _run_one_line(["bench", "--config", write_config(config, tmp_path / "a.json")], capsys)
        assert rc == 0
        cfg = write_config({"output_dir": str(tmp_path / "got"), "bench": None}, tmp_path / "b.json")
        rc, _ = _run_one_line(["bench", "--config", cfg,
                               "--set", f"bench.trials={config['bench']['trials']}",
                               "--set", f"bench.ballots={config['bench']['ballots']}"], capsys)
        assert rc == 0
        names = sorted(os.listdir(tmp_path / "want"))
        assert names and sorted(os.listdir(tmp_path / "got")) == names
        for name in names:
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    @pytest.mark.parametrize("subcommand, make_config, path, value, rc_want", [
        ("prefopt", prefopt_config, ("prefopt", "sft", "iterations"), 0, 0),
        ("prefopt", prefopt_config, ("prefopt", "rm", "iterations"), 0, 0),
        ("prefopt", prefopt_config, ("prefopt", "sft", "iterations"), -1, 1),
        ("prefopt", prefopt_config, ("prefopt", "rm", "iterations"), -1, 1),
        ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")),
         ("fuse", "seed"), -1, 1),
    ])
    def test_numeric_edge_values_end_in_the_contract(
            self, subcommand, make_config, path, value, rc_want, tmp_path, capsys):
        config = make_config(tmp_path / "out")
        _set(config, path, value)
        cfg = write_config(config, tmp_path / "cfg.json")
        rc, summary = _run_one_line([subcommand, "--config", cfg], capsys)
        assert rc == rc_want
        if rc == 1:
            assert summary["error"] == "InvalidInput"


# (subcommand, config for an output directory) for every subcommand and kb action
CONTRACT_CONFIGS = [
    ("extract", extract_config),
    ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv"))),
    ("prefopt", prefopt_config),
    ("bench", bench_config),
    ("kb", lambda out: kb_config(out, "screen")),
    ("kb", lambda out: kb_config(out, "price")),
]
HOSTILE_VALUES = [None, True, -1, 0, 0.5, "x", [], {}, float("nan"), float("inf")]


def _leaves(node, path=()):
    """Paths of the scalar leaves of a config, list elements included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _objects(node, path=()):
    """Paths of the objects of a config, the top level included."""
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _objects(value, path + (key,))


def _contract_run(tmp, args):
    """Run the CLI in ``tmp``; check the contract; remove what the run left; return the summary."""
    before = set(os.listdir(tmp))
    cwd = os.getcwd()
    os.chdir(tmp)  # a relative output_dir such as "x" lands in the temporary directory
    try:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            rc = cli.main(args)
    finally:
        os.chdir(cwd)
    lines = captured.getvalue().strip().splitlines()
    assert rc in (0, 1, 2)
    assert len(lines) == 1
    assert [f for _, _, files in os.walk(tmp) for f in files if f.endswith(".tmp")] == []
    if rc == 2:
        assert not os.path.exists(os.path.join(tmp, "out"))
    for name in set(os.listdir(tmp)) - before:
        shutil.rmtree(os.path.join(tmp, name))
    return rc, json.loads(lines[0])


class TestIntegerPastTheDigitLimit:
    """A JSON integer past 4300 digits, which json reads with int(), ends in the CLI contract."""

    LONG = "9" * 5000

    def test_in_the_config_file(self, tmp_path, capsys):
        config = bench_config(tmp_path / "out")
        config["bench"]["ballots"] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config).replace('"@"', self.LONG))
        rc, summary = _run_one_line(["bench", "--config", str(path)], capsys)
        assert (rc, summary["status"], summary["field"]) == (2, "config_error", "config")
        assert summary["message"].startswith("invalid JSON: ")

    def test_in_a_set_value(self, tmp_path, capsys):
        cfg = write_config(bench_config(tmp_path / "out"), tmp_path / "cfg.json")
        rc, summary = _run_one_line(
            ["bench", "--config", cfg, "--set", f"bench.ballots={self.LONG}"], capsys)
        assert (rc, summary["status"], summary["field"]) == (2, "config_error", "bench.ballots")

    def test_in_a_data_file(self, tmp_path, capsys):
        data = tmp_path / "sft.jsonl"
        data.write_text(f'{{"prompt": [0], "answer": [{self.LONG}]}}\n')
        config = prefopt_config(tmp_path / "out")
        config["prefopt"].update(stages=["sft"], sft_data=str(data))
        rc, summary = _run_one_line(
            ["prefopt", "--config", write_config(config, tmp_path / "cfg.json")], capsys)
        assert (rc, summary["error"]) == (1, "ParseError")
        assert summary["message"].startswith(f"line 1: {data}: bad JSON: ")


class TestConfigContract:
    """Any one-field change to a working config ends in the CLI contract, and ends
    the same whether it arrives in the config file or through ``--set``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_changed_field_exits_0_1_or_2_with_one_line_and_no_temporary_file(self, data):
        subcommand, make_config = data.draw(st.sampled_from(CONTRACT_CONFIGS))
        with tempfile.TemporaryDirectory() as tmp:
            config = make_config(os.path.join(tmp, "out"))
            changed = copy.deepcopy(config)
            change = data.draw(st.sampled_from(["replace", "delete", "add"]))
            if change == "add":
                path = data.draw(st.sampled_from(list(_objects(config)))) + ("zz_unknown",)
                _set(changed, path, 1)
            else:
                path = data.draw(st.sampled_from(list(_leaves(config))))
                if change == "delete":
                    del _node(changed, path[:-1])[path[-1]]
                else:
                    _set(changed, path, data.draw(st.sampled_from(HOSTILE_VALUES)))
            by_file = _contract_run(
                tmp, [subcommand, "--config", write_config(changed, os.path.join(tmp, "a.json"))])

            # --set names object fields only, so the change arrives as the whole
            # value of the deepest one; a deleted field arrives as null. An
            # enclosing object may be null in the file and filled field by field.
            keys = path[:next((i for i, k in enumerate(path) if isinstance(k, int)), len(path))]
            value = _node(changed, keys[:-1]).get(keys[-1])
            base = copy.deepcopy(config)
            overrides = []
            depth = data.draw(st.integers(0, len(keys) - 1))
            if depth:
                _set(base, keys[:depth], None)
                for key, item in _node(config, keys[:depth]).items():
                    overrides.append(".".join(keys[:depth] + (key,)) + "=" + json.dumps(item))
            overrides.append(".".join(keys) + "=" + json.dumps(value))
            by_set = _contract_run(
                tmp, [subcommand, "--config", write_config(base, os.path.join(tmp, "b.json")),
                      *(arg for item in overrides for arg in ("--set", item))])
            assert by_set == by_file


def _truncate(data):
    return data[: len(data) // 2]


def _edit_json(edit):
    """Byte mutation: decode the JSON object, ``edit`` it in place, re-encode."""
    def mutate(data):
        payload = json.loads(data)
        edit(payload)
        return json.dumps(payload).encode()
    return mutate


def _text_in_row(payload):
    next(iter(payload["rows"].values()))[0] = "abc"


def _short_row(payload):
    next(iter(payload["rows"].values())).pop()


def _text_vocab_size(payload):
    payload["vocab_size"] = "six"


def _null_weight(payload):
    payload["weights"][2] = None


def _extra_weight(payload):
    payload["weights"].append("0.0")


def _nan_in_row(payload):
    next(iter(payload["rows"].values()))[0] = "nan"


class TestPrefoptModelFiles:
    """A malformed policy/reference/reward file ends the ppo stage in exit 1, one stdout line."""

    @pytest.mark.parametrize("name,mutate,detail", [
        ("policy.json", _truncate, "bad JSON"),
        ("policy.json", _edit_json(lambda p: p.pop("rows")), "missing key 'rows'"),
        ("policy.json", _edit_json(_text_in_row), "non-numeric row"),
        ("policy.json", _edit_json(_text_vocab_size), "non-numeric vocab_size"),
        ("policy.json", _edit_json(_short_row), "has 5 entries, expected 6"),
        ("policy.json", _edit_json(_nan_in_row), "non-finite row"),
        ("policy.json", _edit_json(lambda p: p.update(vocab_size=6.9)), "non-integer vocab_size"),
        ("policy.json", _edit_json(lambda p: p.update(seed="13")), "non-integer seed"),
        ("reference.json", _truncate, "bad JSON"),
        ("reference.json", lambda data: b"\xff" + data, "not UTF-8"),
        ("reward.json", _truncate, "bad JSON"),
        ("reward.json", _edit_json(lambda p: p.pop("weights")), "missing key 'weights'"),
        ("reward.json", _edit_json(_null_weight), "non-numeric weights"),
        ("reward.json", _edit_json(_extra_weight), "has 14 entries, expected 13"),
    ])
    def test_malformed_model_file_is_a_parse_error(self, name, mutate, detail, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        policy = prefopt.PolicyModel(vocab_size=6, context_length=2, init_scale=1.0, seed=13)
        policy.logits_row((0, 1), ())
        prefopt.save_policy(policy, out / "policy.json")
        prefopt.save_policy(policy.snapshot(), out / "reference.json")
        prefopt.save_reward_model(prefopt.RewardModel(6), out / "reward.json")
        path = out / name
        path.write_bytes(mutate(path.read_bytes()))
        config = prefopt_config(out)
        config["prefopt"]["stages"] = ["ppo"]
        cfg = write_config(config, tmp_path / "p.json")
        rc = cli.main(["prefopt", "--config", cfg])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["error"] == "ParseError"
        assert str(path) in summary["message"]
        assert detail in summary["message"]


class TestKb:
    def test_screen(self, tmp_path, capsys):
        config = {
            "output_dir": str(tmp_path / "out"),
            "kb": {
                "action": "screen",
                "germplasm": scene_path("germplasm.csv"),
                "criteria": ["plant_height<=80", "crude_protein>=14"],
            },
        }
        cfg = write_config(config, tmp_path / "k.json")
        rc, summary = run_cli(["kb", "--config", cfg], capsys)
        assert rc == 0
        rows = open(summary["outputs"]["results"]).read().splitlines()
        assert summary["outputs"]["n_matches"] == 2
        assert rows[1].startswith("Alpha,")
        assert rows[2].startswith("Charlie,")

    def test_price_hit(self, tmp_path, capsys):
        config = {
            "output_dir": str(tmp_path / "out"),
            "kb": {
                "action": "price",
                "prices": scene_path("prices.csv"),
                "observation_point": "Miyun District",
                "date": "2024-06-01",
            },
        }
        cfg = write_config(config, tmp_path / "k.json")
        rc, summary = run_cli(["kb", "--config", cfg], capsys)
        assert rc == 0
        assert summary["outputs"]["found"] is True
        rows = open(summary["outputs"]["results"]).read().splitlines()
        assert "Nongda 3486" in rows[1]
        assert ",150.0," in rows[1]

    def test_price_not_found_is_honest_empty(self, tmp_path, capsys):
        config = {
            "output_dir": str(tmp_path / "out"),
            "kb": {
                "action": "price",
                "prices": scene_path("prices.csv"),
                "observation_point": "Atlantis",
                "date": "2024-06-01",
            },
        }
        cfg = write_config(config, tmp_path / "k.json")
        rc, summary = run_cli(["kb", "--config", cfg], capsys)
        assert rc == 0  # no data is an answer, not an error
        assert summary["outputs"]["found"] is False
        rows = open(summary["outputs"]["results"]).read().splitlines()
        assert len(rows) == 1  # header only

    @pytest.mark.parametrize("action", ["screen", "price"])
    def test_kb_matches_golden_files(self, action, tmp_path, capsys):
        cfg = write_config(kb_config(tmp_path / "out", action), tmp_path / "k.json")
        rc, summary = run_cli(["kb", "--config", cfg], capsys)
        assert rc == 0
        golden = scene_path("golden/kb")
        assert os.listdir(tmp_path / "out") == [f"{action}_results.csv"]
        got = (tmp_path / "out" / f"{action}_results.csv").read_bytes()
        assert got == open(os.path.join(golden, f"{action}_results.csv"), "rb").read()

    def test_screen_spells_labels_blanks_and_large_numbers(self, tmp_path, capsys):
        germplasm = tmp_path / "germplasm.csv"
        germplasm.write_text(
            "variety_name,origin,crude_protein,maturity,plant_height\n"
            "Golf,Peru,,210,0.1\n"
            "Echo,Chile,1e16,early,\n"
            "Foxtrot,,14,,123456789012345678\n",
            encoding="utf-8",
        )
        config = {"output_dir": str(tmp_path / "out"), "kb": {
            "action": "screen", "germplasm": str(germplasm), "criteria": ["variety_name!=Zulu"]}}
        rc, summary = run_cli(["kb", "--config", write_config(config, tmp_path / "k.json")], capsys)
        assert rc == 0
        assert open(summary["outputs"]["results"], "rb").read() == (
            b"variety_name,origin,plant_height,maturity,crude_protein\n"
            b"Echo,Chile,,early,1e+16\n"
            b"Foxtrot,,1.2345678901234568e+17,,14.0\n"
            b"Golf,Peru,0.1,210.0,\n"
        )

    @pytest.mark.parametrize("criterion",
                             ["crude_protein>=nan", "plant_height<inf", "plant_height<1e999"])
    def test_non_finite_criterion_is_invalid_input(self, criterion, tmp_path, capsys):
        config = kb_config(tmp_path / "out", "screen")
        config["kb"]["criteria"] = [criterion]
        rc, summary = _run_one_line(["kb", "--config", write_config(config, tmp_path / "k.json")],
                                    capsys)
        assert rc == 1
        assert summary["error"] == "InvalidInput"
        assert repr(criterion) in summary["message"]
        assert not (tmp_path / "out").exists()

    def test_price_row_missing_cells_is_a_parse_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text(
            "observation_point,variety_name,price,specification,planting_area,date\n"
            "Miyun District,Nongda 3486,150\n",
            encoding="utf-8",
        )
        config = {
            "output_dir": str(tmp_path / "out"),
            "kb": {
                "action": "price",
                "prices": str(prices),
                "observation_point": "Miyun District",
                "date": "2024-06-01",
            },
        }
        cfg = write_config(config, tmp_path / "k.json")
        rc = cli.main(["kb", "--config", cfg])
        stdout = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(stdout) == 1
        summary = json.loads(stdout[0])
        assert summary["error"] == "ParseError"
        assert summary["message"].startswith("line 2:")

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg = write_config(bench_config(tmp_path / "out"), tmp_path / "b.json")
        rc, summary = run_cli(["bench", "--config", cfg], capsys)
        assert rc == 0
        report = json.load(open(summary["outputs"]["report"]))
        assert set(report["models"]) == {"tuned-a", "tuned-b", "baseline"}
        assert "logical_deduction" in report["reasoning"]["tuned-a"]

    def test_bench_matches_golden_files(self, tmp_path, capsys):
        cfg = write_config(bench_config(tmp_path / "out"), tmp_path / "b.json")
        rc, summary = run_cli(["bench", "--config", cfg], capsys)
        assert rc == 0
        golden = scene_path("golden/bench")
        assert sorted(os.listdir(tmp_path / "out")) == sorted(os.listdir(golden))
        for name in os.listdir(golden):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == open(os.path.join(golden, name), "rb").read(), name


# (subcommand, config for an output directory, the config entry naming the input)
NON_UTF8_INPUTS = [
    ("extract", extract_config, ("extract", "head_counts")),
    ("extract", extract_config, ("extract", "plots")),
    ("extract", extract_config, ("extract", "measurements")),
    ("extract", extract_config, ("extract", "ms_bands", "red")),
    ("extract", extract_config, ("extract", "dsm", "point_cloud")),
    ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")), ("fuse", "features")),
    ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")), ("fuse", "weather")),
    ("fuse", lambda out: fuse_config(out, scene_path("golden/features.csv")), ("fuse", "germplasm")),
    ("prefopt", prefopt_config, ("prefopt", "sft_data")),
    ("prefopt", prefopt_config, ("prefopt", "ppo_data")),
    ("bench", bench_config, ("bench", "trials")),
    ("bench", bench_config, ("bench", "ballots")),
    ("kb", lambda out: kb_config(out, "screen"), ("kb", "germplasm")),
    ("kb", lambda out: kb_config(out, "price"), ("kb", "prices")),
]


class TestNonUtf8Input:
    """An input file that is not UTF-8 ends in the CLI error contract."""

    @pytest.mark.parametrize("subcommand, make_config, entry", NON_UTF8_INPUTS,
                             ids=[".".join(e) for _, _, e in NON_UTF8_INPUTS])
    def test_exit_1_with_one_summary_line_and_no_temporary_file(
            self, subcommand, make_config, entry, tmp_path, capsys):
        config = make_config(tmp_path / "out")
        node = config
        for key in entry[:-1]:
            node = node[key]
        data = open(node[entry[-1]], "rb").read()
        latin1 = tmp_path / ("latin1_" + os.path.basename(node[entry[-1]]))
        latin1.write_bytes(data.replace(b"\n", b"\n\xe9", 1))  # a Latin-1 e-acute
        node[entry[-1]] = str(latin1)
        cfg = write_config(config, tmp_path / "cfg.json")
        rc = cli.main([subcommand, "--config", cfg])
        stdout = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(stdout) == 1
        summary = json.loads(stdout[0])
        assert summary["error"] == "ParseError"
        assert summary["message"] == f"{latin1}: not UTF-8 text"
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"output_dir": "caf\xe9"}')
        rc, summary = run_cli(["kb", "--config", str(cfg)], capsys)
        assert rc == 2
        assert summary == {"status": "config_error", "field": "config",
                           "message": "not UTF-8 text"}


def _cell(column, value):
    """Edit of one CSV line: the cell under ``column`` becomes ``value``."""
    def edit(lines, index):
        cells = lines[index].split(",")
        cells[lines[0].split(",").index(column)] = value
        return ",".join(cells)
    return edit


def _token(position, value):
    """Edit of one whitespace-separated line: its token at ``position`` becomes ``value``."""
    def edit(lines, index):
        tokens = lines[index].split()
        tokens[position] = value
        return " ".join(tokens)
    return edit


def _fuse_on_golden(out):
    return fuse_config(out, scene_path("golden/features.csv"))


# (subcommand, config, entry naming the input, line, edit of that line, message part)
BAD_NUMBERS = [
    ("extract", extract_config, ("extract", "measurements"), 3, _cell("SPAD", "nan"),
     "non-finite SPAD: 'nan'"),
    ("extract", extract_config, ("extract", "measurements"), 3, _cell("raw_mass_kg", "inf"),
     "non-finite raw_mass_kg: 'inf'"),
    ("extract", extract_config, ("extract", "measurements"), 2, _cell("moisture", "1.5"),
     "moisture must be in [0, 1), got 1.5"),
    ("extract", extract_config, ("extract", "plots"), 3, _cell("x", "nan"),
     "non-finite x of plot p1: 'nan'"),
    ("extract", extract_config, ("extract", "dsm", "point_cloud"), 3, _token(2, "nan"),
     "non-finite coordinate"),
    ("extract", extract_config, ("extract", "dem", "point_cloud"), 4, _token(0, "-inf"),
     "non-finite coordinate"),
    ("extract", extract_config, ("extract", "ms_bands", "red"), 3, _token(1, "nan"),
     "non-finite value for 'xllcorner'"),
    ("extract", extract_config, ("extract", "ms_bands", "nir"), 6, _token(1, "inf"),
     "non-finite NODATA_value"),
    ("fuse", _fuse_on_golden, ("fuse", "weather"), 3, _cell("t_mean", "nan"),
     "bad weather row: t_mean must be finite, got nan"),
    ("fuse", _fuse_on_golden, ("fuse", "weather"), 4, _cell("precip", "inf"),
     "bad weather row: precip must be finite, got inf"),
    ("fuse", _fuse_on_golden, ("fuse", "germplasm"), 2, _cell("crude_protein", "abc"),
     "non-numeric crude_protein: 'abc'"),
    ("kb", lambda out: kb_config(out, "screen"), ("kb", "germplasm"), 3, _cell("lysine", "nan"),
     "lysine must be finite and >= 0"),
    ("kb", lambda out: kb_config(out, "screen"), ("kb", "germplasm"), 2,
     _cell("plant_height", "inf"), "plant_height must be finite and >= 0"),
    ("kb", lambda out: kb_config(out, "price"), ("kb", "prices"), 3, _cell("price", "inf"),
     "price must be finite and > 0"),
]


class TestBadNumberInInput:
    """A number cell that is not finite, or that its loader rejects, is a
    ParseError at its line through the CLI contract."""

    @pytest.mark.parametrize(
        "subcommand, make_config, entry, line, edit, message", BAD_NUMBERS,
        ids=[f"{'.'.join(e)}:{n}:{m.split(':')[0]}" for _, _, e, n, _, m in BAD_NUMBERS])
    def test_exit_1_with_one_summary_line_and_no_artifact(
            self, subcommand, make_config, entry, line, edit, message, tmp_path, capsys):
        config = make_config(tmp_path / "out")
        node = config
        for key in entry[:-1]:
            node = node[key]
        lines = open(node[entry[-1]], encoding="utf-8").read().splitlines()
        lines[line - 1] = edit(lines, line - 1)
        edited = tmp_path / os.path.basename(node[entry[-1]])
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        node[entry[-1]] = str(edited)
        cfg = write_config(config, tmp_path / "cfg.json")
        rc = cli.main([subcommand, "--config", cfg])
        stdout = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(stdout) == 1
        summary = json.loads(stdout[0])
        assert summary["error"] == "ParseError"
        assert summary["message"].startswith(f"line {line}: ")
        assert message in summary["message"]
        assert not os.path.exists(tmp_path / "out")  # no artifact, not even a partial one
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []


# (input, line, edit of that line, error name, message)
BAD_BENCH_INPUTS = [
    ("trials", 2, _cell("model_id", ""), "ParseError", "line 2: bad trial row: empty model_id"),
    ("trials", 4, _cell("question_id", " "), "ParseError",
     "line 4: bad trial row: empty question_id"),
    ("ballots", 3, _cell("test_id", ""), "ParseError", "line 3: empty test_id"),
    ("ballots", 2, _cell("model_id", ""), "ParseError", "line 2: empty model_id"),
    ("ballots", 4, _cell("axis", "deduction"), "ParseError",
     "line 4: axis must be 'overall' or one of ("),
    ("ballots", 3, _cell("score", "1"), "ParseError",
     "line 4: ballot t0: scores must be a permutation of 1..3"),
    ("trials", 2, _cell("answer_numeric", "1e308"), "NumericalError", "metrics overflow: SSE=inf"),
]


class TestBadBenchInput:
    """An empty identifier or an overflowing metric ends in the CLI contract
    and leaves no report."""

    @pytest.mark.parametrize("entry, line, edit, error, message", BAD_BENCH_INPUTS)
    def test_exit_1_with_one_summary_line_and_no_artifact(
            self, entry, line, edit, error, message, tmp_path, capsys):
        config = bench_config(tmp_path / "out")
        lines = open(config["bench"][entry], encoding="utf-8").read().splitlines()
        lines[line - 1] = edit(lines, line - 1)
        edited = tmp_path / f"{entry}.csv"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config["bench"][entry] = str(edited)
        rc, summary = _run_one_line(["bench", "--config", write_config(config, tmp_path / "c.json")],
                                    capsys)
        assert rc == 1
        assert summary["error"] == error
        assert summary["message"].startswith(message)
        assert not (tmp_path / "out").exists()
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []


class TestTablePathsBuildNoRowRecord:
    """``bench``, ``kb price`` and ``fuse`` read their tables as columns: the only
    per-row records they build are the price query's hits."""

    def test_only_price_hits_become_records(self, tmp_path, capsys, monkeypatch):
        built: dict = {}
        for record in (bench.TrialRecord, fusion.PlotFeatureRecord, kb.PriceRecord):
            def counting(self, check=record.__post_init__, name=record.__name__):
                built[name] = built.get(name, 0) + 1
                check(self)
            monkeypatch.setattr(record, "__post_init__", counting)
        configs = {"bench": bench_config(tmp_path / "bench"),
                   "kb": kb_config(tmp_path / "kb", "price"),
                   "fuse": _fuse_on_golden(tmp_path / "fuse")}
        for name, config in configs.items():
            rc, _ = run_cli([name, "--config", write_config(config, tmp_path / f"{name}.json")], capsys)
            assert rc == 0, name
        hits = (tmp_path / "kb" / "price_results.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(hits) > 0
        assert built == {"PriceRecord": len(hits)}


# (subcommand, config for an output directory, the golden directory its artifacts
# equal; prefopt has none, so its second run is held to its first)
RERUNS = [
    ("extract", extract_config, "golden"),
    ("fuse", _fuse_on_golden, "golden/fuse"),
    ("prefopt", prefopt_config, "golden/prefopt"),
    ("bench", bench_config, "golden/bench"),
    ("kb", lambda out: kb_config(out, "screen"), "golden/kb"),
    ("kb", lambda out: kb_config(out, "price"), "golden/kb"),
]


class TestRerun:
    SENTINEL_NS = 10**18  # an mtime no run in the test can give

    @pytest.mark.parametrize("command, config, golden", RERUNS,
                             ids=["extract", "fuse", "prefopt", "bench", "kb-screen", "kb-price"])
    def test_rerun_leaves_every_unchanged_artifact_in_place(self, command, config, golden,
                                                            tmp_path, capsys):
        out = tmp_path / "out"
        args = [command, "--config", write_config(config(out), tmp_path / "cfg.json")]
        assert _run_one_line(args, capsys)[0] == 0
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        for name in first:
            os.utime(out / name, ns=(self.SENTINEL_NS, self.SENTINEL_NS))
        assert _run_one_line(args, capsys)[0] == 0
        assert sorted(os.listdir(out)) == sorted(first)
        assert [f for f in os.listdir(out) if f.endswith(".tmp")] == []
        for name, data in first.items():
            want = data if golden is None else open(scene_path(f"{golden}/{name}"), "rb").read()
            assert (out / name).read_bytes() == want, name
        assert {name for name in first
                if os.stat(out / name).st_mtime_ns != self.SENTINEL_NS} == set()


PREFOPT_ARTIFACTS = ("policy.json", "ppo_diagnostics.csv", "reference.json", "reward.json",
                     "rm_diagnostics.csv", "sft_diagnostics.csv")


def _prefopt_other_config(out_dir):
    """prefopt_config with another seed and vocabulary, and two PPO epochs."""
    config = prefopt_config(out_dir)
    config["prefopt"].update(seed=29, vocab_size=7)
    config["prefopt"]["ppo"]["epochs"] = 2
    return config


def _edit_second_line(tmp_path, name, edit):
    """A copy of scene file ``name`` with ``edit`` applied to its 2nd line; return its path."""
    lines = open(scene_path(name)).read().splitlines()
    lines[1] = edit(lines[1])
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _not_an_object(line):
    return "5"


def _answer_token_1_7(line):
    return line.replace('"answer": [', '"answer": [1.7, ', 1)


def _chosen_token_a(line):
    return line.replace('"chosen": [', '"chosen": ["a", ', 1)


class TestPrefoptStages:
    """Stages hand their models on in memory; the artifacts are written after the last one."""

    @pytest.mark.parametrize("make_config", [prefopt_config, _prefopt_other_config],
                             ids=["conftest", "other"])
    def test_one_call_writes_what_a_call_per_stage_writes(self, make_config, tmp_path, capsys):
        artifacts = {}
        for run, calls in (("one", [["sft", "rm", "ppo"]]),
                           ("per_stage", [["sft"], ["rm"], ["ppo"]])):
            out = tmp_path / run
            for stages in calls:
                config = make_config(out)
                config["prefopt"]["stages"] = stages
                args = ["prefopt", "--config", write_config(config, tmp_path / f"{run}.json")]
                assert _run_one_line(args, capsys)[0] == 0
            artifacts[run] = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert sorted(artifacts["one"]) == list(PREFOPT_ARTIFACTS)
        assert artifacts["one"] == artifacts["per_stage"]

    @pytest.mark.parametrize("previous_run", [False, True], ids=["fresh", "previous_run"])
    def test_failing_stage_leaves_output_dir_as_it_was(self, previous_run, tmp_path, capsys):
        out = tmp_path / "out"
        before = {}
        if previous_run:  # its seed and vocabulary differ, so every artifact would change
            args = ["prefopt", "--config",
                    write_config(_prefopt_other_config(out), tmp_path / "previous.json")]
            assert _run_one_line(args, capsys)[0] == 0
            before = {name: (out / name).read_bytes() for name in os.listdir(out)}
            assert sorted(before) == list(PREFOPT_ARTIFACTS)
            for name in before:
                os.utime(out / name, ns=(TestRerun.SENTINEL_NS, TestRerun.SENTINEL_NS))
        config = prefopt_config(out)
        config["prefopt"]["ppo_data"] = _edit_second_line(tmp_path, "ppo_prompts.jsonl",
                                                          _not_an_object)
        rc, summary = _run_one_line(
            ["prefopt", "--config", write_config(config, tmp_path / "p.json")], capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "ParseError",
                                     "message": "line 2: expected a JSON object"})
        assert [f for _, _, files in os.walk(tmp_path) for f in files if f.endswith(".tmp")] == []
        if not previous_run:
            assert not out.exists()
            return
        assert sorted(os.listdir(out)) == sorted(before)
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
            assert os.stat(out / name).st_mtime_ns == TestRerun.SENTINEL_NS, name

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("stages", [["rm"], ["sft", "rm", "ppo"]], ids=["rm", "all"])
    def test_reward_model_past_the_float_range_is_a_numerical_error(self, stages, tmp_path,
                                                                    capsys):
        # ppo takes the reward model from memory, not from reward.json, whose loader
        # rejects an infinite weight; training rejects it, so no call writes such a file
        rm_data = tmp_path / "rm.jsonl"
        rm_data.write_text('{"prompt": [0], "chosen": [1, 1, 1], "rejected": [5, 5, 5]}\n')
        out = tmp_path / "out"
        config = prefopt_config(out)
        config["prefopt"].update(stages=stages, context_length=3, rm_data=str(rm_data),
                                 rm={"learning_rate": 1.5e308, "iterations": 1})
        rc, summary = _run_one_line(
            ["prefopt", "--config", write_config(config, tmp_path / "p.json")], capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "NumericalError",
                                     "message": "iteration 0: non-finite reward-model weights"})
        assert not out.exists()

    def test_policy_update_past_the_float_range_is_a_numerical_error(self, tmp_path, capsys):
        # reward weights near 1e300 make advantages near 1e300, and the PPO step
        # takes the logits past the float range: no policy.json with an infinite
        # row, which load_policy would reject, is written
        out = tmp_path / "out"
        config = prefopt_config(out)
        config["prefopt"].update(rm={"learning_rate": 1e300, "iterations": 1},
                                 ppo={"learning_rate": 1e10, "iterations": 1})
        rc, summary = _run_one_line(
            ["prefopt", "--config", write_config(config, tmp_path / "p.json")], capsys)
        assert (rc, summary) == (1, {"status": "error", "error": "NumericalError",
                                     "message": "iteration 0: non-finite policy logits"})
        assert not out.exists()

    def test_summary_and_log_of_a_clean_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["prefopt", "--config",
                         write_config(prefopt_config(out), tmp_path / "p.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out.replace(str(out), "OUT") == (
            '{"outputs": {"policy": "OUT/policy.json", '
            '"ppo_diagnostics": "OUT/ppo_diagnostics.csv", '
            '"reference": "OUT/reference.json", "reward": "OUT/reward.json", '
            '"rm_diagnostics": "OUT/rm_diagnostics.csv", '
            '"sft_diagnostics": "OUT/sft_diagnostics.csv"}, '
            '"status": "ok", "subcommand": "prefopt"}\n')
        assert captured.err == ("prefopt sft: final loss 0.524726\n"
                                "prefopt rm: final loss 0.091585\n"
                                "prefopt ppo: mean reward 1.328033, KL 0.022845\n")

    # the earliest failing step's error ends the run, after the log lines of the
    # stages before it; ppo.beta is checked after the model files are read
    @pytest.mark.parametrize("data_edits, beta, stdout, stderr", [
        ({"sft_data": ("sft.jsonl", _answer_token_1_7),
          "ppo_data": ("ppo_prompts.jsonl", _not_an_object)}, 0.05,
         '{"error": "ParseError", "message": "line 2: answer token 1.7 is not an integer", '
         '"status": "error"}\n', ""),
        ({"rm_data": ("rm_pairs.jsonl", _chosen_token_a)}, -1,
         '{"error": "ParseError", "message": "line 2: chosen token \\"a\\" is not an integer", '
         '"status": "error"}\n', "prefopt sft: final loss 0.524726\n"),
        ({}, -1, '{"error": "InvalidInput", "message": "beta must be >= 0", "status": "error"}\n',
         "prefopt sft: final loss 0.524726\nprefopt rm: final loss 0.091585\n"),
    ], ids=["sft_token_and_ppo_line", "rm_token_and_beta", "beta"])
    def test_first_error_wins(self, data_edits, beta, stdout, stderr, tmp_path, capsys):
        out = tmp_path / "out"
        config = prefopt_config(out)
        for field, (name, edit) in data_edits.items():
            config["prefopt"][field] = _edit_second_line(tmp_path, name, edit)
        config["prefopt"]["ppo"]["beta"] = beta
        assert cli.main(["prefopt", "--config", write_config(config, tmp_path / "p.json")]) == 1
        assert capsys.readouterr() == (stdout, stderr)
        assert not out.exists()


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, tmp_path):
        outputs = {}
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            ex_cfg = write_config(extract_config(base / "ex"), base / "ex.json")
            proc = run_subprocess(["extract", "--config", ex_cfg])
            assert proc.returncode == 0, proc.stderr
            features = json.loads(proc.stdout.splitlines()[-1])["outputs"]["features"]
            fu_cfg = write_config(fuse_config(base / "fu", features), base / "fu.json")
            proc = run_subprocess(["fuse", "--config", fu_cfg])
            assert proc.returncode == 0, proc.stderr
            be_cfg = write_config(bench_config(base / "be"), base / "be.json")
            proc = run_subprocess(["bench", "--config", be_cfg])
            assert proc.returncode == 0, proc.stderr
            outputs[run] = {
                "features": open(base / "ex" / "features.csv", "rb").read(),
                "metrics": open(base / "fu" / "metrics.json", "rb").read(),
                "scatter": open(base / "fu" / "scatter.csv", "rb").read(),
                "report": open(base / "be" / "report.json", "rb").read(),
                "accuracy": open(base / "be" / "accuracy.csv", "rb").read(),
            }
        assert outputs["one"] == outputs["two"]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        blobs = []
        for threads in ("1", "4"):
            base = tmp_path / f"t{threads}"
            base.mkdir()
            env = {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            ex_cfg = write_config(extract_config(base / "ex"), base / "ex.json")
            proc = run_subprocess(["extract", "--config", ex_cfg], env_extra=env)
            assert proc.returncode == 0, proc.stderr
            features = json.loads(proc.stdout.splitlines()[-1])["outputs"]["features"]
            fu_cfg = write_config(fuse_config(base / "fu", features), base / "fu.json")
            proc = run_subprocess(["fuse", "--config", fu_cfg], env_extra=env)
            assert proc.returncode == 0, proc.stderr
            blobs.append(
                open(base / "ex" / "features.csv", "rb").read()
                + open(base / "fu" / "metrics.json", "rb").read()
                + open(base / "fu" / "scatter.csv", "rb").read()
            )
        assert blobs[0] == blobs[1]

    def test_prefopt_deterministic(self, tmp_path):
        blobs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            cfg = write_config(prefopt_config(base / "out"), base / "p.json")
            proc = run_subprocess(["prefopt", "--config", cfg])
            assert proc.returncode == 0, proc.stderr
            blobs.append(
                open(base / "out" / "ppo_diagnostics.csv", "rb").read()
                + open(base / "out" / "policy.json", "rb").read()
            )
        assert blobs[0] == blobs[1]


class TestHelp:
    def test_help_lists_subcommands(self):
        proc = run_subprocess(["--help"])
        assert proc.returncode == 0
        for name in ("extract", "fuse", "prefopt", "bench", "kb"):
            assert name in proc.stdout


class TestOneParser:
    def test_calls_in_one_process_take_only_their_own_arguments(self, tmp_path, capsys):
        # every call parses with the one parser built at import: nothing of an
        # earlier call's --set, --config or --output-dir reaches a later one
        screen = write_config(kb_config(tmp_path / "screen", "screen"), tmp_path / "screen.json")
        price = write_config(kb_config(tmp_path / "price", "price"), tmp_path / "price.json")
        golden = {name: open(scene_path(f"golden/kb/{name}"), "rb").read()
                  for name in ("screen_results.csv", "price_results.csv")}
        strict = ["--set", 'kb.criteria=["plant_height<=60"]', "--output-dir", str(tmp_path / "x")]
        for _ in range(2):
            assert _run_one_line(["kb", "--config", screen, *strict], capsys)[0] == 0
            assert _run_one_line(["kb", "--config", screen], capsys)[0] == 0
            assert _run_one_line(["kb", "--config", price], capsys)[0] == 0
            assert os.listdir(tmp_path / "x") == ["screen_results.csv"]
            assert (tmp_path / "x" / "screen_results.csv").read_bytes() != golden["screen_results.csv"]
            for kind in ("screen", "price"):
                assert os.listdir(tmp_path / kind) == [f"{kind}_results.csv"]
                name = f"{kind}_results.csv"
                assert (tmp_path / kind / name).read_bytes() == golden[name]
        rc, summary = _run_one_line(["kb", "--config", price, "--set", "kb.date=null"], capsys)
        assert (rc, summary["field"]) == (2, "kb.date")
        assert _run_one_line(["kb", "--config", price], capsys)[0] == 0
