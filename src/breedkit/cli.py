"""Command-line pipeline: extract, fuse, prefopt, bench, kb.

Configuration comes from a JSON file plus ``--set dotted.path=value``
overrides (overrides win). Logs go to standard error; every run ends with
one machine-readable JSON summary line on standard output. Data artifacts
land under the configured output directory only, and every artifact is a
pure function of (inputs, config, seed), byte-for-byte reproducible.

Exit codes: 0 success, 1 module error (summary carries the error name),
2 configuration error (summary names the offending field path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from . import bench, fusion, geodata, kb, prefopt, spectral, structural
from ._io import csv_rows, finite_number, write_csv, write_json
from .errors import BreedkitError, GeometryMismatch, InvalidInput, InvalidMask, MissingBand, ParseError

class ConfigError(Exception):
    """Configuration problem; carries the dotted field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _summary(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_config(args) -> dict:
    config: dict = {}
    if args.config:
        if not os.path.isfile(args.config):
            raise ConfigError("config", f"file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except UnicodeDecodeError:
                raise ConfigError("config", "not UTF-8 text")
            except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
                raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config", "top level must be an object")
    for item in args.set or []:
        path, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError("--set", f"expected dotted.path=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient on the command line
        except ValueError as exc:  # an integer past Python's digit limit
            raise ConfigError(path, f"invalid JSON value: {exc}")
        node = config
        keys = path.split(".")
        for key in keys[:-1]:
            if node.get(key) is None:  # null reads as absent
                node[key] = {}
            node = node[key]
            if not isinstance(node, dict):
                raise ConfigError(path, "override path collides with a non-object value")
        node[keys[-1]] = value
    if args.output_dir:
        config["output_dir"] = args.output_dir
    return config


PATH = "path"  # field kind: a string naming an existing file
DIR = "dir"  # field kind: a string naming a directory, existing or to be made
_SCALARS = {float: ("a number", (int, float)), int: ("an integer", int), bool: ("a boolean", bool)}
_STAGES = ("sft", "rm", "ppo")

# Each subcommand's config section. A field is a kind (str, bool, list, float
# for any number, int, PATH), a nested object (a dict of fields), a list of
# objects ([dict]), or (kind, default) when optional. null reads as absent.
_SCHEMA = {
    "extract": {
        "plots": PATH,
        "date": str,
        "site": (str, ""),
        "ms_bands": {name: PATH for name in geodata.MS_BAND_CENTERS_NM},
        "hs_bands": [{"path": PATH, "wavelength_nm": float}],
        "vegetation_mask": PATH,
        "lodging_mask": PATH,
        "weed_mask": PATH,
        # each needs raster, or point_cloud and cell_size (checked by _cmd_extract)
        **{surface: {"raster": (PATH, None), "point_cloud": (PATH, None),
                     "cell_size": (float, None), "aggregator": (str, "mean")}
           for surface in ("dsm", "dem")},
        "head_counts": PATH,
        "measurements": (PATH, None),
        "flight": {"altitude_m": float, "fov_h_deg": float, "fov_v_deg": float},
        "params": {
            "savi_l": (float, 0.5), "kndvi_sigma": (float, None), "ch_percentile": (float, 0.95),
            "noise_floor_m": (float, structural.DEFAULT_NOISE_FLOOR_M),
            "ring_inner_m": (float, 0.1), "ring_outer_m": (float, 0.2),
            "vi_restrict_to_vegetation": (bool, False),
        },
    },
    "fuse": {
        "features": PATH,
        "weather": (PATH, None),
        "germplasm": (PATH, None),
        "domains": (list, fusion.DOMAINS),
        "lambda": (float, 1.0),
        "k": int,
        "seed": int,  # mandatory: fold shuffling is stochastic
    },
    "prefopt": {
        "stages": (list, _STAGES),
        "vocab_size": int,
        "context_length": int,
        "seed": int,  # mandatory: sampling is stochastic
        # each selected stage needs its data file (checked by _cmd_prefopt)
        "sft_data": (PATH, None),
        "rm_data": (PATH, None),
        "ppo_data": (PATH, None),
        "sft": {"learning_rate": (float, 0.5), "iterations": (int, 100)},
        "rm": {"learning_rate": (float, 0.5), "iterations": (int, 100)},
        "ppo": {"beta": (float, 0.1), "learning_rate": (float, 0.1), "ppo_clip": (float, 0.2),
                "iterations": (int, 100), "samples_per_prompt": (int, 4), "epochs": (int, 1)},
    },
    "bench": {"trials": PATH, "ballots": (PATH, None)},
    "kb": {
        "action": str,
        # screen needs germplasm and criteria; price needs prices,
        # observation_point and date (checked by _cmd_kb)
        "germplasm": (PATH, None), "criteria": (list, None),
        "prices": (PATH, None), "observation_point": (str, None), "date": (str, None),
        "variety": (str, None),
    },
}


def _check(value, spec, path: str):
    """``value`` checked against the field ``spec`` at dotted ``path``.

    Returns plain values: every number as a float, every field of an object,
    with absent optional fields at their defaults. An absent object reads as
    ``{}``. Raises ConfigError naming the first offending field.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {type(value).__name__}")
        for key in value:
            if key not in spec:
                raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
        out = {}
        for key, field in spec.items():
            field_path = f"{path}.{key}" if path else key
            item = value.get(key)
            if isinstance(field, tuple):
                field, default = field
                if item is None:
                    out[key] = default
                    continue
            elif item is None:
                if not isinstance(field, dict):
                    raise ConfigError(field_path, "missing required field")
                item = {}
            out[key] = _check(item, field, field_path)
        return out
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected list, got {type(value).__name__}")
        return [_check(item, spec[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if spec in _SCALARS:
        name, kinds = _SCALARS[spec]
        # bool is a subclass of int: only a bool field takes true or false
        if isinstance(value, bool) != (spec is bool) or not isinstance(value, kinds):
            raise ConfigError(path, f"expected {name}, got {value!r}")
        if spec is not float:
            return value
        # False for NaN, the infinities (JSON reads both) and integers past the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return float(value)
    kind = str if spec in (PATH, DIR) else spec
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    if spec is PATH and not os.path.isfile(value):
        raise ConfigError(path, f"file not found: {value}")
    if spec is DIR:
        head = os.path.abspath(value)
        while not os.path.lexists(head):  # the nearest existing path must be a directory
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            raise ConfigError(path, f"not a directory: {head}")
    return value


def _require(section: dict, path: str, *keys) -> None:
    """ConfigError for the first of ``keys`` that ``section`` leaves unset."""
    for key in keys:
        if section[key] is None:
            raise ConfigError(f"{path}.{key}", "missing required field")


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def _load_elevation(spec: dict) -> geodata.RasterGrid:
    if spec["raster"] is not None:
        return geodata.load_raster(spec["raster"])
    cloud = geodata.load_point_cloud(spec["point_cloud"])
    return geodata.rasterize_elevation(cloud, spec["cell_size"], spec["aggregator"])


_YIELD_INPUTS = ("raw_mass_kg", "plot_area_ha", "moisture")


def _measurement_number(raw: str, key: str, lineno: int) -> float:
    raw = raw.strip()
    if not raw:
        raise ParseError(f"missing {key}", line=lineno)
    return finite_number(raw, key, lineno)


def _load_measurements(path: str) -> dict:
    """plot_id -> {SPAD?, LAI?, measured_CH?, yield_kg_ha?}, one row per plot.

    An empty or repeated plot_id, or a bad number, is a ParseError at its line.
    """
    out: dict = {}
    for lineno, (plot_id, *cells) in csv_rows(path, ("plot_id",),
                                              fusion.PHENOTYPING_FEATURES + _YIELD_INPUTS):
        plot_id = plot_id.strip()
        if not plot_id:
            raise ParseError("empty plot_id", line=lineno)
        if plot_id in out:
            raise ParseError(f"plot {plot_id}: duplicate measurement row", line=lineno)
        rec = dict(zip(fusion.PHENOTYPING_FEATURES + _YIELD_INPUTS, cells))
        entry = {key: _measurement_number(rec[key], key, lineno)
                 for key in fusion.PHENOTYPING_FEATURES if rec[key].strip()}
        if rec["raw_mass_kg"].strip():
            try:
                entry["yield_kg_ha"] = fusion.standardize_yield(
                    *(_measurement_number(rec[key], key, lineno) for key in _YIELD_INPUTS))
            except InvalidInput as exc:
                raise ParseError(str(exc), line=lineno)
        out[plot_id] = entry
    return out


def _bands_an_index_reads(hs: geodata.BandSet) -> geodata.BandSet:
    """``hs`` with only the bands the HS index layers read.

    Those are the first band, whose geometry and nodata ``vi_map`` takes,
    and the band ``resolve_band`` picks for each of
    ``spectral.HS_INDEX_TARGETS_NM``. Where fewer than two bands are left,
    some target resolves to none and its layer fails; ``hs`` is kept whole,
    since a BandSet needs two bands.
    """
    kept = {next(iter(hs.bands))}
    for target in spectral.HS_INDEX_TARGETS_NM:
        try:
            kept.add(spectral.resolve_band(hs, target))
        except MissingBand:
            pass
    if len(kept) < 2:
        return hs
    return geodata.BandSet(bands={name: band for name, band in hs.bands.items() if name in kept},
                           sensor_kind="HS")


def _cmd_extract(cfg: dict, out_dir: str) -> dict:
    for surface in ("dsm", "dem"):
        if cfg[surface]["raster"] is None:
            if cfg[surface]["point_cloud"] is None:
                raise ConfigError(f"extract.{surface}", "need either 'raster' or 'point_cloud'")
            _require(cfg[surface], f"extract.{surface}", "cell_size")
        aggregator = cfg[surface]["aggregator"]
        if aggregator not in geodata.ELEVATION_AGGREGATORS:
            raise ConfigError(f"extract.{surface}.aggregator",
                              f"expected one of {'/'.join(geodata.ELEVATION_AGGREGATORS)}, got {aggregator!r}")
    hs_names = [f"b{band['wavelength_nm']:g}" for band in cfg["hs_bands"]]
    for i, name in enumerate(hs_names):
        if name in hs_names[:i]:
            raise ConfigError(f"extract.hs_bands[{i}].wavelength_nm",
                              f"band name {name} is taken by hs_bands[{hs_names.index(name)}]")
    params = cfg["params"]

    plots = geodata.load_plots(cfg["plots"])
    ms = geodata.BandSet(bands={name: (geodata.load_raster(cfg["ms_bands"][name]), nm)
                                for name, nm in geodata.MS_BAND_CENTERS_NM.items()},
                         sensor_kind="MS")
    hs = _bands_an_index_reads(geodata.BandSet(
        bands={name: (geodata.load_raster(band["path"]), band["wavelength_nm"])
               for name, band in zip(hs_names, cfg["hs_bands"])},
        sensor_kind="HS"))
    try:
        veg_mask, mask_error = geodata.binary_mask(geodata.load_raster(cfg["vegetation_mask"])), None
    except InvalidMask as exc:
        veg_mask, mask_error = None, exc.with_traceback(None)
    # The vegetation mask is kept as its 1-cells (``binary_mask``). Each
    # index layer is built, read for every plot, and freed before the next;
    # then the band sets are freed, and only then do the lodging and weed
    # masks and the clouds load, into the space the bands leave (loaded
    # first, the two masks cost +2 MiB peak resident set on some scenes). A
    # layer that cannot be built stops the loop; its error, then a non-binary
    # vegetation mask's, is raised once every input has loaded, and the other
    # masks are checked after that. Then every feature and plot check is a
    # column over all plots, and ``kept`` holds the first failing plot's
    # first failing check. So input errors come first, then layer-build and
    # mask errors, then plot errors, all kept without the tracebacks that
    # would keep a layer or band set alive.
    restrict = veg_mask if params["vi_restrict_to_vegetation"] else None
    stacks: dict = {}  # every plot's cells per grid geometry

    def cells_on(grid: geodata.RasterGrid) -> geodata.PlotCellStack:
        if grid.geometry not in stacks:
            stacks[grid.geometry] = geodata.stack_cells(grid, plots)
        return stacks[grid.geometry]

    columns: dict = {}  # feature name -> its value for every plot
    first_failed, error, layer_error = len(plots), None, None

    def kept(values, counts, failure):
        """A grouped reduction's values, keeping its failure if it is the first."""
        nonlocal first_failed, error
        if failure is not None and failure[0] < first_failed:
            first_failed, error = failure[0], failure[1].with_traceback(None)
        return values

    try:
        for index_name in spectral.VI_NAMES:
            for sensor, bands in (("MS", ms), ("HS", hs)):
                column = f"{index_name}_{sensor}"
                if column == "PSRI_HS":
                    layer = spectral.psri_hs(hs)
                else:
                    layer = spectral.vi_map(bands, index_name, L=params["savi_l"],
                                            kndvi_sigma=params["kndvi_sigma"])
                cells = cells_on(layer)
                try:  # a vegetation mask of another geometry fails the first plot
                    columns[column] = kept(*spectral.plot_statistics(layer, cells, restrict, column))
                except GeometryMismatch as exc:
                    kept(None, None, cells.first_failure((True, lambda i: exc)))
                del layer
    except BreedkitError as exc:
        layer_error = exc.with_traceback(None)
    del ms, hs, bands
    lodging_mask = geodata.load_raster(cfg["lodging_mask"])
    weed_mask = geodata.load_raster(cfg["weed_mask"])
    chm = structural.canopy_height_model(_load_elevation(cfg["dsm"]), _load_elevation(cfg["dem"]),
                                         noise_floor=params["noise_floor_m"])
    head_counts = structural.load_head_counts(cfg["head_counts"])
    measurements = _load_measurements(cfg["measurements"]) if cfg["measurements"] else {}
    if layer_error or mask_error:
        raise layer_error or mask_error
    lodging_mask, weed_mask = geodata.binary_mask(lodging_mask), geodata.binary_mask(weed_mask)

    chm_cells = cells_on(chm)
    columns["CH"] = kept(*structural.plot_canopy_heights(chm, chm_cells, params["ch_percentile"]))
    columns["CV"] = kept(*structural.canopy_volumes(chm, chm_cells))
    for column, mask in (("FVC", veg_mask), ("PL_ratio", lodging_mask)):
        columns[column] = kept(*cells_on(mask).ratios(mask))
    try:  # a bad ring width fails after the first plot's other errors
        rings = [geodata.PlotWithRing(p, params["ring_inner_m"], params["ring_outer_m"])
                 for p in plots]
    except InvalidInput as exc:
        kept(None, None, (0, exc))
    else:
        columns["WL_ratio"] = kept(*geodata.stack_cells(weed_mask, rings).ratios(weed_mask))

    # WH_density: each plot's mean head count over the one camera footprint
    counts = [head_counts.get(plot.plot_id, ()) for plot in plots]
    n_counts = np.fromiter(map(len, counts), np.intp, len(plots))
    heads = spectral.plot_means(np.fromiter(chain.from_iterable(counts), np.float64), n_counts)
    try:
        area, flight_error = structural.camera_footprint(
            *(cfg["flight"][key] for key in ("altitude_m", "fov_h_deg", "fov_v_deg"))), None
    except InvalidInput as exc:
        area, flight_error = np.nan, exc
    with np.errstate(over="ignore"):
        columns["WH_density"] = heads / area
    extra = [measurements.get(plot.plot_id, {}) for plot in plots]
    measured = {key: [e.get(key) for e in extra] for key in (*fusion.PHENOTYPING_FEATURES, "yield_kg_ha")}
    # then PlotFeatureRecord's checks: a measured value is finite where it
    # parses, a yield can only overflow, and a plot with no CHM cell failed CH
    kept(None, None, chm_cells.first_failure(
        (n_counts == 0, lambda i: BreedkitError(f"no head counts for plot {plots[i].plot_id}")),
        (flight_error is not None, lambda i: flight_error),
        (np.isinf(np.array(measured["yield_kg_ha"], np.float64)),  # None reads as NaN
         lambda i: InvalidInput(f"plot {plots[i].plot_id}: yield is not finite")),
        *((~np.isfinite(values), lambda i, name=name: InvalidInput(
            f"plot {plots[i].plot_id}: feature {name} is not finite"))
          for name, values in columns.items())))
    if error is not None:
        raise error

    table = {**{name: values.tolist() for name, values in columns.items()}, **measured}
    features_path = os.path.join(out_dir, "features.csv")
    write_csv(features_path, fusion.FEATURE_CSV_COLUMNS,
              zip([p.plot_id for p in plots], [p.germplasm_id for p in plots], repeat(cfg["date"]),
                  repeat(cfg["site"]), *map(table.get, fusion.FEATURE_CSV_COLUMNS[4:])))
    _log(f"extract: wrote {len(plots)} plot rows")
    return {"features": features_path, "n_plots": len(plots)}


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def _cmd_fuse(cfg: dict, out_dir: str) -> dict:
    domains = cfg["domains"]
    for domain in domains:
        if domain not in fusion.DOMAINS:
            raise ConfigError("fuse.domains", f"unknown domain {domain!r}")
    # a table that no selected domain reads is not parsed; the feature table
    # stays columns, with no per-row record
    features = fusion.load_feature_records(cfg["features"])
    weather = (fusion.load_weather(cfg["weather"])
               if cfg["weather"] and "weather" in domains else ())
    germplasm = (kb.load_germplasm(cfg["germplasm"])
                 if cfg["germplasm"] and "germplasm" in domains else ())
    matrix = fusion.assemble(features, weather=weather, germplasm=germplasm, domains=domains)
    for plot_id, missing in matrix.dropped:
        _log(f"fuse: dropped plot {plot_id}, missing {', '.join(missing)}")
    result = fusion.kfold_cv(matrix, k=cfg["k"], lam=cfg["lambda"], seed=cfg["seed"])
    for fold, columns in enumerate(result.dropped_columns):
        if columns:
            _log(f"fuse: fold {fold} dropped zero-variance columns {', '.join(columns)}")

    metrics_path = os.path.join(out_dir, "metrics.json")
    write_json(metrics_path, {
        "domains": sorted(set(matrix.domains)),
        "n_plots": matrix.n_rows,
        "n_features": len(matrix.columns),
        "k": result.k,
        "lambda": result.lam,
        "seed": result.seed,
        "per_fold": [
            {"fold": i, "r2": r2, "rmse": rmse} for i, r2, rmse in result.per_fold
        ],
        "pooled": {"r2": result.pooled_r2, "rmse": result.pooled_rmse},
        "dropped_plots": [
            {"plot_id": pid, "missing": list(missing)} for pid, missing in matrix.dropped
        ],
    })
    scatter_path = os.path.join(out_dir, "scatter.csv")
    write_csv(
        scatter_path,
        ("plot_id", "germplasm_id", "measured", "predicted", "exceeds_4230_2"),
        ([pid, gid, meas, pred, "true" if flag else "false"]
         for pid, gid, meas, pred, flag in result.rows),
    )
    _log(f"fuse: pooled R2={result.pooled_r2:.6f} RMSE={result.pooled_rmse:.3f}")
    return {
        "metrics": metrics_path,
        "scatter": scatter_path,
        "pooled_r2": result.pooled_r2,
        "pooled_rmse": result.pooled_rmse,
    }


# ---------------------------------------------------------------------------
# prefopt
# ---------------------------------------------------------------------------


_DIAGNOSTICS = {
    "sft": ("iteration", "loss"),
    "rm": ("iteration", "loss"),
    "ppo": ("iteration", "mean_reward", "mean_kl", "clip_fraction"),
}


def _log_final_loss(stage: str, history: list) -> None:
    if history:
        _log(f"prefopt {stage}: final loss {history[-1]['loss']:.6f}")


def _cmd_prefopt(cfg: dict, out_dir: str) -> dict:
    stages = cfg["stages"]
    for stage in stages:
        if stage not in _STAGES:
            raise ConfigError("prefopt.stages", f"unknown stage {stage!r}")
    _require(cfg, "prefopt", *(f"{stage}_data" for stage in _STAGES if stage in stages))
    policy_path, reference_path, reward_path = (
        os.path.join(out_dir, f"{name}.json") for name in ("policy", "reference", "reward"))
    if "ppo" in stages:  # ppo reads the models that sft and rm write
        for name, path, stage in (("policy", policy_path, "sft"),
                                  ("reference", reference_path, "sft"),
                                  ("reward", reward_path, "rm")):
            if stage not in stages and not os.path.isfile(path):
                raise ConfigError(f"prefopt.{name}", f"{path} missing; run earlier stages first")

    # each stage hands its models to the next in memory, and the artifacts are
    # written after the last stage: a failing stage leaves out_dir as it was,
    # and policy.json is written once, holding the last stage's policy
    outputs: dict = {}
    histories: dict = {}
    policy = reference = rm = None
    if "sft" in stages:
        dataset = prefopt.load_sft_dataset(cfg["sft_data"])
        policy = prefopt.PolicyModel(cfg["vocab_size"], cfg["context_length"], seed=cfg["seed"])
        histories["sft"] = history = prefopt.train_sft(policy, dataset, **cfg["sft"])
        reference = policy.snapshot()
        _log_final_loss("sft", history)
        outputs.update(sft_diagnostics=os.path.join(out_dir, "sft_diagnostics.csv"),
                       policy=policy_path, reference=reference_path)

    if "rm" in stages:
        dataset = prefopt.load_preference_dataset(cfg["rm_data"])
        rm = prefopt.RewardModel(cfg["vocab_size"])
        histories["rm"] = history = prefopt.train_reward(rm, dataset, **cfg["rm"])
        _log_final_loss("rm", history)
        outputs.update(rm_diagnostics=os.path.join(out_dir, "rm_diagnostics.csv"),
                       reward=reward_path)

    if "ppo" in stages:
        prompts = prefopt.load_prompt_dataset(cfg["ppo_data"])
        if policy is None:  # sft ran in an earlier call
            policy = prefopt.load_policy(policy_path)
            reference = prefopt.load_policy(reference_path)
        if rm is None:  # rm ran in an earlier call
            rm = prefopt.load_reward_model(reward_path)
        ppo_config = prefopt.RLHFConfig(seed=cfg["seed"], **cfg["ppo"])
        histories["ppo"] = history = prefopt.run_rlhf(policy, reference, rm, prompts, ppo_config)
        outputs.update(ppo_diagnostics=os.path.join(out_dir, "ppo_diagnostics.csv"),
                       policy=policy_path)
        if history:
            _log(f"prefopt ppo: mean reward {history[-1]['mean_reward']:.6f}, "
                 f"KL {history[-1]['mean_kl']:.6f}")

    for stage, history in histories.items():
        columns = _DIAGNOSTICS[stage]
        write_csv(outputs[f"{stage}_diagnostics"], columns,
                  ([h[c] for c in columns] for h in history))
    if "sft" in stages:
        prefopt.save_policy(reference, reference_path)
    if "rm" in stages:
        prefopt.save_reward_model(rm, reward_path)
    if policy is not None:
        prefopt.save_policy(policy, policy_path)
    return outputs


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(cfg: dict, out_dir: str) -> dict:
    trials = bench.load_trials(cfg["trials"])  # a TrialTable, scored as columns
    ballots = bench.load_ballots(cfg["ballots"]) if cfg["ballots"] else ()
    report = bench.build_report(trials, ballots)
    paths = bench.write_report(report, out_dir)
    _log(f"bench: scored {len(report.models)} models")
    return paths


# ---------------------------------------------------------------------------
# kb
# ---------------------------------------------------------------------------


def _cmd_kb(cfg: dict, out_dir: str) -> dict:
    action = cfg["action"]
    if action == "screen":
        _require(cfg, "kb", "germplasm", "criteria")
        if not cfg["criteria"]:
            raise ConfigError("kb.criteria", "need at least one criterion")
        records = kb.load_germplasm(cfg["germplasm"])
        criteria = [kb.parse_criterion(str(c)) for c in cfg["criteria"]]
        hits = kb.screen_germplasm(records, criteria)
        path = os.path.join(out_dir, "screen_results.csv")
        columns = ("variety_name", "origin", "plant_height", "maturity", "crude_protein")
        write_csv(path, columns, ([r.get_field(c) for c in columns] for r in hits))
        _log(f"kb screen: {len(hits)} matching varieties")
        return {"results": path, "n_matches": len(hits)}
    if action != "price":
        raise ConfigError("kb.action", f"expected 'screen' or 'price', got {action!r}")
    _require(cfg, "kb", "prices", "observation_point", "date")
    prices = kb.load_prices(cfg["prices"])  # a PriceTable: only its hits become records
    hits = kb.query_price(prices, observation_point=cfg["observation_point"],
                          date=cfg["date"], variety=cfg["variety"])
    path = os.path.join(out_dir, "price_results.csv")
    write_csv(path, kb.PRICE_CSV_COLUMNS, map(attrgetter(*kb.PRICE_CSV_COLUMNS), hits))
    _log(f"kb price: {len(hits)} records" if hits else "kb price: no data")
    return {"results": path, "found": bool(hits), "n_records": len(hits)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "extract": _cmd_extract,
    "fuse": _cmd_fuse,
    "prefopt": _cmd_prefopt,
    "bench": _cmd_bench,
    "kb": _cmd_kb,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breedkit",
        description="Plot feature extraction, yield fusion, preference "
                    "optimization, benchmark scoring, and knowledge-base queries.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "extract": "compute the per-plot feature table from rasters, clouds, and masks",
        "fuse": "assemble cross-domain features and cross-validate the yield model",
        "prefopt": "run the sft/rm/ppo preference-optimization stages",
        "bench": "score recorded benchmark trials and reasoning ballots",
        "kb": "query the germplasm/price knowledge base (kb.action: screen|price)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config field (dotted path; value parsed as JSON)")
        p.add_argument("--output-dir", help="directory for output artifacts")
    return parser


_PARSER = build_parser()  # parsing leaves the parser as it was, so every call shares it


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        name = args.subcommand
        config = _check(_load_config(args), {"output_dir": DIR, name: _SCHEMA[name]}, "")
        outputs = _COMMANDS[name](config[name], config["output_dir"])
    except ConfigError as exc:
        _summary({"status": "config_error", "field": exc.field, "message": exc.message})
        return 2
    except BreedkitError as exc:
        _summary({"status": "error", "error": type(exc).__name__, "message": str(exc)})
        return 1
    _summary({"status": "ok", "subcommand": args.subcommand, "outputs": outputs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
