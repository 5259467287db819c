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

from . import bench, fusion, geodata, kb, prefopt, spectral, structural
from ._io import csv_rows, write_csv, write_json
from .errors import BreedkitError, ParseError

# MS band centers (nm). MS indices pick their bands by name, so these only tag the bands.
MS_BAND_CENTERS_NM = {
    "blue": 450.0,
    "green": 560.0,
    "red": 650.0,
    "red_edge": 730.0,
    "nir": 840.0,
}


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
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"invalid JSON: {exc}")
            except UnicodeDecodeError:
                raise ConfigError("config", "not UTF-8 text")
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
        node = config
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(path, "override path collides with a non-object value")
        node[keys[-1]] = value
    if args.output_dir:
        config["output_dir"] = args.output_dir
    return config


def _get(config: dict, path: str, kind=None, required=True, default=None):
    """The value at a dotted ``path``; a segment ``key[i]`` indexes a list."""
    node = config
    for key in path.replace("[", ".[").split("."):
        if key.startswith("["):
            key = int(key[1:-1])
            present = isinstance(node, list) and key < len(node)
        else:
            present = isinstance(node, dict) and key in node
        if not present:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[key]
    if kind is not None and not isinstance(node, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(path, f"expected {names}, got {type(node).__name__}")
    return node


def _get_path(config: dict, path: str, required=True):
    value = _get(config, path, kind=str, required=required)
    if value is None:
        return None
    if not os.path.isfile(value):
        raise ConfigError(path, f"file not found: {value}")
    return value


def _get_number(config: dict, path: str, required=True, default=None):
    value = _get(config, path, required=required, default=default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _get_int(config: dict, path: str, required=True, default=None):
    value = _get(config, path, required=required, default=default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _output_dir(config: dict) -> str:
    out = _get(config, "output_dir", kind=str)
    os.makedirs(out, exist_ok=True)
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def _load_elevation(config: dict, path: str) -> geodata.RasterGrid:
    spec = _get(config, path, kind=dict)
    if "raster" in spec:
        return geodata.load_raster(_get_path(config, f"{path}.raster"))
    if "point_cloud" in spec:
        cloud = geodata.load_point_cloud(_get_path(config, f"{path}.point_cloud"))
        cell_size = _get_number(config, f"{path}.cell_size")
        aggregator = _get(config, f"{path}.aggregator", kind=str, required=False, default="mean")
        return geodata.rasterize_elevation(cloud, cell_size, aggregator)
    raise ConfigError(path, "need either 'raster' or 'point_cloud'")


def _load_ms_bands(config: dict) -> geodata.BandSet:
    bands = {}
    for name, nm in MS_BAND_CENTERS_NM.items():
        bands[name] = (geodata.load_raster(_get_path(config, f"extract.ms_bands.{name}")), nm)
    return geodata.BandSet(bands=bands, sensor_kind="MS")


def _load_hs_bands(config: dict) -> geodata.BandSet:
    entries = _get(config, "extract.hs_bands", kind=list)
    bands = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"extract.hs_bands[{i}]", "expected an object")
        if "path" not in entry or "wavelength_nm" not in entry:
            raise ConfigError(f"extract.hs_bands[{i}]", "need 'path' and 'wavelength_nm'")
        grid = geodata.load_raster(_get_path(config, f"extract.hs_bands[{i}].path"))
        nm = _get_number(config, f"extract.hs_bands[{i}].wavelength_nm")
        bands[f"b{nm:g}"] = (grid, nm)
    return geodata.BandSet(bands=bands, sensor_kind="HS")


def _measurement_number(rec: dict, key: str, lineno: int) -> float:
    raw = (rec.get(key) or "").strip()
    if not raw:
        raise ParseError(f"missing {key}", line=lineno)
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric {key}: {raw!r}", line=lineno)


def _load_measurements(path: str) -> dict:
    """plot_id -> {SPAD?, LAI?, measured_CH?, yield_kg_ha?}."""
    out: dict = {}
    for lineno, rec in csv_rows(path, ("plot_id",)):
        entry: dict = {}
        for key in ("SPAD", "LAI", "measured_CH"):
            if (rec.get(key) or "").strip():
                entry[key] = _measurement_number(rec, key, lineno)
        if (rec.get("raw_mass_kg") or "").strip():
            entry["yield_kg_ha"] = fusion.standardize_yield(
                _measurement_number(rec, "raw_mass_kg", lineno),
                _measurement_number(rec, "plot_area_ha", lineno),
                _measurement_number(rec, "moisture", lineno),
            )
        out[rec["plot_id"].strip()] = entry
    return out


def _cells_on(cells: dict, grid: geodata.RasterGrid, plot) -> geodata.PlotCells:
    """``plot``'s cells on ``grid``, selected once per grid geometry into ``cells``."""
    if grid.geometry not in cells:
        cells[grid.geometry] = geodata.plot_cells(grid, plot)
    return cells[grid.geometry]


def _cmd_extract(config: dict) -> dict:
    out_dir = _output_dir(config)
    plots = geodata.load_plots(_get_path(config, "extract.plots"))
    date = _get(config, "extract.date", kind=str)
    site = _get(config, "extract.site", kind=str, required=False, default="")

    savi_l = _get_number(config, "extract.params.savi_l", required=False, default=0.5)
    kndvi_sigma = _get_number(config, "extract.params.kndvi_sigma", required=False)
    ch_percentile = _get_number(config, "extract.params.ch_percentile", required=False, default=0.95)
    noise_floor = _get_number(config, "extract.params.noise_floor_m", required=False,
                              default=structural.DEFAULT_NOISE_FLOOR_M)
    ring_inner = _get_number(config, "extract.params.ring_inner_m", required=False, default=0.1)
    ring_outer = _get_number(config, "extract.params.ring_outer_m", required=False, default=0.2)
    restrict_vi = bool(_get(config, "extract.params.vi_restrict_to_vegetation",
                            required=False, default=False))

    ms = _load_ms_bands(config)
    hs = _load_hs_bands(config)
    veg_mask = geodata.load_raster(_get_path(config, "extract.vegetation_mask"))
    lodging_mask = geodata.load_raster(_get_path(config, "extract.lodging_mask"))
    weed_mask = geodata.load_raster(_get_path(config, "extract.weed_mask"))
    dsm = _load_elevation(config, "extract.dsm")
    dem = _load_elevation(config, "extract.dem")
    chm = structural.canopy_height_model(dsm, dem, noise_floor=noise_floor)
    head_counts = structural.load_head_counts(_get_path(config, "extract.head_counts"))
    altitude = _get_number(config, "extract.flight.altitude_m")
    fov_h = _get_number(config, "extract.flight.fov_h_deg")
    fov_v = _get_number(config, "extract.flight.fov_v_deg")

    measurements_path = _get_path(config, "extract.measurements", required=False)
    measurements = _load_measurements(measurements_path) if measurements_path else {}

    vi_layers = {}
    for index_name in spectral.VI_NAMES:
        vi_layers[f"{index_name}_MS"] = spectral.vi_map(ms, index_name, L=savi_l,
                                                        kndvi_sigma=kndvi_sigma)
        if index_name == "PSRI":
            vi_layers["PSRI_HS"] = spectral.psri_hs(hs)
        else:
            vi_layers[f"{index_name}_HS"] = spectral.vi_map(hs, index_name, L=savi_l,
                                                            kndvi_sigma=kndvi_sigma)

    for mask in (veg_mask, lodging_mask, weed_mask):
        geodata.require_binary_mask(mask)

    records = []
    for plot in plots:
        features = {}
        cells: dict = {}  # this plot's PlotCells per grid geometry
        restrict = veg_mask if restrict_vi else None
        for column, layer in vi_layers.items():
            features[column] = spectral.plot_statistic(
                layer, _cells_on(cells, layer, plot), restrict_to=restrict,
                feature_name=column,
            ).value
        chm_cells = _cells_on(cells, chm, plot)
        features["CH"] = structural.plot_canopy_height(chm, chm_cells, percentile=ch_percentile).value
        features["CV"] = structural.canopy_volume(chm, chm_cells).volume
        features["FVC"] = spectral.fvc(veg_mask, _cells_on(cells, veg_mask, plot)).value
        features["PL_ratio"] = structural.classify_lodging(
            lodging_mask, _cells_on(cells, lodging_mask, plot)
        ).ratio
        ring = geodata.buffer_ring(plot, ring_inner, ring_outer)
        features["WL_ratio"] = structural.classify_weed(weed_mask, geodata.UnionRegion(plot, ring)).ratio
        if plot.plot_id not in head_counts:
            raise BreedkitError(f"no head counts for plot {plot.plot_id}")
        features["WH_density"] = structural.wheat_head_density(
            head_counts[plot.plot_id], altitude, fov_h, fov_v
        ).density

        extra = measurements.get(plot.plot_id, {})
        for key in ("SPAD", "LAI", "measured_CH"):
            if key in extra:
                features[key] = extra[key]
        records.append(
            fusion.PlotFeatureRecord(
                plot_id=plot.plot_id,
                germplasm_id=plot.germplasm_id,
                date=date,
                site=site,
                features=features,
                yield_kg_ha=extra.get("yield_kg_ha"),
            )
        )

    features_path = os.path.join(out_dir, "features.csv")
    fusion.write_feature_records(records, features_path)
    _log(f"extract: wrote {len(records)} plot rows")
    return {"features": features_path, "n_plots": len(records)}


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def _cmd_fuse(config: dict) -> dict:
    out_dir = _output_dir(config)
    records = fusion.load_feature_records(_get_path(config, "fuse.features"))
    weather_path = _get_path(config, "fuse.weather", required=False)
    germplasm_path = _get_path(config, "fuse.germplasm", required=False)
    domains = _get(config, "fuse.domains", kind=list, required=False,
                   default=list(fusion.DOMAINS))
    lam = _get_number(config, "fuse.lambda", required=False, default=1.0)
    k = _get_int(config, "fuse.k")
    seed = _get_int(config, "fuse.seed")  # mandatory: fold shuffling is stochastic

    weather = fusion.load_weather(weather_path) if weather_path else ()
    germplasm = kb.load_germplasm(germplasm_path) if germplasm_path else ()
    matrix = fusion.assemble(records, weather=weather, germplasm=germplasm, domains=domains)
    for plot_id, missing in matrix.dropped:
        _log(f"fuse: dropped plot {plot_id}, missing {', '.join(missing)}")
    result = fusion.kfold_cv(matrix, k=k, lam=lam, seed=seed)

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
        ([pid, gid, _fmt(meas), _fmt(pred), _fmt(flag)]
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


def _cmd_prefopt(config: dict) -> dict:
    out_dir = _output_dir(config)
    stages = _get(config, "prefopt.stages", kind=list, required=False,
                  default=["sft", "rm", "ppo"])
    for stage in stages:
        if stage not in ("sft", "rm", "ppo"):
            raise ConfigError("prefopt.stages", f"unknown stage {stage!r}")
    vocab_size = _get_int(config, "prefopt.vocab_size")
    context_length = _get_int(config, "prefopt.context_length")
    seed = _get_int(config, "prefopt.seed")  # mandatory: sampling is stochastic

    outputs: dict = {}
    policy_path = os.path.join(out_dir, "policy.json")
    reference_path = os.path.join(out_dir, "reference.json")
    reward_path = os.path.join(out_dir, "reward.json")

    if "sft" in stages:
        dataset = prefopt.load_sft_dataset(_get_path(config, "prefopt.sft_data"))
        policy = prefopt.PolicyModel(vocab_size, context_length, seed=seed)
        history = prefopt.train_sft(
            policy,
            dataset,
            learning_rate=_get_number(config, "prefopt.sft.learning_rate", required=False, default=0.5),
            iterations=_get_int(config, "prefopt.sft.iterations", required=False, default=100),
        )
        diag_path = os.path.join(out_dir, "sft_diagnostics.csv")
        write_csv(diag_path, ("iteration", "loss"),
                  ([h["iteration"], _fmt(h["loss"])] for h in history))
        prefopt.save_policy(policy, policy_path)
        prefopt.save_policy(policy.snapshot(), reference_path)
        outputs.update(sft_diagnostics=diag_path, policy=policy_path, reference=reference_path)
        _log(f"prefopt sft: final loss {history[-1]['loss']:.6f}")

    if "rm" in stages:
        dataset = prefopt.load_preference_dataset(_get_path(config, "prefopt.rm_data"))
        rm = prefopt.RewardModel(vocab_size)
        history = prefopt.train_reward(
            rm,
            dataset,
            learning_rate=_get_number(config, "prefopt.rm.learning_rate", required=False, default=0.5),
            iterations=_get_int(config, "prefopt.rm.iterations", required=False, default=100),
        )
        diag_path = os.path.join(out_dir, "rm_diagnostics.csv")
        write_csv(diag_path, ("iteration", "loss"),
                  ([h["iteration"], _fmt(h["loss"])] for h in history))
        prefopt.save_reward_model(rm, reward_path)
        outputs.update(rm_diagnostics=diag_path, reward=reward_path)
        _log(f"prefopt rm: final loss {history[-1]['loss']:.6f}")

    if "ppo" in stages:
        for name, path in (("policy", policy_path), ("reference", reference_path),
                           ("reward", reward_path)):
            if not os.path.isfile(path):
                raise ConfigError(f"prefopt.{name}", f"{path} missing; run earlier stages first")
        prompts = prefopt.load_prompt_dataset(_get_path(config, "prefopt.ppo_data"))
        policy = prefopt.load_policy(policy_path)
        reference = prefopt.load_policy(reference_path)
        rm = prefopt.load_reward_model(reward_path)
        ppo_config = prefopt.RLHFConfig(
            beta=_get_number(config, "prefopt.ppo.beta", required=False, default=0.1),
            learning_rate=_get_number(config, "prefopt.ppo.learning_rate", required=False, default=0.1),
            ppo_clip=_get_number(config, "prefopt.ppo.ppo_clip", required=False, default=0.2),
            iterations=_get_int(config, "prefopt.ppo.iterations", required=False, default=100),
            seed=seed,
            samples_per_prompt=_get_int(config, "prefopt.ppo.samples_per_prompt",
                                        required=False, default=4),
            epochs=_get_int(config, "prefopt.ppo.epochs", required=False, default=1),
        )
        history = prefopt.run_rlhf(policy, reference, rm, prompts, ppo_config)
        diag_path = os.path.join(out_dir, "ppo_diagnostics.csv")
        write_csv(
            diag_path,
            ("iteration", "mean_reward", "mean_kl", "clip_fraction"),
            ([h["iteration"], _fmt(h["mean_reward"]), _fmt(h["mean_kl"]),
              _fmt(h["clip_fraction"])] for h in history),
        )
        prefopt.save_policy(policy, policy_path)
        outputs.update(ppo_diagnostics=diag_path, policy=policy_path)
        if history:
            _log(f"prefopt ppo: mean reward {history[-1]['mean_reward']:.6f}, "
                 f"KL {history[-1]['mean_kl']:.6f}")

    return outputs


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(config: dict) -> dict:
    out_dir = _output_dir(config)
    trials = bench.load_trials(_get_path(config, "bench.trials"))
    ballots_path = _get_path(config, "bench.ballots", required=False)
    ballots = bench.load_ballots(ballots_path) if ballots_path else ()
    report = bench.build_report(trials, ballots)
    paths = bench.write_report(report, out_dir)
    _log(f"bench: scored {len(report.models)} models")
    return paths


# ---------------------------------------------------------------------------
# kb
# ---------------------------------------------------------------------------


def _cmd_kb(config: dict) -> dict:
    out_dir = _output_dir(config)
    action = _get(config, "kb.action", kind=str)
    if action == "screen":
        records = kb.load_germplasm(_get_path(config, "kb.germplasm"))
        raw_criteria = _get(config, "kb.criteria", kind=list)
        if not raw_criteria:
            raise ConfigError("kb.criteria", "need at least one criterion")
        criteria = [kb.parse_criterion(str(c)) for c in raw_criteria]
        hits = kb.screen_germplasm(records, criteria)
        path = os.path.join(out_dir, "screen_results.csv")
        write_csv(
            path,
            ("variety_name", "origin", "plant_height", "maturity", "crude_protein"),
            ([
                r.variety_name,
                r.origin,
                _fmt(r.agronomic["plant_height"]) if "plant_height" in r.agronomic else "",
                _fmt(r.agronomic["maturity"]) if "maturity" in r.agronomic else "",
                _fmt(r.quality["crude_protein"]) if "crude_protein" in r.quality else "",
            ] for r in hits),
        )
        _log(f"kb screen: {len(hits)} matching varieties")
        return {"results": path, "n_matches": len(hits)}
    if action == "price":
        records = kb.load_prices(_get_path(config, "kb.prices"))
        hits = kb.query_price(
            records,
            observation_point=_get(config, "kb.observation_point", kind=str),
            date=_get(config, "kb.date", kind=str),
            variety=_get(config, "kb.variety", kind=str, required=False),
        )
        path = os.path.join(out_dir, "price_results.csv")
        write_csv(
            path,
            ("observation_point", "variety_name", "price", "specification", "planting_area", "date"),
            ([r.observation_point, r.variety_name, _fmt(r.price), _fmt(r.specification),
              r.planting_area, r.date.isoformat()] for r in hits),
        )
        _log(f"kb price: {len(hits)} records" if hits else "kb price: no data")
        return {"results": path, "found": bool(hits), "n_records": len(hits)}
    raise ConfigError("kb.action", f"expected 'screen' or 'price', got {action!r}")


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        outputs = _COMMANDS[args.subcommand](config)
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
