#!/usr/bin/env python3
"""breedkit benchmark: generate a seeded scene, run the CLI on it, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run from anywhere inside a checkout that holds ``src/breedkit``. Each run
generates the workload's scene under ``.perfbench_runs/`` (excluded from the
timings), times worker set-up in several fresh processes, then hands the
scene to one single-threaded worker process that runs the CLI calls in a
closed loop for S seconds and checks every artifact. It prints each metric
as ``name = value unit`` and, last, one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import scene

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
THREAD_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SPAN_STATS = ("calls", "total_s", "self_s", "p50_ms", "p90_ms")
P90_MIN_CALLS = 100  # per pass; fewer calls report p90_ms as 0
MODULES = ("geodata", "spectral", "structural", "fusion", "prefopt", "bench", "kb")
COMMANDS = ("extract", "fuse", "prefopt", "bench", "kb")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or a worker died)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _host(plan: dict, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a bare checkout has no commit to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "breedkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_pin": THREAD_PIN,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": plan["workload"],
        "seed": plan["seed"],
        "size": plan["size"],
        "scene": plan["dims"],
    }


def _median_by_cmd(passes: list[dict], cmd: str) -> float:
    return statistics.median(p["by_cmd"].get(cmd, 0.0) for p in passes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: dict, dims: dict) -> dict:
    """Every derivable per-layer value, keyed by metric name."""
    stats, counts = result["stats"], result["counts"]
    runs = len(result["traced_passes"])
    empty = dict.fromkeys(SPAN_STATS, 0.0)
    values = {}
    for name, s in stats.items():
        if s["calls"] < P90_MIN_CALLS:
            s = dict(s, p90_ms=0.0)
        for stat in SPAN_STATS:
            values[f"{name}.{stat}"] = s[stat]

    def stat(name, key):
        return stats.get(name, empty)[key]

    def count(name, key):
        return counts.get(name, {}).get(key, 0) / runs

    tested = count("geodata.point_in_polygon", "points_tested")
    values["geodata.point_in_polygon.points_tested"] = tested
    values["geodata.point_in_polygon.hit_ratio"] = _ratio(
        count("geodata.point_in_polygon", "points_inside"), tested)
    values["spectral.plot_statistic.cells"] = count("spectral.plot_statistic", "cells")
    values["geodata.load_raster.cells_per_s"] = _ratio(
        count("geodata.load_raster", "cells"), stat("geodata.load_raster", "self_s"))
    values["geodata.load_point_cloud.points_per_s"] = _ratio(
        count("geodata.load_point_cloud", "points"), stat("geodata.load_point_cloud", "self_s"))
    for module in MODULES:
        values[f"{module}.calls"] = sum(s["calls"] for n, s in stats.items()
                                        if n.startswith(module + "."))
    extract = stat("cli.extract", "total_s")
    values["extract.select_share"] = _ratio(stat("geodata.plot_mask", "total_s"), extract)
    values["extract.parse_share"] = _ratio(
        sum(stat(f"geodata.{f}", "total_s")
            for f in ("load_raster", "load_point_cloud", "rasterize_elevation")), extract)
    values["prefopt.kl_share"] = _ratio(stat("prefopt.mean_kl", "total_s"),
                                        stat("prefopt.run_rlhf", "total_s"))
    values["extract.plot_cover_frac"] = dims.get("plot_cover_frac", 0.0)
    values["extract.cells_per_plot"] = dims.get("cells_per_plot", 0)
    untraced = result["passes"]
    for cmd in COMMANDS:
        values[f"{cmd}_s"] = _median_by_cmd(untraced, cmd)
    traced = result["traced_passes"]
    values["trace.untraced_pass_s"] = statistics.median(p["wall_s"] for p in untraced)
    values["trace.traced_pass_s"] = statistics.median(p["wall_s"] for p in traced)
    # compared relative to the reference, which cancels the host's speed drift
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] / p["ref_s"] for p in traced)
                                     / statistics.median(p["wall_s"] / p["ref_s"] for p in untraced)
                                     - 1.0)
    values["calls_attempted"] = result["attempted"]
    values["error_rate"] = result["failed"] / result["attempted"]
    return values


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    """Generate, run and measure one workload; return the printed result."""
    run_dir = os.path.join(ROOT, ".perfbench_runs", f"{workload}-{size}")
    scene_dir = os.path.join(run_dir, "scene")
    shutil.rmtree(scene_dir, ignore_errors=True)
    plan = scene.build(workload, seed, size, scene_dir)

    setups = [json.loads(_run_worker(["--setup-only"], 30).stdout)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result_path = os.path.join(run_dir, f"result-trace{int(trace)}.json")
    args = [os.path.join(scene_dir, "plan.json"), result_path, "--seconds", str(seconds)]
    _run_worker(args + (["--trace"] if trace else []), timeout=seconds + 120)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append(result["setup_s"])

    if trace:
        values = per_layer(result, plan["dims"])
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_vs_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in result["passes"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    host = _host(plan, result["numpy"])
    n_passes = len(result["passes"]) + len(result.get("traced_passes", []))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"host": host, "setup_probes_s": setups, "metrics": metrics, "worker": result}, fh)

    print(f"# {workload} seed={seed} size={size} trace={int(trace)} passes={n_passes} "
          f"calls={result['attempted']} failed={result['failed']}")
    print(f"# host: {json.dumps({k: v for k, v in host.items() if k != 'scene'}, sort_keys=True)}")
    print(f"# scene: {json.dumps(plan['dims'], sort_keys=True)}")
    print(f"# untraced pass: median wall {statistics.median(p['wall_s'] for p in result['passes'])!r} s, "
          f"median reference {statistics.median(p['ref_s'] for p in result['passes'])!r} s")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not trace:
        print(f"error_rate = {result['failed'] / result['attempted']!r} ratio")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=scene.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="scene size; tiny is for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "breedkit", "cli.py")):
        print(f"perfbench: no breedkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    runs = ([(w, t) for w in scene.WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    outcomes = {}
    try:
        for workload, trace in runs:
            outcomes[(workload, trace)] = run_workload(spec, workload, args.seed, seconds, trace,
                                                       args.size)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        summary = next(iter(outcomes.values()))
    else:
        summary = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{'traced' if t else 'untraced'}.error_rate":
                        {"value": o["failed"] / o["attempted"], "unit": "ratio"}
                        for (w, t), o in outcomes.items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
