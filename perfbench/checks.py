"""Artifact checks: compare CLI outputs with the scene generator's expectations.

Each check takes the call's output directory and its ``expect`` entry from
``plan.json`` and returns a list of problems; an empty list means the
artifacts are correct. Counts and ratios must match exactly, real-valued
features to ``REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
EXACT = {"FVC", "PL_ratio", "WL_ratio", "SPAD", "LAI", "measured_CH"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) or a == b


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def check_extract(out: str, expect: dict) -> list[str]:
    rows = _read_csv(os.path.join(out, "features.csv"))
    want = expect["features"]
    problems = []
    if [r["plot_id"] for r in rows] != list(want):
        return [f"features.csv plot ids differ ({len(rows)} rows, want {len(want)})"]
    for row in rows:
        pid = row["plot_id"]
        if (row["germplasm_id"], row["date"], row["site"]) != (
                expect["germplasm"][pid], expect["date"], expect["site"]):
            problems.append(f"{pid}: identity columns differ")
        for name, value in want[pid].items():
            got = float(row[name])
            ok = got == value if name in EXACT else _close(got, value)
            if not ok:
                problems.append(f"{pid}.{name}: got {got!r}, want {value!r}")
    return problems


def check_fuse(out: str, expect: dict) -> list[str]:
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    scatter = _read_csv(os.path.join(out, "scatter.csv"))
    problems = []
    if metrics["n_plots"] != expect["n_plots"] or len(scatter) != expect["n_plots"]:
        problems.append(f"row count {metrics['n_plots']}/{len(scatter)}, want {expect['n_plots']}")
    if metrics["k"] != expect["k"] or len(metrics["per_fold"]) != expect["k"]:
        problems.append(f"k {metrics['k']}, want {expect['k']}")
    if "+".join(metrics["domains"]) != "+".join(sorted(expect["domains"].split("+"))):
        problems.append(f"domains {metrics['domains']}, want {expect['domains']}")
    pooled = metrics["pooled"]
    if not _finite((pooled["r2"], pooled["rmse"])):
        problems.append("pooled metrics not finite")
    if "rs_only_out" in expect:  # the all-domain run: planted signal must show
        with open(os.path.join(expect["rs_only_out"], "metrics.json"), encoding="utf-8") as fh:
            rs_r2 = json.load(fh)["pooled"]["r2"]
        if not pooled["r2"] >= expect["r2_floor"]:
            problems.append(f"all-domain pooled R2 {pooled['r2']} below floor {expect['r2_floor']}")
        if not pooled["r2"] >= rs_r2:
            problems.append(f"all-domain pooled R2 {pooled['r2']} below RS-only {rs_r2}")
    return problems


def check_prefopt(out: str, expect: dict) -> list[str]:
    problems = []
    for stage in ("sft", "rm", "ppo"):
        rows = _read_csv(os.path.join(out, f"{stage}_diagnostics.csv"))
        if len(rows) != expect[f"{stage}_iterations"]:
            problems.append(f"{stage}: {len(rows)} rows, want {expect[f'{stage}_iterations']}")
            continue
        values = [v for r in rows for k, v in r.items() if k != "iteration"]
        if not _finite(values):
            problems.append(f"{stage}: non-finite diagnostic")
            continue
        if stage in ("sft", "rm") and not float(rows[-1]["loss"]) < float(rows[0]["loss"]):
            problems.append(f"{stage}: loss did not fall")
        if stage == "ppo" and any(float(r["mean_kl"]) < 0.0 for r in rows):
            problems.append("ppo: negative mean_kl")
    for name in ("policy.json", "reference.json", "reward.json"):
        if not os.path.isfile(os.path.join(out, name)):
            problems.append(f"missing {name}")
    return problems


def _r2_rmse(y_true, y_pred) -> tuple[float, float]:
    n = len(y_true)
    mean = sum(y_true) / n
    sse = sum((t - p) ** 2 for t, p in zip(y_true, y_pred))
    sst = sum((t - mean) ** 2 for t in y_true)
    return 1.0 - sse / sst, math.sqrt(sse / n)


def check_bench(out: str, expect: dict) -> list[str]:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if report["models"] != sorted(expect["models"]):
        problems.append(f"models {report['models']}, want {sorted(expect['models'])}")
    for key, group in expect["groups"].items():
        model, sub = key.split("/")
        got = report["accuracy"].get(model, {}).get(sub)
        if got is None or got["n"] != group["n"]:
            problems.append(f"{key}: missing or wrong n")
            continue
        if "hits" in group:
            metric = {"categorical": "accuracy", "judged_correctness": "proportion_correct",
                      "price_consistency": "price_consistency"}[got["kind"]]
            if got[metric] != group["hits"] / group["n"]:
                problems.append(f"{key}: {metric} {got[metric]}, want {group['hits']}/{group['n']}")
        else:
            r2, rmse = _r2_rmse(group["y_true"], group["y_pred"])
            if not (_close(got["r2"], r2) and _close(got["rmse"], rmse)):
                problems.append(f"{key}: r2/rmse {got['r2']}/{got['rmse']}, want {r2}/{rmse}")
    for key, planted in expect["stability"].items():
        model, sub = key.split("/")
        got = report["stability"].get(model, {}).get(sub)
        protocol = planted["protocol"]
        if (got is None or got[f"n_{protocol}"] != planted["n"]
                or got[protocol] != planted["passes"] / planted["n"] or got["excluded"]):
            problems.append(f"{key}: stability {got}, want {planted}")
    for model, axes in expect["reasoning"].items():
        for axis, value in axes.items():
            got = report["reasoning"].get(model, {}).get(axis)
            if got is None or not _close(got, value):
                problems.append(f"reasoning {model}/{axis}: {got}, want {value}")
    return problems


def check_kb_price(out: str, expect: list) -> list[str]:
    rows = _read_csv(os.path.join(out, "price_results.csv"))
    got = [[r["observation_point"], r["variety_name"], float(r["price"]), float(r["specification"]),
            r["planting_area"], r["date"]] for r in rows]
    return [] if got == expect else [f"price rows {got}, want {expect}"]


def check_kb_screen(out: str, expect: list) -> list[str]:
    names = [r["variety_name"] for r in _read_csv(os.path.join(out, "screen_results.csv"))]
    return [] if names == expect else [f"screen returned {len(names)} varieties, want {len(expect)}"]


CHECKS = {
    "extract": check_extract,
    "fuse": check_fuse,
    "prefopt": check_prefopt,
    "bench": check_bench,
    "kb_price": check_kb_price,
    "kb_screen": check_kb_screen,
}
