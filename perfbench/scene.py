"""Seeded, vectorised scene generator for the breedkit benchmark.

``build(workload, seed, size, out_dir)`` writes every input file a workload
needs, the CLI configs, and ``plan.json``: the list of CLI calls one pass
makes plus the expectation each artifact is checked against. The
expectations come from this module's own arrays (slice-based selection on
cell-aligned rectangles, integer ring distances, planted counts), never from
breedkit code.

Field geometry: plots are cell-aligned rectangles, so every plot edge lies
half a cell from the nearest cell centre; the weed ring radii are 2 and 4
cells, which no centre-to-rectangle distance on a half-cell lattice equals.
Cell selection is therefore a plain array slice, free of boundary ties.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os

import numpy as np

NODATA = -9999.0
CELL = 0.05
RING_INNER_CELLS, RING_OUTER_CELLS = 2, 4
ALTITUDE, FOV_H, FOV_V = 3.0, 62.2, 48.8
MS_RANGES = {
    "blue": (0.02, 0.10),
    "green": (0.05, 0.20),
    "red": (0.03, 0.15),
    "red_edge": (0.20, 0.40),
    "nir": (0.30, 0.70),
}
# The six wavelengths the indices resolve (red 650, green 560, nir 840 and
# PSRI's 680/500/750) plus extras at least 20 nm from every target.
HS_RANGES = {
    500: (0.03, 0.12), 560: (0.05, 0.20), 650: (0.03, 0.15),
    680: (0.04, 0.16), 750: (0.25, 0.50), 840: (0.30, 0.70),
    450: (0.02, 0.10), 530: (0.04, 0.18), 600: (0.04, 0.16),
    710: (0.10, 0.30), 790: (0.28, 0.60), 900: (0.30, 0.65),
}
FEATURES = (
    "NDVI_MS", "SAVI_MS", "kNDVI_MS", "NIRv_MS", "PSRI_MS",
    "NDVI_HS", "SAVI_HS", "kNDVI_HS", "NIRv_HS", "PSRI_HS",
    "CH", "CV", "FVC", "PL_ratio", "WL_ratio", "WH_density",
    "SPAD", "LAI", "measured_CH",
)
FEATURE_CSV_HEADER = ("plot_id", "germplasm_id", "date", "site") + FEATURES + ("yield_kg_ha",)

# Scene sizes per workload. "full" is what the benchmark measures; "tiny"
# exists for the self-test and keeps every code path of the full scene.
SIZES = {
    "field_many_plots": {
        "full": dict(grid=96, plots_per_side=12, plot_cells=5, hs_bands=6, points_per_cell=1),
        "tiny": dict(grid=24, plots_per_side=3, plot_cells=4, hs_bands=6, points_per_cell=1),
    },
    "field_large_plots": {
        "full": dict(grid=200, plots_per_side=2, plot_cells=94, hs_bands=12, points_per_cell=2),
        "tiny": dict(grid=30, plots_per_side=2, plot_cells=12, hs_bands=12, points_per_cell=2),
    },
    "prefopt_exact_kl": {
        "full": dict(vocab=8, context=3, prompts=8, samples=8, epochs=2,
                     sft_iterations=30, rm_iterations=30, ppo_iterations=4),
        "tiny": dict(vocab=4, context=2, prompts=3, samples=2, epochs=2,
                     sft_iterations=5, rm_iterations=5, ppo_iterations=2),
    },
    "tables": {
        "full": dict(plots=600, dates=3, sites=8, germplasm=2000, k=10,
                     models=4, questions=400, ballots=300, prices=12000, price_queries=5),
        "tiny": dict(plots=60, dates=2, sites=4, germplasm=80, k=3,
                     models=3, questions=6, ballots=6, prices=200, price_queries=2),
    },
}
WORKLOADS = tuple(SIZES)


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _write_asc(path, values: np.ndarray) -> None:
    rows, cols = values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {cols}\nnrows {rows}\nxllcorner 0.0\nyllcorner 0.0\n")
        fh.write(f"cellsize {CELL!r}\nNODATA_value {NODATA!r}\n")
        fh.write("\n".join(" ".join(map(repr, row)) for row in values.tolist()))
        fh.write("\n")


def _write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_json(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def _call(cmd: str, config_path: str, out_dir: str, check: str, expect) -> dict:
    return {
        "cmd": cmd,
        "argv": [cmd, "--config", config_path, "--output-dir", out_dir],
        "out": out_dir,
        "check": check,
        "expect": expect,
    }


# ---------------------------------------------------------------------------
# field scenes (extract)
# ---------------------------------------------------------------------------


def _nearest_rank(values: np.ndarray, p: float) -> float:
    ordered = np.sort(values)
    return float(ordered[max(1, math.ceil(p * ordered.size)) - 1])


def _ring_member(n: int, r0: int, c0: int, size: int) -> tuple[slice, slice, np.ndarray]:
    """Window around a plot and its plot-union-ring membership inside it.

    Distances are measured in half-cell units between cell centres and the
    rectangle, so the ring test (inner, outer] is exact integer arithmetic.
    """
    pad = RING_OUTER_CELLS + 1
    rs = slice(max(0, r0 - pad), min(n, r0 + size + pad))
    cs = slice(max(0, c0 - pad), min(n, c0 + size + pad))
    rows = np.arange(rs.start, rs.stop)[:, None]
    cols = np.arange(cs.start, cs.stop)[None, :]
    hy = np.where(rows < r0, 2 * (r0 - rows) - 1, np.where(rows >= r0 + size, 2 * (rows - r0 - size) + 1, 0))
    hx = np.where(cols < c0, 2 * (c0 - cols) - 1, np.where(cols >= c0 + size, 2 * (cols - c0 - size) + 1, 0))
    d2 = hx * hx + hy * hy
    inside = (hx == 0) & (hy == 0)
    ring = ~inside & (d2 > (2 * RING_INNER_CELLS) ** 2) & (d2 <= (2 * RING_OUTER_CELLS) ** 2)
    return rs, cs, inside | ring


def _vi(red, green, nir) -> dict:
    ndvi = (nir - red) / (nir + red)
    return {
        "NDVI": ndvi,
        "SAVI": 1.5 * (nir - red) / (nir + red + 0.5),
        "kNDVI": np.tanh(ndvi * ndvi),
        "NIRv": nir * ndvi,
        "PSRI": (red - green) / nir,
    }


def _field(out: str, rng: np.random.Generator, grid: int, plots_per_side: int,
           plot_cells: int, hs_bands: int, points_per_cell: int) -> dict:
    n = grid
    tile = n // plots_per_side
    offset = (tile - plot_cells) // 2
    ms = {name: rng.uniform(lo, hi, (n, n)) for name, (lo, hi) in MS_RANGES.items()}
    wavelengths = list(HS_RANGES)[:hs_bands]
    hs = {nm: rng.uniform(*HS_RANGES[nm], (n, n)) for nm in wavelengths}

    n_plots = plots_per_side * plots_per_side
    plot_index = np.full((n, n), -1)
    origins = []
    for k in range(n_plots):
        r0 = (k // plots_per_side) * tile + offset
        c0 = (k % plots_per_side) * tile + offset
        plot_index[r0:r0 + plot_cells, c0:c0 + plot_cells] = k
        origins.append((r0, c0))
    in_plot = plot_index >= 0
    density = rng.uniform(0.0, 1.0, (n_plots, 3))
    draws = rng.random((3, n, n))
    masks = {}
    for m, name in enumerate(("vegetation", "lodging", "weed")):
        background = 0.3 if name == "weed" else 0.0
        p = np.where(in_plot, density[plot_index, m], background)
        masks[name] = (draws[m] < p).astype(np.float64)

    # Point clouds: each point sits inside its cell, away from cell edges.
    crop = np.where(in_plot, rng.uniform(0.5, 1.1, n_plots)[plot_index], 0.0)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cx = (jj + 0.5) * CELL
    cy = (n - ii - 0.5) * CELL
    terrain = 10.0 + 0.02 * cx + 0.01 * cy
    shape = (points_per_cell, n, n)
    ground_z = terrain + rng.uniform(0.0, 0.02, shape)
    canopy_z = terrain + crop + np.where(in_plot, rng.uniform(-0.05, 0.0, shape),
                                         rng.uniform(0.0, 0.02, shape))
    clouds = {}
    for name, z in (("ground", ground_z), ("canopy", canopy_z)):
        px = (jj + rng.uniform(0.2, 0.8, shape)) * CELL
        py = (n - ii - 1 + rng.uniform(0.2, 0.8, shape)) * CELL
        path = os.path.join(out, f"{name}_cloud.xyz")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# synthetic benchmark point cloud\n")
            fh.write("\n".join(f"{x!r} {y!r} {h!r}" for x, y, h in zip(
                px.ravel().tolist(), py.ravel().tolist(), z.ravel().tolist())))
            fh.write("\n")
        clouds[name] = path
    dsm = canopy_z.max(axis=0)
    dem = ground_z.min(axis=0)
    diff = dsm - dem
    chm = np.where(diff >= -0.05, np.maximum(diff, 0.0), np.nan)

    for name, band in ms.items():
        _write_asc(os.path.join(out, f"ms_{name}.asc"), band)
    for nm, band in hs.items():
        _write_asc(os.path.join(out, f"hs_{nm}.asc"), band)
    for name, mask in masks.items():
        _write_asc(os.path.join(out, f"{name}_mask.asc"), mask)

    plot_ids = [f"P{k:04d}" for k in range(n_plots)]
    plot_rows, head_rows, meas_rows = [], [], []
    expected = {}
    vi_ms = _vi(ms["red"], ms["green"], ms["nir"])
    vi_hs = _vi(hs[650], hs[560], hs[840])
    vi_hs["PSRI"] = (hs[680] - hs[500]) / hs[750]
    width = 2.0 * ALTITUDE * math.tan(math.radians(FOV_H) / 2.0)
    height = 2.0 * ALTITUDE * math.tan(math.radians(FOV_V) / 2.0)
    for k, (r0, c0) in enumerate(origins):
        pid = plot_ids[k]
        x0, x1 = c0 * CELL, (c0 + plot_cells) * CELL
        y1, y0 = (n - r0) * CELL, (n - r0 - plot_cells) * CELL
        for idx, (x, y) in enumerate(((x0, y0), (x1, y0), (x1, y1), (x0, y1))):
            plot_rows.append((pid, f"G{k % 97:03d}", idx, _fmt(x), _fmt(y)))
        counts = rng.integers(30, 90, 3).tolist()
        head_rows += [(pid, f"img{i}", c) for i, c in enumerate(counts)]
        spad, lai, mch = (round(float(v), 2) for v in rng.uniform((35, 2, 0.5), (50, 5, 1.1)))
        mass, moisture = round(float(rng.uniform(1.5, 3.0)), 3), round(float(rng.uniform(0.1, 0.2)), 3)
        area_ha = 0.0004
        meas_rows.append((pid, _fmt(spad), _fmt(lai), _fmt(mch), _fmt(mass), _fmt(area_ha), _fmt(moisture)))

        sl = (slice(r0, r0 + plot_cells), slice(c0, c0 + plot_cells))
        feats = {}
        for name in ("NDVI", "SAVI", "kNDVI", "NIRv", "PSRI"):
            feats[f"{name}_MS"] = float(np.mean(vi_ms[name][sl]))
            feats[f"{name}_HS"] = float(np.mean(vi_hs[name][sl]))
        ch = chm[sl].ravel()
        feats["CH"] = _nearest_rank(ch, 0.95)
        v_low = float(np.sum(np.abs(ch - ch.min())) * CELL * CELL)
        v_mean = float(np.sum(np.abs(ch - np.mean(ch))) * CELL * CELL)
        feats["CV"] = (v_low + v_mean) / 2.0
        n_cells = plot_cells * plot_cells
        feats["FVC"] = int(masks["vegetation"][sl].sum()) / n_cells
        feats["PL_ratio"] = int(masks["lodging"][sl].sum()) / n_cells
        rs, cs, member = _ring_member(n, r0, c0, plot_cells)
        feats["WL_ratio"] = int(masks["weed"][rs, cs][member].sum()) / int(member.sum())
        feats["WH_density"] = float(np.mean(counts)) / (width * height)
        feats["SPAD"], feats["LAI"], feats["measured_CH"] = spad, lai, mch
        feats["yield_kg_ha"] = (mass / area_ha) * (1.0 - moisture) / (1.0 - 0.125)
        expected[pid] = feats

    paths = {
        "plots": os.path.join(out, "plots.csv"),
        "head_counts": os.path.join(out, "head_counts.csv"),
        "measurements": os.path.join(out, "measurements.csv"),
    }
    _write_csv(paths["plots"], ("plot_id", "germplasm_id", "vertex_index", "x", "y"), plot_rows)
    _write_csv(paths["head_counts"], ("plot_id", "image_id", "count"), head_rows)
    _write_csv(paths["measurements"],
               ("plot_id", "SPAD", "LAI", "measured_CH", "raw_mass_kg", "plot_area_ha", "moisture"),
               meas_rows)
    config = {
        "extract": {
            "plots": paths["plots"],
            "date": "2024-05-20",
            "site": "bench-site",
            "ms_bands": {name: os.path.join(out, f"ms_{name}.asc") for name in MS_RANGES},
            "hs_bands": [{"path": os.path.join(out, f"hs_{nm}.asc"), "wavelength_nm": nm}
                         for nm in wavelengths],
            "vegetation_mask": os.path.join(out, "vegetation_mask.asc"),
            "lodging_mask": os.path.join(out, "lodging_mask.asc"),
            "weed_mask": os.path.join(out, "weed_mask.asc"),
            "dsm": {"point_cloud": clouds["canopy"], "cell_size": CELL, "aggregator": "max"},
            "dem": {"point_cloud": clouds["ground"], "cell_size": CELL, "aggregator": "min"},
            "head_counts": paths["head_counts"],
            "measurements": paths["measurements"],
            "flight": {"altitude_m": ALTITUDE, "fov_h_deg": FOV_H, "fov_v_deg": FOV_V},
            "params": {"ring_inner_m": RING_INNER_CELLS * CELL, "ring_outer_m": RING_OUTER_CELLS * CELL},
        }
    }
    cfg = _write_json(os.path.join(out, "extract.json"), config)
    dims = {
        "grid_rows": n, "grid_cols": n, "cell_size_m": CELL, "plots": n_plots,
        "cells_per_plot": plot_cells * plot_cells, "hs_bands": hs_bands,
        "rasters": len(MS_RANGES) + hs_bands + 3, "points_per_cell_per_cloud": points_per_cell,
        "points_per_cloud": points_per_cell * n * n,
        "plot_cover_frac": n_plots * plot_cells * plot_cells / (n * n),
    }
    expect = {"date": "2024-05-20", "site": "bench-site", "features": expected,
              "germplasm": {r[0]: r[1] for r in plot_rows}}
    return {"dims": dims, "calls": [_call("extract", cfg, os.path.join(out, "out_extract"),
                                          "extract", expect)]}


# ---------------------------------------------------------------------------
# prefopt scene
# ---------------------------------------------------------------------------


def _prefopt(out: str, rng: np.random.Generator, seed: int, vocab: int, context: int,
             prompts: int, samples: int, epochs: int, sft_iterations: int,
             rm_iterations: int, ppo_iterations: int) -> dict:
    prompt_list = [[int(t) for t in rng.integers(0, vocab, 2)] for _ in range(prompts)]
    sft, pairs = [], []
    for x in prompt_list:
        good = [int(t) for t in rng.integers(0, vocab, context)]
        bad = [(t + 1 + int(rng.integers(0, vocab - 1))) % vocab for t in good]
        sft.append({"prompt": x, "answer": good})
        pairs.append({"prompt": x, "chosen": good, "rejected": bad})
    paths = {name: os.path.join(out, f"{name}.jsonl") for name in ("sft", "rm_pairs", "ppo_prompts")}
    _write_jsonl(paths["sft"], sft)
    _write_jsonl(paths["rm_pairs"], pairs)
    _write_jsonl(paths["ppo_prompts"], [{"prompt": x} for x in prompt_list])
    config = {"prefopt": {
        "vocab_size": vocab, "context_length": context, "seed": seed % (2 ** 31),
        "sft_data": paths["sft"], "rm_data": paths["rm_pairs"], "ppo_data": paths["ppo_prompts"],
        "sft": {"learning_rate": 0.5, "iterations": sft_iterations},
        "rm": {"learning_rate": 0.5, "iterations": rm_iterations},
        "ppo": {"beta": 0.1, "learning_rate": 0.3, "iterations": ppo_iterations,
                "samples_per_prompt": samples, "epochs": epochs},
    }}
    cfg = _write_json(os.path.join(out, "prefopt.json"), config)
    expect = {"sft_iterations": sft_iterations, "rm_iterations": rm_iterations,
              "ppo_iterations": ppo_iterations}
    dims = {"vocab_size": vocab, "context_length": context, "answers": vocab ** context,
            "prompts": prompts, "samples_per_prompt": samples, "epochs": epochs,
            "sft_iterations": sft_iterations, "rm_iterations": rm_iterations,
            "ppo_iterations": ppo_iterations}
    return {"dims": dims, "calls": [_call("prefopt", cfg, os.path.join(out, "out_prefopt"),
                                          "prefopt", expect)]}


# ---------------------------------------------------------------------------
# tables scene (fuse, bench, kb)
# ---------------------------------------------------------------------------

ABLATIONS = (("RS",), ("RS", "phenotyping"), ("RS", "phenotyping", "weather"),
             ("RS", "phenotyping", "weather", "germplasm"))
R2_FLOOR = 0.8  # all-domain pooled R^2 the planted signal guarantees
RESISTANCE = ("HR", "R", "MR", "S", "HS")
REGRESSION = ("Yield", "SPAD", "LAI", "CH")
CATEGORICAL = ("PL", "WL")
JUDGED = ("HQ", "DS", "DR", "CT")
SUBTASK_TASK = {
    "Yield": "phenotyping_estimation", "SPAD": "phenotyping_estimation",
    "LAI": "phenotyping_estimation", "CH": "phenotyping_estimation",
    "PL": "phenotyping_estimation", "WL": "environmental_stress",
    "HQ": "germplasm_screening", "DS": "germplasm_screening", "DR": "germplasm_screening",
    "CT": "cultivation_recommendation", "SP": "seed_price_query",
}
LABELS = {"PL": ("no_lodging", "slight", "severe"), "WL": ("no_weeds", "slight", "moderate", "severe")}
SCREEN = ("crude_protein>=14", "plant_height<=80", "drought==R")


def _germplasm(out, rng, count):
    names = [f"V{i:05d}" for i in range(count)]
    protein = np.round(rng.uniform(10.0, 18.0, count), 1)
    height = rng.integers(60, 110, count)
    maturity = rng.integers(180, 230, count)
    res = rng.integers(0, len(RESISTANCE), (count, 5))
    rows = []
    for i, name in enumerate(names):
        r = [RESISTANCE[j] for j in res[i]]
        rows.append((name, "bench", _fmt(protein[i]), "0.4", "30", r[0], r[1], r[2], r[3], r[4],
                     int(maturity[i]), int(height[i]), "42", "hard"))
    path = os.path.join(out, "germplasm.csv")
    _write_csv(path, ("variety_name", "origin", "crude_protein", "lysine", "sedimentation_value",
                      "stripe_rust", "leaf_rust", "powdery_mildew", "drought", "cold",
                      "maturity", "plant_height", "thousand_grain_weight", "grain_hardness"), rows)
    hq = protein >= 14.0
    dr = res[:, 3] <= 2  # drought level in HR/R/MR
    screen = sorted(names[i] for i in range(count)
                    if protein[i] >= 14.0 and height[i] <= 80 and RESISTANCE[res[i, 3]] == "R")
    return path, names, hq, dr, screen


def _weather(out, rng, sites):
    rows, t_mean = [], []
    start = dt.date(2024, 3, 1)
    for s in range(sites):
        base = rng.uniform(10.0, 20.0)
        temps = np.round(base + rng.normal(0.0, 2.0, 60), 2)
        t_mean.append(float(np.mean(temps)))
        for d in range(60):
            rows.append((f"S{s}", (start + dt.timedelta(days=d)).isoformat(), _fmt(temps[d]),
                         _fmt(round(float(rng.uniform(4, 10)), 2)), _fmt(round(float(rng.uniform(0, 5)), 2)),
                         _fmt(round(float(rng.uniform(100, 180)), 1)), _fmt(round(float(rng.uniform(0.5, 4)), 2))))
    path = os.path.join(out, "weather.csv")
    _write_csv(path, ("site", "date", "t_mean", "dew_point", "precip", "net_radiation", "wind_speed"), rows)
    return path, np.array(t_mean)


def _features(out, rng, plots, dates, sites, variety_names, hq, dr, t_mean):
    """Feature table whose yield is planted from RS, phenotyping, weather and germplasm."""
    germ = rng.integers(0, len(variety_names), plots)
    site = rng.integers(0, sites, plots)
    base = rng.uniform(0.0, 1.0, (plots, len(FEATURES)))
    date_noise = rng.normal(0.0, 0.02, (dates, plots, len(FEATURES)))
    per_date = base[None] + date_noise
    mean = per_date.mean(axis=0)
    col = {name: i for i, name in enumerate(FEATURES)}
    t_z = (t_mean - t_mean.mean()) / (t_mean.std() + 1e-12)
    yields = (5000.0 + 900.0 * mean[:, col["NDVI_MS"]] + 600.0 * mean[:, col["CH"]]
              + 700.0 * mean[:, col["SPAD"]] + 400.0 * t_z[site]
              + 500.0 * hq[germ] + 350.0 * dr[germ] + rng.normal(0.0, 60.0, plots))
    rows = []
    for d in range(dates):
        date = (dt.date(2024, 4, 1) + dt.timedelta(days=14 * d)).isoformat()
        for p in range(plots):
            rows.append([f"F{p:05d}", variety_names[germ[p]], date, f"S{site[p]}"]
                        + [_fmt(v) for v in per_date[d, p]] + [_fmt(yields[p])])
    path = os.path.join(out, "features.csv")
    _write_csv(path, FEATURE_CSV_HEADER, rows)
    return path


def _trials(out, rng, models, questions):
    """Trial rows whose per-group counts and hit sets are planted."""
    rows, groups, stability = [], {}, {}
    model_ids = [f"m{i}" for i in range(models)]
    for m in model_ids:
        for sub in REGRESSION + CATEGORICAL + JUDGED + ("SP",):
            ref = rng.uniform(10.0, 100.0, questions)
            hit = rng.random(questions) < rng.uniform(0.3, 0.9)
            answer_num = ref * np.where(hit, 1.0 + rng.uniform(-0.05, 0.05, questions),
                                        1.0 + rng.choice((-1, 1), questions) * rng.uniform(0.2, 0.4, questions))
            answer_num = np.round(answer_num, 4)
            ref = np.round(ref, 4)
            for q in range(questions):
                r = [m, SUBTASK_TASK[sub], sub, f"q{q:05d}", 0, "", "", "", "", "", "", ""]
                if sub in REGRESSION or sub == "SP":
                    r[5], r[8] = _fmt(answer_num[q]), _fmt(ref[q])
                elif sub in CATEGORICAL:
                    labels = LABELS[sub]
                    truth = labels[q % len(labels)]
                    r[6] = truth if hit[q] else labels[(q + 1) % len(labels)]
                    r[9] = truth
                else:
                    r[7] = "true" if hit[q] else "false"
                rows.append(r)
            entry = {"n": questions}
            if sub in REGRESSION:
                entry["y_true"], entry["y_pred"] = ref.tolist(), answer_num.tolist()
            else:
                entry["hits"] = int(hit.sum())
            groups[f"{m}/{sub}"] = entry
        # stability: numeric consistency trials and text robustness trials
        for sub, protocol in (("Yield", "consistency"), ("CT", "robustness")):
            passed = rng.random(questions) < rng.uniform(0.4, 0.9)
            for q in range(questions):
                r = [m, SUBTASK_TASK[sub], sub, f"s{q:05d}", 1, "", "", "", "", "", protocol, ""]
                if protocol == "consistency":
                    r[5] = _fmt(round(50.0 * (1.03 if passed[q] else 1.3), 4))
                    r[8] = _fmt(50.0)
                else:
                    r[11] = "true" if passed[q] else "false"
                rows.append(r)
            stability[f"{m}/{sub}"] = {"protocol": protocol, "n": questions, "passes": int(passed.sum())}
    path = os.path.join(out, "trials.csv")
    _write_csv(path, ("model_id", "task", "subtask", "question_id", "trial_index", "answer_numeric",
                      "answer_label", "judged_correct", "reference_value", "reference_label",
                      "stability_protocol", "text_pass"), rows)
    return path, model_ids, groups, stability, len(rows)


def _ballots(out, rng, model_ids, count):
    axes = ("logical_deduction", "inductive_reasoning", "explanation")
    totals = {a: {m: 0 for m in model_ids} for a in axes}
    n_by_axis = {a: 0 for a in axes}
    rows = []
    x = len(model_ids)
    for t in range(count):
        axis = axes[t % 3]
        scores = rng.permutation(x) + 1
        n_by_axis[axis] += 1
        for m, s in zip(model_ids, scores.tolist()):
            rows.append((f"t{t:05d}", m, s, axis))
            totals[axis][m] += s
    path = os.path.join(out, "ballots.csv")
    _write_csv(path, ("test_id", "model_id", "score", "axis"), rows)
    reasoning = {m: {a: totals[a][m] / (n_by_axis[a] * (1 + x) * x / 2) for a in axes if n_by_axis[a]}
                 for m in model_ids}
    return path, reasoning


def _prices(out, rng, count, queries, variety_names):
    """Price rows plus planted queries whose nearest-date answer set is known.

    Each planted point holds records 2 days before the query date (the
    answer), 2 days after (a tie, lost to the earlier date), and farther
    dates; noise rows live at other points only.
    """
    points = [f"Point-{i:03d}" for i in range(50)]
    start = dt.date(2024, 1, 1)
    rows = []
    for i in range(count):
        rows.append((points[int(rng.integers(0, len(points)))],
                     variety_names[int(rng.integers(0, len(variety_names)))],
                     _fmt(round(float(rng.uniform(20, 160)), 2)), _fmt(25.0), "Region",
                     (start + dt.timedelta(days=int(rng.integers(0, 360)))).isoformat()))
    plans = []
    for q in range(queries):
        point = f"Planted-{q:02d}"
        date = start + dt.timedelta(days=60 + 40 * q)
        answer = []
        for offset, n in ((-2, 3), (2, 2), (9, 2), (-25, 2)):
            for _ in range(n):
                rec = (point, variety_names[int(rng.integers(0, len(variety_names)))],
                       _fmt(round(float(rng.uniform(20, 160)), 2)), _fmt(25.0), "Region",
                       (date + dt.timedelta(days=offset)).isoformat())
                rows.append(rec)
                if offset == -2:
                    answer.append(rec)
        variety = None
        if q == queries - 1:  # one query also filters by variety
            variety = answer[0][1]
            answer = [r for r in answer if r[1] == variety]
        plans.append({"point": point, "date": date.isoformat(), "variety": variety,
                      "expect": sorted([[r[0], r[1], float(r[2]), float(r[3]), r[4], r[5]]
                                        for r in answer], key=lambda r: (r[1], r[2]))})
    order = rng.permutation(len(rows))
    path = os.path.join(out, "prices.csv")
    _write_csv(path, ("observation_point", "variety_name", "price", "specification",
                      "planting_area", "date"), [rows[i] for i in order])
    return path, plans


def _tables(out: str, rng: np.random.Generator, seed: int, plots: int, dates: int, sites: int,
            germplasm: int, k: int, models: int, questions: int, ballots: int, prices: int,
            price_queries: int) -> dict:
    germ_path, variety_names, hq, dr, screen = _germplasm(out, rng, germplasm)
    weather_path, t_mean = _weather(out, rng, sites)
    features_path = _features(out, rng, plots, dates, sites, variety_names, hq, dr, t_mean)
    trials_path, model_ids, groups, stability, n_trials = _trials(out, rng, models, questions)
    ballots_path, reasoning = _ballots(out, rng, model_ids, ballots)
    prices_path, queries = _prices(out, rng, prices, price_queries, variety_names)

    calls = []
    for domains in ABLATIONS:
        cfg = _write_json(os.path.join(out, f"fuse_{len(domains)}.json"), {"fuse": {
            "features": features_path, "weather": weather_path, "germplasm": germ_path,
            "domains": list(domains), "lambda": 1.0, "k": k, "seed": seed % (2 ** 31)}})
        expect = {"domains": "+".join(domains), "n_plots": plots, "k": k}
        if len(domains) == len(ABLATIONS):
            expect.update(rs_only_out=calls[0]["out"], r2_floor=R2_FLOOR)
        calls.append(_call("fuse", cfg, os.path.join(out, f"out_fuse_{len(domains)}"), "fuse", expect))
    cfg = _write_json(os.path.join(out, "bench.json"),
                      {"bench": {"trials": trials_path, "ballots": ballots_path}})
    calls.append(_call("bench", cfg, os.path.join(out, "out_bench"), "bench",
                       {"models": model_ids, "groups": groups, "stability": stability,
                        "reasoning": reasoning}))
    for q, query in enumerate(queries):
        kb_cfg = {"kb": {"action": "price", "prices": prices_path,
                         "observation_point": query["point"], "date": query["date"]}}
        if query["variety"] is not None:
            kb_cfg["kb"]["variety"] = query["variety"]
        cfg = _write_json(os.path.join(out, f"kb_price_{q}.json"), kb_cfg)
        calls.append(_call("kb", cfg, os.path.join(out, f"out_kb_price_{q}"), "kb_price", query["expect"]))
    cfg = _write_json(os.path.join(out, "kb_screen.json"),
                      {"kb": {"action": "screen", "germplasm": germ_path, "criteria": list(SCREEN)}})
    calls.append(_call("kb", cfg, os.path.join(out, "out_kb_screen"), "kb_screen", screen))
    dims = {"plots": plots, "dates": dates, "feature_rows": plots * dates, "sites": sites,
            "germplasm_rows": germplasm, "k": k, "ablations": len(ABLATIONS),
            "trial_rows": n_trials, "models": models, "ballots": ballots,
            "price_rows": prices + 9 * price_queries, "price_queries": price_queries,
            "screen_criteria": len(SCREEN)}
    return {"dims": dims, "calls": calls}


BUILDERS = {
    "field_many_plots": _field,
    "field_large_plots": _field,
    "prefopt_exact_kl": _prefopt,
    "tables": _tables,
}


def build(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write the workload's scene under ``out_dir``; return and save its plan."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed % 2 ** 32, WORKLOADS.index(workload)])
    params = dict(SIZES[workload][size])
    builder = BUILDERS[workload]
    if builder is _field:
        plan = builder(out_dir, rng, **params)
    else:
        plan = builder(out_dir, rng, seed, **params)
    plan.update(workload=workload, seed=seed, size=size)
    _write_json(os.path.join(out_dir, "plan.json"), plan)
    return plan
