import json
import os

import pytest

SCENE_DIR = os.path.join(os.path.dirname(__file__), "data", "scene")


def scene_path(name: str) -> str:
    return os.path.join(SCENE_DIR, name)


def extract_config(out_dir: str) -> dict:
    return {
        "output_dir": str(out_dir),
        "extract": {
            "plots": scene_path("plots.csv"),
            "date": "2023-04-22",
            "site": "station-A",
            "ms_bands": {
                name: scene_path(f"ms_{name}.asc")
                for name in ("blue", "green", "red", "red_edge", "nir")
            },
            "hs_bands": [
                {"path": scene_path(f"hs_{nm}.asc"), "wavelength_nm": nm}
                for nm in (500, 560, 650, 680, 750, 840)
            ],
            "vegetation_mask": scene_path("vegetation_mask.asc"),
            "lodging_mask": scene_path("lodging_mask.asc"),
            "weed_mask": scene_path("weed_mask.asc"),
            "dsm": {"point_cloud": scene_path("canopy_cloud.xyz"),
                    "cell_size": 0.25, "aggregator": "max"},
            "dem": {"point_cloud": scene_path("ground_cloud.xyz"),
                    "cell_size": 0.25, "aggregator": "min"},
            "head_counts": scene_path("head_counts.csv"),
            "measurements": scene_path("measurements.csv"),
            "flight": {"altitude_m": 3.0, "fov_h_deg": 62.2, "fov_v_deg": 48.8},
        },
    }


def fuse_config(out_dir: str, features_path: str) -> dict:
    return {
        "output_dir": str(out_dir),
        "fuse": {
            "features": str(features_path),
            "weather": scene_path("weather.csv"),
            "germplasm": scene_path("germplasm.csv"),
            "domains": ["RS", "phenotyping", "weather", "germplasm"],
            "lambda": 1.0,
            "k": 3,
            "seed": 7,
        },
    }


def bench_config(out_dir: str) -> dict:
    return {
        "output_dir": str(out_dir),
        "bench": {
            "trials": scene_path("trials.csv"),
            "ballots": scene_path("ballots.csv"),
        },
    }


def prefopt_config(out_dir: str) -> dict:
    return {
        "output_dir": str(out_dir),
        "prefopt": {
            "vocab_size": 6,
            "context_length": 2,
            "seed": 13,
            "sft_data": scene_path("sft.jsonl"),
            "rm_data": scene_path("rm_pairs.jsonl"),
            "ppo_data": scene_path("ppo_prompts.jsonl"),
            "sft": {"learning_rate": 0.5, "iterations": 40},
            "rm": {"learning_rate": 0.5, "iterations": 40},
            "ppo": {"beta": 0.05, "learning_rate": 0.3, "iterations": 15,
                    "samples_per_prompt": 4},
        },
    }


def kb_config(out_dir: str, action: str) -> dict:
    if action == "screen":
        return {"output_dir": str(out_dir), "kb": {
            "action": "screen", "germplasm": scene_path("germplasm.csv"),
            "criteria": ["plant_height<=80"]}}
    return {"output_dir": str(out_dir), "kb": {
        "action": "price", "prices": scene_path("prices.csv"),
        "observation_point": "Miyun District", "date": "2024-06-01"}}


def write_config(config: dict, path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return str(path)


@pytest.fixture
def scene():
    assert os.path.isdir(SCENE_DIR), "run scripts/make_scene.py first"
    return SCENE_DIR
