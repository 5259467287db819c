import json
import os
import subprocess
import sys

import pytest

from breedkit import cli, prefopt

from conftest import (
    bench_config,
    extract_config,
    fuse_config,
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

    def test_non_numeric_wavelength_names_its_field(self, tmp_path, capsys):
        config = extract_config(tmp_path / "out")
        config["extract"]["hs_bands"][2]["wavelength_nm"] = "650nm"
        rc, summary = self.run_extract(config, tmp_path, capsys)
        assert rc == 2
        assert summary["status"] == "config_error"
        assert summary["field"] == "extract.hs_bands[2].wavelength_nm"


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

    def test_module_error_exits_1_with_error_name(self, features_csv, tmp_path, capsys):
        config = fuse_config(tmp_path / "out", features_csv)
        config["fuse"]["k"] = 10  # only 3 plots
        cfg = write_config(config, tmp_path / "f.json")
        rc, summary = run_cli(["fuse", "--config", cfg], capsys)
        assert rc == 1
        assert summary["status"] == "error"
        assert summary["error"] == "InvalidInput"


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

    def test_ppo_alone_requires_model_files(self, tmp_path, capsys):
        config = prefopt_config(tmp_path / "out")
        config["prefopt"]["stages"] = ["ppo"]
        cfg = write_config(config, tmp_path / "p.json")
        rc, summary = run_cli(["prefopt", "--config", cfg], capsys)
        assert rc == 2


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


class TestPrefoptModelFiles:
    """A malformed policy/reference/reward file ends the ppo stage in exit 1, one stdout line."""

    @pytest.mark.parametrize("name,mutate,detail", [
        ("policy.json", _truncate, "bad JSON"),
        ("policy.json", _edit_json(lambda p: p.pop("rows")), "missing key 'rows'"),
        ("policy.json", _edit_json(_text_in_row), "non-numeric row"),
        ("policy.json", _edit_json(_text_vocab_size), "non-numeric vocab_size"),
        ("policy.json", _edit_json(_short_row), "has 5 entries, expected 6"),
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
