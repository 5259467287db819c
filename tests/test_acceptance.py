"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 8 is optional and data-dependent; it skips unless
BREEDKIT_EXTERNAL_DATA_DIR points at a directory with features.csv, weather.csv and
germplasm.csv mapped to the documented schemas.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from breedkit import bench, fusion, geodata, prefopt, spectral, structural

from conftest import bench_config, extract_config, fuse_config, scene_path, write_config
from test_geodata import make_grid, rasterize_oracle, square_plot


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# 1. feature-formula oracle suite
# ---------------------------------------------------------------------------


def test_criterion_1_feature_formula_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    shape = (64, 64)
    tanh = math.tanh
    for trial in range(100):
        red = rng.uniform(0.0, 1.0, shape)
        green = rng.uniform(0.0, 1.0, shape)
        nir = rng.uniform(0.0, 1.0, shape)
        r500 = rng.uniform(0.0, 1.0, shape)
        r680 = rng.uniform(0.0, 1.0, shape)
        r750 = rng.uniform(0.0, 1.0, shape)
        ms = geodata.BandSet(bands={
            "blue": (make_grid(red), 450.0),
            "green": (make_grid(green), 560.0),
            "red": (make_grid(red), 650.0),
            "red_edge": (make_grid(green), 730.0),
            "nir": (make_grid(nir), 840.0),
        })
        hs = geodata.BandSet(bands={
            "b500": (make_grid(r500), 500.0),
            "b680": (make_grid(r680), 680.0),
            "b750": (make_grid(r750), 750.0),
        }, sensor_kind="HS")

        maps = {
            name: spectral.vi_map(ms, name).values.tolist()
            for name in ("NDVI", "SAVI", "kNDVI", "NIRv", "PSRI")
        }
        maps["PSRI_HS"] = spectral.psri_hs(hs).values.tolist()

        red_l, green_l, nir_l = red.tolist(), green.tolist(), nir.tolist()
        r500_l, r680_l, r750_l = r500.tolist(), r680.tolist(), r750.tolist()
        for i in range(shape[0]):
            row_r, row_g, row_n = red_l[i], green_l[i], nir_l[i]
            for j in range(shape[1]):
                r, g, n = row_r[j], row_g[j], row_n[j]
                # bitwise: identical IEEE arithmetic per pixel
                assert maps["NDVI"][i][j] == (n - r) / (n + r)
                assert maps["SAVI"][i][j] == (1.0 + 0.5) * (n - r) / (n + r + 0.5)
                assert maps["NIRv"][i][j] == n * ((n - r) / (n + r))
                assert maps["PSRI"][i][j] == (r - g) / n
                # tanh goes through a different libm path: 1e-12 relative
                ndvi = (n - r) / (n + r)
                expected = tanh(ndvi * ndvi)
                got = maps["kNDVI"][i][j]
                assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-300)
                assert maps["PSRI_HS"][i][j] == (r680_l[i][j] - r500_l[i][j]) / r750_l[i][j]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.2f}s"
    report(f"ACCEPTANCE 1 PASS: 100x64x64 VI maps match per-pixel oracles "
           f"(bitwise; kNDVI <=1e-12 rel) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. structural oracles
# ---------------------------------------------------------------------------


def test_criterion_2_structural_oracles():
    # prism: half the plot at z=0, half at z=1, cell 0.5 m
    values = np.zeros((4, 4))
    values[:, 2:] = 1.0
    prism = structural.canopy_volume(make_grid(values, cell_size=0.5),
                                     square_plot(0.0, 0.0, 2.0, 2.0))
    assert prism.volume_lowest_plane == pytest.approx(8 * 1.0 * 0.25, rel=1e-9)
    assert prism.volume_mean_plane == pytest.approx(16 * 0.5 * 0.25, rel=1e-9)
    assert prism.volume == pytest.approx(2.0, rel=1e-9)

    # wedge: columns at z = 0, 1, 2, 3
    wedge_values = np.tile(np.array([0.0, 1.0, 2.0, 3.0]), (4, 1))
    wedge = structural.canopy_volume(make_grid(wedge_values, cell_size=0.5),
                                     square_plot(0.0, 0.0, 2.0, 2.0))
    assert wedge.volume_lowest_plane == pytest.approx(6.0 * 0.25 * 4, rel=1e-9)
    assert wedge.volume_mean_plane == pytest.approx(4.0 * 0.25 * 4, rel=1e-9)
    assert wedge.volume == pytest.approx(5.0 * 0.25 * 4, rel=1e-9)

    rng = np.random.default_rng(7)
    plot = square_plot(0.0, 0.0, 6.0, 6.0)
    for _ in range(50):
        surface = rng.uniform(0, 2, (6, 6))
        shift = rng.uniform(-500, 500)
        a = structural.canopy_volume(make_grid(surface), plot)
        b = structural.canopy_volume(make_grid(surface + shift), plot)
        assert b.volume == pytest.approx(a.volume, rel=1e-9, abs=1e-12)

    dsm = make_grid(rng.uniform(4, 9, (8, 8)))
    chm = structural.canopy_height_model(dsm, dsm)
    assert np.array_equal(chm.values, np.zeros((8, 8)))

    pts = np.column_stack([
        rng.uniform(-3, 14, 10_000),
        rng.uniform(2, 11, 10_000),
        rng.uniform(-5, 40, 10_000),
    ])
    for aggregator in ("min", "max", "mean"):
        grid = geodata.rasterize_elevation(geodata.PointCloud(points=pts), 0.8, aggregator)
        expected, ox, oy, n_cols, n_rows = rasterize_oracle(pts.tolist(), 0.8, aggregator)
        assert (grid.n_cols, grid.n_rows, grid.origin_x, grid.origin_y) == \
            (n_cols, n_rows, ox, oy)
        assert np.array_equal(grid.values, expected)

    report("ACCEPTANCE 2 PASS: prism/wedge volumes to 1e-9, z-translation "
           "invariance x50, CHM(dsm,dsm)=0, 10k-point rasterization exact")


# ---------------------------------------------------------------------------
# 3. classification thresholds
# ---------------------------------------------------------------------------


def test_criterion_3_classification_boundaries():
    eps = 1e-9
    lodging_cases = {
        0.0: "no_lodging",
        0.0 + eps: "slight",
        0.10 - eps: "slight", 0.10: "slight", 0.10 + eps: "slight",
        0.40 - eps: "slight", 0.40: "slight", 0.40 + eps: "slight",
        0.50 - eps: "slight", 0.50: "slight", 0.50 + eps: "severe",
        0.70 - eps: "severe", 0.70: "severe", 0.70 + eps: "severe",
        1.0 - eps: "severe", 1.0: "severe",
    }
    weed_cases = {
        0.0: "no_weeds",
        0.0 + eps: "no_weeds",
        0.10 - eps: "no_weeds", 0.10: "no_weeds", 0.10 + eps: "slight",
        0.40 - eps: "slight", 0.40: "slight", 0.40 + eps: "moderate",
        0.50 - eps: "moderate", 0.50: "moderate", 0.50 + eps: "moderate",
        0.70 - eps: "moderate", 0.70: "moderate", 0.70 + eps: "severe",
        1.0 - eps: "severe", 1.0: "severe",
    }
    for ratio, expected in lodging_cases.items():
        assert structural.lodging_level(ratio) == expected, f"PL ratio {ratio!r}"
        assert structural.lodging_level(ratio, special=True) == "special"
    for ratio, expected in weed_cases.items():
        assert structural.weed_level(ratio) == expected, f"WL ratio {ratio!r}"
    report(f"ACCEPTANCE 3 PASS: {len(lodging_cases) * 2 + len(weed_cases)} "
           "PL/WL boundary labels correct under the (a,b] convention")


# ---------------------------------------------------------------------------
# 4. fusion recovery
# ---------------------------------------------------------------------------


def _planted(rng, n, sigma):
    weights = np.array([0.5] * 2 + [0.5] * 2 + [0.35] * 4 + [0.25] * 4)
    weights = weights / np.sqrt(np.sum(weights ** 2))  # unit signal variance
    domains = (("RS",) * 2 + ("phenotyping",) * 2 + ("weather",) * 4
               + ("germplasm",) * 4)
    X = rng.normal(size=(n, 12))
    y = X @ weights + 30.0 + sigma * rng.normal(size=n)
    return fusion.FeatureMatrix(
        X=X, y=y, columns=tuple(f"c{i}" for i in range(12)), domains=domains,
        plot_ids=tuple(f"p{i}" for i in range(n)),
        germplasm_ids=tuple(f"g{i}" for i in range(n)),
    )


def test_criterion_4_fusion_recovery():
    # noiseless leave-one-out recovery at n=200
    m = _planted(np.random.default_rng(123), n=200, sigma=0.0)
    loo = fusion.kfold_cv(m, k=200, lam=1e-8, seed=0)
    assert loo.pooled_r2 >= 0.999

    # noisy case: theoretical R^2 = 1/(1+sigma^2) = 0.8
    sigma = 0.5
    theory = 1.0 / (1.0 + sigma ** 2)
    deviations, monotone = [], 0
    for seed in range(20):
        m = _planted(np.random.default_rng(seed), n=500, sigma=sigma)
        full = fusion.kfold_cv(m, k=10, lam=0.1, seed=seed)
        rs_only = fusion.kfold_cv(m.restrict(("RS",)), k=10, lam=0.1, seed=seed)
        deviations.append(abs(full.pooled_r2 - theory))
        monotone += int(full.pooled_r2 >= rs_only.pooled_r2)
    assert max(deviations) <= 0.05, f"worst deviation {max(deviations):.4f}"
    assert monotone >= 19, f"ablation monotonicity held in only {monotone}/20 seeds"
    report(f"ACCEPTANCE 4 PASS: noiseless LOO R2={loo.pooled_r2:.6f}; noisy "
           f"pooled R2 within {max(deviations):.4f} of 0.8 over 20 seeds; "
           f"all-domains >= RS-only in {monotone}/20")


# ---------------------------------------------------------------------------
# 5. preference-optimization math
# ---------------------------------------------------------------------------


def _sft_fd_check(seed, h=1e-5):
    rng = np.random.default_rng(seed)
    policy = prefopt.PolicyModel(vocab_size=4, context_length=2,
                                 init_scale=0.8, seed=seed)
    dataset = [(tuple(rng.integers(0, 4, 1)), tuple(rng.integers(0, 4, 2)))
               for _ in range(2)]
    _, grads = prefopt.sft_loss_and_grad(policy, dataset)
    worst = 0.0
    for key, grad in grads.items():
        row = policy._rows[key]
        for v in range(4):
            up_row, down_row = row.copy(), row.copy()
            up_row[v] += h
            down_row[v] -= h
            policy._rows[key] = up_row
            up = prefopt.sft_loss_and_grad(policy, dataset)[0]
            policy._rows[key] = down_row
            down = prefopt.sft_loss_and_grad(policy, dataset)[0]
            policy._rows[key] = row
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grad[v]), 1e-8)
            worst = max(worst, abs(grad[v] - fd) / scale)
    return worst


def _rm_fd_check(seed, h=1e-5):
    rng = np.random.default_rng(10_000 + seed)
    rm = prefopt.RewardModel(vocab_size=4)
    rm.weights = rng.normal(size=9)
    examples = []
    while len(examples) < 3:
        a = tuple(rng.integers(0, 4, 3))
        b = tuple(rng.integers(0, 4, 3))
        if a != b:
            examples.append(prefopt.PreferenceExample(tuple(rng.integers(0, 4, 2)), a, b))
    _, grad = prefopt.rm_loss_and_grad(rm, examples)
    worst = 0.0
    for j in range(9):
        saved = rm.weights[j]
        rm.weights[j] = saved + h
        up = prefopt.rm_loss_and_grad(rm, examples)[0]
        rm.weights[j] = saved - h
        down = prefopt.rm_loss_and_grad(rm, examples)[0]
        rm.weights[j] = saved
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), abs(grad[j]), 1e-8)
        worst = max(worst, abs(grad[j] - fd) / scale)
    return worst


def test_criterion_5_preference_optimization_math():
    started = time.monotonic()

    worst_sft = max(_sft_fd_check(seed) for seed in range(100))
    worst_rm = max(_rm_fd_check(seed) for seed in range(100))
    assert worst_sft < 1e-5, f"SFT gradient FD error {worst_sft:.2e}"
    assert worst_rm < 1e-5, f"RM gradient FD error {worst_rm:.2e}"

    # uniform-policy SFT loss = T ln V
    policy = prefopt.PolicyModel(vocab_size=5, context_length=4)
    loss, _ = prefopt.sft_loss_and_grad(policy, [((0,), (1, 2, 3, 4)), ((1,), (0, 0, 0, 0))])
    assert abs(loss - 4 * math.log(5)) <= 1e-10

    # zero-gap pairwise loss = ln 2
    rm = prefopt.RewardModel(vocab_size=4)
    zero_gap, _ = prefopt.rm_loss_and_grad(
        rm, [prefopt.PreferenceExample((0,), (1,), (2,))]
    )
    assert abs(zero_gap - math.log(2)) <= 1e-12

    # combined reward reduces to the reward-model score when policy == reference
    policy = prefopt.PolicyModel(vocab_size=4, context_length=2, init_scale=1.0, seed=5)
    for x in ((0,), (1,)):
        for prefix in ((), (0,), (1,), (2,), (3,)):
            policy.logits_row(x, prefix)
    reference = policy.snapshot()
    rm.weights = np.linspace(-1, 1, 9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = (int(rng.integers(0, 2)),)
        y = tuple(rng.integers(0, 4, 2))
        r = prefopt.combined_reward(rm, policy, reference, x, y, beta=0.9)
        assert r == rm.score(x, y)  # exact zero penalty

    # bandit PPO: rewarded token above 0.9 within 500 steps, 10/10 seeds
    convergence_steps = []
    for seed in range(10):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        reference = policy.snapshot()
        bandit_rm = prefopt.RewardModel(4)
        w = np.zeros(9)
        w[4] = 1.0  # pays for answer token 0
        bandit_rm.weights = w
        prompts = [(0,), (1,)]
        config = prefopt.RLHFConfig(beta=0.0, learning_rate=1.0, ppo_clip=0.2,
                                    iterations=500, seed=seed, samples_per_prompt=8)
        rng = np.random.default_rng(config.seed)
        steps = None
        for i in range(config.iterations):
            prefopt.rlhf_step(policy, reference, bandit_rm, prompts, config, rng,
                              iteration=i)
            if min(policy.step_probabilities(x, ())[0] for x in prompts) > 0.9:
                steps = i + 1
                break
        assert steps is not None, f"seed {seed} did not converge in 500 steps"
        convergence_steps.append(steps)

    # huge beta pins the policy to the reference
    policy = prefopt.PolicyModel(vocab_size=4, context_length=1, init_scale=2.0, seed=0)
    prompts = [(0,), (1,), (2,)]
    for x in prompts:
        policy.logits_row(x, ())
    reference = prefopt.PolicyModel(vocab_size=4, context_length=1, role="reference")
    initial_kl = prefopt.mean_kl(policy, reference, prompts)
    config = prefopt.RLHFConfig(beta=1e3, learning_rate=1e-4, ppo_clip=0.2,
                                iterations=60, seed=0, samples_per_prompt=8)
    history = prefopt.run_rlhf(policy, reference,
                               prefopt.RewardModel(4), prompts, config)
    assert all(h["mean_kl"] <= initial_kl * 1.05 for h in history)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"preference-optimization suite took {elapsed:.2f}s"
    report(f"ACCEPTANCE 5 PASS: FD errors sft={worst_sft:.2e} rm={worst_rm:.2e}; "
           f"uniform loss=T ln V; zero-gap ln2; zero-KL reduction exact; bandit "
           f"converged in <= {max(convergence_steps)} steps 10/10; KL pinned; "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. benchmark scorer
# ---------------------------------------------------------------------------


def _hand_fixture():
    trials = []
    correct_counts = {"alpha": 18, "beta": 13, "gamma": 5}
    label_hits = {"alpha": 20, "beta": 15, "gamma": 8}
    yield_offsets = {"alpha": 0.0, "beta": 5.0, "gamma": 50.0}
    labels = ("no_lodging", "slight", "severe")
    for model in ("alpha", "beta", "gamma"):
        for i in range(20):  # Yield regression
            ref = 4000.0 + 10.0 * (i + 1)
            trials.append(bench.TrialRecord(
                model_id=model,
                task_spec=bench.TaskSpec("phenotyping_estimation", "Yield"),
                question_id=f"y{i}", trial_index=0,
                answer_numeric=ref + yield_offsets[model], reference_value=ref,
            ))
        for i in range(20):  # PL categorical
            truth = labels[i % 3]
            answer = truth if i < label_hits[model] else labels[(i + 1) % 3]
            trials.append(bench.TrialRecord(
                model_id=model,
                task_spec=bench.TaskSpec("phenotyping_estimation", "PL"),
                question_id=f"pl{i}", trial_index=0,
                answer_label=answer, reference_label=truth,
            ))
        for i in range(20):  # HQ judged
            trials.append(bench.TrialRecord(
                model_id=model,
                task_spec=bench.TaskSpec("germplasm_screening", "HQ"),
                question_id=f"hq{i}", trial_index=0,
                judged_correct=i < correct_counts[model],
            ))
        for i in range(20):  # SP price: 10 exact, 5 at +10%, 5 just outside
            if i < 10:
                answer = 150.0
            elif i < 15:
                answer = 165.0
            else:
                answer = 166.0
            trials.append(bench.TrialRecord(
                model_id=model,
                task_spec=bench.TaskSpec("seed_price_query", "SP"),
                question_id=f"sp{i}", trial_index=0,
                answer_numeric=answer, reference_value=150.0,
            ))
        for i in range(20):  # stability: 10 consistency numeric, 10 robustness text
            if i < 10:
                trials.append(bench.TrialRecord(
                    model_id=model,
                    task_spec=bench.TaskSpec("phenotyping_estimation", "Yield"),
                    question_id=f"stc{i}", trial_index=0,
                    answer_numeric=55.0 if i < 9 else 56.0, reference_value=50.0,
                    stability_protocol="consistency",
                ))
            else:
                trials.append(bench.TrialRecord(
                    model_id=model,
                    task_spec=bench.TaskSpec("cultivation_recommendation", "CT"),
                    question_id=f"str{i}", trial_index=0,
                    text_pass=i < 18, stability_protocol="robustness",
                ))
    ballots = []
    axes = ["logical_deduction"] * 4 + ["inductive_reasoning"] * 3 + ["explanation"] * 3
    for t, axis in enumerate(axes):
        ballots.append(bench.ReasoningBallot(
            test_id=f"t{t}", scores={"alpha": 3, "beta": 2, "gamma": 1}, axis=axis,
        ))
    return trials, ballots


def test_criterion_6_benchmark_scorer():
    trials, ballots = _hand_fixture()
    assert len(ballots) == 10
    rep = bench.build_report(trials, ballots)

    # Yield regression, hand-computed: SST = 100 * sum((k - 10.5)^2) = 66500
    assert rep.accuracy["alpha"]["Yield"]["r2"] == 1.0
    assert rep.accuracy["alpha"]["Yield"]["rmse"] == 0.0
    assert rep.accuracy["beta"]["Yield"]["rmse"] == 5.0
    assert rep.accuracy["beta"]["Yield"]["r2"] == 1.0 - (20 * 25.0) / 66500.0
    assert rep.accuracy["gamma"]["Yield"]["rmse"] == 50.0
    assert rep.accuracy["gamma"]["Yield"]["r2"] == 1.0 - (20 * 2500.0) / 66500.0

    assert rep.accuracy["alpha"]["PL"]["accuracy"] == 1.0
    assert rep.accuracy["beta"]["PL"]["accuracy"] == 0.75
    assert rep.accuracy["gamma"]["PL"]["accuracy"] == 0.4

    assert rep.accuracy["alpha"]["HQ"]["proportion_correct"] == 0.9
    assert rep.accuracy["beta"]["HQ"]["proportion_correct"] == 0.65
    assert rep.accuracy["gamma"]["HQ"]["proportion_correct"] == 0.25

    # price: 10 exact + 5 at the inclusive +10% boundary pass, 5 at 166 fail
    for model in ("alpha", "beta", "gamma"):
        assert rep.accuracy[model]["SP"]["price_consistency"] == 0.75

    for model in ("alpha", "beta", "gamma"):
        assert rep.stability[model]["Yield"].consistency == 0.9
        assert rep.stability[model]["CT"].robustness == 0.8

    for axis in ("logical_deduction", "inductive_reasoning", "explanation"):
        assert rep.reasoning["alpha"][axis] == pytest.approx(0.5, abs=1e-15)
        assert rep.reasoning["beta"][axis] == pytest.approx(1 / 3, abs=1e-15)
        assert rep.reasoning["gamma"][axis] == pytest.approx(1 / 6, abs=1e-15)
        total = sum(rep.reasoning[m][axis] for m in ("alpha", "beta", "gamma"))
        assert abs(total - 1.0) <= 1e-12

    report("ACCEPTANCE 6 PASS: hand-scored 3-model fixture reproduced exactly; "
           "reasoning proportions sum to 1; 165-passes/166-fails boundary correct")


# ---------------------------------------------------------------------------
# 7. end-to-end golden run
# ---------------------------------------------------------------------------


def _run(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "breedkit.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_7_end_to_end_golden(tmp_path):
    started = time.monotonic()
    blobs = []
    runs = (("a", {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}),
            ("b", {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "4"}))
    for tag, env in runs:
        base = tmp_path / tag
        base.mkdir()
        ex_cfg = write_config(extract_config(base / "ex"), base / "ex.json")
        _run(["extract", "--config", ex_cfg], env)
        features = str(base / "ex" / "features.csv")
        fu_cfg = write_config(fuse_config(base / "fu", features), base / "fu.json")
        _run(["fuse", "--config", fu_cfg], env)
        be_cfg = write_config(bench_config(base / "be"), base / "be.json")
        _run(["bench", "--config", be_cfg], env)
        blobs.append(b"".join(
            open(path, "rb").read() for path in (
                base / "ex" / "features.csv",
                base / "fu" / "metrics.json",
                base / "fu" / "scatter.csv",
                base / "be" / "report.json",
                base / "be" / "accuracy.csv",
                base / "be" / "stability.csv",
                base / "be" / "reasoning.csv",
            )
        ))
    assert blobs[0] == blobs[1], "pipeline outputs differ across runs/threads"
    golden = open(scene_path("golden/features.csv"), "rb").read()
    assert open(tmp_path / "a" / "ex" / "features.csv", "rb").read() == golden
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"end-to-end run took {elapsed:.2f}s"
    report(f"ACCEPTANCE 7 PASS: extract->fuse->bench byte-identical across "
           f"invocations and thread counts, extract matches golden, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. optional external-dataset directional check
# ---------------------------------------------------------------------------


def test_criterion_8_optional_external_directional():
    data_dir = os.environ.get("BREEDKIT_EXTERNAL_DATA_DIR")
    if not data_dir:
        pytest.skip("BREEDKIT_EXTERNAL_DATA_DIR not set; optional data-dependent check")
    needed = {name: os.path.join(data_dir, name)
              for name in ("features.csv", "weather.csv", "germplasm.csv")}
    for name, path in needed.items():
        if not os.path.isfile(path):
            pytest.skip(f"{name} not present under BREEDKIT_EXTERNAL_DATA_DIR")
    from breedkit import kb as kb_mod

    records = fusion.load_feature_records(needed["features.csv"])
    weather = fusion.load_weather(needed["weather.csv"])
    germplasm = kb_mod.load_germplasm(needed["germplasm.csv"])
    matrix = fusion.assemble(records, weather=weather, germplasm=germplasm)
    k = min(10, matrix.n_rows)
    full = fusion.kfold_cv(matrix, k=k, lam=1.0, seed=0)
    rs_only = fusion.kfold_cv(matrix.restrict(("RS",)), k=k, lam=1.0, seed=0)
    assert full.pooled_r2 > rs_only.pooled_r2
    report(f"ACCEPTANCE 8 PASS: all-domain R2 {full.pooled_r2:.3f} > RS-only "
           f"{rs_only.pooled_r2:.3f} on the external dataset")
