import numpy as np
import pytest

from breedkit import bench, fusion
from breedkit.errors import (
    EmptyInput,
    InvalidBallot,
    InvalidInput,
    InvalidTrialSet,
    ParseError,
    UndefinedDeviation,
)


def spec(subtask):
    return bench.TaskSpec(task=bench.SUBTASKS[subtask][0], subtask=subtask)


def trial(subtask, question="q1", index=0, model="m1", **kwargs):
    return bench.TrialRecord(
        model_id=model, task_spec=spec(subtask), question_id=question,
        trial_index=index, **kwargs,
    )


class TestTaskSpec:
    def test_subtask_task_pairing_enforced(self):
        bench.TaskSpec(task="phenotyping_estimation", subtask="Yield")
        with pytest.raises(InvalidInput):
            bench.TaskSpec(task="phenotyping_estimation", subtask="WL")
        with pytest.raises(InvalidInput):
            bench.TaskSpec(task="nonsense", subtask="Yield")

    def test_answer_kind_follows_subtask(self):
        assert spec("Yield").answer_kind == "numeric_regression"
        assert spec("FVC").answer_kind == "numeric_regression"
        assert spec("PL").answer_kind == "categorical"
        assert spec("WL").answer_kind == "categorical"
        assert spec("HQ").answer_kind == "judged_correctness"
        assert spec("CT").answer_kind == "judged_correctness"
        assert spec("SP").answer_kind == "price_consistency"

    def test_full_enumeration(self):
        by_task: dict = {}
        for subtask, (task, _) in bench.SUBTASKS.items():
            by_task.setdefault(task, set()).add(subtask)
        assert by_task == {
            "phenotyping_estimation": {"Yield", "SPAD", "LAI", "CH", "CV", "WH", "PL"},
            "environmental_stress": {"WL", "FVC"},
            "germplasm_screening": {"HQ", "DS", "DR", "MP", "AM"},
            "cultivation_recommendation": {"CT", "PPT"},
            "seed_price_query": {"SP"},
        }


class TestScoreAccuracy:
    def test_judged_counting(self):
        trials = [
            trial("HQ", question=f"q{i}", judged_correct=i != 0)
            for i in range(10)
        ]
        result = bench.score_accuracy(trials)
        assert result["proportion_correct"] == 0.9
        assert result["n"] == 10

    def test_price_boundary(self):
        trials = [
            trial("SP", question="q1", answer_numeric=105.0, reference_value=100.0),
            trial("SP", question="q2", answer_numeric=111.0, reference_value=100.0),
        ]
        result = bench.score_accuracy(trials)
        assert result["price_consistency"] == 0.5

    def test_regression_perfect(self):
        trials = [
            trial("Yield", question=f"q{i}", answer_numeric=float(v), reference_value=float(v))
            for i, v in enumerate((4000, 4500, 5000))
        ]
        result = bench.score_accuracy(trials)
        assert result["r2"] == 1.0 and result["rmse"] == 0.0

    def test_regression_shares_fusion_metrics(self):
        y_true = [1.0, 2.0, 3.0]
        y_pred = [1.0, 2.0, 4.0]
        trials = [
            trial("LAI", question=f"q{i}", answer_numeric=p, reference_value=t)
            for i, (t, p) in enumerate(zip(y_true, y_pred))
        ]
        result = bench.score_accuracy(trials)
        r2, rmse = fusion.metrics(y_true, y_pred)
        assert result["r2"] == r2 and result["rmse"] == rmse
        assert bench.metrics is fusion.metrics  # single shared implementation

    def test_categorical_accuracy(self):
        trials = [
            trial("PL", question="q1", answer_label="slight", reference_label="slight"),
            trial("PL", question="q2", answer_label="severe", reference_label="slight"),
        ]
        assert bench.score_accuracy(trials)["accuracy"] == 0.5

    @pytest.mark.parametrize("kind, field", [
        (kind, field) for kind, (fields, _, _) in bench.ANSWER_KINDS.items() for field in fields
    ])
    def test_a_trial_without_a_required_field_is_rejected(self, kind, field):
        subtask = next(sub for sub, (_, k) in bench.SUBTASKS.items() if k == kind)
        answers = dict(answer_numeric=100.0, reference_value=100.0, answer_label="slight",
                       reference_label="slight", judged_correct=True)
        trials = [trial(subtask, question="q1", **answers),
                  trial(subtask, question="q2", **{**answers, field: None})]
        with pytest.raises(InvalidTrialSet, match=field):
            bench.score_accuracy(trials)

    def test_each_kind_needs_its_fields(self):
        assert {kind: fields for kind, (fields, _, _) in bench.ANSWER_KINDS.items()} == {
            "numeric_regression": ("answer_numeric", "reference_value"),
            "categorical": ("answer_label", "reference_label"),
            "judged_correctness": ("judged_correct",),
            "price_consistency": ("answer_numeric", "reference_value"),
        }
        assert {kind for _, kind in bench.SUBTASKS.values()} == set(bench.ANSWER_KINDS)

    def test_mixed_groups_rejected(self):
        mixed = [trial("HQ", judged_correct=True), trial("DS", judged_correct=True)]
        with pytest.raises(InvalidTrialSet):
            bench.score_accuracy(mixed)
        two_models = [trial("HQ", judged_correct=True, model="a"),
                      trial("HQ", judged_correct=True, model="b")]
        with pytest.raises(InvalidTrialSet):
            bench.score_accuracy(two_models)

    def test_duplicate_trial_index_rejected(self):
        dupes = [trial("HQ", question="q1", index=0, judged_correct=True),
                 trial("HQ", question="q1", index=0, judged_correct=False)]
        with pytest.raises(InvalidTrialSet):
            bench.score_accuracy(dupes)

    def test_order_invariance_matches_counting(self):
        rng = np.random.default_rng(5)
        flags = rng.random(40) < 0.7
        trials = [
            trial("CT", question=f"q{i}", judged_correct=bool(f))
            for i, f in enumerate(flags)
        ]
        shuffled = [trials[i] for i in rng.permutation(40)]
        a = bench.score_accuracy(trials)
        b = bench.score_accuracy(shuffled)
        assert a == b
        assert a["proportion_correct"] == flags.sum() / 40


class TestScoreStability:
    def test_boundary_inclusive(self):
        trials = [
            trial("Yield", question="q1", answer_numeric=55.0, reference_value=50.0,
                  stability_protocol="consistency"),
            trial("Yield", question="q2", answer_numeric=56.0, reference_value=50.0,
                  stability_protocol="consistency"),
        ]
        score = bench.score_stability(trials)
        assert score.consistency == 0.5
        assert score.robustness is None

    def test_all_pass(self):
        trials = [
            trial("Yield", question=f"q{i}", answer_numeric=100.0, reference_value=100.0,
                  stability_protocol="robustness")
            for i in range(5)
        ]
        assert bench.score_stability(trials).robustness == 1.0

    def test_text_flag_trials(self):
        trials = [
            trial("CT", question="q1", text_pass=True, stability_protocol="consistency"),
            trial("CT", question="q2", text_pass=False, stability_protocol="consistency"),
        ]
        assert bench.score_stability(trials).consistency == 0.5

    def test_zero_reference_excluded_and_reported(self):
        trials = [
            trial("Yield", question="q1", answer_numeric=1.0, reference_value=0.0,
                  stability_protocol="consistency"),
            trial("Yield", question="q2", answer_numeric=50.0, reference_value=50.0,
                  stability_protocol="consistency"),
        ]
        score = bench.score_stability(trials)
        assert score.consistency == 1.0
        assert score.n_consistency == 1
        assert score.excluded == (("q1", 0, "reference 0"),)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ref = rng.uniform(1, 1000)
            ans = ref * rng.uniform(0.8, 1.2)
            scale = rng.uniform(0.001, 1000)
            assert bench.within_relative_tolerance(ans, ref) == \
                bench.within_relative_tolerance(ans * scale, ref * scale)

    def test_undefined_deviation_helper(self):
        with pytest.raises(UndefinedDeviation):
            bench.within_relative_tolerance(1.0, 0.0)


class TestWithinRelativeTolerance:
    # the price-consistency boundaries, at a recorded price of 150
    def test_identity(self):
        assert bench.within_relative_tolerance(150.0, 150.0)

    def test_exact_plus_ten_percent(self):
        assert bench.within_relative_tolerance(165.0, 150.0)

    def test_just_over_ten_percent(self):
        assert not bench.within_relative_tolerance(166.0, 150.0)


class TestScoreReasoning:
    def test_always_top_of_five(self):
        ballots = [
            bench.ReasoningBallot(test_id=f"t{i}",
                                  scores={"m1": 5, "m2": 4, "m3": 3, "m4": 2, "m5": 1})
            for i in range(8)
        ]
        assert bench.score_reasoning(ballots, "m1") == pytest.approx(1 / 3, abs=1e-15)
        assert bench.score_reasoning(ballots, "m5") == pytest.approx(1 / 15, abs=1e-15)

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(3)
        models = [f"m{i}" for i in range(4)]
        ballots = []
        for i in range(12):
            scores = dict(zip(models, rng.permutation(4) + 1))
            ballots.append(bench.ReasoningBallot(test_id=f"t{i}",
                                                 scores={m: int(s) for m, s in scores.items()}))
        total = sum(bench.score_reasoning(ballots, m) for m in models)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidBallot):
            bench.ReasoningBallot(test_id="t", scores={"a": 1, "b": 1})
        with pytest.raises(InvalidBallot):
            bench.ReasoningBallot(test_id="t", scores={"a": 2, "b": 3})

    def test_expected_counts_validated(self):
        ballots = [bench.ReasoningBallot(test_id="t", scores={"a": 1, "b": 2})]
        with pytest.raises(InvalidBallot):
            bench.score_reasoning(ballots, "missing")


class TestBuildReport:
    def fixture_inputs(self):
        trials = []
        # accuracy: judged 3/4 correct for m1, 2/4 for m2
        for model, correct in (("m1", 3), ("m2", 2)):
            for i in range(4):
                trials.append(trial("HQ", question=f"q{i}", model=model,
                                    judged_correct=i < correct))
        # stability: m1 consistency 1/2
        trials.append(trial("Yield", question="s1", model="m1", answer_numeric=100.0,
                            reference_value=100.0, stability_protocol="consistency"))
        trials.append(trial("Yield", question="s2", model="m1", answer_numeric=200.0,
                            reference_value=100.0, stability_protocol="consistency"))
        ballots = [
            bench.ReasoningBallot(test_id="t1", scores={"m1": 2, "m2": 1},
                                  axis="logical_deduction"),
            bench.ReasoningBallot(test_id="t2", scores={"m1": 1, "m2": 2},
                                  axis="logical_deduction"),
            bench.ReasoningBallot(test_id="t3", scores={"m1": 2, "m2": 1},
                                  axis="explanation"),
        ]
        return trials, ballots

    def test_field_by_field(self):
        trials, ballots = self.fixture_inputs()
        report = bench.build_report(trials, ballots)
        assert report.models == ("m1", "m2")
        assert report.accuracy["m1"]["HQ"]["proportion_correct"] == 0.75
        assert report.accuracy["m2"]["HQ"]["proportion_correct"] == 0.5
        assert report.stability["m1"]["Yield"].consistency == 0.5
        assert report.reasoning["m1"]["logical_deduction"] == pytest.approx(0.5)
        assert report.reasoning["m2"]["logical_deduction"] == pytest.approx(0.5)
        assert report.reasoning["m1"]["explanation"] == pytest.approx(2 / 3)
        assert report.reasoning["m2"]["explanation"] == pytest.approx(1 / 3)

    def test_empty_ballots_omit_reasoning(self):
        trials, _ = self.fixture_inputs()
        report = bench.build_report(trials, ())
        assert report.reasoning == {}
        assert report.accuracy  # other sections still present
        assert report.to_json_dict()["reasoning"] == {}

    def test_order_invariance(self):
        trials, ballots = self.fixture_inputs()
        rng = np.random.default_rng(0)
        shuffled = [trials[i] for i in rng.permutation(len(trials))]
        a = bench.build_report(trials, ballots)
        b = bench.build_report(shuffled, list(reversed(ballots)))
        assert a.to_json_dict() == b.to_json_dict()

    def test_requires_input(self):
        with pytest.raises(EmptyInput):
            bench.build_report([], ())


class TestCsvInterfaces:
    def test_trials_round_trip(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "model_id,task,subtask,question_id,trial_index,answer_numeric,answer_label,"
            "judged_correct,reference_value,reference_label,stability_protocol,text_pass\n"
            "m1,phenotyping_estimation,Yield,q1,0,4100,,,4000,,,\n"
            "m1,phenotyping_estimation,PL,q2,0,,slight,,,slight,,\n"
            "m1,germplasm_screening,HQ,q3,0,,,true,,,,\n"
            "m1,phenotyping_estimation,Yield,s1,0,105,,,100,,consistency,\n"
            "m1,cultivation_recommendation,CT,s2,0,,,,,,robustness,true\n"
        )
        trials = bench.load_trials(path)
        assert len(trials) == 5
        assert trials[0].answer_numeric == 4100.0
        assert trials[1].answer_label == "slight"
        assert trials[2].judged_correct is True
        assert trials[3].stability_protocol == "consistency"
        assert trials[4].text_pass is True
        assert trials[0].task_spec is trials[3].task_spec  # one TaskSpec per (task, subtask)
        assert trials[0].task_spec == bench.TaskSpec("phenotyping_estimation", "Yield")

    @pytest.mark.parametrize("task, subtask, message", [
        ("phenotyping_estimation", "HQ", "subtask 'HQ' does not belong to task 'phenotyping_estimation'"),
        ("weather", "Yield", "unknown task 'weather'"),
    ])
    def test_invalid_task_pair_is_a_parse_error_at_its_first_row(self, task, subtask, message,
                                                                   tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "model_id,task,subtask,question_id,trial_index\n"
            "m1,phenotyping_estimation,Yield,q1,0\n"
            f"m1,{task},{subtask},q2,0\n"
            f"m1,{task},{subtask},q3,0\n"
        )
        with pytest.raises(ParseError) as info:
            bench.load_trials(path)
        assert info.value.line == 3
        assert str(info.value) == f"line 3: bad trial row: {message}"

    @pytest.mark.parametrize("answer,reference,name,value", [
        ("nan", "4000", "answer_numeric", "nan"),
        ("4100", "inf", "reference_value", "inf"),
        ("-inf", "4000", "answer_numeric", "-inf"),
        ("4100", "NaN", "reference_value", "nan"),
    ])
    def test_non_finite_number_is_a_parse_error(self, answer, reference, name, value, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "model_id,task,subtask,question_id,trial_index,answer_numeric,reference_value\n"
            "m1,phenotyping_estimation,Yield,q1,0,4100,4000\n"
            f"m1,phenotyping_estimation,Yield,q2,0,{answer},{reference}\n"
        )
        with pytest.raises(ParseError) as info:
            bench.load_trials(path)
        assert info.value.line == 3
        assert str(info.value) == f"line 3: bad trial row: {name} must be finite, got {value}"

    @pytest.mark.parametrize("row, name", [
        (",phenotyping_estimation,Yield,q2,0", "model_id"),
        ("m1,phenotyping_estimation,Yield, ,0", "question_id"),
    ])
    def test_empty_identifier_is_a_parse_error(self, row, name, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("model_id,task,subtask,question_id,trial_index\n"
                        f"m1,phenotyping_estimation,Yield,q1,0\n{row}\n")
        with pytest.raises(ParseError) as info:
            bench.load_trials(path)
        assert str(info.value) == f"line 3: bad trial row: empty {name}"

    @pytest.mark.parametrize("row, name", [(",m2,1", "test_id"), ("t1, ,1", "model_id")])
    def test_empty_ballot_identifier_is_a_parse_error(self, row, name, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text(f"test_id,model_id,score\nt1,m1,2\n{row}\n")
        with pytest.raises(ParseError) as info:
            bench.load_ballots(path)
        assert str(info.value) == f"line 3: empty {name}"

    def test_ballots_round_trip(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text(
            "test_id,model_id,score,axis\n"
            "t1,m1,2,logical_deduction\n"
            "t1,m2,1,logical_deduction\n"
            "t2,m1,1,explanation\n"
            "t2,m2,2,explanation\n"
        )
        ballots = bench.load_ballots(path)
        assert len(ballots) == 2
        assert {b.axis for b in ballots} == {"logical_deduction", "explanation"}

    def test_ballots_without_axis_column(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("test_id,model_id,score\nt1,m1,1\nt1,m2,2\n")
        ballots = bench.load_ballots(path)
        assert ballots[0].axis == "overall"

    def test_bad_axis_is_a_parse_error_at_its_row(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("test_id,model_id,score,axis\n"
                        "t1,m1,1,overall\nt1,m2,2,overall\n"
                        "t2,m1,1,nonsense\nt2,m2,2,nonsense\n")
        with pytest.raises(ParseError) as info:
            bench.load_ballots(path)
        assert str(info.value) == (
            f"line 4: axis must be 'overall' or one of {bench.REASONING_AXES}")

    def test_bad_permutation_is_a_parse_error_at_its_last_row(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("test_id,model_id,score\nt1,m1,1\nt2,m1,1\nt1,m2,3\nt2,m2,2\n")
        with pytest.raises(ParseError) as info:
            bench.load_ballots(path)
        assert str(info.value) == "line 4: ballot t1: scores must be a permutation of 1..2"

    def test_ballot_groups_fail_in_sorted_order(self, tmp_path):
        # t2's bad axis comes first in the file; t1's bad permutation sorts first
        path = tmp_path / "ballots.csv"
        path.write_text("test_id,model_id,score,axis\n"
                        "t2,m1,1,nonsense\nt1,m1,1,\nt1,m2,1,\n")
        with pytest.raises(ParseError) as info:
            bench.load_ballots(path)
        assert str(info.value) == "line 4: ballot t1: scores must be a permutation of 1..2"
        # a bad row anywhere still fails before any group
        path.write_text("test_id,model_id,score,axis\n"
                        "t1,m1,1,nonsense\nt1,m2,x,nonsense\n")
        with pytest.raises(ParseError) as info:
            bench.load_ballots(path)
        assert str(info.value) == "line 3: non-integer score 'x'"

    def test_write_report_files(self, tmp_path):
        trials = [trial("HQ", question=f"q{i}", judged_correct=True) for i in range(3)]
        report = bench.build_report(trials, ())
        paths = bench.write_report(report, tmp_path / "out")
        for key in ("report", "accuracy", "stability", "reasoning"):
            assert (key in paths)
        content = open(paths["accuracy"]).read()
        assert "proportion_correct" in content
