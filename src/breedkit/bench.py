"""Scoring for the three-axis breeding benchmark: accuracy, stability, reasoning.

Model answers and the human judgments over them are recorded inputs (trial
and ballot CSVs); this module is the bookkeeping and scoring engine.

Accuracy is subtask-kind specific: R^2/RMSE for numeric regression (shared
implementation with :func:`breedkit.fusion.metrics`), exact-label accuracy
for categorical subtasks, correct/total for manually judged subtasks, and
the fraction of answers within +-10 % of the knowledge-base price for the
price subtask. Stability is the fraction of trials whose numeric answer is
within +-10 % of the reference (text trials use the recorded manual flag),
split by the consistency/robustness protocol tag. Reasoning is each model's
share of the total rank score: with x models per ballot scored 1..x once
each, a ballot's score mass is (1 + x) * x / 2.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from operator import attrgetter

from ._io import csv_rows, write_csv, write_json
from .errors import (
    EmptyInput,
    InvalidBallot,
    InvalidInput,
    InvalidTrialSet,
    ParseError,
    UndefinedDeviation,
)
from .fusion import metrics

# subtask -> (task, answer kind)
SUBTASKS = {
    "Yield": ("phenotyping_estimation", "numeric_regression"),
    "SPAD": ("phenotyping_estimation", "numeric_regression"),
    "LAI": ("phenotyping_estimation", "numeric_regression"),
    "CH": ("phenotyping_estimation", "numeric_regression"),
    "CV": ("phenotyping_estimation", "numeric_regression"),
    "WH": ("phenotyping_estimation", "numeric_regression"),
    "PL": ("phenotyping_estimation", "categorical"),
    "WL": ("environmental_stress", "categorical"),
    "FVC": ("environmental_stress", "numeric_regression"),
    "HQ": ("germplasm_screening", "judged_correctness"),
    "DS": ("germplasm_screening", "judged_correctness"),
    "DR": ("germplasm_screening", "judged_correctness"),
    "MP": ("germplasm_screening", "judged_correctness"),
    "AM": ("germplasm_screening", "judged_correctness"),
    "CT": ("cultivation_recommendation", "judged_correctness"),
    "PPT": ("cultivation_recommendation", "judged_correctness"),
    "SP": ("seed_price_query", "price_consistency"),
}

# answer kind -> (fields every trial needs, metric name, pass rule). A kind
# with a pass rule reports its share of passing trials under the metric
# name; numeric regression reports fusion.metrics' r2 and rmse instead.
ANSWER_KINDS = {
    "numeric_regression": (("answer_numeric", "reference_value"), None, None),
    "categorical": (("answer_label", "reference_label"), "accuracy",
                    lambda t: t.answer_label == t.reference_label),
    "judged_correctness": (("judged_correct",), "proportion_correct",
                           lambda t: t.judged_correct),
    "price_consistency": (("answer_numeric", "reference_value"), "price_consistency",
                          lambda t: within_relative_tolerance(t.answer_numeric, t.reference_value)),
}

REASONING_AXES = ("logical_deduction", "inductive_reasoning", "explanation")

STABILITY_PROTOCOLS = ("consistency", "robustness")

RELATIVE_TOLERANCE = 0.10  # "within +-10 %", boundary inclusive


@dataclass(frozen=True)
class TaskSpec:
    """A benchmark (task, subtask) pair; the answer kind follows the subtask."""

    task: str
    subtask: str

    def __post_init__(self):
        if all(task != self.task for task, _ in SUBTASKS.values()):
            raise InvalidInput(f"unknown task {self.task!r}")
        if SUBTASKS.get(self.subtask, (None,))[0] != self.task:
            raise InvalidInput(
                f"subtask {self.subtask!r} does not belong to task {self.task!r}"
            )

    @property
    def answer_kind(self) -> str:
        return SUBTASKS[self.subtask][1]


@dataclass(frozen=True)
class TrialRecord:
    """One recorded model answer (plus any manual judgment) for one test."""

    model_id: str
    task_spec: TaskSpec
    question_id: str
    trial_index: int
    answer_numeric: float | None = None
    answer_label: str | None = None
    judged_correct: bool | None = None
    reference_value: float | None = None
    reference_label: str | None = None
    stability_protocol: str | None = None
    text_pass: bool | None = None

    def __post_init__(self):
        if self.trial_index < 0:
            raise InvalidInput("trial_index must be >= 0")
        if not (self.model_id and self.question_id):
            raise InvalidInput("empty model_id" if not self.model_id else "empty question_id")
        for name, value in (("answer_numeric", self.answer_numeric),
                            ("reference_value", self.reference_value)):
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value}")
        if self.stability_protocol is not None and self.stability_protocol not in STABILITY_PROTOCOLS:
            raise InvalidInput(
                f"stability_protocol must be one of {STABILITY_PROTOCOLS}"
            )


@dataclass(frozen=True)
class ReasoningBallot:
    """One test's manual ranking: each model gets a distinct score in 1..x."""

    test_id: str
    scores: dict
    axis: str = "overall"

    def __post_init__(self):
        if self.axis != "overall" and self.axis not in REASONING_AXES:
            raise InvalidInput(f"axis must be 'overall' or one of {REASONING_AXES}")
        validate_ballot(self)


def validate_ballot(ballot: ReasoningBallot) -> int:
    """Number of models x, after checking the scores are a permutation of 1..x."""
    x = len(ballot.scores)
    if x < 1:
        raise InvalidBallot(f"ballot {ballot.test_id}: no scores")
    if sorted(ballot.scores.values()) != list(range(1, x + 1)):
        raise InvalidBallot(
            f"ballot {ballot.test_id}: scores must be a permutation of 1..{x}"
        )
    return x


def within_relative_tolerance(answer: float, reference: float) -> bool:
    """True iff |answer - reference| <= RELATIVE_TOLERANCE * |reference| (inclusive)."""
    if reference == 0.0:
        raise UndefinedDeviation("relative deviation undefined for reference 0")
    return abs(answer - reference) <= RELATIVE_TOLERANCE * abs(reference)


def _reject_duplicates(trials) -> None:
    keys = {(t.model_id, t.question_id, t.trial_index) for t in trials}
    if len(keys) != len(trials):
        raise InvalidTrialSet("duplicate (model_id, question_id, trial_index)")


def _single_group(trials) -> tuple[TaskSpec, list]:
    trials = list(trials)
    if not trials:
        raise EmptyInput("no trials")
    model_ids = {t.model_id for t in trials}
    specs = {t.task_spec for t in trials}
    if len(model_ids) != 1 or len(specs) != 1:
        raise InvalidTrialSet(
            f"trials mix models {sorted(model_ids)} / subtasks "
            f"{sorted(s.subtask for s in specs)}"
        )
    _reject_duplicates(trials)
    return trials[0].task_spec, trials


def score_accuracy(trials) -> dict:
    """Accuracy metrics for one model on one subtask.

    Returns {"kind": ..., "n": ...} plus kind-specific entries: r2/rmse for
    regression, accuracy for categorical, proportion_correct for judged
    subtasks, and price_consistency for the price subtask.
    """
    spec, trials = _single_group(trials)
    kind = spec.answer_kind
    fields, metric, passes = ANSWER_KINDS[kind]
    if any(None in map(attrgetter(name), trials) for name in fields):
        raise InvalidTrialSet(f"{spec.subtask}: {kind} trials need {' and '.join(fields)}")
    result = {"kind": kind, "n": len(trials)}
    if passes is None:
        r2, rmse = metrics([t.reference_value for t in trials], [t.answer_numeric for t in trials])
        result.update(r2=r2, rmse=rmse)
    else:
        result[metric] = sum(map(passes, trials)) / len(trials)
    return result


@dataclass(frozen=True)
class StabilityScore:
    """Pass proportions per protocol; excluded trials are reported, not scored."""

    consistency: float | None
    robustness: float | None
    n_consistency: int
    n_robustness: int
    excluded: tuple = ()


def score_stability(trials) -> StabilityScore:
    """Proportion of stability trials passing the +-10 % / manual-flag rule.

    A trial passes when its numeric answer is within +-10 % of the reference
    (inclusive), or its recorded text flag is true. Numeric trials with a
    zero reference have no defined deviation; they are excluded and listed.
    """
    trials = list(trials)
    if not trials:
        raise EmptyInput("no stability trials")
    _reject_duplicates(trials)
    passes = {p: 0 for p in STABILITY_PROTOCOLS}
    counts = {p: 0 for p in STABILITY_PROTOCOLS}
    excluded = []
    for t in trials:
        if t.stability_protocol is None:
            raise InvalidTrialSet(
                f"trial {t.question_id}/{t.trial_index} has no stability_protocol tag"
            )
        if t.answer_numeric is not None and t.reference_value is not None:
            try:
                ok = within_relative_tolerance(t.answer_numeric, t.reference_value)
            except UndefinedDeviation:
                excluded.append((t.question_id, t.trial_index, "reference 0"))
                continue
        elif t.text_pass is not None:
            ok = bool(t.text_pass)
        else:
            raise InvalidTrialSet(
                f"trial {t.question_id}/{t.trial_index} needs numeric answer+reference or text_pass"
            )
        counts[t.stability_protocol] += 1
        passes[t.stability_protocol] += int(ok)
    return StabilityScore(
        **{p: passes[p] / counts[p] if counts[p] else None for p in STABILITY_PROTOCOLS},
        **{f"n_{p}": counts[p] for p in STABILITY_PROTOCOLS},
        excluded=tuple(excluded),
    )


def score_reasoning(ballots, model_id: str) -> float:
    """A model's share of all reasoning score mass over N ballots.

    proportion = sum of the model's scores / (N * (1 + x) * x / 2).
    """
    ballots = list(ballots)
    if not ballots:
        raise EmptyInput("no ballots")
    xs = {validate_ballot(b) for b in ballots}
    if len(xs) != 1:
        raise InvalidBallot(f"ballots disagree on the number of models: {sorted(xs)}")
    x = xs.pop()
    for b in ballots:
        if model_id not in b.scores:
            raise InvalidBallot(f"ballot {b.test_id} does not score model {model_id!r}")
    total = sum(b.scores[model_id] for b in ballots)
    return total / (len(ballots) * (1 + x) * x / 2)


@dataclass(frozen=True)
class BenchmarkReport:
    """All scores for a set of candidate models, ready for tabulation."""

    accuracy: dict  # model_id -> subtask -> metric dict
    stability: dict  # model_id -> subtask -> StabilityScore
    reasoning: dict  # model_id -> axis -> proportion (empty when no ballots)
    models: tuple

    def to_json_dict(self) -> dict:
        return {
            "models": list(self.models),
            "accuracy": {model: self.accuracy.get(model, {}) for model in self.models},
            "stability": {model: {sub: asdict(s) for sub, s in self.stability.get(model, {}).items()}
                          for model in self.models},
            "reasoning": self.reasoning,
        }

    def accuracy_rows(self) -> list[tuple]:
        rows = []
        for model in self.models:
            for subtask, vals in sorted(self.accuracy.get(model, {}).items()):
                for metric_name in sorted(vals):
                    if metric_name in ("kind", "n"):
                        continue
                    rows.append((model, SUBTASKS[subtask][0], subtask, metric_name, vals[metric_name]))
        return rows

    def stability_rows(self) -> list[tuple]:
        rows = []
        for model in self.models:
            for subtask, s in sorted(self.stability.get(model, {}).items()):
                for protocol in STABILITY_PROTOCOLS:
                    share = getattr(s, protocol)
                    if share is not None:
                        rows.append((model, subtask, protocol, share, getattr(s, f"n_{protocol}")))
        return rows

    def reasoning_rows(self) -> list[tuple]:
        rows = []
        for model in self.models:
            for axis, value in sorted(self.reasoning.get(model, {}).items()):
                rows.append((model, axis, value))
        return rows


def build_report(trials, ballots=()) -> BenchmarkReport:
    """Score every (model, subtask) group and every reasoning axis.

    Trials tagged with a stability protocol feed the stability section; the
    rest feed accuracy. Output is independent of input ordering.
    """
    trials = list(trials)
    ballots = list(ballots)
    if not trials and not ballots:
        raise EmptyInput("no trials or ballots")

    groups: dict = {}  # (is a stability trial, model, subtask) -> trials
    models = set()
    for t in trials:
        models.add(t.model_id)
        key = (t.stability_protocol is not None, t.model_id, t.task_spec.subtask)
        groups.setdefault(key, []).append(t)

    accuracy: dict = {}
    stability: dict = {}
    for (is_stability, model, subtask), group in sorted(groups.items()):
        section, score = (stability, score_stability) if is_stability else (accuracy, score_accuracy)
        group.sort(key=lambda t: (t.question_id, t.trial_index))
        section.setdefault(model, {})[subtask] = score(group)

    reasoning: dict = {}
    if ballots:
        by_axis: dict = {}
        for b in ballots:
            by_axis.setdefault(b.axis, []).append(b)
        ballot_models = sorted({m for b in ballots for m in b.scores})
        models.update(ballot_models)
        for axis, axis_ballots in sorted(by_axis.items()):
            axis_ballots = sorted(axis_ballots, key=lambda b: b.test_id)
            for model in ballot_models:
                reasoning.setdefault(model, {})[axis] = score_reasoning(axis_ballots, model)

    return BenchmarkReport(
        accuracy=accuracy,
        stability=stability,
        reasoning=reasoning,
        models=tuple(sorted(models)),
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

TRIAL_CSV_COLUMNS = (
    "model_id", "task", "subtask", "question_id", "trial_index",
    "answer_numeric", "answer_label", "judged_correct",
    "reference_value", "reference_label", "stability_protocol", "text_pass",
)


def _opt_float(raw):
    raw = (raw or "").strip()
    return float(raw) if raw else None


def _opt_bool(raw, lineno):
    raw = (raw or "").strip().lower()
    if not raw:
        return None
    if raw in ("1", "true", "yes"):
        return True
    if raw in ("0", "false", "no"):
        return False
    raise ParseError(f"bad boolean {raw!r}", line=lineno)


def load_trials(path) -> list[TrialRecord]:
    needed = ("model_id", "task", "subtask", "question_id", "trial_index")
    trials = []
    specs: dict = {}  # one shared TaskSpec per (task, subtask) pair
    for i, rec in csv_rows(path, needed):
        try:
            pair = (rec["task"].strip(), rec["subtask"].strip())
            if pair not in specs:
                specs[pair] = TaskSpec(*pair)
            trials.append(
                TrialRecord(
                    model_id=rec["model_id"].strip(),
                    task_spec=specs[pair],
                    question_id=rec["question_id"].strip(),
                    trial_index=int(rec["trial_index"]),
                    answer_numeric=_opt_float(rec.get("answer_numeric")),
                    answer_label=(rec.get("answer_label") or "").strip() or None,
                    judged_correct=_opt_bool(rec.get("judged_correct"), i),
                    reference_value=_opt_float(rec.get("reference_value")),
                    reference_label=(rec.get("reference_label") or "").strip() or None,
                    stability_protocol=(rec.get("stability_protocol") or "").strip() or None,
                    text_pass=_opt_bool(rec.get("text_pass"), i),
                )
            )
        except (ValueError, InvalidInput) as exc:
            raise ParseError(f"bad trial row: {exc}", line=i)
    if not trials:
        raise EmptyInput(f"no trials in {path}")
    return trials


def load_ballots(path) -> list[ReasoningBallot]:
    """Ballot CSV rows (test_id, model_id, score [, axis]) grouped per test.

    Groups are checked in sorted order once every row is read: a bad axis is
    a ParseError at the group's first row, scores that are not a permutation
    one at its last row.
    """
    grouped: dict = {}
    lines: dict = {}  # group -> [first line, last line]
    for i, rec in csv_rows(path, ("test_id", "model_id", "score")):
        test_id, model = (rec[name].strip() for name in ("test_id", "model_id"))
        for name, value in (("test_id", test_id), ("model_id", model)):
            if not value:
                raise ParseError(f"empty {name}", line=i)
        key = (test_id, (rec.get("axis") or "").strip() or "overall")
        entry = grouped.setdefault(key, {})
        lines.setdefault(key, [i, i])[1] = i
        if model in entry:
            raise ParseError(f"ballot {test_id}: duplicate model {model}", line=i)
        try:
            entry[model] = int(rec["score"])
        except ValueError:
            raise ParseError(f"non-integer score {rec['score']!r}", line=i)
    if not grouped:
        raise EmptyInput(f"no ballots in {path}")
    ballots = []
    for (test_id, axis), scores in sorted(grouped.items()):
        first, last = lines[(test_id, axis)]
        try:
            ballots.append(ReasoningBallot(test_id=test_id, scores=scores, axis=axis))
        except InvalidBallot as exc:
            raise ParseError(str(exc), line=last)
        except InvalidInput as exc:
            raise ParseError(str(exc), line=first)
    return ballots


def write_report(report: BenchmarkReport, out_dir) -> dict:
    """Write report.json plus one CSV per figure family; returns the paths."""
    paths = {}

    json_path = os.path.join(out_dir, "report.json")
    write_json(json_path, report.to_json_dict())
    paths["report"] = json_path

    tables = (
        ("accuracy", ("model_id", "task", "subtask", "metric", "value"), report.accuracy_rows()),
        ("stability", ("model_id", "subtask", "protocol", "proportion", "n"), report.stability_rows()),
        ("reasoning", ("model_id", "axis", "proportion"), report.reasoning_rows()),
    )
    for name, header, rows in tables:
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, header,
                  ([repr(v) if isinstance(v, float) else v for v in row] for row in rows))
        paths[name] = path
    return paths
