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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ._io import (Columns, TextCodes, codes, csv_rows, integer, numbers, raise_first, read_table,
                  write_csv, write_json)
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
# name; numeric regression reports fusion.metrics' r2 and rmse instead. A
# pass rule maps a TrialTable to each trial's pass.
ANSWER_KINDS = {
    "numeric_regression": (("answer_numeric", "reference_value"), None, None),
    "categorical": (("answer_label", "reference_label"), "accuracy",
                    lambda t: t.answer_label == t.reference_label),
    "judged_correctness": (("judged_correct",), "proportion_correct",
                           lambda t: t.judged_correct == FLAG_CODES[True]),
    "price_consistency": (("answer_numeric", "reference_value"), "price_consistency",
                          lambda t: within_relative_tolerance(t.answer_numeric, t.reference_value)),
}

REASONING_AXES = ("logical_deduction", "inductive_reasoning", "explanation")

STABILITY_PROTOCOLS = ("consistency", "robustness")

RELATIVE_TOLERANCE = 0.10  # "within +-10 %", boundary inclusive

FLAG_CODES = {None: 0, False: 1, True: 2}  # how a TrialTable holds a yes/no field


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, eq=False)
class TrialTable(Columns):
    """Trials as columns, one entry per trial; each row reads as its ``TrialRecord``.

    Text columns are codes into ``strings``, whose code 0 is the blank text:
    an absent label or protocol. ``task_spec`` codes into ``specs``, one
    TaskSpec per (task, subtask) pair. A flag is an int8 code of
    ``FLAG_CODES``, 0 where absent. A number column is float64, NaN where
    absent.
    """

    strings: tuple
    specs: tuple
    model_id: np.ndarray
    task_spec: np.ndarray
    question_id: np.ndarray
    trial_index: np.ndarray  # int64
    answer_numeric: np.ndarray
    answer_label: np.ndarray
    judged_correct: np.ndarray
    reference_value: np.ndarray
    reference_label: np.ndarray
    stability_protocol: np.ndarray
    text_pass: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_index)

    def __getitem__(self, i) -> TrialRecord:
        text = self.strings
        return TrialRecord(
            model_id=text[self.model_id[i]], task_spec=self.specs[self.task_spec[i]],
            question_id=text[self.question_id[i]], trial_index=int(self.trial_index[i]),
            answer_numeric=_number(self.answer_numeric[i]),
            answer_label=text[self.answer_label[i]] or None,
            judged_correct=_flag(self.judged_correct[i]),
            reference_value=_number(self.reference_value[i]),
            reference_label=text[self.reference_label[i]] or None,
            stability_protocol=text[self.stability_protocol[i]] or None,
            text_pass=_flag(self.text_pass[i]),
        )

    def take(self, rows) -> TrialTable:
        """The table of the trials at ``rows``, in that order."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{name: c[rows] for name, c in columns.items() if isinstance(c, np.ndarray)})


def _number(value) -> float | None:
    return None if math.isnan(value) else float(value)


def _flag(code) -> bool | None:
    return (None, False, True)[code]  # FLAG_CODES read back


def _trial_table(trials) -> TrialTable:
    """``trials`` as a TrialTable: a table as it is, any other iterable of records converted once."""
    if isinstance(trials, TrialTable):
        return trials
    trials = list(trials)
    strings, specs = {"": 0}, {}

    def column(name, dtype=np.float64):  # None reads as NaN
        return np.array([getattr(t, name) for t in trials], dtype=dtype)

    columns = {name: codes([getattr(t, name) or "" for t in trials], strings)
               for name in ("model_id", "question_id", "answer_label", "reference_label",
                            "stability_protocol")}
    columns.update({name: column(name) for name in ("answer_numeric", "reference_value")})
    columns.update({name: np.array([FLAG_CODES[getattr(t, name)] for t in trials], dtype=np.int8)
                    for name in ("judged_correct", "text_pass")})
    task_spec = codes([t.task_spec for t in trials], specs)
    return TrialTable(strings=tuple(strings), specs=tuple(specs), task_spec=task_spec,
                      trial_index=column("trial_index", np.int64), **columns)


def _ranks(texts) -> np.ndarray:
    """Each text's position in the sorted ``texts``, which are distinct."""
    rank = np.empty(len(texts), np.intp)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    return rank


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


def within_relative_tolerance(answer, reference):
    """True iff |answer - reference| <= RELATIVE_TOLERANCE * |reference| (inclusive).

    Elementwise for arrays; a reference of 0 anywhere raises.
    """
    if np.any(np.equal(reference, 0.0)):
        raise UndefinedDeviation("relative deviation undefined for reference 0")
    return abs(answer - reference) <= RELATIVE_TOLERANCE * abs(reference)


def _present(column) -> np.ndarray:
    """Which trials hold a cell of ``column``: a number is not NaN, a text or flag code is not 0."""
    return ~np.isnan(column) if column.dtype.kind == "f" else column != 0


def _reject_duplicates(trials: TrialTable) -> None:
    keys = np.stack([trials.model_id, trials.question_id, trials.trial_index])
    keys = keys[:, np.lexsort(keys)]
    if (keys[:, 1:] == keys[:, :-1]).all(axis=0).any():
        raise InvalidTrialSet("duplicate (model_id, question_id, trial_index)")


def _single_group(trials: TrialTable) -> TaskSpec:
    if not len(trials):
        raise EmptyInput("no trials")
    model_ids, specs = np.unique(trials.model_id), np.unique(trials.task_spec)
    if len(model_ids) != 1 or len(specs) != 1:
        raise InvalidTrialSet(
            f"trials mix models {sorted(trials.strings[m] for m in model_ids)} / subtasks "
            f"{sorted(trials.specs[s].subtask for s in specs)}"
        )
    _reject_duplicates(trials)
    return trials.specs[specs[0]]


def score_accuracy(trials) -> dict:
    """Accuracy metrics for one model on one subtask.

    Returns {"kind": ..., "n": ...} plus kind-specific entries: r2/rmse for
    regression, accuracy for categorical, proportion_correct for judged
    subtasks, and price_consistency for the price subtask.
    """
    trials = _trial_table(trials)
    spec = _single_group(trials)
    kind = spec.answer_kind
    fields, metric, passes = ANSWER_KINDS[kind]
    if not all(_present(getattr(trials, name)).all() for name in fields):
        raise InvalidTrialSet(f"{spec.subtask}: {kind} trials need {' and '.join(fields)}")
    result = {"kind": kind, "n": len(trials)}
    if passes is None:
        r2, rmse = metrics(trials.reference_value, trials.answer_numeric)
        result.update(r2=r2, rmse=rmse)
    else:
        result[metric] = int(np.count_nonzero(passes(trials))) / len(trials)
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
    trials = _trial_table(trials)
    if not len(trials):
        raise EmptyInput("no stability trials")
    _reject_duplicates(trials)
    untagged = trials.stability_protocol == 0
    numeric = _present(trials.answer_numeric) & _present(trials.reference_value)
    unscored = untagged | ~(numeric | _present(trials.text_pass))
    if unscored.any():  # the first such trial, as ordered
        i = int(np.argmax(unscored))
        need = ("has no stability_protocol tag" if untagged[i]
                else "needs numeric answer+reference or text_pass")
        raise InvalidTrialSet(
            f"trial {trials.strings[trials.question_id[i]]}/{trials.trial_index[i]} {need}")
    zero = numeric & (trials.reference_value == 0.0)
    excluded = tuple((trials.strings[q], int(i), "reference 0")
                     for q, i in zip(trials.question_id[zero], trials.trial_index[zero]))
    ok = trials.text_pass == FLAG_CODES[True]
    scored = numeric & ~zero
    ok[scored] = within_relative_tolerance(trials.answer_numeric[scored], trials.reference_value[scored])
    shares, counts = {}, {}
    for p in STABILITY_PROTOCOLS:
        tagged = ~zero & (trials.stability_protocol == trials.code(p))
        counts[f"n_{p}"] = n = int(np.count_nonzero(tagged))
        shares[p] = int(np.count_nonzero(ok & tagged)) / n if n else None
    return StabilityScore(**shares, **counts, excluded=excluded)


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
    trials = _trial_table(trials)
    ballots = list(ballots)
    if not len(trials) and not ballots:
        raise EmptyInput("no trials or ballots")

    # one stable sort lays out each (is a stability trial, model, subtask)
    # group in that order, a group's trials by (question_id, trial_index)
    rank, subtask_rank = _ranks(trials.strings), _ranks([s.subtask for s in trials.specs])
    is_stability = trials.stability_protocol != 0
    group = ((is_stability * len(rank) + rank[trials.model_id]) * len(subtask_rank)
             + subtask_rank[trials.task_spec])
    order = np.lexsort((trials.trial_index, rank[trials.question_id], group))
    group = group[order]
    starts = np.flatnonzero(group[1:] != group[:-1]) + 1

    accuracy: dict = {}
    stability: dict = {}
    for rows in np.split(order, starts) if len(order) else ():
        first = rows[0]
        section, score = (stability, score_stability) if is_stability[first] else (accuracy, score_accuracy)
        subtask = trials.specs[trials.task_spec[first]].subtask
        section.setdefault(trials.strings[trials.model_id[first]], {})[subtask] = score(trials.take(rows))
    models = {trials.strings[m] for m in np.unique(trials.model_id)}

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


_FLAG_TEXTS = {"": FLAG_CODES[None], **dict.fromkeys(("1", "true", "yes"), FLAG_CODES[True]),
               **dict.fromkeys(("0", "false", "no"), FLAG_CODES[False])}


def _flags(cells) -> np.ndarray:
    """Each cell's flag code, -1 for a cell that is no flag; each distinct cell is read once."""
    flag = {cell: _FLAG_TEXTS.get(cell.strip().lower(), -1) for cell in dict.fromkeys(cells)}
    return np.fromiter(map(flag.__getitem__, cells), np.int8, len(cells))


def _trial_block(lines, cells, strings: TextCodes, pairs: dict, specs: list) -> dict:
    """One block's TrialTable columns, checked in the order a trial row is: ParseError at the first bad row.

    ``strings`` and ``pairs`` ((task, subtask) -> code) gain this block's new
    texts and pairs, and ``specs`` each new pair's TaskSpec or, for an
    invalid pair, the message that names it.
    """
    (model, task, subtask, question, trial_index, answer, answer_label, judged, reference,
     reference_label, protocol, text_pass) = cells
    spec = codes(list(zip(map(str.strip, task), map(str.strip, subtask))), pairs)
    for pair in list(pairs)[len(specs):]:
        try:
            specs.append(TaskSpec(*pair))
        except InvalidInput as exc:
            specs.append(str(exc))
    invalid = [code for code, s in enumerate(specs) if isinstance(s, str)]
    index, _, index_errors = numbers(trial_index, read=integer)
    answer, answer_present, answer_errors = numbers(answer, blank=True)
    judged_correct, passed = _flags(judged), _flags(text_pass)
    reference, reference_present, reference_errors = numbers(reference, blank=True)
    texts = {name: strings(column) for name, column in (
        ("model_id", model), ("question_id", question), ("answer_label", answer_label),
        ("reference_label", reference_label), ("stability_protocol", protocol))}
    tags = [0] + [strings[p] for p in STABILITY_PROTOCOLS if p in strings]
    rows = np.flatnonzero
    raise_first(lines, [
        (rows(np.isin(spec, invalid)), lambda i: f"bad trial row: {specs[spec[i]]}"),
        (index_errors, lambda i: f"bad trial row: {index_errors[i]}"),
        (answer_errors, lambda i: f"bad trial row: {answer_errors[i]}"),
        (rows(judged_correct < 0), lambda i: f"bad boolean {judged[i].strip().lower()!r}"),
        (reference_errors, lambda i: f"bad trial row: {reference_errors[i]}"),
        (rows(passed < 0), lambda i: f"bad boolean {text_pass[i].strip().lower()!r}"),
        (rows(index < 0), lambda i: "bad trial row: trial_index must be >= 0"),
        (rows(texts["model_id"] == 0), lambda i: "bad trial row: empty model_id"),
        (rows(texts["question_id"] == 0), lambda i: "bad trial row: empty question_id"),
        (rows(answer_present & ~np.isfinite(answer)),
         lambda i: f"bad trial row: answer_numeric must be finite, got {float(answer[i])}"),
        (rows(reference_present & ~np.isfinite(reference)),
         lambda i: f"bad trial row: reference_value must be finite, got {float(reference[i])}"),
        (rows(~np.isin(texts["stability_protocol"], tags)),
         lambda i: f"bad trial row: stability_protocol must be one of {STABILITY_PROTOCOLS}"),
    ])
    return dict(texts, task_spec=spec, trial_index=index, answer_numeric=answer,
                judged_correct=judged_correct, reference_value=reference, text_pass=passed)


def load_trials(path) -> TrialTable:
    """Read a trial table, a block of rows at a time (``_io.csv_blocks``), column by column.

    The first bad row is a ParseError at its line, for the first check it
    fails in the order ``TrialRecord`` takes its fields and then checks them.
    """
    strings, pairs, specs = TextCodes(), {}, []
    columns = read_table(path, TRIAL_CSV_COLUMNS[:5], TRIAL_CSV_COLUMNS[5:],
                         lambda lines, cells: _trial_block(lines, cells, strings, pairs, specs))
    if columns is None:
        raise EmptyInput(f"no trials in {path}")
    return TrialTable(strings=tuple(strings), specs=tuple(specs), **columns)


def load_ballots(path) -> list[ReasoningBallot]:
    """Ballot CSV rows (test_id, model_id, score [, axis]) grouped per test.

    Groups are checked in sorted order once every row is read: a bad axis is
    a ParseError at the group's first row, scores that are not a permutation
    one at its last row.
    """
    grouped: dict = {}
    lines: dict = {}  # group -> [first line, last line]
    for i, (test_id, model, score, axis) in csv_rows(path, ("test_id", "model_id", "score"), ("axis",)):
        test_id, model = test_id.strip(), model.strip()
        for name, value in (("test_id", test_id), ("model_id", model)):
            if not value:
                raise ParseError(f"empty {name}", line=i)
        key = (test_id, axis.strip() or "overall")
        entry = grouped.setdefault(key, {})
        lines.setdefault(key, [i, i])[1] = i
        if model in entry:
            raise ParseError(f"ballot {test_id}: duplicate model {model}", line=i)
        try:
            entry[model] = integer(score)
        except ValueError:
            raise ParseError(f"non-integer score {score!r}", line=i)
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
        write_csv(path, header, rows)
        paths[name] = path
    return paths
