"""Preference-optimization objectives at a fully verifiable toy scale.

The answer policy is tabular: one logit row per (prompt, answer prefix)
state, softmax-normalized over the vocabulary. That makes every quantity
exactly computable and gradient-checkable:

  * answer log probability: sum of per-step log softmax terms
  * supervised fine-tuning loss: negative mean answer log probability
  * reward-model loss: -mean log sigmoid(score_preferred - score_rejected)
  * combined reward: r(x, y) = r(x, y) - beta * (log pi(y|x) - log ref(y|x))
  * policy updates: clipped-surrogate policy gradient (PPO-style) on the
    combined reward, seeded sampling, plain gradient ascent
  * KL(pi || ref) diagnostic: chain rule over answer prefixes,
    sum_prefix pi(prefix) * KL(pi(.|prefix) || ref(.|prefix)), exact while the
    prefix states sum_{t<T} V**t fit a budget, sampled past it

The reward model is linear in prompt/answer token-count features, so its
gradient is exact as well. Training loops are single-threaded and
deterministic given the seed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from ._io import decoding, finite_number, write_json
from .errors import (
    EmptyInput,
    InvalidInput,
    InvalidRanking,
    InvalidToken,
    NumericalError,
    ParseError,
)

# mean_kl is exact while the prefix states sum_{t<T} V**t (one softmax row per
# model each) fit this budget; past it, it samples this many answers per prompt
_EXACT_KL_BUDGET = 4096
_KL_SAMPLES = 256


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log softmax along the last axis (one row, or a stack of rows)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _tokens(seq, what: str, error=InvalidToken) -> tuple:
    """``seq`` as a tuple of Python ints: the one rule for what a token is.

    An item is a token when it is an ``int`` or a numpy integer, and not a
    bool. Anything else (``1.7``, ``"1"``, ``True``, ``np.float64(2.0)``)
    raises ``error`` naming it, rather than being truncated or parsed.
    """
    items = tuple(seq)
    for t in items:
        # an exact int passes the first test, so the common case costs one check
        if type(t) is not int and (isinstance(t, bool) or not isinstance(t, (int, np.integer))):
            raise error(f"{what} {t!r} is not an integer")
    return tuple(map(int, items))


def _as_tokens(seq, vocab_size: int, what: str) -> tuple:
    tokens = _tokens(seq, what + " token")
    for t in tokens:
        if not (0 <= t < vocab_size):
            raise InvalidToken(f"{what} token {t} outside vocabulary of size {vocab_size}")
    return tokens


class PolicyModel:
    """Tabular softmax policy over short answers.

    Logit rows are created lazily per (prompt, prefix) state: zeros when
    ``init_scale`` is 0 (uniform policy), otherwise seeded Gaussian noise
    derived from a stable per-state digest so results do not depend on touch
    order. A reference-role model is frozen: its rows may be read but never
    written or updated.
    """

    def __init__(self, vocab_size: int, context_length: int, init_scale: float = 0.0,
                 seed: int = 0, role: str = "policy"):
        if vocab_size < 2:
            raise InvalidInput("vocab_size must be >= 2")
        if context_length < 1:
            raise InvalidInput("context_length must be >= 1")
        if role not in ("policy", "reference"):
            raise InvalidInput(f"role must be policy or reference, got {role!r}")
        self.vocab_size = vocab_size
        self.context_length = context_length
        self.init_scale = float(init_scale)
        self.seed = int(seed)
        self.role = role
        self._rows: dict[tuple, np.ndarray] = {}

    @property
    def frozen(self) -> bool:
        return self.role == "reference"

    # -- state access -------------------------------------------------

    def _make_row(self, key) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.vocab_size)
        digest = zlib.crc32(repr(key).encode()) ^ (self.seed & 0xFFFFFFFF)
        rng = np.random.default_rng(digest)
        return self.init_scale * rng.standard_normal(self.vocab_size)

    def logits_row(self, x, prefix) -> np.ndarray:
        x = _as_tokens(x, self.vocab_size, "prompt")
        prefix = _as_tokens(prefix, self.vocab_size, "answer")
        if len(prefix) >= self.context_length:
            raise InvalidInput(
                f"prefix length {len(prefix)} exceeds context_length {self.context_length}"
            )
        return self._row((x, prefix))

    def _row(self, key) -> np.ndarray:
        """Logit row of an already validated (prompt, prefix) state."""
        row = self._rows.get(key)
        if row is None:
            row = self._make_row(key)
            if self.frozen:
                return row  # do not grow a frozen model's table
            self._rows[key] = row
        return row

    def step_probabilities(self, x, prefix) -> np.ndarray:
        return np.exp(_log_softmax(self.logits_row(x, prefix)))

    def _answer_log_softmax(self, x, y) -> tuple:
        """(prompt, answer, stacked log softmax rows: row t is log pi(. | x, y[:t])), checked once."""
        x = _as_tokens(x, self.vocab_size, "prompt")
        y = _as_tokens(y, self.vocab_size, "answer")
        if len(y) > self.context_length:  # the prefix y[:T] has no state
            t = self.context_length
            raise InvalidInput(f"prefix length {t} exceeds context_length {t}")
        rows = np.array([self._row((x, y[:t])) for t in range(len(y))])
        return x, y, _log_softmax(rows.reshape(len(y), self.vocab_size))

    # -- mutation -----------------------------------------------------

    def set_logits(self, x, prefix, logits) -> None:
        if self.frozen:
            raise InvalidInput("reference model is frozen")
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != (self.vocab_size,):
            raise InvalidInput(f"logit row must have shape ({self.vocab_size},)")
        key = (_as_tokens(x, self.vocab_size, "prompt"),
               _as_tokens(prefix, self.vocab_size, "answer"))
        self._rows[key] = logits.copy()

    def apply_gradient(self, grads: dict, learning_rate: float) -> None:
        """Gradient-ascent step: logits += lr * grad, row by row."""
        if self.frozen:
            raise InvalidInput("reference model is frozen")
        for key, grad in grads.items():
            row = self._rows.get(key)
            if row is None:
                row = self._make_row(key)
            self._rows[key] = row + learning_rate * grad

    def snapshot(self) -> "PolicyModel":
        """Frozen copy of the current parameters."""
        copy = self._frozen_view()
        copy._rows = {k: v.copy() for k, v in self._rows.items()}
        return copy

    def _frozen_view(self) -> "PolicyModel":
        """Frozen model sharing this one's rows: reading it stores no new row."""
        view = PolicyModel(self.vocab_size, self.context_length,
                           init_scale=self.init_scale, seed=self.seed, role="reference")
        view._rows = self._rows
        return view

    # -- sampling -----------------------------------------------------

    def sample_answer(self, x, rng: np.random.Generator) -> tuple:
        x = _as_tokens(x, self.vocab_size, "prompt")
        answer = ()
        for _ in range(self.context_length):
            probs = np.exp(_log_softmax(self._row((x, answer))))
            answer = answer + (int(rng.choice(self.vocab_size, p=probs)),)
        return answer


def _picked_sum(log_probs: np.ndarray, y: tuple) -> float:
    """sum_t log_probs[t, y_t], added in step order."""
    total = 0.0
    for t, token in enumerate(y):
        total += float(log_probs[t, token])
    return total


def _add_step_grads(grads: dict, x: tuple, y: tuple, log_probs, scale: float) -> None:
    """grads[(x, y[:t])] += scale * (onehot(y_t) - pi(. | x, y[:t])) for each step t."""
    probs = np.exp(log_probs)
    for t, token in enumerate(y):
        g = grads.setdefault((x, y[:t]), np.zeros(probs.shape[1]))
        g -= scale * probs[t]
        g[token] += scale


def answer_log_prob(policy: PolicyModel, x, y) -> float:
    """log pi(y|x) = sum over steps of log pi(y_t | x, y_{1:t-1})."""
    _, y, log_probs = policy._answer_log_softmax(x, y)
    return _picked_sum(log_probs, y)


def sft_loss_and_grad(policy: PolicyModel, dataset) -> tuple[float, dict]:
    """Negative mean answer log probability and its exact logits gradient.

    The gradient maps (prompt, prefix) state -> d loss / d logits row, the
    per-step softmax-cross-entropy gradient (softmax - onehot) / n_pairs.
    """
    pairs = list(dataset)
    if not pairs:
        raise EmptyInput("SFT dataset is empty")
    loss = 0.0
    grads: dict[tuple, np.ndarray] = {}
    for x, y in pairs:
        x, y, log_probs = policy._answer_log_softmax(x, y)
        for t, token in enumerate(y):
            loss -= float(log_probs[t, token])
        _add_step_grads(grads, x, y, log_probs, -1.0)
    n = len(pairs)
    return loss / n, {k: v / n for k, v in grads.items()}


@dataclass(frozen=True)
class PreferenceExample:
    """A prompt with one preferred and one rejected answer."""

    prompt: tuple
    preferred: tuple
    rejected: tuple

    def __post_init__(self):
        for name in ("prompt", "preferred", "rejected"):
            object.__setattr__(self, name, _tokens(getattr(self, name), f"{name} token"))
        if self.preferred == self.rejected:
            raise InvalidRanking("preferred and rejected answers must differ")


class RewardModel:
    """Linear scalar scorer of (prompt, answer) token-count features.

    features = [prompt token counts | answer token counts | 1]; the score is
    weights . features, so gradients are exact.
    """

    def __init__(self, vocab_size: int, weights=None):
        if vocab_size < 2:
            raise InvalidInput("vocab_size must be >= 2")
        self.vocab_size = vocab_size
        n = 2 * vocab_size + 1
        if weights is None:
            self.weights = np.zeros(n)
        else:
            self.weights = np.asarray(weights, dtype=np.float64).copy()
            if self.weights.shape != (n,):
                raise InvalidInput(f"weights must have shape ({n},)")

    def features(self, x, y) -> np.ndarray:
        x = _as_tokens(x, self.vocab_size, "prompt")
        y = _as_tokens(y, self.vocab_size, "answer")
        phi = np.zeros(2 * self.vocab_size + 1)
        for t in x:
            phi[t] += 1.0
        for t in y:
            phi[self.vocab_size + t] += 1.0
        phi[-1] = 1.0
        return phi

    def score(self, x, y) -> float:
        return float(self.weights @ self.features(x, y))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


def rm_loss_and_grad(rm: RewardModel, dataset) -> tuple[float, np.ndarray]:
    """-mean log sigmoid(score_w - score_l) and its exact weight gradient."""
    examples = list(dataset)
    if not examples:
        raise EmptyInput("preference dataset is empty")
    loss = 0.0
    grad = np.zeros_like(rm.weights)
    for ex in examples:
        delta_phi = rm.features(ex.prompt, ex.preferred) - rm.features(ex.prompt, ex.rejected)
        gap = float(rm.weights @ delta_phi)
        # -log sigmoid(gap), computed stably
        loss += float(np.logaddexp(0.0, -gap))
        # d/dw = -(1 - sigmoid(gap)) * delta_phi = -sigmoid(-gap) * delta_phi
        grad -= _sigmoid(-gap) * delta_phi
    n = len(examples)
    return loss / n, grad / n


def pairwise_expand(prompt, answers, ranking=None) -> list[PreferenceExample]:
    """All K(K-1)/2 (better, worse) pairs from K ranked answers.

    ``ranking``: optional index order, best first; by default the answers
    are taken as already ordered best to worst.
    """
    answers = [_tokens(a, "answer token") for a in answers]
    if len(answers) < 2:
        raise InvalidInput("need at least K=2 answers to form pairs")
    if ranking is None:
        ranking = range(len(answers))
    ranking = _tokens(ranking, "ranking index", InvalidRanking)
    if sorted(ranking) != list(range(len(answers))):
        raise InvalidRanking(f"ranking must be a total order of 0..{len(answers) - 1}")
    ordered = [answers[i] for i in ranking]
    if len(set(ordered)) != len(ordered):
        raise InvalidRanking("duplicate answers in ranking")
    prompt = _tokens(prompt, "prompt token")
    return [
        PreferenceExample(prompt=prompt, preferred=ordered[i], rejected=ordered[j])
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
    ]


def combined_reward(rm: RewardModel, policy: PolicyModel, reference: PolicyModel,
                    x, y, beta: float) -> float:
    """r(x, y) = r_rm(x, y) - beta * (log pi(y|x) - log ref(y|x))."""
    if beta < 0:
        raise InvalidInput("beta must be >= 0")
    if not reference.frozen:
        raise InvalidInput("reference model must be frozen")
    penalty = 0.0
    if beta != 0.0:
        penalty = beta * (answer_log_prob(policy, x, y) - answer_log_prob(reference, x, y))
    return rm.score(x, y) - penalty


def _exact_kl(policy: PolicyModel, reference: PolicyModel, x: tuple) -> float:
    """KL(pi || ref) of the answers to prompt ``x`` by the chain rule.

    Walks the prefix tree one level at a time. Each level stacks its rows into
    one log softmax per model, adds sum_prefix pi(prefix) * sum_v
    pi(v|prefix) * (log pi(v|prefix) - log ref(v|prefix)), and carries
    pi(prefix + v) = pi(prefix) * pi(v|prefix) down to the next level.
    """
    vocab = range(policy.vocab_size)
    prefixes = [()]
    weights = np.ones(1)  # pi(prefix | x), in the order of ``prefixes``
    kl = 0.0
    for depth in range(policy.context_length):
        log_pi = _log_softmax(np.array([policy._row((x, p)) for p in prefixes]))
        log_ref = _log_softmax(np.array([reference._row((x, p)) for p in prefixes]))
        step = np.exp(log_pi)
        kl += float(weights @ np.sum(step * (log_pi - log_ref), axis=1))
        if depth + 1 < policy.context_length:
            weights = (weights[:, None] * step).ravel()
            prefixes = [p + (v,) for p in prefixes for v in vocab]
    return kl


def mean_kl(policy: PolicyModel, reference: PolicyModel, prompts,
            rng: np.random.Generator | None = None) -> float:
    """KL(pi || ref) of the answer distribution, averaged over prompts.

    Exact by the chain rule, KL = sum over prefixes shorter than T of
    pi(prefix) * KL(pi(.|prefix) || ref(.|prefix)), while the number of prefix
    states sum_{t<T} V**t fits the budget; it costs one softmax row per prefix
    state and model. Past the budget, a sample estimate of E_pi[log pi - log
    ref] over ``_KL_SAMPLES`` answers per prompt drawn with ``rng`` (seed 0 when
    None). The policy's rows are read without storing the ones the walk or the
    samples create, so its table stays as training left it.
    """
    if (reference.vocab_size, reference.context_length) != (
            policy.vocab_size, policy.context_length):
        raise InvalidInput("policy and reference must share vocab_size and context_length")
    policy = policy._frozen_view()
    prompts = [_as_tokens(x, policy.vocab_size, "prompt") for x in prompts]
    n_states = sum(policy.vocab_size ** t for t in range(policy.context_length))
    total = 0.0
    for x in prompts:
        if n_states <= _EXACT_KL_BUDGET:
            kl = _exact_kl(policy, reference, x)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            draws = [policy.sample_answer(x, rng) for _ in range(_KL_SAMPLES)]
            kl = float(np.mean([
                answer_log_prob(policy, x, y) - answer_log_prob(reference, x, y)
                for y in draws
            ]))
        total += kl
    return total / len(prompts)


@dataclass(frozen=True)
class RLHFConfig:
    """Hyperparameters for the policy-optimization stage."""

    beta: float = 0.1
    learning_rate: float = 0.1
    ppo_clip: float = 0.2
    iterations: int = 100
    seed: int = 0
    samples_per_prompt: int = 4
    epochs: int = 1

    def __post_init__(self):
        if self.beta < 0:
            raise InvalidInput("beta must be >= 0")
        if not (0.0 < self.ppo_clip < 1.0):
            raise InvalidInput("ppo_clip must be in (0, 1)")
        if self.learning_rate < 0:
            raise InvalidInput("learning_rate must be >= 0")
        if self.iterations < 0 or self.samples_per_prompt < 1 or self.epochs < 1:
            raise InvalidInput("iterations >= 0, samples_per_prompt >= 1, epochs >= 1")
        if self.seed < 0:
            raise InvalidInput("seed must be >= 0")  # numpy seeds are non-negative


def rlhf_step(policy: PolicyModel, reference: PolicyModel, rm: RewardModel,
              prompts, config: RLHFConfig, rng: np.random.Generator,
              iteration: int = 0) -> dict:
    """One PPO-style iteration: sample, score, clipped-surrogate update.

    Answers are sampled from the current policy; each sample's advantage is
    its combined reward. The surrogate min(ratio * A, clip(ratio) * A) is
    ascended once per epoch; with a single epoch the ratio is identically 1,
    so clipping only engages for epochs > 1.
    """
    prompts = [_as_tokens(x, policy.vocab_size, "prompt") for x in prompts]
    if not prompts:
        raise EmptyInput("no prompts")
    if not reference.frozen:
        raise InvalidInput("reference model must be frozen")

    batch = []
    for x in prompts:
        for _ in range(config.samples_per_prompt):
            y = policy.sample_answer(x, rng)
            batch.append((x, y, combined_reward(rm, policy, reference, x, y, config.beta)))

    clip_lo, clip_hi = 1.0 - config.ppo_clip, 1.0 + config.ppo_clip
    clipped = 0
    old_logp: dict[int, float] = {}  # log pi_old(y|x) per sample
    for _ in range(config.epochs):
        grads: dict[tuple, np.ndarray] = {}
        for i, (x, y, advantage) in enumerate(batch):
            # the policy first changes at the end of epoch 0, so epoch 0 reads
            # the policy that sampled: there log pi_old is set and the ratio is 1
            _, _, log_probs = policy._answer_log_softmax(x, y)
            logp = _picked_sum(log_probs, y)
            ratio = float(np.exp(logp - old_logp.setdefault(i, logp)))
            if not (clip_lo <= ratio <= clip_hi):
                clipped += 1
                unclipped = ratio * advantage
                capped = min(max(ratio, clip_lo), clip_hi) * advantage
                if capped <= unclipped:
                    continue  # clipped branch is the min: zero gradient
            # d surrogate / d logits = A * ratio * d log pi / d logits
            _add_step_grads(grads, x, y, log_probs, advantage * ratio / len(batch))
        if not all(np.isfinite(grad).all() for grad in grads.values()):
            raise NumericalError("non-finite policy gradient", iteration=iteration)
        policy.apply_gradient(grads, config.learning_rate)

    # the diagnostic draws (past the exact budget) from its own generator, so
    # it cannot change the training samples
    kl_rng = np.random.default_rng([config.seed, iteration])
    return {
        "iteration": iteration,
        "mean_reward": float(np.mean([reward for *_, reward in batch])),
        "mean_kl": mean_kl(policy, reference, prompts, rng=kl_rng),
        "clip_fraction": clipped / (config.epochs * len(batch)),
    }


def run_rlhf(policy: PolicyModel, reference: PolicyModel, rm: RewardModel,
             prompts, config: RLHFConfig) -> list[dict]:
    """config.iterations PPO iterations; one diagnostics dict per iteration."""
    rng = np.random.default_rng(config.seed)
    return [
        rlhf_step(policy, reference, rm, prompts, config, rng, iteration=i)
        for i in range(config.iterations)
    ]


def train_sft(policy: PolicyModel, dataset, learning_rate: float = 0.5,
              iterations: int = 100) -> list[dict]:
    """Full-batch gradient descent on the SFT loss; per-iteration diagnostics."""
    if iterations < 0:
        raise InvalidInput("iterations must be >= 0")
    history = []
    for i in range(iterations):
        loss, grads = sft_loss_and_grad(policy, dataset)
        if not np.isfinite(loss):
            raise NumericalError("non-finite SFT loss", iteration=i)
        # descend the loss: logits -= lr * dL/dlogits
        policy.apply_gradient({k: -g for k, g in grads.items()}, learning_rate)
        history.append({"iteration": i, "loss": loss})
    return history


def train_reward(rm: RewardModel, dataset, learning_rate: float = 0.5,
                 iterations: int = 100) -> list[dict]:
    """Full-batch gradient descent on the pairwise reward loss."""
    if iterations < 0:
        raise InvalidInput("iterations must be >= 0")
    history = []
    for i in range(iterations):
        loss, grad = rm_loss_and_grad(rm, dataset)
        if not np.isfinite(loss) or not np.isfinite(grad).all():
            raise NumericalError("non-finite reward-model loss/gradient", iteration=i)
        weights = rm.weights - learning_rate * grad
        if not np.isfinite(weights).all():  # a step past the float range
            raise NumericalError("non-finite reward-model weights", iteration=i)
        rm.weights = weights
        history.append({"iteration": i, "loss": loss})
    return history


# ---------------------------------------------------------------------------
# Line-delimited JSON datasets
# ---------------------------------------------------------------------------


def _load_jsonl(path, required: tuple) -> list[dict]:
    rows = []
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            if not ln.strip():
                continue
            try:
                obj = json.loads(ln)
            except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
                raise ParseError(f"{path}: bad JSON: {exc}", line=lineno)
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            for key in required:
                if not isinstance(obj.get(key), list):
                    raise ParseError(f"need list field {key!r}", line=lineno)
                for t in obj[key]:
                    if type(t) is not int:  # isinstance would let true and false through
                        raise ParseError(f"{key} token {json.dumps(t)} is not an integer", line=lineno)
            rows.append(obj)
    if not rows:
        raise EmptyInput(f"no records in {path}")
    return rows


def load_sft_dataset(path) -> list[tuple]:
    """{"prompt": [ints], "answer": [ints]} per line."""
    return [
        (tuple(obj["prompt"]), tuple(obj["answer"]))
        for obj in _load_jsonl(path, ("prompt", "answer"))
    ]


def load_preference_dataset(path) -> list[PreferenceExample]:
    """{"prompt": [...], "chosen": [...], "rejected": [...]} per line."""
    return [
        PreferenceExample(prompt=obj["prompt"], preferred=obj["chosen"], rejected=obj["rejected"])
        for obj in _load_jsonl(path, ("prompt", "chosen", "rejected"))
    ]


def load_prompt_dataset(path) -> list[tuple]:
    """{"prompt": [...]} per line."""
    return [tuple(obj["prompt"]) for obj in _load_jsonl(path, ("prompt",))]


# ---------------------------------------------------------------------------
# Model persistence (JSON, deterministic key order)
# ---------------------------------------------------------------------------


def _encode_state(key) -> str:
    prompt, prefix = key
    return ",".join(map(str, prompt)) + ";" + ",".join(map(str, prefix))


def _decode_state(text: str) -> tuple:
    prompt_part, _, prefix_part = text.partition(";")
    prompt = tuple(int(t) for t in prompt_part.split(",") if t != "")
    prefix = tuple(int(t) for t in prefix_part.split(",") if t != "")
    return prompt, prefix


def save_policy(policy: PolicyModel, path) -> None:
    payload = {
        "vocab_size": policy.vocab_size,
        "context_length": policy.context_length,
        "init_scale": policy.init_scale,
        "seed": policy.seed,
        "role": policy.role,
        "rows": {
            _encode_state(k): [repr(float(v)) for v in row]
            for k, row in policy._rows.items()
        },
    }
    write_json(path, payload)


def _load_model_json(path, keys: tuple) -> dict:
    """A model file's JSON object; ParseError naming the file unless every key is there."""
    try:
        with decoding(path), open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON: {exc.msg}", line=exc.lineno)
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError(f"{path}: bad JSON: {exc}")
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in payload:
            raise ParseError(f"{path}: missing key {key!r}")
    return payload


def _model_value(path, what: str, value, kind):
    """``value`` as ``kind``, float or int; ParseError naming ``path`` and ``what`` otherwise.

    Every field must be a finite number: a JSON number, or a numeric string as
    ``save_policy`` writes. An int field must be a JSON integer as well.
    """
    number = finite_number(str(value), f"{what} in {path}", None)
    if kind is float:
        return number
    if type(value) is not int:  # a float, or a numeric string
        raise ParseError(f"non-integer {what} in {path}: {value!r}")
    return value


def _model_row(path, what: str, values, length: int) -> np.ndarray:
    if not isinstance(values, list):
        raise ParseError(f"{path}: {what} must be a list")
    if len(values) != length:
        raise ParseError(f"{path}: {what} has {len(values)} entries, expected {length}")
    return np.array([_model_value(path, what, v, float) for v in values], dtype=np.float64)


def load_policy(path) -> PolicyModel:
    payload = _load_model_json(
        path, ("vocab_size", "context_length", "init_scale", "seed", "role", "rows"))
    policy = PolicyModel(
        vocab_size=_model_value(path, "vocab_size", payload["vocab_size"], int),
        context_length=_model_value(path, "context_length", payload["context_length"], int),
        init_scale=_model_value(path, "init_scale", payload["init_scale"], float),
        seed=_model_value(path, "seed", payload["seed"], int),
        role=payload["role"],
    )
    if not isinstance(payload["rows"], dict):
        raise ParseError(f"{path}: rows must be an object")
    for text, row in payload["rows"].items():
        try:
            key = _decode_state(text)
        except ValueError:
            raise ParseError(f"{path}: bad state {text!r}")
        policy._rows[key] = _model_row(path, f"row {text!r}", row, policy.vocab_size)
    return policy


def save_reward_model(rm: RewardModel, path) -> None:
    payload = {
        "vocab_size": rm.vocab_size,
        "weights": [repr(float(w)) for w in rm.weights],
    }
    write_json(path, payload)


def load_reward_model(path) -> RewardModel:
    payload = _load_model_json(path, ("vocab_size", "weights"))
    vocab_size = _model_value(path, "vocab_size", payload["vocab_size"], int)
    weights = _model_row(path, "weights", payload["weights"], 2 * vocab_size + 1)
    return RewardModel(vocab_size, weights=weights)
