"""Preference-optimization objectives at a fully verifiable toy scale.

The answer policy is tabular: one logit row per (prompt, answer prefix)
state, softmax-normalized over the vocabulary, every stored row in one array
addressed by integer state ids. That makes every quantity exactly computable
and gradient-checkable:

  * answer log probability: sum of per-step log softmax terms
  * supervised fine-tuning loss: negative mean answer log probability
  * reward-model loss: -mean log sigmoid(score_preferred - score_rejected)
  * combined reward: r(x, y) = r(x, y) - beta * (log pi(y|x) - log ref(y|x))
  * policy updates: clipped-surrogate policy gradient (PPO-style) on the
    combined reward, seeded sampling (every answer of a batch drawn at once,
    one depth at a time, with the draws of one choice per step), plain
    gradient ascent of the rows by id
  * KL(pi || ref) diagnostic: chain rule over answer prefixes,
    sum_prefix pi(prefix) * KL(pi(.|prefix) || ref(.|prefix)), exact while the
    prefix states sum_{t<T} V**t fit a budget (every prompt's states read as
    one stack per depth, the rows a model has not stored made per call), and
    sampled past it

The reward model is linear in prompt/answer token-count features, so its
gradient is exact as well. Training loops are single-threaded and
deterministic given the seed.
"""

from __future__ import annotations

import itertools
import json
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from operator import add, sub

import numpy as np

from ._io import decoding, finite_number, write_json
from .errors import EmptyInput, InvalidInput, InvalidRanking, InvalidToken, NumericalError, ParseError

# mean_kl is exact while the prefix states sum_{t<T} V**t (one softmax row per
# model each) fit this budget; past it, it samples this many answers per prompt
_EXACT_KL_BUDGET = 4096
_KL_SAMPLES = 256
_EXACT_KL_BLOCK = 1 << 15  # logits per model that the exact walk reads at once


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


class _Rows(Mapping):
    """A model's stored logit rows: one (n_states, V) array that grows by doubling, and
    ``ids``, each stored (prompt, prefix) state's row in it, in the order stored. A
    state reads as a copy of its row; ``rows[state] = row`` writes that row in place,
    or stores a new state last."""

    def __init__(self, vocab_size: int):
        self.ids: dict[tuple, int] = {}
        self.logits = np.empty((0, vocab_size))

    def add(self, keys: list, rows) -> np.ndarray:
        """Store ``rows`` as the rows of the new states ``keys``, in order; their ids."""
        (n, vocab), m = self.logits[:len(self.ids)].shape, len(self.ids) + len(keys)
        if m > len(self.logits):
            self.logits = np.concatenate([self.logits[:n], np.empty((max(m, 2 * n) - n, vocab))])
        self.logits[n:m] = np.reshape(rows, (m - n, vocab))
        self.ids.update(zip(keys, range(n, m)))
        return np.arange(n, m)

    def __getitem__(self, key) -> np.ndarray:
        return self.logits[self.ids[key]].copy()

    def __setitem__(self, key, row) -> None:
        i = self.ids[key] if key in self.ids else self.add([key], [row])  # may grow the array
        self.logits[i] = row

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class PolicyModel:
    """Tabular softmax policy over short answers.

    Logit rows are created lazily per (prompt, prefix) state: zeros when
    ``init_scale`` is 0 (uniform policy), otherwise seeded Gaussian noise
    derived from a stable per-state digest so results do not depend on touch
    order. The stored rows are one array (``_rows``) addressed by integer
    state ids: a batch resolves its states to ids once, then reads and
    updates its rows by id. A reference-role model is frozen: its rows may be
    read but never written or updated; a read makes the rows it has not
    stored once per call, as one block, and keeps none of them.
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
        self._rows = _Rows(vocab_size)

    @property
    def frozen(self) -> bool:
        return self.role == "reference"

    # -- state access -------------------------------------------------

    def _make_row(self, key) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.vocab_size)
        rng = np.random.default_rng(zlib.crc32(repr(key).encode()) ^ (self.seed & 0xFFFFFFFF))
        return self.init_scale * rng.standard_normal(self.vocab_size)

    def logits_row(self, x, prefix) -> np.ndarray:
        x = _as_tokens(x, self.vocab_size, "prompt")
        prefix = _as_tokens(prefix, self.vocab_size, "answer")
        if len(prefix) >= self.context_length:
            raise InvalidInput(f"prefix length {len(prefix)} exceeds context_length "
                               f"{self.context_length}")
        return self._row((x, prefix))

    def _row(self, key) -> np.ndarray:
        """Logit row (a copy) of an already validated (prompt, prefix) state."""
        return self._read([key])[0][0]

    def _read(self, keys: list) -> tuple[np.ndarray, np.ndarray]:
        """(the rows of the distinct states ``keys`` as one stack, their ids). A state with
        no row gets a made one (zeros at ``init_scale`` 0, else ``_make_row``'s), stored
        last, in ``keys``' order, unless the model is frozen: then its id is -1."""
        ids = np.fromiter(map(self._rows.ids.get, keys, itertools.repeat(-1)), np.intp, len(keys))
        made = np.flatnonzero(ids < 0)
        if not made.size:
            return self._rows.logits[ids], ids
        rows = np.zeros((len(keys), self.vocab_size))
        rows[ids >= 0] = self._rows.logits[ids[ids >= 0]]
        for i in made.tolist() if self.init_scale else ():  # row by row: no second stack
            rows[i] = self._make_row(keys[i])
        if not self.frozen:
            ids[made] = self._rows.add([keys[i] for i in made.tolist()], rows[made])
        return rows, ids

    def step_probabilities(self, x, prefix) -> np.ndarray:
        return np.exp(_log_softmax(self.logits_row(x, prefix)))

    def _check(self, x, y) -> tuple:
        """(prompt, answer) as token tuples of states this model has."""
        x = _as_tokens(x, self.vocab_size, "prompt")
        y = _as_tokens(y, self.vocab_size, "answer")
        if len(y) > (t := self.context_length):  # the prefix y[:T] has no state
            raise InvalidInput(f"prefix length {t} exceeds context_length {t}")
        return x, y

    def _read_answers(self, answers) -> tuple:
        """(log pi(y_t | x, y[:t]) per step of each checked (x, y), log softmax stack, ``at``,
        states, ids): the stack has one row per distinct state (x, y[:t]), first met first
        (``states`` maps each to its position), read (or made, for a frozen model) once per
        call, and ``at`` is each step's row in it, answer after answer."""
        states: dict = {}
        at = np.array([states.setdefault((x, y[:t]), len(states))
                       for x, y in answers for t in range(len(y))], dtype=np.intp)
        rows, ids = self._read(list(states))
        log_probs = _log_softmax(rows)
        picked = log_probs[at, [t for _, y in answers for t in y]].tolist()
        ends = np.cumsum([len(y) for _, y in answers])
        return ([picked[end - len(y):end] for end, (_, y) in zip(ends, answers)],
                log_probs, at, states, ids)

    # -- mutation -----------------------------------------------------

    def set_logits(self, x, prefix, logits) -> None:
        if self.frozen:
            raise InvalidInput("reference model is frozen")
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != (self.vocab_size,):
            raise InvalidInput(f"logit row must have shape ({self.vocab_size},)")
        if not np.isfinite(logits).all():
            raise InvalidInput("logit row must be finite")
        self._rows[_as_tokens(x, self.vocab_size, "prompt"),
                   _as_tokens(prefix, self.vocab_size, "answer")] = logits

    def apply_gradient(self, grads: dict, learning_rate: float, iteration=None) -> None:
        """Gradient-ascent step: logits += lr * grad, every row of ``grads`` as one stack. A
        step past the float range is a NumericalError carrying ``iteration``, and stores no row."""
        steps = np.array(list(grads.values())).reshape(len(grads), self.vocab_size)
        n, ids = len(self._rows), self._read(list(grads))[1]  # a new state's made row goes last
        try:
            self._ascend(ids, steps, learning_rate, iteration)
        except NumericalError:  # forget the new states
            self._rows.ids = dict(itertools.islice(self._rows.ids.items(), n))
            raise

    def _ascend(self, ids: np.ndarray, grads: np.ndarray, learning_rate: float,
                iteration) -> None:
        """``apply_gradient`` of the gradient rows ``grads``, one per row id of ``ids``."""
        if self.frozen:
            raise InvalidInput("reference model is frozen")
        rows = self._rows.logits[ids]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            rows += learning_rate * grads
        if not np.isfinite(rows).all():
            raise NumericalError("non-finite policy logits", iteration=iteration)
        self._rows.logits[ids] = rows

    def snapshot(self) -> "PolicyModel":
        """Frozen copy of the current parameters."""
        copy = PolicyModel(self.vocab_size, self.context_length, self.init_scale, self.seed, "reference")
        copy._rows.add(list(self._rows), self._rows.logits[:len(self._rows)])
        return copy

    def _frozen_view(self) -> "PolicyModel":
        """Frozen model sharing this one's rows, even as they grow: reading it stores no new row."""
        view = PolicyModel(self.vocab_size, self.context_length, self.init_scale, self.seed, "reference")
        view._rows = self._rows
        return view

    # -- sampling -----------------------------------------------------

    def sample_answer(self, x, rng: np.random.Generator) -> tuple:
        return self._sample([_as_tokens(x, self.vocab_size, "prompt")], rng)[0][0]

    def _sample(self, xs: list, rng: np.random.Generator) -> tuple:
        """(an answer to each prompt of ``xs``, its log probability, ``levels``).

        Draws every answer at once, one depth at a time. ``levels[t]`` is
        (log softmax stack of the depth-t states, each answer's row in it, the
        states' ids). Every draw is numpy's ``Generator.choice(V, p=probs)`` on
        its state's CDF: the same token, and the generator left in the same
        state, as one choice per step, answer after answer. So the n * T
        uniforms are taken in that order first, and a non-finite row raises for
        the state that such a loop meets first, storing the rows it would have
        stored.
        """
        n, vocab, length = len(xs), self.vocab_size, self.context_length
        uniforms = np.array([rng.random() for _ in range(n * length)]).reshape(n, length)
        prompts: dict = {}
        at = np.array([prompts.setdefault(x, len(prompts)) for x in xs], dtype=np.intp)
        states = [(x, ()) for x in prompts]
        first = np.unique(at, return_index=True)[1]  # the first answer at each state
        tokens = np.empty((n, length), dtype=np.intp)
        logps = np.zeros(n)
        levels, made, failure, view = [], [], None, self._frozen_view()
        for depth in range(length):
            rows, ids = view._read(states)  # made rows are stored below
            if not self.frozen:
                new = np.flatnonzero(ids < 0)
                made += [(first[i], depth, i, states[i], row)
                         for i, row in zip(new.tolist(), rows[new])]
            log_probs = _log_softmax(rows)
            del rows  # a level's stack is freed before its CDF is made
            cdf = np.exp(log_probs).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            bad = ~np.isfinite(cdf[:, -1])  # a NaN row: no distribution to draw from
            if bad.any():  # the answers from the first at a bad state on are not drawn
                m = int(np.flatnonzero(bad[at])[0])
                failure, at = (m, depth, states[at[m]]), at[:m]
            # the count of CDF entries <= u: a CDF never decreases, so searchsorted(u, "right")
            drawn = np.count_nonzero(cdf[at] <= uniforms[:len(at), depth, None], axis=1)
            logps[:len(at)] += log_probs[at, drawn]
            tokens[:len(at), depth] = drawn
            levels.append((log_probs, at, ids))
            if depth + 1 < length:
                codes, first, at = np.unique(at * vocab + drawn, return_index=True,
                                             return_inverse=True)
                states = [(states[s][0], states[s][1] + (v,))
                          for s, v in (divmod(i, vocab) for i in codes.tolist())]
        # by (first answer, depth), which no two states share: the order a loop meets them
        made = sorted(item for item in made if failure is None or item[:2] <= failure[:2])
        for (_, depth, i, *_), new in zip(made, self._rows.add([m[3] for m in made],
                                                               [m[4] for m in made])):
            levels[depth][2][i] = new
        if failure is not None:
            raise NumericalError(f"non-finite logit row at state {failure[2]}")
        return list(map(tuple, tokens.tolist())), logps.tolist(), levels


def _step_grads(steps: np.ndarray, tokens, scales, probs) -> tuple[np.ndarray, np.ndarray]:
    """The distinct states of ``steps``, sorted, and one stacked gradient row each.

    ``steps`` labels each step's state (a position or a row id), and
    ``tokens``, ``scales`` and ``probs`` give its y_t, its scale and
    pi(. | x, y[:t]), in batch order. A state's row is the sum of
    scale * (onehot(y_t) - pi(. | x, y[:t])) over its steps, taken in batch
    order as ``g -= scale * probs[t]; g[y_t] += scale`` takes them:
    ``np.add.at`` applies its indices in order, and g - a is g + (-a).
    """
    states, at = np.unique(steps, return_inverse=True)
    vocab = probs.shape[1]
    starts = at * vocab
    index = np.column_stack([starts[:, None] + np.arange(vocab), starts + tokens])
    grads = np.zeros(len(states) * vocab)
    np.add.at(grads, index.ravel(), np.column_stack([-(scales[:, None] * probs), scales]).ravel())
    return states, grads.reshape(len(states), vocab)


def answer_log_prob(policy: PolicyModel, x, y) -> float:
    """log pi(y|x) = sum over steps of log pi(y_t | x, y_{1:t-1})."""
    return reduce(add, policy._read_answers([policy._check(x, y)])[0][0], 0.0)


def _sft_steps(policy: PolicyModel, dataset):
    """(SFT loss, its gradient rows, the states first met first, their ids) of ``policy`` as
    it is at each ``next``: the pairs are checked and their states resolved to ids once."""
    pairs = [policy._check(x, y) for x, y in dataset]
    if not pairs:
        raise EmptyInput("SFT dataset is empty")
    _, log_probs, at, states, ids = policy._read_answers(pairs)
    tokens = np.array([t for _, y in pairs for t in y], dtype=np.intp)
    while True:
        loss = reduce(sub, log_probs[at, tokens].tolist(), 0.0)
        grads = _step_grads(at, tokens, np.full(len(at), -1.0), np.exp(log_probs)[at])[1]
        yield loss / len(pairs), grads / len(pairs), states, ids
        log_probs = _log_softmax(policy._rows.logits[ids])


def sft_loss_and_grad(policy: PolicyModel, dataset) -> tuple[float, dict]:
    """Negative mean answer log probability and its exact logits gradient.

    The gradient maps (prompt, prefix) state -> d loss / d logits row, the
    per-step softmax-cross-entropy gradient (softmax - onehot) / n_pairs.
    """
    loss, grads, states, _ = next(_sft_steps(policy, dataset))
    return loss, dict(zip(states, grads))


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
        self.weights = np.zeros(n) if weights is None else np.array(weights, dtype=np.float64)
        if self.weights.shape != (n,):
            raise InvalidInput(f"weights must have shape ({n},)")

    def features(self, x, y) -> np.ndarray:
        x = _as_tokens(x, self.vocab_size, "prompt")
        y = _as_tokens(y, self.vocab_size, "answer")
        vocab = self.vocab_size
        return np.bincount([*x, *(vocab + t for t in y), 2 * vocab], minlength=2 * vocab + 1) * 1.0

    def score(self, x, y) -> float:
        return float(self.weights @ self.features(x, y))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


def _feature_gaps(rm: RewardModel, dataset) -> list:
    examples = list(dataset)
    if not examples:
        raise EmptyInput("preference dataset is empty")
    return [rm.features(ex.prompt, ex.preferred) - rm.features(ex.prompt, ex.rejected)
            for ex in examples]


def _rm_loss_and_grad(weights: np.ndarray, gaps: list) -> tuple[float, np.ndarray]:
    loss = 0.0
    grad = np.zeros_like(weights)
    for delta_phi in gaps:
        gap = float(weights @ delta_phi)
        # -log sigmoid(gap), computed stably
        loss += float(np.logaddexp(0.0, -gap))
        # d/dw = -(1 - sigmoid(gap)) * delta_phi = -sigmoid(-gap) * delta_phi
        grad -= _sigmoid(-gap) * delta_phi
    n = len(gaps)
    return loss / n, grad / n


def rm_loss_and_grad(rm: RewardModel, dataset) -> tuple[float, np.ndarray]:
    """-mean log sigmoid(score_w - score_l) and its exact weight gradient."""
    return _rm_loss_and_grad(rm.weights, _feature_gaps(rm, dataset))


def pairwise_expand(prompt, answers, ranking=None) -> list[PreferenceExample]:
    """All K(K-1)/2 (better, worse) pairs from K ranked answers.

    ``ranking``: optional index order, best first; by default the answers
    are taken as already ordered best to worst.
    """
    answers = [_tokens(a, "answer token") for a in answers]
    if len(answers) < 2:
        raise InvalidInput("need at least K=2 answers to form pairs")
    ranking = _tokens(range(len(answers)) if ranking is None else ranking, "ranking index",
                      InvalidRanking)
    if sorted(ranking) != list(range(len(answers))):
        raise InvalidRanking(f"ranking must be a total order of 0..{len(answers) - 1}")
    ordered = [answers[i] for i in ranking]
    if len(set(ordered)) != len(ordered):
        raise InvalidRanking("duplicate answers in ranking")
    prompt = _tokens(prompt, "prompt token")
    return [PreferenceExample(prompt=prompt, preferred=ordered[i], rejected=ordered[j])
            for i in range(len(ordered)) for j in range(i + 1, len(ordered))]


def combined_reward(rm: RewardModel, policy: PolicyModel, reference: PolicyModel,
                    x, y, beta: float) -> float:
    """r(x, y) = r_rm(x, y) - beta * (log pi(y|x) - log ref(y|x))."""
    if beta < 0:
        raise InvalidInput("beta must be >= 0")
    if not reference.frozen:
        raise InvalidInput("reference model must be frozen")
    logp = answer_log_prob(policy, x, y) if beta != 0.0 else 0.0
    return _combined_rewards(rm, reference, [(x, y)], [logp], beta)[0]


def _combined_rewards(rm: RewardModel, reference: PolicyModel, answers, logps, beta) -> list:
    """combined_reward of each (x, y) in ``answers`` given its log pi(y|x)."""
    checked, scores = [], []
    for x, y in answers:
        if beta != 0.0:
            checked.append(reference._check(x, y))
        scores.append(rm.score(x, y))
    if beta == 0.0:
        return scores  # no penalty: score - 0.0 is score
    return [score - beta * (logp - reduce(add, steps, 0.0))
            for score, logp, steps in zip(scores, logps, reference._read_answers(checked)[0])]


def _exact_kl(policy: PolicyModel, reference: PolicyModel, prompts: list) -> dict:
    """KL(pi || ref) of the answers to each of ``prompts`` by the chain rule, per prompt.

    Walks every prompt's prefix tree at once, one level at a time: the level's
    states, prompt after prompt, are made and read as one stack in blocks of
    rows, so no list of them is kept, however many prompts there are. Each
    prompt adds sum_prefix pi(prefix) * KL(pi(.|prefix) || ref(.|prefix)) over
    its own slice of the level, and carries pi(prefix + v) = pi(prefix) *
    pi(v|prefix) down to the next level.
    """
    vocab, prompts = policy.vocab_size, list(dict.fromkeys(prompts))  # each prompt walked once
    block = max(1, _EXACT_KL_BLOCK // vocab)
    prefixes = [()]
    weights = np.ones(len(prompts))  # pi(prefix | x) of each state (x, prefix) of the level
    kls = [0.0] * len(prompts)
    for depth in range(policy.context_length):
        shape = (len(prompts), len(prefixes))  # one row per prompt
        states = itertools.product(prompts, prefixes)  # made block by block
        sums = np.empty(shape[0] * shape[1])
        steps = np.empty((sums.size, vocab)) if depth + 1 < policy.context_length else None
        for lo in range(0, sums.size, block):
            part, keys = slice(lo, lo + block), list(itertools.islice(states, block))
            log_pi = _log_softmax(policy._read(keys)[0])
            log_ref = _log_softmax(reference._read(keys)[0])
            step = np.exp(log_pi)
            sums[part] = np.sum(step * (log_pi - log_ref), axis=1)
            if steps is not None:
                steps[part] = weights[part, None] * step
        kls = [kl + float(w @ s)
               for kl, w, s in zip(kls, weights.reshape(shape), sums.reshape(shape))]
        if steps is not None:
            weights = steps.ravel()
            prefixes = [p + (v,) for p in prefixes for v in range(vocab)]
    return dict(zip(prompts, kls))


def mean_kl(policy: PolicyModel, reference: PolicyModel, prompts,
            rng: np.random.Generator | None = None) -> float:
    """KL(pi || ref) of the answer distribution, averaged over prompts.

    Exact by the chain rule, KL = sum over prefixes shorter than T of
    pi(prefix) * KL(pi(.|prefix) || ref(.|prefix)), while the number of prefix
    states sum_{t<T} V**t fits the budget; it costs one softmax row per prefix
    state and model, and walks every distinct prompt's states at once. Past the
    budget, a sample estimate of E_pi[log pi - log ref] over ``_KL_SAMPLES``
    answers per prompt drawn with ``rng`` (seed 0 when None), prompt after
    prompt, each prompt's answers drawn at once. The per-prompt KLs are added
    in prompt order. The policy's rows are read through a frozen view, so its
    table stays as training left it.
    """
    if (reference.vocab_size, reference.context_length) != (policy.vocab_size, policy.context_length):
        raise InvalidInput("policy and reference must share vocab_size and context_length")
    policy = policy._frozen_view()
    prompts = [_as_tokens(x, policy.vocab_size, "prompt") for x in prompts]
    if sum(policy.vocab_size ** t for t in range(policy.context_length)) <= _EXACT_KL_BUDGET:
        kls = list(map(_exact_kl(policy, reference, prompts).get, prompts))
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        kls = []
        for x in prompts:
            ys, logps = policy._sample([x] * _KL_SAMPLES, rng)[:2]
            ref_steps = reference._read_answers([(x, y) for y in ys])[0]
            kls.append(float(np.mean([logp - reduce(add, steps, 0.0)
                                      for logp, steps in zip(logps, ref_steps)])))
    return reduce(add, kls, 0.0) / len(prompts)


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


def rlhf_step(policy: PolicyModel, reference: PolicyModel, rm: RewardModel, prompts,
              config: RLHFConfig, rng: np.random.Generator, iteration: int = 0) -> dict:
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

    xs = [x for x in prompts for _ in range(config.samples_per_prompt)]
    ys, old_logps, levels = policy._sample(xs, rng)
    answers = list(zip(xs, ys))
    rewards = _combined_rewards(rm, reference, answers, old_logps, config.beta)

    clip_lo, clip_hi, clipped = 1.0 - config.ppo_clip, 1.0 + config.ppo_clip, 0
    logps = old_logps  # the policy first changes at the end of epoch 0: there the ratio is 1
    # pi(. | x, y[:t]) of every step, answer after answer: (answers, T, V); and the
    # row id of each step's state and its token: (answers, T)
    step_probs = np.stack([np.exp(log_probs)[at] for log_probs, at, _ in levels], axis=1)
    steps = np.stack([ids[at] for _, at, ids in levels], axis=1)
    tokens = np.array(ys, dtype=np.intp).reshape(steps.shape)
    for epoch in range(config.epochs):
        if epoch:  # re-read the updated policy's rows of the answers' states, as one stack
            states, at = np.unique(steps.ravel(), return_inverse=True)
            log_probs = _log_softmax(policy._rows.logits[states])
            picked = log_probs[at, tokens.ravel()].reshape(tokens.shape)
            logps = reduce(add, picked.T, 0.0).tolist()  # each answer's steps in order
            step_probs = np.exp(log_probs)[at].reshape(step_probs.shape)
        scales, kept = [], []
        for i, (logp, old_logp, advantage) in enumerate(zip(logps, old_logps, rewards)):
            ratio = float(np.exp(logp - old_logp))
            if not (clip_lo <= ratio <= clip_hi):
                clipped += 1
                if min(max(ratio, clip_lo), clip_hi) * advantage <= ratio * advantage:
                    continue  # clipped branch is the min: zero gradient
            # d surrogate / d logits = A * ratio * d log pi / d logits
            scales.append(advantage * ratio / len(answers))
            kept.append(i)
        states, grads = _step_grads(steps[kept].ravel(), tokens[kept].ravel(),
                                    np.repeat(scales, tokens.shape[1]),
                                    step_probs[kept].reshape(-1, policy.vocab_size))
        if not np.isfinite(grads).all():
            raise NumericalError("non-finite policy gradient", iteration=iteration)
        policy._ascend(states, grads, config.learning_rate, iteration)

    # the diagnostic draws (past the exact budget) from its own generator, so
    # it cannot change the training samples
    kl_rng = np.random.default_rng([config.seed, iteration])
    return {"iteration": iteration, "mean_reward": float(np.mean(rewards)),
            "mean_kl": mean_kl(policy, reference, prompts, rng=kl_rng),
            "clip_fraction": clipped / (config.epochs * len(answers))}


def run_rlhf(policy: PolicyModel, reference: PolicyModel, rm: RewardModel,
             prompts, config: RLHFConfig) -> list[dict]:
    """config.iterations PPO iterations; one diagnostics dict per iteration."""
    rng = np.random.default_rng(config.seed)
    return [rlhf_step(policy, reference, rm, prompts, config, rng, iteration=i)
            for i in range(config.iterations)]


def train_sft(policy: PolicyModel, dataset, learning_rate: float = 0.5,
              iterations: int = 100) -> list[dict]:
    """Full-batch gradient descent on the SFT loss; per-iteration diagnostics."""
    if iterations < 0:
        raise InvalidInput("iterations must be >= 0")
    history = []  # zip asks for no step when iterations is 0, so no pair is read
    for i, (loss, grads, _, ids) in zip(range(iterations), _sft_steps(policy, dataset)):
        if not np.isfinite(loss):
            raise NumericalError("non-finite SFT loss", iteration=i)
        # descend the loss: logits += (-lr) * dL/dlogits, the bits of logits -= lr * dL/dlogits
        policy._ascend(ids, grads, -learning_rate, i)
        history.append({"iteration": i, "loss": loss})
    return history


def train_reward(rm: RewardModel, dataset, learning_rate: float = 0.5,
                 iterations: int = 100) -> list[dict]:
    """Full-batch gradient descent on the pairwise reward loss."""
    if iterations < 0:
        raise InvalidInput("iterations must be >= 0")
    gaps = _feature_gaps(rm, dataset) if iterations else []  # 0 iterations read no example
    history = []
    for i in range(iterations):
        loss, grad = _rm_loss_and_grad(rm.weights, gaps)
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
    return [(tuple(obj["prompt"]), tuple(obj["answer"]))
            for obj in _load_jsonl(path, ("prompt", "answer"))]


def load_preference_dataset(path) -> list[PreferenceExample]:
    """{"prompt": [...], "chosen": [...], "rejected": [...]} per line."""
    return [PreferenceExample(prompt=obj["prompt"], preferred=obj["chosen"], rejected=obj["rejected"])
            for obj in _load_jsonl(path, ("prompt", "chosen", "rejected"))]


def load_prompt_dataset(path) -> list[tuple]:
    """{"prompt": [...]} per line."""
    return [tuple(obj["prompt"]) for obj in _load_jsonl(path, ("prompt",))]


# ---------------------------------------------------------------------------
# Model persistence (JSON, deterministic key order)
# ---------------------------------------------------------------------------


def _encode_state(key) -> str:
    return ";".join(",".join(map(str, part)) for part in key)  # prompt;prefix


def _decode_state(text: str, vocab_size: int, context_length: int) -> tuple:
    """The state ``text`` spells; ValueError unless ``_encode_state`` spells it so and it is a
    state of a model of this vocabulary and context length."""
    key = tuple(tuple(int(t) for t in part.split(",") if t) for part in text.partition(";")[::2])
    if (_encode_state(key) != text or len(key[1]) >= context_length
            or not all(0 <= t < vocab_size for part in key for t in part)):
        raise ValueError(text)
    return key


def save_policy(policy: PolicyModel, path) -> None:
    rows = policy._rows.logits[:len(policy._rows)].tolist()
    write_json(path, {
        "vocab_size": policy.vocab_size, "context_length": policy.context_length,
        "init_scale": policy.init_scale, "seed": policy.seed, "role": policy.role,
        "rows": dict(zip(map(_encode_state, policy._rows), ([repr(v) for v in r] for r in rows))),
    })


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
    payload = _load_model_json(path, ("vocab_size", "context_length", "init_scale", "seed", "role", "rows"))
    fields = {key: _model_value(path, key, payload[key], kind) for key, kind in
              (("vocab_size", int), ("context_length", int), ("init_scale", float), ("seed", int))}
    policy = PolicyModel(**fields, role=payload["role"])
    if not isinstance(payload["rows"], dict):
        raise ParseError(f"{path}: rows must be an object")
    for text, row in payload["rows"].items():
        try:
            key = _decode_state(text, policy.vocab_size, policy.context_length)
        except ValueError:
            raise ParseError(f"{path}: bad state {text!r}")
        policy._rows[key] = _model_row(path, f"row {text!r}", row, policy.vocab_size)
    return policy


def save_reward_model(rm: RewardModel, path) -> None:
    write_json(path, {"vocab_size": rm.vocab_size, "weights": [repr(float(w)) for w in rm.weights]})


def load_reward_model(path) -> RewardModel:
    payload = _load_model_json(path, ("vocab_size", "weights"))
    vocab_size = _model_value(path, "vocab_size", payload["vocab_size"], int)
    weights = _model_row(path, "weights", payload["weights"], 2 * vocab_size + 1)
    return RewardModel(vocab_size, weights=weights)
