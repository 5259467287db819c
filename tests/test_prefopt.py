import collections
import functools
import itertools
import json
import math
import operator
import re
import tracemalloc
import types

import numpy as np
import pytest

from breedkit import prefopt
from breedkit.errors import (
    EmptyInput,
    InvalidInput,
    InvalidRanking,
    InvalidToken,
    NumericalError,
    ParseError,
)


def reward_for_token(vocab_size, token, weight=1.0):
    """Linear reward model paying ``weight`` per occurrence of one answer token."""
    rm = prefopt.RewardModel(vocab_size)
    w = np.zeros(2 * vocab_size + 1)
    w[vocab_size + token] = weight
    rm.weights = w
    return rm


def sft_loss_of(policy, dataset):
    return prefopt.sft_loss_and_grad(policy, dataset)[0]


class TestAnswerLogProb:
    def test_uniform_policy(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=3)
        lp = prefopt.answer_log_prob(policy, (0, 1), (2, 3, 1))
        assert lp == pytest.approx(3 * math.log(1 / 4), abs=1e-12)

    def test_deterministic_policy_log_prob_zero(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        policy.set_logits((0,), (), [1000.0, 0.0, 0.0, 0.0])
        policy.set_logits((0,), (0,), [0.0, 1000.0, 0.0, 0.0])
        assert prefopt.answer_log_prob(policy, (0,), (0, 1)) == 0.0

    def test_matches_per_step_product_oracle(self):
        rng = np.random.default_rng(3)
        policy = prefopt.PolicyModel(vocab_size=5, context_length=4, init_scale=1.5, seed=9)
        for _ in range(50):
            x = tuple(rng.integers(0, 5, size=2))
            y = tuple(rng.integers(0, 5, size=4))
            product = 1.0
            for t in range(len(y)):
                product *= policy.step_probabilities(x, y[:t])[y[t]]
            lp = prefopt.answer_log_prob(policy, x, y)
            assert math.exp(lp) == pytest.approx(product, rel=1e-12)
            assert 0.0 < math.exp(lp) <= 1.0

    def test_decomposes_into_step_log_probs(self):
        policy = prefopt.PolicyModel(vocab_size=3, context_length=3, init_scale=0.7, seed=4)
        x, y = (1,), (0, 2, 1)
        steps = [float(np.log(policy.step_probabilities(x, y[:t]))[y[t]]) for t in range(3)]
        assert prefopt.answer_log_prob(policy, x, y) == pytest.approx(sum(steps), abs=1e-12)

    def test_invalid_token(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        with pytest.raises(InvalidToken):
            prefopt.answer_log_prob(policy, (0,), (4,))
        with pytest.raises(InvalidToken):
            prefopt.answer_log_prob(policy, (9,), (0,))

    def test_softmax_rows_sum_to_one(self):
        policy = prefopt.PolicyModel(vocab_size=7, context_length=2, init_scale=3.0, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = tuple(rng.integers(0, 7, size=2))
            prefix = tuple(rng.integers(0, 7, size=int(rng.integers(0, 2))))
            assert policy.step_probabilities(x, prefix).sum() == pytest.approx(1.0, abs=1e-12)


class TestSftLoss:
    def test_uniform_policy_closed_form(self):
        vocab, length = 6, 3
        policy = prefopt.PolicyModel(vocab_size=vocab, context_length=length)
        dataset = [((0,), (1, 2, 3)), ((1,), (4, 5, 0))]
        loss = sft_loss_of(policy, dataset)
        assert loss == pytest.approx(length * math.log(vocab), abs=1e-10)

    def test_deterministic_policy_zero_loss_and_grad(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        policy.set_logits((0,), (), [1000.0, 0.0, 0.0, 0.0])
        policy.set_logits((0,), (0,), [0.0, 1000.0, 0.0, 0.0])
        loss, grads = prefopt.sft_loss_and_grad(policy, [((0,), (0, 1))])
        assert loss == 0.0
        for g in grads.values():
            assert np.linalg.norm(g) < 1e-10

    def test_gradient_matches_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            policy = prefopt.PolicyModel(vocab_size=4, context_length=3,
                                         init_scale=0.8, seed=seed)
            dataset = [
                (tuple(rng.integers(0, 4, 2)), tuple(rng.integers(0, 4, 3)))
                for _ in range(3)
            ]
            _, grads = prefopt.sft_loss_and_grad(policy, dataset)
            for key, grad in grads.items():
                row = policy._rows[key]
                for v in range(4):
                    original = row[v]
                    row_mut = row.copy()
                    row_mut[v] = original + h
                    policy._rows[key] = row_mut
                    up = sft_loss_of(policy, dataset)
                    row_mut2 = row.copy()
                    row_mut2[v] = original - h
                    policy._rows[key] = row_mut2
                    down = sft_loss_of(policy, dataset)
                    policy._rows[key] = row
                    fd = (up - down) / (2 * h)
                    assert grad[v] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_empty_dataset(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        with pytest.raises(EmptyInput):
            prefopt.sft_loss_and_grad(policy, [])

    def test_training_reduces_loss(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        dataset = [((0,), (1, 2)), ((1,), (2, 3))]
        history = prefopt.train_sft(policy, dataset, learning_rate=0.5, iterations=60)
        assert history[-1]["loss"] < history[0]["loss"] * 0.2


class TestRewardModelLoss:
    def test_zero_gap_is_ln2(self):
        rm = prefopt.RewardModel(vocab_size=4)  # zero weights: all scores equal
        ex = prefopt.PreferenceExample((0,), (1,), (2,))
        loss, _ = prefopt.rm_loss_and_grad(rm, [ex])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_huge_gap_loss_vanishes(self):
        rm = reward_for_token(4, token=1, weight=50.0)
        ex = prefopt.PreferenceExample((0,), (1,), (2,))  # gap = 50
        loss, _ = prefopt.rm_loss_and_grad(rm, [ex])
        assert loss < 1e-20

    def test_gradient_matches_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            rm = prefopt.RewardModel(vocab_size=4)
            rm.weights = rng.normal(size=9)
            examples = []
            while len(examples) < 4:
                a = tuple(rng.integers(0, 4, 3))
                b = tuple(rng.integers(0, 4, 3))
                if a != b:
                    examples.append(prefopt.PreferenceExample(tuple(rng.integers(0, 4, 2)), a, b))
            _, grad = prefopt.rm_loss_and_grad(rm, examples)
            for j in range(9):
                saved = rm.weights[j]
                rm.weights[j] = saved + h
                up, _ = prefopt.rm_loss_and_grad(rm, examples)
                rm.weights[j] = saved - h
                down, _ = prefopt.rm_loss_and_grad(rm, examples)
                rm.weights[j] = saved
                fd = (up - down) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(6)
        rm = prefopt.RewardModel(vocab_size=5)
        rm.weights = rng.normal(size=11)
        for _ in range(100):
            a = tuple(rng.integers(0, 5, 3))
            b = tuple(rng.integers(0, 5, 3))
            if a == b or rm.score((0,), a) == rm.score((0,), b):
                continue
            forward, _ = prefopt.rm_loss_and_grad(rm, [prefopt.PreferenceExample((0,), a, b)])
            backward, _ = prefopt.rm_loss_and_grad(rm, [prefopt.PreferenceExample((0,), b, a)])
            assert backward == pytest.approx(-math.log1p(-math.exp(-forward)), rel=1e-9)

    def test_recovers_synthetic_order(self):
        rng = np.random.default_rng(0)
        vocab = 6
        true_w = rng.normal(size=2 * vocab + 1)
        probe = prefopt.RewardModel(vocab)

        def true_score(x, y):
            return float(true_w @ probe.features(x, y))

        def make_pairs(n):
            pairs = []
            while len(pairs) < n:
                x = tuple(rng.integers(0, vocab, 3))
                a = tuple(rng.integers(0, vocab, 4))
                b = tuple(rng.integers(0, vocab, 4))
                if a == b:
                    continue
                sa = true_score(x, a) + 0.1 * rng.normal()
                sb = true_score(x, b) + 0.1 * rng.normal()
                if sa == sb:
                    continue
                pairs.append(prefopt.PreferenceExample(x, a, b) if sa > sb
                             else prefopt.PreferenceExample(x, b, a))
            return pairs

        train, held = make_pairs(300), make_pairs(200)
        rm = prefopt.RewardModel(vocab)
        prefopt.train_reward(rm, train, learning_rate=0.5, iterations=300)
        correct = sum(
            1 for ex in held
            if rm.score(ex.prompt, ex.preferred) > rm.score(ex.prompt, ex.rejected)
        )
        assert correct / len(held) >= 0.95

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_step_past_the_float_range_raises_with_iteration(self):
        # the first step's gradient is -1.5 on token 1 and 1.5 on token 5, so a
        # learning rate of 1.5e308 moves both weights past the float range
        rm = prefopt.RewardModel(6)
        pairs = [prefopt.PreferenceExample((0,), (1, 1, 1), (5, 5, 5))]
        with pytest.raises(NumericalError, match="iteration 0: non-finite reward-model weights"):
            prefopt.train_reward(rm, pairs, learning_rate=1.5e308, iterations=1)
        assert not rm.weights.any()


class TestCombinedReward:
    def test_policy_equal_reference_reduces_to_rm(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2, init_scale=1.0, seed=2)
        rng = np.random.default_rng(1)
        for x in [(0,), (1, 2)]:
            for _ in range(3):
                y = tuple(rng.integers(0, 4, 2))
                policy.logits_row(x, y[:1])  # materialize
        reference = policy.snapshot()
        rm = reward_for_token(4, token=2, weight=1.5)
        for x, y in [((0,), (2, 2)), ((1, 2), (0, 3))]:
            r = prefopt.combined_reward(rm, policy, reference, x, y, beta=0.7)
            assert r == pytest.approx(rm.score(x, y), abs=1e-12)

    def test_beta_zero_ignores_policies(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1, init_scale=2.0, seed=3)
        reference = prefopt.PolicyModel(vocab_size=4, context_length=1, role="reference")
        rm = reward_for_token(4, token=0)
        r = prefopt.combined_reward(rm, policy, reference, (0,), (0,), beta=0.0)
        assert r == rm.score((0,), (0,))

    def test_hand_arithmetic(self):
        # construct real single-token policies with exact log probs -2 and -3
        policy = prefopt.PolicyModel(vocab_size=2, context_length=1)
        reference = prefopt.PolicyModel(vocab_size=2, context_length=1)
        # p(token0) = e^-2 -> logits [0, log(e^2 - 1)]
        policy.set_logits((0,), (), [0.0, math.log(math.exp(2.0) - 1.0)])
        reference.set_logits((0,), (), [0.0, math.log(math.exp(3.0) - 1.0)])
        frozen = reference.snapshot()
        assert prefopt.answer_log_prob(policy, (0,), (0,)) == pytest.approx(-2.0, abs=1e-12)
        assert prefopt.answer_log_prob(frozen, (0,), (0,)) == pytest.approx(-3.0, abs=1e-12)
        rm = prefopt.RewardModel(2)
        rm.weights = np.array([0.0, 0.0, 0.0, 0.0, 1.0])  # bias-only score of 1
        r = prefopt.combined_reward(rm, policy, frozen, (0,), (0,), beta=0.1)
        assert r == pytest.approx(0.9, abs=1e-9)

    def test_reward_shift_equivariance(self):
        policy = prefopt.PolicyModel(vocab_size=3, context_length=1, init_scale=1.0, seed=5)
        reference = policy.snapshot()
        rm = reward_for_token(3, token=1)
        shifted = prefopt.RewardModel(3)
        shifted.weights = rm.weights.copy()
        shifted.weights[-1] += 2.5  # constant shift through the bias feature
        answers = [(v,) for v in range(3)]
        base = [prefopt.combined_reward(rm, policy, reference, (0,), y, 0.3) for y in answers]
        moved = [prefopt.combined_reward(shifted, policy, reference, (0,), y, 0.3) for y in answers]
        for b, m in zip(base, moved):
            assert m == pytest.approx(b + 2.5, abs=1e-12)
        assert int(np.argmax(base)) == int(np.argmax(moved))

    def test_unfrozen_reference_rejected(self):
        policy = prefopt.PolicyModel(vocab_size=3, context_length=1)
        not_frozen = prefopt.PolicyModel(vocab_size=3, context_length=1)
        rm = prefopt.RewardModel(3)
        with pytest.raises(InvalidInput):
            prefopt.combined_reward(rm, policy, not_frozen, (0,), (0,), beta=0.1)


class TestPairwiseExpand:
    def test_two_answers_one_pair(self):
        pairs = prefopt.pairwise_expand((0,), [(1,), (2,)])
        assert len(pairs) == 1
        assert pairs[0].preferred == (1,) and pairs[0].rejected == (2,)

    def test_four_answers_six_pairs(self):
        pairs = prefopt.pairwise_expand((0,), [(1,), (2,), (3,), (0,)])
        assert len(pairs) == 6

    def test_explicit_ranking_enumeration(self):
        a, b, c = (1,), (2,), (3,)
        pairs = prefopt.pairwise_expand((0,), [c, a, b], ranking=[1, 2, 0])  # a > b > c
        got = {(p.preferred, p.rejected) for p in pairs}
        assert got == {(a, b), (a, c), (b, c)}

    def test_duplicate_answers_rejected(self):
        with pytest.raises(InvalidRanking):
            prefopt.pairwise_expand((0,), [(1,), (1,)])

    def test_single_answer_rejected(self):
        with pytest.raises(InvalidInput):
            prefopt.pairwise_expand((0,), [(1,)])


class TestRlhf:
    def test_zero_learning_rate_is_noop(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1, init_scale=1.0, seed=7)
        reference = policy.snapshot()
        rm = reward_for_token(4, token=0)
        prompts = [(0,), (1,)]
        config = prefopt.RLHFConfig(beta=0.1, learning_rate=0.0, ppo_clip=0.2,
                                    iterations=5, seed=11)
        before = {x: policy.step_probabilities(x, ()).copy() for x in prompts}
        prefopt.run_rlhf(policy, reference, rm, prompts, config)
        for x in prompts:
            assert np.array_equal(policy.step_probabilities(x, ()), before[x])

    def test_bandit_convergence(self):
        for seed in range(3):
            policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
            reference = policy.snapshot()
            rm = reward_for_token(4, token=0)
            prompts = [(0,), (1,)]
            config = prefopt.RLHFConfig(beta=0.0, learning_rate=1.0, ppo_clip=0.2,
                                        iterations=500, seed=seed, samples_per_prompt=8)
            rng = np.random.default_rng(config.seed)
            steps = None
            for i in range(config.iterations):
                prefopt.rlhf_step(policy, reference, rm, prompts, config, rng, iteration=i)
                if min(policy.step_probabilities(x, ())[0] for x in prompts) > 0.9:
                    steps = i + 1
                    break
            assert steps is not None and steps <= 500

    def test_monotone_early_improvement(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        reference = policy.snapshot()
        rm = reward_for_token(4, token=0)
        prompts = [(0,), (1,)]
        config = prefopt.RLHFConfig(beta=0.0, learning_rate=0.5, ppo_clip=0.2,
                                    iterations=1, seed=0, samples_per_prompt=16)
        rng = np.random.default_rng(0)
        prev = [policy.step_probabilities(x, ())[0] for x in prompts]
        for i in range(20):
            prefopt.rlhf_step(policy, reference, rm, prompts, config, rng, iteration=i)
            cur = [policy.step_probabilities(x, ())[0] for x in prompts]
            assert all(c > p for c, p in zip(cur, prev))
            prev = cur

    def test_large_beta_pins_policy_to_reference(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1, init_scale=2.0, seed=0)
        prompts = [(0,), (1,), (2,)]
        for x in prompts:
            policy.logits_row(x, ())
        reference = prefopt.PolicyModel(vocab_size=4, context_length=1, role="reference")
        rm = reward_for_token(4, token=0)
        initial = prefopt.mean_kl(policy, reference, prompts)
        assert initial > 0.1
        config = prefopt.RLHFConfig(beta=1e3, learning_rate=1e-4, ppo_clip=0.2,
                                    iterations=60, seed=0, samples_per_prompt=8)
        history = prefopt.run_rlhf(policy, reference, rm, prompts, config)
        assert all(h["mean_kl"] <= initial * 1.05 for h in history)
        assert history[-1]["mean_kl"] < initial

    def test_clipping_engages_with_extra_epochs(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        reference = policy.snapshot()
        rm = reward_for_token(4, token=0, weight=5.0)
        config = prefopt.RLHFConfig(beta=0.0, learning_rate=3.0, ppo_clip=0.1,
                                    iterations=4, seed=1, samples_per_prompt=8, epochs=4)
        history = prefopt.run_rlhf(policy, reference, rm, [(0,)], config)
        assert any(h["clip_fraction"] > 0 for h in history)
        single = prefopt.RLHFConfig(beta=0.0, learning_rate=3.0, ppo_clip=0.1,
                                    iterations=2, seed=1, samples_per_prompt=8, epochs=1)
        policy2 = prefopt.PolicyModel(vocab_size=4, context_length=1)
        history2 = prefopt.run_rlhf(policy2, policy2.snapshot(), rm, [(0,)], single)
        assert all(h["clip_fraction"] == 0.0 for h in history2)  # ratio stays 1

    def test_non_finite_gradient_raises_with_iteration(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        reference = policy.snapshot()
        rm = prefopt.RewardModel(4)
        rm.weights = np.full(9, np.nan)
        config = prefopt.RLHFConfig(beta=0.0, learning_rate=0.5, ppo_clip=0.2,
                                    iterations=1, seed=0)
        with pytest.raises(NumericalError, match="iteration 0"):
            prefopt.run_rlhf(policy, reference, rm, [(0,)], config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_set_logits_rejects_a_non_finite_row(self, bad):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        with pytest.raises(InvalidInput, match="logit row must be finite"):
            policy.set_logits((0,), (), [0.0, bad, 0.0, 0.0])
        assert not policy._rows

    def test_an_update_past_the_float_range_raises_and_keeps_the_row(self):
        # one sample per prompt with advantage 300: the step lr * A * (1 - 1/4) is
        # past the float range, so iteration 0 raises at its update and stores nothing
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        rm = prefopt.RewardModel(4, weights=np.full(9, 100.0))
        config = prefopt.RLHFConfig(beta=0.0, learning_rate=1e308, iterations=2,
                                    samples_per_prompt=1)
        with pytest.raises(NumericalError, match="^iteration 0: non-finite policy logits$"):
            prefopt.run_rlhf(policy, policy.snapshot(), rm, [(0,)], config)
        assert list(policy._rows) == [((0,), ())]
        assert not policy.logits_row((0,), ()).any()

    def test_an_sft_update_past_the_float_range_raises_and_keeps_the_row(self):
        # token 1 has probability 0, so the step adds the whole learning rate to its logit
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        policy.set_logits((0,), (), [1.5e308, 1e308, 0.0, 0.0])
        with pytest.raises(NumericalError, match="^iteration 0: non-finite policy logits$"):
            prefopt.train_sft(policy, [((0,), (1,))], learning_rate=1e308, iterations=3)
        assert policy.logits_row((0,), ()).tolist() == [1.5e308, 1e308, 0.0, 0.0]

    def test_a_row_made_non_finite_by_its_init_still_raises_at_its_draw(self):
        # a standard normal past 1.8 times 1e308 is infinite
        policy = prefopt.PolicyModel(vocab_size=64, context_length=1, init_scale=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(policy._make_row(((0,), ()))).all()
            with pytest.raises(NumericalError, match=r"non-finite logit row at state \(\(0,\), "):
                policy.sample_answer((0,), np.random.default_rng(0))

    def test_frozen_reference_cannot_be_updated(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        reference = policy.snapshot()
        with pytest.raises(InvalidInput):
            reference.apply_gradient({}, 0.1)
        with pytest.raises(InvalidInput):
            reference.set_logits((0,), (), [0.0, 0.0, 0.0, 0.0])

    def test_snapshot_is_independent(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=1)
        policy.set_logits((0,), (), [1.0, 0.0, 0.0, 0.0])
        reference = policy.snapshot()
        policy.set_logits((0,), (), [5.0, 0.0, 0.0, 0.0])
        assert reference.logits_row((0,), ())[0] == 1.0

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInput, match="seed"):
            prefopt.RLHFConfig(seed=-1)


def enumerated_kl(policy, reference, prompts):
    """KL(pi || ref) averaged over prompts, summed over every answer."""
    total = 0.0
    for x in prompts:
        for y in itertools.product(range(policy.vocab_size), repeat=policy.context_length):
            logp = prefopt.answer_log_prob(policy, x, y)
            total += math.exp(logp) * (logp - prefopt.answer_log_prob(reference, x, y))
    return total / len(prompts)


class TestMeanKl:
    # (70, 2) has 4900 answers but 71 prefix states: exact under the 4096-state budget
    @pytest.mark.parametrize("vocab_size,context_length", [(2, 1), (4, 2), (8, 3), (3, 5), (70, 2)])
    def test_chain_rule_matches_enumeration(self, vocab_size, context_length):
        policy = prefopt.PolicyModel(vocab_size, context_length, init_scale=1.5, seed=21)
        reference = prefopt.PolicyModel(vocab_size, context_length, init_scale=0.8, seed=4,
                                        role="reference")
        rng = np.random.default_rng(vocab_size * 10 + context_length)
        prompts = [tuple(int(t) for t in rng.integers(0, vocab_size, 2)) for _ in range(3)]
        expected = enumerated_kl(policy, reference, prompts)
        got = prefopt.mean_kl(policy, reference, prompts, rng=np.random.default_rng(0))
        assert got > 0.0
        # the two sums run in different orders (gaps seen here: <= 5e-15 relative)
        assert abs(got - expected) <= 1e-12 + 1e-9 * abs(expected)
        # the exact path draws nothing, so the generator cannot matter
        assert prefopt.mean_kl(policy, reference, prompts, rng=np.random.default_rng(1)) == got

    def test_policy_against_own_snapshot_is_exactly_zero(self):
        policy = prefopt.PolicyModel(vocab_size=5, context_length=3, init_scale=2.0, seed=8)
        policy.set_logits((1, 2), (4,), [3.0, -1.0, 0.5, 0.0, 2.0])
        prompts = [(1, 2), (0,), (4, 4, 3)]
        assert prefopt.mean_kl(policy, policy.snapshot(), prompts) == 0.0

    def test_mismatched_reference_rejected(self):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        reference = prefopt.PolicyModel(vocab_size=5, context_length=2, role="reference")
        with pytest.raises(InvalidInput, match="vocab_size"):
            prefopt.mean_kl(policy, reference, [(0,)])

    @staticmethod
    def check_diagnostic_leaves_training_alone(monkeypatch, vocab_size, context_length):
        prompts = [(0, 1), (7,)]
        config = prefopt.RLHFConfig(beta=0.1, learning_rate=0.5, ppo_clip=0.2,
                                    iterations=3, seed=9, samples_per_prompt=4)

        def train():
            policy = prefopt.PolicyModel(vocab_size, context_length, init_scale=0.5, seed=5)
            rm = prefopt.RewardModel(vocab_size)
            rm.weights = np.random.default_rng(2).standard_normal(2 * vocab_size + 1)
            return policy, prefopt.run_rlhf(policy, policy.snapshot(), rm, prompts, config)

        policy, history = train()
        with monkeypatch.context() as m:
            m.setattr(prefopt, "mean_kl", lambda *args, **kwargs: 0.0)
            bare_policy, bare_history = train()
        assert all(np.isfinite(h["mean_kl"]) and h["mean_kl"] != 0.0 for h in history)
        assert [h["mean_reward"] for h in history] == [h["mean_reward"] for h in bare_history]
        # the diagnostic reads rows without storing them: same table, same rows
        assert policy._rows.keys() == bare_policy._rows.keys()
        for key, row in policy._rows.items():
            assert np.array_equal(row, bare_policy._rows[key])

    def test_sampled_diagnostic_leaves_training_alone(self, monkeypatch):
        # 1 + 20 + 400 + 8000 = 8421 prefix states: past the budget, so mean_kl samples
        self.check_diagnostic_leaves_training_alone(monkeypatch, 20, 4)

    def test_exact_diagnostic_leaves_training_alone(self, monkeypatch):
        # 1 + 8 + 64 = 73 prefix states: inside the budget, so mean_kl walks them all
        self.check_diagnostic_leaves_training_alone(monkeypatch, 8, 3)


class TestDrawMatchesChoice:
    """A draw from a stored CDF is ``Generator.choice(V, p=probs)``: same token, same stream."""

    @staticmethod
    def _rows(vocab, rng):
        logits = rng.standard_normal(vocab)
        # temperatures from uniform to peaked; at 500 most probabilities underflow to 0
        rows = [scale * logits for scale in (0.0, 0.1, 1.0, 5.0, 50.0, 500.0)]
        holes = logits.copy()
        holes[rng.permutation(vocab)[:vocab // 2]] = -np.inf  # exact zeros
        return rows + [holes]

    @pytest.mark.parametrize("vocab", [2, 3, 5, 8, 17, 64, 255, 1000, 4095])
    def test_a_draw_is_rng_choice(self, vocab):
        for seed in range(8):
            for row in self._rows(vocab, np.random.default_rng([vocab, seed])):
                policy = prefopt.PolicyModel(vocab, 1)
                policy._rows[(0,), ()] = row  # set_logits takes finite rows only
                probs = policy.step_probabilities((0,), ())
                mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(5):
                    assert policy.sample_answer((0,), mine) == (int(theirs.choice(vocab, p=probs)),)
                    assert mine.bit_generator.state == theirs.bit_generator.state
            assert (probs == 0.0).any()  # the last row had its exact zeros

    def test_a_zero_probability_token_is_never_drawn(self):
        # random() can return 0.0: the draw must step past the CDF's zero-width steps
        policy = prefopt.PolicyModel(3, 1)
        policy._rows[(0,), ()] = np.array([-np.inf, 0.0, -np.inf])
        assert policy.sample_answer((0,), types.SimpleNamespace(random=lambda: 0.0)) == (1,)

    @pytest.mark.parametrize("vocab,length", [(2, 6), (7, 3), (300, 2)])
    def test_sample_answer_stream_is_a_choice_loop(self, vocab, length):
        policy = prefopt.PolicyModel(vocab, length, init_scale=2.0, seed=vocab)
        mine, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for x in [(0,), (1, 0)] * 20:
            y = ()
            for _ in range(length):
                y += (int(theirs.choice(vocab, p=policy.step_probabilities(x, y))),)
            assert policy.sample_answer(x, mine) == y
        assert mine.bit_generator.state == theirs.bit_generator.state


def _first_bad_state_loop(policy, xs, rng):
    """Draw an answer to each of ``xs`` with one ``rng.choice`` per step, one answer at a time;
    the first state met whose row is not finite, or None."""
    for x in xs:
        y = ()
        for _ in range(policy.context_length):
            probs = policy.step_probabilities(x, y)
            if not np.isfinite(probs).all():
                return x, y
            y += (int(rng.choice(policy.vocab_size, p=probs)),)
    return None


class TestFirstNonFiniteRow:
    """A non-finite row raises for the state that a draw one answer at a time meets first."""

    PROMPTS = [(0,), (1, 2)]

    @classmethod
    def _policy(cls, seed):
        # NaN rows at random states of depths 1 and 2, and at the second prompt's first state
        policy = prefopt.PolicyModel(3, 3, init_scale=1.0, seed=seed)
        rng = np.random.default_rng(seed)
        for x in cls.PROMPTS:
            for depth in range(3):
                for prefix in itertools.product(range(3), repeat=depth):
                    if rng.random() < (0.0 if depth == 0 and x == (0,) else 0.3):
                        policy._rows[x, prefix] = np.full(3, np.nan)
        return policy

    @staticmethod
    def _error(state):
        return "NumericalError", f"non-finite logit row at state {state}"

    def test_rlhf_step_and_sample_answer_name_the_loops_state(self):
        config = prefopt.RLHFConfig(iterations=1, samples_per_prompt=4, seed=0)
        xs = [x for x in self.PROMPTS for _ in range(config.samples_per_prompt)]
        depths, passed_over = collections.Counter(), 0
        for seed in range(60):
            oracle = self._policy(seed)
            state = _first_bad_state_loop(oracle, xs, np.random.default_rng(seed))
            policy = self._policy(seed)
            got = _outcome(prefopt.rlhf_step, policy, policy.snapshot(), prefopt.RewardModel(3),
                           self.PROMPTS, config, np.random.default_rng(seed), 0)
            if state is None:
                assert isinstance(got, dict)
            else:
                assert got == self._error(state)
                assert _hex_rows(policy) == _hex_rows(oracle)  # the loop's rows, in its order
                depths[len(state[1])] += 1
                # a first-prompt state named although every second-prompt answer fails at
                # depth 0: a later answer's shallower failure was passed over
                passed_over += state[0] == (0,) and ((1, 2), ()) in self._policy(seed)._rows
            for x in self.PROMPTS:
                state = _first_bad_state_loop(self._policy(seed), [x], np.random.default_rng(seed))
                got = _outcome(self._policy(seed).sample_answer, x, np.random.default_rng(seed))
                assert got == self._error(state) if state else isinstance(got, tuple)
        assert min(depths[d] for d in range(3)) > 0 and passed_over > 0


class TestDatasetsAndPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        sft = tmp_path / "sft.jsonl"
        sft.write_text('{"prompt": [0, 1], "answer": [2, 3]}\n{"prompt": [1], "answer": [0, 0]}\n')
        pairs = prefopt.load_sft_dataset(sft)
        assert pairs == [((0, 1), (2, 3)), ((1,), (0, 0))]

        prefs = tmp_path / "rm.jsonl"
        prefs.write_text('{"prompt": [0], "chosen": [1], "rejected": [2]}\n')
        examples = prefopt.load_preference_dataset(prefs)
        assert examples[0].preferred == (1,)

        prompts = tmp_path / "ppo.jsonl"
        prompts.write_text('{"prompt": [0]}\n{"prompt": [3, 2]}\n')
        assert prefopt.load_prompt_dataset(prompts) == [(0,), (3, 2)]

    def test_jsonl_validation(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"prompt": [0]}\n')
        with pytest.raises(Exception):
            prefopt.load_sft_dataset(bad)

    @pytest.mark.parametrize("record", ["5", "null", "[1]", '"s"'])
    @pytest.mark.parametrize("load, good", [
        (prefopt.load_sft_dataset, '{"prompt": [0], "answer": [1]}'),
        (prefopt.load_preference_dataset, '{"prompt": [0], "chosen": [1], "rejected": [2]}'),
        (prefopt.load_prompt_dataset, '{"prompt": [0]}'),
    ], ids=["sft", "preference", "prompt"])
    def test_jsonl_record_that_is_not_an_object_is_a_parse_error(self, load, good, record, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(f"{good}\n{record}\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == "line 2: expected a JSON object"

    @pytest.mark.parametrize("load,record,message", [
        (prefopt.load_sft_dataset, '{"prompt": [0], "answer": [1, "a"]}', 'answer token "a"'),
        (prefopt.load_sft_dataset, '{"prompt": [null], "answer": [1]}', "prompt token null"),
        (prefopt.load_sft_dataset, '{"prompt": [0], "answer": [1.7]}', "answer token 1.7"),
        (prefopt.load_sft_dataset, '{"prompt": [0], "answer": [1.0]}', "answer token 1.0"),
        (prefopt.load_preference_dataset, '{"prompt": [0], "chosen": [true], "rejected": [2]}',
         "chosen token true"),
        (prefopt.load_preference_dataset, '{"prompt": [0], "chosen": [1], "rejected": [[2]]}',
         "rejected token [2]"),
        (prefopt.load_prompt_dataset, '{"prompt": [0, {"t": 1}]}', 'prompt token {"t": 1}'),
    ])
    def test_token_that_is_not_a_json_integer_is_a_parse_error(self, load, record, message,
                                                                tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": [0], "answer": [1], "chosen": [1], "rejected": [2]}\n'
                        f"{record}\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"line 2: {message} is not an integer"

    def test_integer_past_the_digit_limit_is_a_parse_error_at_its_line(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        path.write_text('{"prompt": [0], "answer": [1]}\n'
                        f'{{"prompt": [0], "answer": [{"9" * 5000}]}}\n')
        with pytest.raises(ParseError) as info:
            prefopt.load_sft_dataset(path)
        assert str(info.value).startswith(f"line 2: {path}: bad JSON: ")

    def test_integer_token_outside_the_vocabulary_is_the_models_check(self, tmp_path):
        path = tmp_path / "sft.jsonl"
        path.write_text('{"prompt": [0], "answer": [10000000000000000000000]}\n')
        pairs = prefopt.load_sft_dataset(path)
        assert pairs == [((0,), (10**22,))]
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2)
        with pytest.raises(InvalidToken, match="answer token 10000000000000000000000 outside"):
            prefopt.sft_loss_and_grad(policy, pairs)

    def test_policy_round_trip(self, tmp_path):
        policy = prefopt.PolicyModel(vocab_size=4, context_length=2, init_scale=1.0, seed=3)
        policy.logits_row((0, 1), ())
        policy.logits_row((0, 1), (2,))
        path = tmp_path / "policy.json"
        prefopt.save_policy(policy, path)
        back = prefopt.load_policy(path)
        assert back.vocab_size == 4 and back.context_length == 2
        assert np.array_equal(back.logits_row((0, 1), (2,)), policy.logits_row((0, 1), (2,)))

    def test_reward_round_trip(self, tmp_path):
        rm = prefopt.RewardModel(5)
        rm.weights = np.linspace(-1, 1, 11)
        path = tmp_path / "rm.json"
        prefopt.save_reward_model(rm, path)
        back = prefopt.load_reward_model(path)
        assert np.array_equal(back.weights, rm.weights)


def _first_row(payload):
    return next(iter(payload["rows"].values()))


def _saved_models(tmp_path):
    """A saved policy and reward model as (loader, path, JSON payload) pairs."""
    policy = prefopt.PolicyModel(vocab_size=4, context_length=2, init_scale=1.0, seed=3)
    policy.logits_row((0, 1), ())
    prefopt.save_policy(policy, tmp_path / "policy.json")
    prefopt.save_reward_model(prefopt.RewardModel(4), tmp_path / "reward.json")
    return {name: (load, tmp_path / f"{name}.json",
                   json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8")))
            for name, load in (("policy", prefopt.load_policy),
                               ("reward", prefopt.load_reward_model))}


class TestModelFileNumbers:
    """A float field takes a finite JSON number or numeric string; an int field a JSON integer."""

    @pytest.mark.parametrize("model, edit, message", [
        ("policy", lambda p: _first_row(p).__setitem__(0, "nan"), "non-finite row '0,1;'"),
        ("policy", lambda p: _first_row(p).__setitem__(1, True), "non-numeric row '0,1;'"),
        ("policy", lambda p: p.update(init_scale="inf"), "non-finite init_scale"),
        ("policy", lambda p: p.update(init_scale=False), "non-numeric init_scale"),
        ("reward", lambda p: p["weights"].__setitem__(2, float("-inf")), "non-finite weights"),
        ("reward", lambda p: p["weights"].__setitem__(2, [0.5]), "non-numeric weights"),
        ("policy", lambda p: p.update(vocab_size=4.0), "non-integer vocab_size"),
        ("policy", lambda p: p.update(context_length="2"), "non-integer context_length"),
        ("policy", lambda p: p.update(seed=True), "non-numeric seed"),
        ("reward", lambda p: p.update(vocab_size=4.5), "non-integer vocab_size"),
    ])
    def test_a_bad_number_is_a_parse_error_naming_file_and_field(self, model, edit, message,
                                                                 tmp_path):
        load, path, payload = _saved_models(tmp_path)[model]
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            load(path)
        assert str(path) in str(info.value)

    def test_integer_past_the_digit_limit_is_a_parse_error_naming_the_file(self, tmp_path):
        # json reads it with int(), which refuses more than 4300 digits by default
        load, path, payload = _saved_models(tmp_path)["policy"]
        payload["seed"] = "@"
        path.write_text(json.dumps(payload).replace('"@"', "9" * 5000), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: bad JSON: ")

    def test_float_fields_take_json_numbers_and_numeric_strings(self, tmp_path):
        load, path, payload = _saved_models(tmp_path)["policy"]
        _first_row(payload)[:] = [0.5, -1, "2.5", "1e-3"]
        payload["init_scale"] = "1.0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        back = load(path)
        assert back.init_scale == 1.0
        assert back.logits_row((0, 1), ()).tolist() == [0.5, -1.0, 2.5, 0.001]


class TestModelFileStates:
    """A state key is spelled as ``save_policy`` spells it, and names a state the model can hold:
    tokens in [0, vocab_size), a prefix shorter than context_length (4 and 2 here)."""

    @pytest.mark.parametrize("state", [
        "1_0;", "\uff11;", "01;", " 1;", "1,,2;", "1",  # not save_policy's spelling
        "99;", "-1;", "1;4",  # a token outside the vocabulary
        "1;0,1", "1;2,3,4,5,6",  # a prefix as long as the context, or longer
    ])
    def test_a_bad_state_is_a_parse_error_naming_file_and_state(self, state, tmp_path):
        load, path, payload = _saved_models(tmp_path)["policy"]
        payload["rows"][state] = [0.0] * 4
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: bad state {state!r}"

    def test_two_spellings_of_one_state_do_not_collapse(self, tmp_path):
        load, path, payload = _saved_models(tmp_path)["policy"]
        payload["rows"].update({"1;": [1.0] * 4, "01;": [2.0] * 4})
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape("bad state '01;'")):
            load(path)

    def test_every_state_the_model_can_hold_loads(self, tmp_path):
        load, path, payload = _saved_models(tmp_path)["policy"]
        states = {";": (), "3;1": (1,), "0,1,2,3;3": (3,)}
        payload["rows"].update({state: [0.5] * 4 for state in states})
        path.write_text(json.dumps(payload), encoding="utf-8")
        back = load(path)
        for state, prefix in states.items():
            prompt = tuple(int(t) for t in state.partition(";")[0].split(",") if t)
            assert back.logits_row(prompt, prefix).tolist() == [0.5] * 4


# ---------------------------------------------------------------------------
# Per-step reference: every answer read one prefix state at a time
# ---------------------------------------------------------------------------


def _step_log_softmax(policy, x, prefix):
    """One state's log softmax row, with the per-step checks of ``logits_row``."""
    return prefopt._log_softmax(policy.logits_row(x, prefix))


def _answer_log_prob_loop(policy, x, y):
    y = prefopt._as_tokens(y, policy.vocab_size, "answer")
    total = 0.0
    for t, token in enumerate(y):
        total += float(_step_log_softmax(policy, x, y[:t])[token])
    return total


def _sft_loss_and_grad_loop(policy, dataset):
    pairs = list(dataset)
    loss = 0.0
    grads = {}
    for x, y in pairs:
        x = prefopt._as_tokens(x, policy.vocab_size, "prompt")
        y = prefopt._as_tokens(y, policy.vocab_size, "answer")
        for t, token in enumerate(y):
            log_probs = _step_log_softmax(policy, x, y[:t])
            loss -= float(log_probs[token])
            g = grads.setdefault((x, y[:t]), np.zeros(policy.vocab_size))
            g += np.exp(log_probs)
            g[token] -= 1.0
    n = len(pairs)
    return loss / n, {k: v / n for k, v in grads.items()}


def _rlhf_step_loop(policy, reference, rm, prompts, config, rng, iteration):
    """``prefopt.rlhf_step`` as a per-step loop: the reference it must match bit for bit."""
    prompts = [tuple(int(t) for t in x) for x in prompts]
    batch = []
    for x in prompts:
        for _ in range(config.samples_per_prompt):
            y = ()
            for _ in range(policy.context_length):
                probs = policy.step_probabilities(x, y)
                y = y + (int(rng.choice(policy.vocab_size, p=probs)),)
            old_logp = _answer_log_prob_loop(policy, x, y)
            penalty = 0.0
            if config.beta != 0.0:
                penalty = config.beta * (old_logp - _answer_log_prob_loop(reference, x, y))
            batch.append((x, y, old_logp, rm.score(x, y) - penalty))
    clip_lo, clip_hi = 1.0 - config.ppo_clip, 1.0 + config.ppo_clip
    clipped = total = 0
    for epoch in range(config.epochs):
        grads = {}
        for x, y, old_logp, advantage in batch:
            new_logp = old_logp if epoch == 0 else _answer_log_prob_loop(policy, x, y)
            ratio = float(np.exp(new_logp - old_logp))
            total += 1
            if not (clip_lo <= ratio <= clip_hi):
                clipped += 1
                if min(max(ratio, clip_lo), clip_hi) * advantage <= ratio * advantage:
                    continue
            scale = advantage * ratio / len(batch)
            for t, token in enumerate(y):
                g = grads.setdefault((x, y[:t]), np.zeros(policy.vocab_size))
                g -= scale * policy.step_probabilities(x, y[:t])
                g[token] += scale
        policy.apply_gradient(grads, config.learning_rate)
    kl_rng = np.random.default_rng([config.seed, iteration])
    return {
        "iteration": iteration,
        "mean_reward": float(np.mean([b[3] for b in batch])),
        "mean_kl": prefopt.mean_kl(policy, reference, prompts, rng=kl_rng),
        "clip_fraction": clipped / total,
    }


def _hex_rows(policy):
    return [(key, [float(v).hex() for v in row]) for key, row in policy._rows.items()]


def _hex_grads(loss_and_grads):
    loss, grads = loss_and_grads
    return loss.hex(), [(key, [float(v).hex() for v in g]) for key, g in grads.items()]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message must match too
        return type(exc).__name__, str(exc)


class TestStepRowsMatchPerStepLoop:
    """One stacked read per answer gives the per-step loop's floats, bit for bit."""

    @staticmethod
    def _models(vocab, length, seed):
        policy = prefopt.PolicyModel(vocab, length, init_scale=1.5, seed=seed)
        reference = prefopt.PolicyModel(vocab, length, init_scale=1.5, seed=seed + 1).snapshot()
        return policy, reference

    @staticmethod
    def _answer(rng, vocab, length):
        return tuple(int(t) for t in rng.integers(0, vocab, size=length))

    def test_answer_log_prob_and_sft(self):
        rng = np.random.default_rng(41)
        for vocab in range(2, 9):
            for length in range(1, 13):
                policy, _ = self._models(vocab, length, seed=vocab * 100 + length)
                dataset = [
                    (self._answer(rng, vocab, int(rng.integers(0, 4))),
                     self._answer(rng, vocab, int(rng.integers(0, length + 1))))
                    for _ in range(6)
                ]
                for x, y in dataset:
                    assert (prefopt.answer_log_prob(policy, x, y).hex()
                            == _answer_log_prob_loop(policy, x, y).hex())
                assert (_hex_grads(prefopt.sft_loss_and_grad(policy, dataset))
                        == _hex_grads(_sft_loss_and_grad_loop(policy, dataset)))

    # (2, 12) is the exact-KL budget's largest T at V=2; (4, 8) takes the sampled KL
    @pytest.mark.parametrize("vocab,length", [(2, 1), (2, 12), (3, 5), (4, 8), (5, 3), (8, 2)])
    def test_run_rlhf(self, vocab, length):
        config = prefopt.RLHFConfig(beta=0.3, learning_rate=2.0, iterations=2, seed=vocab,
                                    samples_per_prompt=3, epochs=3)
        rng = np.random.default_rng(length)
        prompts = [self._answer(rng, vocab, 2) for _ in range(2)]
        rm = prefopt.RewardModel(vocab, weights=rng.normal(size=2 * vocab + 1))
        policy, reference = self._models(vocab, length, seed=7)
        got = prefopt.run_rlhf(policy, reference, rm, prompts, config)
        oracle, _ = self._models(vocab, length, seed=7)
        step_rng = np.random.default_rng(config.seed)
        want = [_rlhf_step_loop(oracle, reference, rm, prompts, config, step_rng, i)
                for i in range(config.iterations)]
        hexed = [{k: float(v).hex() for k, v in d.items()} for d in got]
        assert hexed == [{k: float(v).hex() for k, v in d.items()} for d in want]
        assert _hex_rows(policy) == _hex_rows(oracle)
        assert max(d["clip_fraction"] for d in got) > 0.0  # the clipped branch is compared too

    def test_many_terms_per_state(self):
        # V=2, T=1: each prompt has one state, and its gradient row sums 64
        # terms an epoch; the stacked sum must take them in the loop's order
        vocab = 2
        config = prefopt.RLHFConfig(beta=0.3, learning_rate=2.0, iterations=3, seed=5,
                                    samples_per_prompt=64, epochs=3)
        rng = np.random.default_rng(17)
        prompts = [(0,), (1, 0)]
        rm = prefopt.RewardModel(vocab, weights=rng.normal(size=2 * vocab + 1))
        policy, reference = self._models(vocab, 1, seed=3)
        got = prefopt.run_rlhf(policy, reference, rm, prompts, config)
        oracle, _ = self._models(vocab, 1, seed=3)
        step_rng = np.random.default_rng(config.seed)
        want = [_rlhf_step_loop(oracle, reference, rm, prompts, config, step_rng, i)
                for i in range(config.iterations)]
        hexed = [{k: float(v).hex() for k, v in d.items()} for d in got]
        assert hexed == [{k: float(v).hex() for k, v in d.items()} for d in want]
        assert _hex_rows(policy) == _hex_rows(oracle)
        assert max(d["clip_fraction"] for d in got) > 0.0
        dataset = [((0,), (int(t),)) for t in rng.integers(0, vocab, size=50)]
        assert (_hex_grads(prefopt.sft_loss_and_grad(policy, dataset))
                == _hex_grads(_sft_loss_and_grad_loop(policy, dataset)))

    @pytest.mark.parametrize("x,y,error", [
        ((0, 4), (1, 2), ("InvalidToken", "prompt token 4 outside vocabulary of size 4")),
        ((0, 1), (1, 4), ("InvalidToken", "answer token 4 outside vocabulary of size 4")),
        ((0, 1), (1, 2, 3, 0, 1), ("InvalidInput", "prefix length 3 exceeds context_length 3")),
    ], ids=["prompt", "answer", "too-long"])
    def test_errors_match(self, x, y, error):
        policy, _ = self._models(4, 3, seed=2)
        assert _outcome(_answer_log_prob_loop, policy, x, y) == error
        assert _outcome(prefopt.answer_log_prob, policy, x, y) == error
        assert _outcome(prefopt.sft_loss_and_grad, policy, [(x, y)]) == error

    def test_empty_answer_checks_the_prompt(self):
        # the per-step loop never reads a state for an empty answer, so it
        # never checked the prompt; one read per answer does
        policy, _ = self._models(4, 3, seed=2)
        assert _answer_log_prob_loop(policy, (0, 4), ()) == 0.0
        with pytest.raises(InvalidToken, match="prompt token 4 outside vocabulary of size 4"):
            prefopt.answer_log_prob(policy, (0, 4), ())
        with pytest.raises(InvalidToken, match="prompt token 4"):
            prefopt.sft_loss_and_grad(policy, [((0, 4), ())])

    # beta 0 reads no reference; one epoch takes every row from the sampler; one
    # sample per prompt makes a batch of one answer per prompt
    @pytest.mark.parametrize("beta,epochs,samples", [
        (0.0, 3, 3), (0.3, 1, 3), (0.3, 3, 1), (0.0, 1, 1),
    ], ids=["beta0", "one-epoch", "one-sample", "beta0-one-epoch-one-sample"])
    @pytest.mark.parametrize("vocab,length", [(2, 12), (3, 5), (4, 8), (16, 2)])
    def test_run_rlhf_variants(self, vocab, length, beta, epochs, samples):
        config = prefopt.RLHFConfig(beta=beta, learning_rate=2.0, iterations=2, seed=vocab,
                                    samples_per_prompt=samples, epochs=epochs)
        rng = np.random.default_rng(length)
        prompts = [self._answer(rng, vocab, 2) for _ in range(3)]
        rm = prefopt.RewardModel(vocab, weights=rng.normal(size=2 * vocab + 1))
        policy, reference = self._models(vocab, length, seed=7)
        got = prefopt.run_rlhf(policy, reference, rm, prompts, config)
        oracle, _ = self._models(vocab, length, seed=7)
        step_rng = np.random.default_rng(config.seed)
        want = [_rlhf_step_loop(oracle, reference, rm, prompts, config, step_rng, i)
                for i in range(config.iterations)]
        hexed = [{k: float(v).hex() for k, v in d.items()} for d in got]
        assert hexed == [{k: float(v).hex() for k, v in d.items()} for d in want]
        assert _hex_rows(policy) == _hex_rows(oracle)

    # the reference (vocab, context) differs from the policy's (4, 2), and the
    # reward model reads only tokens 0 and 1: each sample can fail either read
    @pytest.mark.parametrize("reference_shape", [(3, 2), (4, 1)], ids=["vocab", "context"])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_mismatched_models_raise_at_the_first_bad_sample(self, reference_shape, beta):
        outcomes = set()
        for seed in range(12):
            config = prefopt.RLHFConfig(beta=beta, iterations=1, seed=seed,
                                        samples_per_prompt=3, epochs=2)

            def run(step):
                policy = prefopt.PolicyModel(4, 2, init_scale=1.0, seed=seed)
                reference = prefopt.PolicyModel(*reference_shape, init_scale=1.0).snapshot()
                return _outcome(step, policy, reference, prefopt.RewardModel(2), [(0, 1), (1,)],
                                config, np.random.default_rng(seed), 0)

            want = run(_rlhf_step_loop)
            assert run(prefopt.rlhf_step) == want
            outcomes.add(want)
        # both reads raise first in some run, so the order of the checks is compared
        assert len(outcomes) >= (2 if beta and reference_shape == (3, 2) else 1)

    @pytest.mark.parametrize("second", [
        ((0, 4), (1,)), ((0, 1), (1, 4)), ((0, 1), (1, 2, 3, 0)), ((0, 1), (1.0,)),
    ], ids=["prompt", "answer", "too-long", "not-an-integer"])
    def test_sft_raises_the_first_bad_pairs_error(self, second):
        dataset = [((0, 1), (1, 2)), second, ((4,), (1,))]
        want = _outcome(_sft_loss_and_grad_loop, self._models(4, 3, seed=2)[0], dataset)
        assert want[0] in ("InvalidToken", "InvalidInput")
        assert _outcome(prefopt.sft_loss_and_grad, self._models(4, 3, seed=2)[0], dataset) == want

    # numpy sums a row of 8 or more values pairwise: one stack of such rows
    # must still reduce each row as that row alone
    @pytest.mark.parametrize("vocab", [9, 16, 33, 300])
    def test_stacked_rows_at_wider_vocabularies(self, vocab):
        rng = np.random.default_rng(vocab)
        policy, reference = self._models(vocab, 4, seed=vocab)
        dataset = [(self._answer(rng, vocab, 2), self._answer(rng, vocab, int(rng.integers(0, 5))))
                   for _ in range(9)]
        assert (_hex_grads(prefopt.sft_loss_and_grad(policy, dataset))
                == _hex_grads(_sft_loss_and_grad_loop(policy, dataset)))
        rm = prefopt.RewardModel(vocab, weights=rng.normal(size=2 * vocab + 1))
        for x, y in dataset:
            want = rm.score(x, y) - 0.2 * (_answer_log_prob_loop(policy, x, y)
                                           - _answer_log_prob_loop(reference, x, y))
            assert prefopt.combined_reward(rm, policy, reference, x, y, 0.2).hex() == want.hex()


def _token_models():
    policy = prefopt.PolicyModel(4, 2, init_scale=0.5, seed=3)
    return policy, policy.snapshot(), prefopt.RewardModel(4, weights=np.arange(9.0) / 9)


def _ppo_config():
    return prefopt.RLHFConfig(iterations=1, samples_per_prompt=2, epochs=2, seed=5)


def _example(prompt, preferred, rejected):
    """A preference pair that skips PreferenceExample's own token check."""
    return types.SimpleNamespace(prompt=prompt, preferred=preferred, rejected=rejected)


def _combined_reward(t):
    policy, reference, rm = _token_models()
    return prefopt.combined_reward(rm, policy, reference, (t,), (2,), 0.3)


# every public prefopt entry that takes tokens, called with ``t`` as one of them
TOKEN_ENTRIES = {
    "PolicyModel.logits_row": lambda t: _token_models()[0].logits_row((t,), (0,)),
    "PolicyModel.step_probabilities": lambda t: _token_models()[0].step_probabilities((0,), (t,)),
    "PolicyModel.set_logits": lambda t: _token_models()[0].set_logits((t,), (), np.zeros(4)),
    "PolicyModel.sample_answer":
        lambda t: _token_models()[0].sample_answer((t,), np.random.default_rng(0)),
    "answer_log_prob.prompt": lambda t: prefopt.answer_log_prob(_token_models()[0], (t,), (2,)),
    "answer_log_prob.answer": lambda t: prefopt.answer_log_prob(_token_models()[0], (0,), (t, 2)),
    "sft_loss_and_grad": lambda t: prefopt.sft_loss_and_grad(_token_models()[0], [((0,), (t,))]),
    "train_sft": lambda t: prefopt.train_sft(_token_models()[0], [((t,), (2,))], iterations=2),
    "PreferenceExample": lambda t: prefopt.PreferenceExample((0,), (t,), (3,)),
    "RewardModel.features": lambda t: _token_models()[2].features((t,), (2,)),
    "RewardModel.score": lambda t: _token_models()[2].score((0,), (t,)),
    "rm_loss_and_grad": lambda t: prefopt.rm_loss_and_grad(
        _token_models()[2], [_example((t,), (1,), (2,))]),
    "train_reward": lambda t: prefopt.train_reward(
        _token_models()[2], [_example((0,), (2,), (t,))], iterations=2),
    "pairwise_expand.prompt": lambda t: prefopt.pairwise_expand((t,), [(2,), (3,)]),
    "pairwise_expand.answers": lambda t: prefopt.pairwise_expand((0,), [(2,), (t,)]),
    "combined_reward": _combined_reward,
    "mean_kl": lambda t: prefopt.mean_kl(*_token_models()[:2], [(t,)]),
    "rlhf_step": lambda t: prefopt.rlhf_step(*_token_models(), [(t,)], _ppo_config(),
                                             np.random.default_rng(0)),
    "run_rlhf": lambda t: prefopt.run_rlhf(*_token_models(), [(0,), (t,)], _ppo_config()),
}


@pytest.mark.parametrize("bad", [1.7, "1", True, np.float64(2.0)],
                         ids=["float", "str", "bool", "np.float64"])
@pytest.mark.parametrize("entry", sorted(TOKEN_ENTRIES))
def test_a_token_must_be_an_integer(entry, bad):
    with pytest.raises(InvalidToken, match="is not an integer"):
        TOKEN_ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", sorted(TOKEN_ENTRIES))
def test_numpy_integer_tokens_act_as_ints(entry):
    # repr tells a Python int from an np.int64 inside any returned tuple
    assert repr(TOKEN_ENTRIES[entry](np.int64(1))) == repr(TOKEN_ENTRIES[entry](1))


@pytest.mark.parametrize("bad", [1.0, "0", True, np.float64(1.0)],
                         ids=["float", "str", "bool", "np.float64"])
def test_ranking_indices_follow_the_token_rule(bad):
    with pytest.raises(InvalidRanking, match="ranking index .* is not an integer"):
        prefopt.pairwise_expand((0,), [(1,), (2,)], ranking=[bad, 0])
    assert (prefopt.pairwise_expand((0,), [(1,), (2,)], ranking=[np.int64(1), np.int64(0)])
            == prefopt.pairwise_expand((0,), [(1,), (2,)], ranking=[1, 0]))


# ---------------------------------------------------------------------------
# The KL diagnostic and the reward-model loop against their unbatched forms
# ---------------------------------------------------------------------------


def _exact_kl_unblocked(policy, reference, x):
    """The exact chain-rule walk, each level read as one stack per model."""
    prefixes, weights, kl = [()], np.ones(1), 0.0
    for depth in range(policy.context_length):
        log_pi = prefopt._log_softmax(np.array([policy._row((x, p)) for p in prefixes]))
        log_ref = prefopt._log_softmax(np.array([reference._row((x, p)) for p in prefixes]))
        step = np.exp(log_pi)
        kl += float(weights @ np.sum(step * (log_pi - log_ref), axis=1))
        if depth + 1 < policy.context_length:
            weights = (weights[:, None] * step).ravel()
            prefixes = [p + (v,) for p in prefixes for v in range(policy.vocab_size)]
    return kl


def _sampled_kl_loop(policy, reference, prompts, rng):
    """mean_kl past the budget: per-step draws, each answer re-read one state at a time."""
    total = 0.0
    for x in prompts:
        gaps = []
        for _ in range(prefopt._KL_SAMPLES):
            y = ()
            for _ in range(policy.context_length):
                probs = policy.step_probabilities(x, y)
                y = y + (int(rng.choice(policy.vocab_size, p=probs)),)
            gaps.append(_answer_log_prob_loop(policy, x, y) - _answer_log_prob_loop(reference, x, y))
        total += float(np.mean(gaps))
    return total / len(prompts)


def _kl_models(vocab, length):
    policy = prefopt.PolicyModel(vocab, length, init_scale=1.5, seed=vocab + length)
    reference = prefopt.PolicyModel(vocab, length, init_scale=0.8, seed=3).snapshot()
    return policy, reference


class TestKlReadsMatchUnbatchedForms:
    # (300, 2) reads its last level in three blocks at the default block size;
    # a block of 1 or 3 rows splits every level of the others as well
    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    @pytest.mark.parametrize("vocab,length", [(300, 2), (5, 4), (2, 12), (64, 2), (16, 3)])
    def test_blocked_walk_matches_one_stack_per_level(self, monkeypatch, vocab, length,
                                                      block_rows):
        if block_rows is not None:
            monkeypatch.setattr(prefopt, "_EXACT_KL_BLOCK", block_rows * vocab)
        policy, reference = _kl_models(vocab, length)
        for x in [(0,), (1, vocab - 1)]:
            want = _exact_kl_unblocked(policy.snapshot(), reference, x)
            assert prefopt.mean_kl(policy, reference, [x]).hex() == want.hex()
        assert not policy._rows  # the walk stored no row

    def test_exact_walk_memory_is_bounded(self):
        # 1 + 4095 prefix states fit the budget; one stack of the last level
        # would hold 4095 x 4095 logits (128 MiB) per model
        policy, reference = _kl_models(4095, 2)
        tracemalloc.start()
        try:
            kl = prefopt.mean_kl(policy, reference, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kl > 0.0
        assert peak < 16 * 2 ** 20

    # blocks of 1 or 3 rows, and the default's, straddle the prompts of one level
    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    @pytest.mark.parametrize("vocab,length", [(5, 4), (16, 3), (300, 2)])
    def test_every_prompt_walked_at_once_adds_each_prompts_kl(self, monkeypatch, vocab, length,
                                                            block_rows):
        if block_rows is not None:
            monkeypatch.setattr(prefopt, "_EXACT_KL_BLOCK", block_rows * vocab)
        policy, reference = _kl_models(vocab, length)
        prompts = [(0,), (1, vocab - 1), (2, 0, 1), (0,), (vocab - 1,)]
        kls = [_exact_kl_unblocked(policy.snapshot(), reference, x) for x in prompts]
        want = functools.reduce(operator.add, kls, 0.0) / len(prompts)
        assert prefopt.mean_kl(policy, reference, prompts).hex() == want.hex()
        assert not policy._rows  # the walk stored no row

    def test_sampled_estimate_memory_is_bounded(self):
        # 1 + 4097 prefix states are past the budget: 256 answers, drawn one
        # depth at a time, reach up to 256 states of 4097 logits (8 MiB a
        # stack). The peak measured 22.5 MiB on numpy 2.4; the bound adds a
        # 24 % margin, and a row memo per state met would pass it.
        policy, reference = _kl_models(4097, 2)
        tracemalloc.start()
        try:
            kl = prefopt.mean_kl(policy, reference, [(0, 1)], rng=np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kl > 0.0
        assert peak < 28 * 2 ** 20

    @pytest.mark.parametrize("vocab,length", [(16, 4), (4, 8)])
    def test_sampled_estimate_matches_per_step_loop(self, vocab, length):
        policy, reference = _kl_models(vocab, length)
        prompts = [(0, 1), (vocab - 1,)]
        got = prefopt.mean_kl(policy, reference, prompts, rng=np.random.default_rng(4))
        want = _sampled_kl_loop(policy.snapshot(), reference, prompts, np.random.default_rng(4))
        assert got.hex() == want.hex()

    # (16, 4) samples past the budget; (5, 4) walks every state
    @pytest.mark.parametrize("vocab,length", [(16, 4), (5, 4)])
    def test_each_state_is_made_once_per_model(self, monkeypatch, vocab, length):
        policy, reference = _kl_models(vocab, length)
        made = collections.Counter()
        make_row = prefopt.PolicyModel._make_row

        def counting(model, key):
            made[model.seed, key] += 1
            return make_row(model, key)

        monkeypatch.setattr(prefopt.PolicyModel, "_make_row", counting)
        prefopt.mean_kl(policy, reference, [(0, 1), (vocab - 1,)], rng=np.random.default_rng(4))
        assert {seed for seed, _ in made} == {policy.seed, reference.seed}
        assert max(made.values()) == 1


def _train_reward_loop(rm, dataset, learning_rate, iterations):
    """train_reward as a loop over rm_loss_and_grad, re-reading every example each time."""
    history = []
    for i in range(iterations):
        loss, grad = prefopt.rm_loss_and_grad(rm, dataset)
        rm.weights = rm.weights - learning_rate * grad
        history.append({"iteration": i, "loss": loss})
    return history


class TestTrainRewardMatchesLossLoop:
    @pytest.mark.parametrize("vocab,iterations", [(3, 1), (6, 25), (40, 8)])
    def test_weights_and_history_match(self, vocab, iterations):
        rng = np.random.default_rng(vocab)
        dataset = []
        while len(dataset) < 12:
            x, a, b = (tuple(int(t) for t in rng.integers(0, vocab, n)) for n in (2, 3, 3))
            if a != b:
                dataset.append(prefopt.PreferenceExample(x, a, b))
        weights = rng.normal(size=2 * vocab + 1)
        rm, oracle = prefopt.RewardModel(vocab, weights), prefopt.RewardModel(vocab, weights)
        got = prefopt.train_reward(rm, dataset, learning_rate=0.7, iterations=iterations)
        want = _train_reward_loop(oracle, dataset, 0.7, iterations)
        assert [(h["iteration"], h["loss"].hex()) for h in got] == [
            (h["iteration"], h["loss"].hex()) for h in want]
        assert [w.hex() for w in rm.weights.tolist()] == [w.hex() for w in oracle.weights.tolist()]

    def test_zero_iterations_read_no_example(self):
        class Unreadable:
            def __iter__(self):
                raise AssertionError("the dataset was read")

        assert prefopt.train_reward(prefopt.RewardModel(3), Unreadable(), iterations=0) == []

    def test_first_bad_example_raises_its_error(self):
        dataset = [prefopt.PreferenceExample((0,), (1,), (2,)), _example((0,), (3,), (1,)),
                   _example((5,), (1,), (2,))]
        want = _outcome(_train_reward_loop, prefopt.RewardModel(3), dataset, 0.5, 2)
        assert want == ("InvalidToken", "answer token 3 outside vocabulary of size 3")
        assert _outcome(prefopt.train_reward, prefopt.RewardModel(3), dataset, 0.5, 2) == want


# ---------------------------------------------------------------------------
# Stored rows: frozen reads, row order
# ---------------------------------------------------------------------------


class TestStoredRows:
    # (5, 4) walks every state exactly, with a repeated prompt; (16, 4) samples past the budget
    @pytest.mark.parametrize("vocab,prompts", [(5, [(0, 1), (4,), (0, 1)]), (16, [(0, 1), (15,)])],
                             ids=["exact", "sampled"])
    @pytest.mark.parametrize("init_scale", [0.0, 1.5])
    def test_kl_reads_store_nothing_and_make_each_unstored_row_at_most_once(
            self, monkeypatch, vocab, prompts, init_scale):
        policy = prefopt.PolicyModel(vocab, 4, init_scale=init_scale, seed=5)
        rng = np.random.default_rng(vocab)
        prefopt.train_sft(policy, [(x, tuple(int(t) for t in rng.integers(0, vocab, 4)))
                                   for x in prompts], iterations=2)
        reference = policy.snapshot()
        prefopt.train_sft(policy, [((0, 1), (1, 1, 0))], iterations=1)  # one more stored state
        models = {id(policy._rows): policy, id(reference._rows): reference}
        stored = {key: _hex_rows(model) for key, model in models.items()}
        made = collections.Counter()
        make_row = prefopt.PolicyModel._make_row

        def counting(model, key):
            made[id(model._rows), key] += 1  # a frozen view shares its owner's rows
            return make_row(model, key)

        monkeypatch.setattr(prefopt.PolicyModel, "_make_row", counting)
        assert math.isfinite(prefopt.mean_kl(policy, reference, prompts,
                                             rng=np.random.default_rng(2)))
        if init_scale == 0.0:
            assert not made
        else:
            assert made and max(made.values()) == 1
            assert not any(key in models[rows]._rows for rows, key in made)
            assert {rows for rows, _ in made} == set(models)
        assert {key: _hex_rows(model) for key, model in models.items()} == stored

    def test_a_frozen_view_reads_rows_stored_after_it_was_made(self):
        policy = prefopt.PolicyModel(3, 2)
        view = policy._frozen_view()
        for k in range(27):  # the storage grows several times
            policy.set_logits((k // 9, k // 3 % 3, k % 3), (), [float(k), 0.0, 1.0])
        assert view.logits_row((2, 2, 2), ()).tolist() == [26.0, 0.0, 1.0]
        assert len(view._rows) == 27

    def test_a_row_read_is_a_copy(self):
        policy = prefopt.PolicyModel(3, 1)
        policy.set_logits((0,), (), [1.0, 2.0, 3.0])
        held, mapped = policy.logits_row((0,), ()), policy._rows[(0,), ()]
        policy.apply_gradient({((0,), ()): np.ones(3)}, 1.0)
        policy.set_logits((1,), (), [0.0, 0.0, 0.0])
        assert held.tolist() == mapped.tolist() == [1.0, 2.0, 3.0]
        assert policy.logits_row((0,), ()).tolist() == [2.0, 3.0, 4.0]

    def test_writing_a_stored_state_keeps_its_place(self, tmp_path):
        # policy.json lists the states by their text (write_json sorts keys); a loaded
        # model stores them in that order, and an in-memory one in the order first stored
        policy = prefopt.PolicyModel(3, 2)
        keys = [((2,), ()), ((0,), (1,)), ((1, 1), ()), ((0,), ())]
        for k, (x, prefix) in enumerate(keys):
            policy.set_logits(x, prefix, [float(k), 0.0, 0.0])
        policy.set_logits((0,), (1,), [7.0, 0.0, 0.0])
        policy.apply_gradient({((1, 1), ()): np.ones(3), ((1,), ()): np.ones(3)}, 0.5)
        assert list(policy._rows) == keys + [((1,), ())]  # a new state goes last
        prefopt.save_policy(policy, tmp_path / "policy.json")
        rows = json.loads((tmp_path / "policy.json").read_text(encoding="utf-8"))["rows"]
        assert list(rows.items()) == [
            ("0;", ["3.0", "0.0", "0.0"]), ("0;1", ["7.0", "0.0", "0.0"]),
            ("1,1;", ["2.5", "0.5", "0.5"]), ("1;", ["0.5", "0.5", "0.5"]),
            ("2;", ["0.0", "0.0", "0.0"])]
        loaded = prefopt.load_policy(tmp_path / "policy.json")
        assert [prefopt._encode_state(key) for key in loaded._rows] == list(rows)
        assert [loaded._rows[key].tolist() for key in keys] == [
            [0.0, 0.0, 0.0], [7.0, 0.0, 0.0], [2.5, 0.5, 0.5], [3.0, 0.0, 0.0]]


# ---------------------------------------------------------------------------
# PPO's expected gradient against the enumerated objective
# ---------------------------------------------------------------------------


def _enumerated_objective(policy, reference, rm, x, beta):
    """J(pi) = E_pi[r_rm] - beta * KL(pi || ref) over every answer to ``x``."""
    total = 0.0
    for y in itertools.product(range(policy.vocab_size), repeat=policy.context_length):
        logp = prefopt.answer_log_prob(policy, x, y)
        total += math.exp(logp) * (rm.score(x, y)
                                   - beta * (logp - prefopt.answer_log_prob(reference, x, y)))
    return total


def _expected_gradient(policy, reference, rm, x, beta):
    """sum_y pi(y|x) * A(x, y) * grad log pi(y|x), A the combined reward: state -> row."""
    grad = collections.defaultdict(lambda: np.zeros(policy.vocab_size))
    for y in itertools.product(range(policy.vocab_size), repeat=policy.context_length):
        weight = (math.exp(prefopt.answer_log_prob(policy, x, y))
                  * prefopt.combined_reward(rm, policy, reference, x, y, beta))
        for key, row in prefopt.sft_loss_and_grad(policy, [(x, y)])[1].items():
            grad[key] -= weight * row  # the SFT gradient of one pair is -grad log pi(y|x)
    return grad


def _objective_gradient_by_differences(policy, reference, rm, x, beta, h=1e-5):
    """Central finite differences of the enumerated J in every logit of every state of ``x``."""
    grad = {}
    for key in list(policy._rows):
        row, grad[key] = policy._rows[key], np.zeros(policy.vocab_size)
        for v in range(policy.vocab_size):
            for sign in (1, -1):
                moved = row.copy()
                moved[v] += sign * h
                policy._rows[key] = moved
                grad[key][v] += sign * _enumerated_objective(policy, reference, rm, x, beta) / (2 * h)
        policy._rows[key] = row
    return grad


class _Draws:
    """A generator stand-in whose ``random()`` returns the given uniforms in turn."""

    def __init__(self, uniforms):
        self.random = iter(uniforms).__next__


def _uniforms_drawing(policy, x, y):
    """Uniforms that make ``_sample`` draw ``y``: each at the middle of y_t's CDF step."""
    uniforms = []
    for t, token in enumerate(y):
        cdf = np.cumsum(policy.step_probabilities(x, y[:t]))
        cdf /= cdf[-1]
        uniforms.append(((cdf[token - 1] if token else 0.0) + cdf[token]) / 2)
    return uniforms


class TestExpectedGradientOracle:
    """At V = 3, T = 2 every answer is enumerable: sum_y pi(y|x) A(x, y) grad log pi(y|x)
    is exactly grad J for J(pi) = E_pi[r_rm] - beta * KL(pi || ref)."""

    @staticmethod
    def _models(seed):
        policy = prefopt.PolicyModel(3, 2, init_scale=1.0, seed=seed)
        reference = prefopt.PolicyModel(3, 2, init_scale=0.8, seed=seed + 50).snapshot()
        rm = prefopt.RewardModel(3, weights=np.random.default_rng(seed).normal(size=7))
        x = (seed % 3, 1)
        for prefix in [()] + [(v,) for v in range(3)]:  # store every state of x
            policy.logits_row(x, prefix)
        return policy, reference, rm, x

    @pytest.mark.parametrize("beta", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_expected_gradient_is_the_objectives_gradient(self, seed, beta):
        policy, reference, rm, x = self._models(seed)
        want = _objective_gradient_by_differences(policy, reference, rm, x, beta)
        got = _expected_gradient(policy, reference, rm, x, beta)
        assert set(got) == set(want) and len(want) == 4
        for key in want:
            assert np.abs(got[key] - want[key]).max() <= 1e-9, key

    @pytest.mark.parametrize("beta", [0.0, 0.3, 2.0])
    def test_one_sample_updates_average_to_the_objectives_gradient(self, beta):
        # one rlhf_step per answer y, drawn on purpose: pi-weighted, the steps are lr * grad J
        policy, reference, rm, x = self._models(3)
        config = prefopt.RLHFConfig(beta=beta, learning_rate=0.25, iterations=1,
                                    samples_per_prompt=1)
        want = _objective_gradient_by_differences(policy, reference, rm, x, beta)
        got = {key: np.zeros(3) for key in want}
        for y in itertools.product(range(3), repeat=2):
            uniforms = _uniforms_drawing(policy, x, y)
            assert policy.snapshot().sample_answer(x, _Draws(uniforms)) == y
            moved = prefopt.PolicyModel(3, 2, init_scale=1.0, seed=3)
            for key, row in policy._rows.items():
                moved._rows[key] = row
            prefopt.rlhf_step(moved, reference, rm, [x], config, _Draws(uniforms))
            assert list(moved._rows) == list(policy._rows)  # the step stored no new state
            weight = math.exp(prefopt.answer_log_prob(policy, x, y))
            for key in want:
                got[key] += weight * (moved._rows[key] - policy._rows[key])
        for key in want:
            assert np.abs(got[key] / config.learning_rate - want[key]).max() <= 1e-9, key
