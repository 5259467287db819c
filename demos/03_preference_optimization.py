"""The three preference-optimization stages on a toy answer policy.

Stage 1 fits the policy to demonstration answers (supervised fine-tuning).
Stage 2 trains a linear reward model from pairwise preferences. Stage 3 runs
PPO-style policy optimization against the KL-regularized combined reward,
with the SFT policy frozen as the reference.
"""

import numpy as np

from breedkit import prefopt

VOCAB, LENGTH = 6, 2
prompts = [(p,) for p in range(4)]

# --- stage 1: supervised fine-tuning ----------------------------------------
# Demonstrations map prompt p to the answer (p+1, p+2).
demonstrations = [((p,), ((p + 1) % VOCAB, (p + 2) % VOCAB)) for p in range(4)]
policy = prefopt.PolicyModel(vocab_size=VOCAB, context_length=LENGTH)
history = prefopt.train_sft(policy, demonstrations, learning_rate=0.5, iterations=80)
print(f"SFT: loss {history[0]['loss']:.3f} -> {history[-1]['loss']:.3f} "
      f"(uniform start is T ln V = {LENGTH * np.log(VOCAB):.3f})")
loss, grads = prefopt.sft_loss_and_grad(policy, demonstrations)  # the objective at the fit
print(f"    fitted: loss {loss:.3f}, gradient norm "
      f"{np.linalg.norm(np.array(list(grads.values()))):.4f} over {len(grads)} states")

reference = policy.snapshot()  # frozen; anchors the KL penalty

# --- stage 2: reward model from pairwise preferences -------------------------
# The (synthetic) breeder prefers answers containing token 0. Sampled answers
# are ranked and expanded into all K(K-1)/2 preference pairs.
rng = np.random.default_rng(3)
examples = []
for x in prompts:
    answers, seen = [], set()
    while len(answers) < 4:
        y = policy.sample_answer(x, rng)
        if y not in seen:
            seen.add(y)
            answers.append(y)
    ranking = sorted(range(4), key=lambda i: -answers[i].count(0))
    examples.extend(prefopt.pairwise_expand(x, answers, ranking))

rm = prefopt.RewardModel(VOCAB)
history = prefopt.train_reward(rm, examples, learning_rate=0.5, iterations=120)
print(f"RM: {len(examples)} pairs, loss {history[0]['loss']:.3f} -> "
      f"{history[-1]['loss']:.3f} (ln 2 = {np.log(2):.3f} at zero gap)")
loss, grad = prefopt.rm_loss_and_grad(rm, examples)  # the objective at the trained weights
print(f"    trained: loss {loss:.3f}, gradient norm {np.linalg.norm(grad):.4f}")

# --- stage 3: PPO against the combined reward --------------------------------
config = prefopt.RLHFConfig(beta=0.05, learning_rate=0.4, ppo_clip=0.2,
                            iterations=120, seed=17, samples_per_prompt=8)
diagnostics = prefopt.run_rlhf(policy, reference, rm, prompts, config)
first, last = diagnostics[0], diagnostics[-1]
print(f"PPO: mean reward {first['mean_reward']:+.3f} -> {last['mean_reward']:+.3f}, "
      f"KL from reference {first['mean_kl']:.3f} -> {last['mean_kl']:.3f}")

for x in prompts[:2]:
    probs = policy.step_probabilities(x, ())
    print(f"  prompt {x}: P(first token = 0) = {probs[0]:.3f}")

# The combined reward collapses to the raw reward-model score when the
# policy has not moved from the reference.
fresh = prefopt.PolicyModel(vocab_size=VOCAB, context_length=LENGTH)
anchor = fresh.snapshot()
y = (0, 1)
assert prefopt.combined_reward(rm, fresh, anchor, (0,), y, beta=0.5) == rm.score((0,), y)
print("combined reward reduces to the RM score at zero divergence: ok")
