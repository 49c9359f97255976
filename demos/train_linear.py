"""Secure linear training, checked against plaintext descent at every step.

Three clients hold two feature columns each; client c0 also holds the
labels. Two runs over the same seeded batch schedule:

  1. exact mode (integer data, lossless codec): the secure weight
     trajectory equals centralized mini-batch descent bit for bit;
  2. 12-bit fixed point: weights leave the integer lattice, the model
     actually converges, and the final loss lands next to a plain
     floating-point run.

The message log at the end shows who talked to whom; it carries counts
and kinds only, never data.
"""

import numpy as np

from fedquad.baseline import MODEL_LINEAR, centralized_training, mse_loss
from fedquad.data import partition_dataset, synthesize
from fedquad.fixedpoint import FixedPointConfig
from fedquad.protocol import (
    MessageBus,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    make_batch_schedule,
    run_training,
    weight_grid_bits,
)

data = synthesize(MODEL_LINEAR, n_rows=64, features_per_client=[2, 2, 2], seed=11)
shards, central = partition_dataset(data.header, data.rows, data.spec)
print("true weights:", data.true_weights)

T, S, lr, seed = 200, 16, 0.02, 3
batches = make_batch_schedule(64, S, T, seed)

# part 1: exact mode against a plaintext mirror on the same weight grid
exact_cfg = TrainingConfig(model_kind=MODEL_LINEAR, iterations=T,
                           batch_size=S, learning_rate=lr, seed=seed,
                           codec=exact_codec(MODEL_LINEAR))
exact_history = []
run_training(TrainingPlan(shards, exact_cfg), on_iteration=exact_history.append)
mirror = centralized_training(
    central.X, central.y, np.zeros(6), MODEL_LINEAR, batches, lr,
    weight_grid_bits=weight_grid_bits(MODEL_LINEAR, exact_cfg.codec))
identical = all(np.array_equal(m.weights, b) for m, b in
                zip(exact_history, mirror.weight_history))
print("\nexact mode: secure trajectory identical to centralized descent:",
      identical)
print("every per-iteration oracle gap:",
      {m.max_abs_grad_diff_vs_oracle for m in exact_history})

# part 2: fixed point, where training can settle between integers
fp_cfg = TrainingConfig(model_kind=MODEL_LINEAR, iterations=T, batch_size=S,
                        learning_rate=lr, seed=seed,
                        codec=FixedPointConfig(data_bits=12, weight_bits=12))
fp_history, bus = [], MessageBus()
fp_weights = run_training(TrainingPlan(shards, fp_cfg), on_iteration=fp_history.append,
                          bus=bus)

print("\niter   batch loss   |grad|      diff vs oracle")
for m in fp_history[::40] + [fp_history[-1]]:
    print(f"{m.iteration:4d}   {m.loss:<10.4f}   {np.linalg.norm(m.gradient):<9.4f}"
          f"   {m.max_abs_grad_diff_vs_oracle:.2e}")

plain = centralized_training(central.X, central.y, np.zeros(6),
                             MODEL_LINEAR, batches, lr)
print("\nfixed-point final weights:", fp_weights)
print("fixed-point MSE:", mse_loss(central.X, central.y, fp_weights))
print("plain float MSE:", mse_loss(central.X, central.y, plain.weights))

print("\nfirst six messages of iteration 0:")
for header in bus.header_log()[:6]:
    print(" ", header)
