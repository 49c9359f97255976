"""Logistic training on the quadratic surrogate, under a lossy codec.

The degree-2 surrogate of the logistic loss has gradient
(1/4 X w - y + 1/2)^T X / S, which the protocol computes by rewriting it
as a residual form: weights enter as w/4 and labels as y - 1/2. Here the
data is encoded with 12 fractional bits, so secure gradients differ from
the plaintext oracle by rounding noise only, and that noise stays below
the codec's published worst-case bound.
"""

import numpy as np

from fedquad.baseline import taylor_loss
from fedquad.baseline import MODEL_LOGISTIC_TAYLOR
from fedquad.data import partition_dataset, synthesize
from fedquad.fixedpoint import FixedPointConfig
from fedquad.protocol import TrainingConfig, TrainingPlan, run_training
from fedquad.verify import gradient_error_bound

data = synthesize(MODEL_LOGISTIC_TAYLOR, n_rows=48, features_per_client=[2, 2],
                  seed=21)
# divide features by 3 so they stop being exactly representable and the
# codec has real rounding work to do; sign labels are unaffected
rows = data.rows.copy()
rows[:, :-1] /= 3.0
shards, central = partition_dataset(data.header, rows, data.spec)
print("separating weights used to label the data:", data.true_weights)

codec = FixedPointConfig(data_bits=12, weight_bits=12)
config = TrainingConfig(model_kind=MODEL_LOGISTIC_TAYLOR, iterations=60,
                        batch_size=12, learning_rate=0.5, seed=5, codec=codec)
plan = TrainingPlan(shards, config)
history = []
w = run_training(plan, on_iteration=history.append)

worst = max(m.max_abs_grad_diff_vs_oracle for m in history)
print("\nworst secure-vs-plaintext gradient gap over the run:", worst)
bound = gradient_error_bound(plan, w)
print("codec worst-case bound at the final weights:        ", bound)

print("\niter   surrogate loss")
for m in history[::12] + [history[-1]]:
    print(f"{m.iteration:4d}   {m.loss:.5f}")

print("\nfinal weights:", w)
print("final surrogate loss on all rows:",
      taylor_loss(central.X, central.y, w))
predicted = (central.X @ w > 0).astype(float)
accuracy = float(np.mean(predicted == central.y))
print("sign-rule training accuracy:", accuracy)
