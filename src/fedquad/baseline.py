"""Plaintext centralized oracles used to verify every protocol gradient.

Three independent views of the same quantity: the closed-form gradient,
finite differences of the matching loss, and (in the protocol tests) the
decrypted value itself. The closed-form expressions here are written in
the same arithmetic shape the protocol uses to assemble its gradient, so
exact-mode comparisons can demand bitwise float equality.

The four oracles (two gradients, two losses) and centralized_training
share one input rule: X, y and w become float arrays, X must be 2-D and y
and w must fit it, else ValueError names the one that does not. model is
the one place that tells the two model kinds apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fixedpoint import snap_to_grid

MODEL_LINEAR = "linear"
MODEL_LOGISTIC_TAYLOR = "logistic_taylor"


@dataclass(frozen=True)
class CentralDataset:
    """All clients' features concatenated columnwise, plus the labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        _check_shapes(self.X, self.y, None)


def _check_shapes(X: np.ndarray, y: np.ndarray, w) -> None:
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if w is not None and w.shape != (X.shape[1],):
        raise ValueError(f"w has shape {w.shape}, expected ({X.shape[1]},)")


def _operands(X, y, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, y and w as float arrays; ValueError unless X is 2-D and y and w fit it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    _check_shapes(X, y, w)
    return X, y, w


def centralized_gradient_linear(X, y, w, reg_lambda: float = 0.0) -> np.ndarray:
    """Gradient of mean squared error: -(2/S) * (y - Xw)^T X + lambda * w."""
    X, y, w = _operands(X, y, w)
    u = y - X @ w
    return (-2.0 * (u @ X)) / X.shape[0] + reg_lambda * w


def centralized_gradient_logistic_taylor(X, y, w,
                                         reg_lambda: float = 0.0) -> np.ndarray:
    """Gradient of the quadratic logistic surrogate: (1/S)(Xw/4 - y + 1/2)^T X + lambda*w."""
    X, y, w = _operands(X, y, w)
    t = 0.25 * (X @ w) - y + 0.5
    return (t @ X) / X.shape[0] + reg_lambda * w


def mse_loss(X, y, w) -> float:
    """Mean squared residual, the loss whose gradient the linear path computes."""
    X, y, w = _operands(X, y, w)
    u = y - X @ w
    # np.mean's own sum and division, without its wrapper: bitwise equal.
    return float(np.add.reduce(u * u) / u.shape[0])


def taylor_loss(X, y, w) -> float:
    """Degree-2 surrogate of logistic cross entropy.

    Per sample with margin z = (Xw)_s the surrogate is
    log 2 + z*z/8 + z*(1/2 - y_s); averaging over samples gives the loss
    whose exact gradient centralized_gradient_logistic_taylor computes.
    The surrogate can dip below zero far from the origin, so no
    nonnegativity is claimed.
    """
    X, y, w = _operands(X, y, w)
    z = X @ w
    per_sample = math.log(2.0) + z * z / 8.0 + z * (0.5 - y)
    return float(np.add.reduce(per_sample) / per_sample.shape[0])


@dataclass(frozen=True)
class Model:
    """What the protocol and its mirrors know about one model kind.

    Both models run through the linear model's quadratic residual form:
    weights enter as w / 2**weight_shift, labels as y - label_shift, and a
    decrypted slice is scaled by slice_scale / S. The linear model has
    (0, 0, -2); the logistic model trains on the degree-2 Taylor surrogate
    of its loss with (2, 1/2, -1), so weights enter as w/4 and labels as
    y - 1/2. gradient and loss are the plaintext oracle and its loss.
    """

    kind: str
    gradient: Callable
    loss: Callable
    weight_shift: int
    label_shift: float
    slice_scale: float


_MODELS = (
    Model(MODEL_LINEAR, centralized_gradient_linear, mse_loss, 0, 0.0, -2.0),
    Model(MODEL_LOGISTIC_TAYLOR, centralized_gradient_logistic_taylor, taylor_loss,
          2, 0.5, -1.0),
)


def model(kind: str) -> Model:
    """The record of a model kind; ValueError for any other kind."""
    for m in _MODELS:
        if m.kind == kind:
            return m
    raise ValueError(f"unknown model kind {kind!r}")


def finite_difference_gradient(loss: Callable[[np.ndarray], float],
                               w, h: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar loss, coordinate by coordinate."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    w = np.asarray(w, dtype=float)
    grad = np.empty_like(w)
    for f in range(w.shape[0]):
        bump = np.zeros_like(w)
        bump[f] = h
        grad[f] = (loss(w + bump) - loss(w - bump)) / (2.0 * h)
    return grad


@dataclass
class CentralTrainingResult:
    """Trajectory of a plaintext gradient-descent run."""

    weights: np.ndarray
    weight_history: list[np.ndarray] = field(default_factory=list)


def centralized_training(X, y, initial_weights, model_kind: str,
                         batches: Sequence[np.ndarray],
                         learning_rate: float,
                         reg_lambda: float = 0.0,
                         weight_grid_bits: int | None = None) -> CentralTrainingResult:
    """Plaintext gradient descent over a precomputed batch schedule.

    With weight_grid_bits set, weights are projected to that fixed-point
    grid after every update, mirroring the weight schedule of the secure
    protocol so trajectories can be compared step by step. With None the
    run is plain float descent. initial_weights is copied, never updated.
    """
    m = model(model_kind)
    X, y, w = _operands(X, y, np.array(initial_weights, dtype=float))
    result = CentralTrainingResult(weights=w)
    for rows in batches:
        grad = m.gradient(X[rows], y[rows], w, reg_lambda)
        w = w - learning_rate * grad
        if weight_grid_bits is not None:
            w = snap_to_grid(w, weight_grid_bits)
        result.weight_history.append(w.copy())
    result.weights = w
    return result
