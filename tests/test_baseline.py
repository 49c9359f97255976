import math

import numpy as np
import pytest

from fedquad.baseline import (
    MODEL_LINEAR,
    MODEL_LOGISTIC_TAYLOR,
    CentralDataset,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    centralized_training,
    finite_difference_gradient,
    mse_loss,
    taylor_loss,
)


class TestLinearGradient:
    def test_zero_at_least_squares_solution(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
        grad = centralized_gradient_linear(X, y, w_star, 0.0)
        assert np.max(np.abs(grad)) < 1e-10

    def test_hand_instance(self):
        grad = centralized_gradient_linear(np.array([[5.0, 7.0]]), np.array([4.0]),
                                           np.array([2.0, 3.0]), 0.0)
        assert np.array_equal(grad, np.array([270.0, 378.0]))

    def test_regularizer_adds_lambda_w(self):
        X, y = np.array([[1.0, 2.0]]), np.array([0.0])
        w = np.array([2.0, 3.0])
        base = centralized_gradient_linear(X, y, w, 0.0)
        reg = centralized_gradient_linear(X, y, w, 1.0)
        assert np.array_equal(reg - base, w)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            S = int(rng.integers(2, 9))
            F = int(rng.integers(1, 5))
            X = rng.uniform(-1, 1, size=(S, F))
            y = rng.uniform(-1, 1, size=S)
            w = rng.uniform(-1, 1, size=F)
            grad = centralized_gradient_linear(X, y, w, 0.0)
            fd = finite_difference_gradient(lambda v: mse_loss(X, y, v), w)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            centralized_gradient_linear(np.zeros((2, 2)), np.zeros(3), np.zeros(2))


class TestLogisticTaylorGradient:
    def test_balanced_midpoint_is_stationary(self):
        X = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = centralized_gradient_logistic_taylor(X, np.full(2, 0.5), np.zeros(2))
        assert np.array_equal(grad, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            S = int(rng.integers(2, 9))
            F = int(rng.integers(1, 5))
            X = rng.uniform(-1, 1, size=(S, F))
            y = rng.integers(0, 2, size=S).astype(float)
            w = rng.uniform(-1, 1, size=F)
            grad = centralized_gradient_logistic_taylor(X, y, w, 0.0)
            fd = finite_difference_gradient(lambda v: taylor_loss(X, y, v), w)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-6

    def test_regularizer_adds_lambda_w(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([1.0, 0.0])
        w = np.array([0.5, -0.25])
        base = centralized_gradient_logistic_taylor(X, y, w, 0.0)
        reg = centralized_gradient_logistic_taylor(X, y, w, 2.0)
        assert np.allclose(reg - base, 2.0 * w)


class TestTaylorLoss:
    def test_value_at_zero_weights(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([1.0, 0.0])
        assert taylor_loss(X, y, np.zeros(2)) == pytest.approx(math.log(2.0))

    def test_gradient_consistency_is_by_construction(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        w = rng.uniform(-1, 1, size=3)
        fd = finite_difference_gradient(lambda v: taylor_loss(X, y, v), w)
        closed = centralized_gradient_logistic_taylor(X, y, w, 0.0)
        assert np.max(np.abs(fd - closed)) < 1e-6


class TestFiniteDifferenceGradient:
    def test_known_quadratic(self):
        fd = finite_difference_gradient(lambda w: float(w @ w), np.array([1.0, 2.0]))
        assert np.max(np.abs(fd - np.array([2.0, 4.0]))) < 1e-6

    def test_error_shrinks_quadratically_in_h(self):
        # central differences have O(h^2) truncation error
        def loss(w):
            return float(np.sum(w ** 4))

        w = np.array([1.3])
        exact = 4 * 1.3 ** 3
        err_coarse = abs(finite_difference_gradient(loss, w, h=1e-2)[0] - exact)
        err_fine = abs(finite_difference_gradient(loss, w, h=1e-3)[0] - exact)
        ratio = err_coarse / err_fine
        assert 50 < ratio < 200

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda w: 0.0, np.zeros(1), h=0.0)


class TestCentralizedTraining:
    def test_gradient_descent_reduces_mse(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, size=(32, 4))
        w_true = rng.uniform(-1, 1, size=4)
        y = X @ w_true
        batches = [np.arange(32)] * 60
        result = centralized_training(X, y, np.zeros(4), MODEL_LINEAR,
                                      batches, 0.2)
        assert mse_loss(X, y, result.weights) < 1e-3
        assert len(result.weight_history) == 60
        assert mse_loss(X, y, np.zeros(4)) > mse_loss(X, y, result.weights)

    def test_grid_projection_keeps_weights_on_grid(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(8, 2))
        y = rng.uniform(-1, 1, size=8)
        batches = [np.arange(8)] * 5
        result = centralized_training(X, y, np.zeros(2), MODEL_LINEAR,
                                      batches, 0.1, weight_grid_bits=6)
        for w in result.weight_history:
            assert np.array_equal(w, np.round(w * 64) / 64)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            centralized_training(np.zeros((2, 1)), np.zeros(2), np.zeros(1),
                                 "quadratic", [], 0.1)


class TestCentralDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CentralDataset(X=np.zeros((3, 2)), y=np.zeros(2))
