import dataclasses
import gc
import json
import math
import random
import re
import tracemalloc
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedquad import fe, tensor
from fedquad.baseline import (
    MODEL_LINEAR,
    MODEL_LOGISTIC_TAYLOR,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    centralized_training,
    model,
)
from fedquad.data import partition_dataset, synthesize
from fedquad.fixedpoint import (
    FixedPointConfig,
    dequantize,
    inner_product_error_bound,
    overflow_bound,
    quantize,
    quantize_vector,
    snap_to_grid,
)
from fedquad.protocol import (
    ClientShard,
    Header,
    MessageBus,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    iter_batches,
    iteration_record,
    make_batch_schedule,
    run_iteration,
    run_training,
    weight_grid_bits,
)
from fedquad.tensor import vec_columns
from fedquad.verify import (
    gradient_error_bound,
    mix_and_match_probe,
    random_exact_instance,
    random_unit_instance,
)


def _hand_instance():
    shards = [ClientShard(np.array([[5.0]]), np.array([4.0])),
              ClientShard(np.array([[7.0]]))]
    return shards, np.array([2.0, 3.0])


def _step(weights, shards, config, **kwargs):
    """One secure step over all of the shards' rows."""
    plan = TrainingPlan(shards, config)
    return run_iteration(weights, plan, np.arange(plan.n_rows), **kwargs)


def _central(shards):
    X = np.hstack([sh.features for sh in shards])
    y = next(sh.labels for sh in shards if sh.labels is not None)
    return X, y


class TestRunIteration:
    def test_hand_instance_gradient(self):
        shards, weights = _hand_instance()
        config = TrainingConfig(codec=exact_codec(MODEL_LINEAR))
        metrics = _step(weights, shards, config)
        assert np.array_equal(metrics.gradient, np.array([270.0, 378.0]))
        assert metrics.max_abs_grad_diff_vs_oracle == 0.0

    def test_matches_centralized_oracle(self):
        shards, weights = _hand_instance()
        config = TrainingConfig(codec=exact_codec(MODEL_LINEAR))
        gradient = _step(weights, shards, config).gradient
        X, y = _central(shards)
        assert np.array_equal(gradient,
                              centralized_gradient_linear(X, y, weights))

    def test_regularizer_contributes_lambda_w(self):
        shards, weights = _hand_instance()
        config = TrainingConfig(reg_lambda=1.0, codec=exact_codec(MODEL_LINEAR))
        gradient = _step(weights, shards, config).gradient
        assert np.array_equal(gradient, np.array([270.0, 378.0]) + weights)

    def test_exact_equality_on_random_instances(self):
        rng = random.Random(20)
        config = TrainingConfig(codec=exact_codec(MODEL_LINEAR))
        for _ in range(60):
            shards, weights = random_exact_instance(rng)
            metrics = _step(weights, shards, config)
            X, y = _central(shards)
            assert np.array_equal(metrics.gradient,
                                  centralized_gradient_linear(X, y, weights))
            assert metrics.max_abs_grad_diff_vs_oracle == 0.0

    def test_exact_equality_logistic(self):
        rng = random.Random(21)
        config = TrainingConfig(model_kind=MODEL_LOGISTIC_TAYLOR,
                                codec=exact_codec(MODEL_LOGISTIC_TAYLOR))
        for _ in range(60):
            shards, weights = random_exact_instance(rng, binary_labels=True)
            metrics = _step(weights, shards, config)
            X, y = _central(shards)
            oracle = centralized_gradient_logistic_taylor(X, y, weights)
            assert np.array_equal(metrics.gradient, oracle)
            assert metrics.max_abs_grad_diff_vs_oracle == 0.0

    @pytest.mark.parametrize("model_kind,binary", [
        (MODEL_LINEAR, False),
        (MODEL_LOGISTIC_TAYLOR, True),
    ])
    def test_fixed_point_error_within_bound(self, model_kind, binary):
        rng = random.Random(22)
        codec = FixedPointConfig()
        config = TrainingConfig(model_kind=model_kind, codec=codec)
        for _ in range(40):
            shards, weights = random_unit_instance(rng, binary_labels=binary)
            metrics = _step(weights, shards, config)
            bound = gradient_error_bound(TrainingPlan(shards, config), weights)
            assert metrics.max_abs_grad_diff_vs_oracle <= bound

    def test_weight_update_and_grid_projection(self):
        shards, weights = _hand_instance()
        config = TrainingConfig(learning_rate=0.5, codec=exact_codec(MODEL_LINEAR))
        metrics = _step(weights, shards, config)
        # exact mode projects onto the integer grid
        expected = np.round(weights - 0.5 * metrics.gradient)
        assert np.array_equal(metrics.weights, expected)

    def test_label_client_must_be_unique(self):
        shards = [ClientShard(np.ones((2, 1)), np.ones(2)),
                  ClientShard(np.ones((2, 1)), np.ones(2))]
        with pytest.raises(ValueError):
            _step(np.zeros(2), shards, TrainingConfig())

    def test_row_count_mismatch_rejected(self):
        shards = [ClientShard(np.ones((2, 1)), np.ones(2)),
                  ClientShard(np.ones((3, 1)))]
        with pytest.raises(ValueError):
            _step(np.zeros(2), shards, TrainingConfig())

    def test_weight_length_mismatch_rejected(self):
        shards = [ClientShard(np.ones((2, 2)), np.ones(2))]
        with pytest.raises(ValueError):
            _step(np.zeros(3), shards, TrainingConfig())

    def test_empty_batch_refused_by_name(self):
        shards, weights = _hand_instance()
        plan = TrainingPlan(shards, TrainingConfig())
        with pytest.raises(ValueError, match="the batch has no rows"):
            run_iteration(weights, plan, np.arange(0))

    def test_zero_feature_shard_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            ClientShard(np.ones((2, 0)), np.ones(2))

    @pytest.mark.parametrize("call", [
        lambda: _step(np.zeros(1), [], TrainingConfig()),
        lambda: run_training(TrainingPlan([], TrainingConfig())),
    ], ids=["run_iteration", "run_training"])
    def test_empty_shard_list_rejected(self, call):
        with pytest.raises(ValueError, match="at least one client shard"):
            call()

    def test_overflow_guard_refuses_to_run(self):
        shards = [ClientShard(np.full((4, 2), 1e9), np.full(4, 1e9))]
        config = TrainingConfig(codec=FixedPointConfig(24, 24))
        with pytest.raises(OverflowError):
            _step(np.full(2, 1e9), shards, config)

    def test_overflow_guard_counts_negative_values(self):
        # Each row's largest magnitude is its negative entry.
        shards = [ClientShard(np.tile([-1e9, 1.0], (4, 1)), np.ones(4))]
        config = TrainingConfig(codec=FixedPointConfig(24, 24))
        with pytest.raises(OverflowError, match="worst-case accumulation"):
            _step(np.full(2, 1e9), shards, config)


class TestBudget:
    """TrainingPlan.budget is the one source of the overflow guard and the error bound."""

    def test_budget_is_the_bounds_argument_list(self):
        shards, weights = _hand_instance()
        plan = TrainingPlan(shards, TrainingConfig(codec=FixedPointConfig(10, 8)))
        # max|x| is row 0's largest magnitude (features 5 and 7, label 4);
        # max|w| is at least 1.
        assert plan.budget(np.arange(1), weights) == (1, 2, 10, 8, 7.0, 3.0)
        assert plan.budget(np.arange(1), np.array([0.25, -0.5])) == (1, 2, 10, 8, 7.0, 1.0)

    def test_one_home_for_guard_and_bound(self, monkeypatch):
        shards, weights = _hand_instance()
        codec = FixedPointConfig()
        plan = TrainingPlan(shards, TrainingConfig(MODEL_LINEAR, codec=codec))
        before = gradient_error_bound(plan, weights)
        budget = TrainingPlan.budget

        def past_the_guard(plan, rows, w_eff):
            S, F, qx, qw, _, max_abs_w = budget(plan, rows, w_eff)
            return S, F, qx, qw, 2.0 ** 63, max_abs_w

        monkeypatch.setattr(TrainingPlan, "budget", past_the_guard)
        with pytest.raises(OverflowError, match=r"^worst-case accumulation \d+ exceeds "
                           r"2\*\*126; reduce batch size, magnitudes, or fractional bits$"):
            _step(weights, shards, TrainingConfig(codec=codec))
        assert gradient_error_bound(plan, weights) > before


class TestMessageLog:
    def _run(self):
        rng = random.Random(23)
        shards, weights = random_exact_instance(rng)
        bus = MessageBus()
        _step(weights, shards, TrainingConfig(codec=exact_codec(MODEL_LINEAR)), bus=bus,
              iteration=4)
        return shards, bus

    def test_clients_never_hear_from_aggregator(self):
        _, bus = self._run()
        for record in bus.header_log():
            if record["to"].startswith("client"):
                assert record["from"] == "ttp"

    def test_label_client_sends_two_ciphertexts(self):
        shards, bus = self._run()
        sizes = {r["from"]: r["size"] for r in bus.header_log()
                 if r["kind"] == "client_ciphertexts"}
        for i, sh in enumerate(shards):
            assert sizes[f"client{i}"] == (2 if sh.labels is not None else 1)

    def test_header_log_when_the_middle_client_holds_the_labels(self):
        # Client 1 of 3 gets its own key and the label slot's and sends two
        # ciphertexts; clients 0 and 2 one of each. Header order is client order.
        shards = [ClientShard(np.ones((2, 1))), ClientShard(np.ones((2, 2)), np.ones(2)),
                  ClientShard(np.ones((2, 1)))]
        bus = MessageBus()
        metrics = _step(np.zeros(4), shards, TrainingConfig(batch_size=2), bus=bus,
                        iteration=5)
        assert metrics.encryptions_per_client == (1, 2, 1)

        def header(sender, recipient, kind, size):
            return {"from": sender, "to": recipient, "iteration": 5, "kind": kind,
                    "size": size}

        assert bus.header_log() == [
            header("ttp", "client0", "deliver_keys", 1),
            header("ttp", "client1", "deliver_keys", 2),
            header("ttp", "client2", "deliver_keys", 1),
            header("client0", "aggregator", "client_ciphertexts", 1),
            header("client1", "aggregator", "client_ciphertexts", 2),
            header("client2", "aggregator", "client_ciphertexts", 1),
            header("aggregator", "ttp", "funcvec_request", 4),
            header("ttp", "aggregator", "secret_keys", 4),
        ]

    def test_headers_carry_no_payload_fields(self):
        _, bus = self._run()
        for record in bus.header_log():
            assert set(record) == {"from", "to", "iteration", "kind", "size"}

    def test_log_contains_no_plaintext_values(self):
        shards = [ClientShard(np.array([[987654.0]]), np.array([123321.0]))]
        bus = MessageBus()
        config = TrainingConfig(codec=exact_codec(MODEL_LINEAR))
        _step(np.array([555444.0]), shards, config, bus=bus)
        log = repr(bus.header_log())
        for sentinel in ("987654", "123321", "555444"):
            assert sentinel not in log


def _quantized_mirror(X, y, model_kind, codec, batches, learning_rate, reg_lambda,
                      weights=None):
    """(gradient, weights) of each secure step, from the raw floats in plain Python ints.

    Rows, shifted labels and weights are quantized with the scalar
    quantize; raw slice k is sum_s x_{k,s} * r_s over the batch, with r_s
    the quantized residual one * y_s - sum_j w_j * x_{j,s}. The floats
    after it are run_iteration's: dequantize, scale, regularize, snap.
    The steps start from `weights` (zeros when None) and stop before the
    first one a run must refuse: its overflow_bound reaches 2**126, or a
    weight is past the quantizer guard.
    """
    m = model(model_kind)
    one = 1 << codec.weight_bits
    w = np.zeros(X.shape[1]) if weights is None else np.array(weights, dtype=float)
    steps = []
    for rows in batches:
        S = len(rows)
        w_eff = w * 2.0 ** -m.weight_shift
        largest = max(np.abs(X[rows]).max(), np.abs(y[rows] - m.label_shift).max())
        if overflow_bound(S, len(w), codec.data_bits, codec.weight_bits, float(largest),
                          max(1.0, float(np.abs(w_eff).max()))) >= 1 << 126:
            break
        try:
            wq = [quantize(v, codec.weight_bits) for v in w_eff]
        except OverflowError:
            break
        xq = [[quantize(v, codec.data_bits) for v in X[s]] for s in rows]
        yq = [quantize(y[s] - m.label_shift, codec.data_bits) for s in rows]
        r = [one * ys - sum(a * b for a, b in zip(wq, xs)) for xs, ys in zip(xq, yq)]
        raws = [sum(xs[k] * rs for xs, rs in zip(xq, r)) for k in range(len(w))]
        res = dequantize(np.array(raws, dtype=float), codec.scale_exp)
        gradient = (m.slice_scale * res) / S + reg_lambda * w
        w = snap_to_grid(w - learning_rate * gradient, weight_grid_bits(model_kind, codec))
        steps.append((gradient, w))
    return steps


class TestRunTraining:
    def _shards(self, seed=24, rows=16):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-4, 5, size=rows).astype(float)
        return [
            ClientShard(rng.integers(-4, 5, size=(rows, 2)).astype(float), labels),
            ClientShard(rng.integers(-4, 5, size=(rows, 2)).astype(float)),
        ]

    def test_zero_iterations(self):
        shards = self._shards()
        config = TrainingConfig(iterations=0, batch_size=4)
        initial = np.arange(4.0)
        seen = []
        weights = run_training(TrainingPlan(shards, config), initial_weights=initial,
                               on_iteration=seen.append)
        assert seen == []
        assert np.array_equal(weights, np.arange(4.0))
        assert weights is not initial

    def test_exact_mode_matches_centralized_descent(self):
        shards = self._shards()
        config = TrainingConfig(iterations=12, batch_size=4, learning_rate=0.1,
                                seed=9, codec=exact_codec(MODEL_LINEAR))
        history = []
        weights = run_training(TrainingPlan(shards, config), on_iteration=history.append)
        X = np.hstack([sh.features for sh in shards])
        y = shards[0].labels
        batches = make_batch_schedule(16, 4, 12, 9)
        mirror = centralized_training(
            X, y, np.zeros(4), MODEL_LINEAR, batches, 0.1,
            weight_grid_bits=weight_grid_bits(MODEL_LINEAR, config.codec))
        assert len(history) == 12
        for metrics, central_w in zip(history, mirror.weight_history):
            assert np.array_equal(metrics.weights, central_w)
        assert weights is history[-1].weights

    # The default 12/12 codec represents integer data exactly, so a
    # fixed-point run leaves no rounding for an error to hide in: a decrypted
    # slice off by one moves its gradient entry by about 2**-36, and the gap
    # sees it.
    @pytest.mark.parametrize("fe_policy", ["fresh", "tagged"])
    @pytest.mark.parametrize("model_kind", [MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR])
    def test_default_codec_on_integer_data_matches_centralized_descent(self, model_kind,
                                                                       fe_policy):
        data = synthesize(model_kind, 48, [2, 3], seed=3)
        shards, central = partition_dataset(data.header, data.rows, data.spec)
        config = TrainingConfig(model_kind=model_kind, iterations=30, batch_size=12,
                                learning_rate=0.05, reg_lambda=0.01, seed=11,
                                fe_policy=fe_policy)
        assert config.codec == FixedPointConfig(data_bits=12, weight_bits=12)
        history = []
        weights = run_training(TrainingPlan(shards, config), on_iteration=history.append)
        assert [m.max_abs_grad_diff_vs_oracle for m in history] == [0.0] * 30
        mirror = centralized_training(
            central.X, central.y, np.zeros(5), model_kind, make_batch_schedule(48, 12, 30, 11),
            0.05, 0.01, weight_grid_bits(model_kind, config.codec))
        assert weights.tobytes() == mirror.weights.tobytes()

    # On real-valued data a fixed-point step rounds, so the gap to the float
    # oracle no longer shows a protocol error. The quantized mirror computes
    # the same integers in Python ints and the same float operations after
    # them, so it equals the secure run bitwise under every codec.
    @pytest.mark.parametrize("fe_policy", ["fresh", "tagged"])
    @pytest.mark.parametrize("bits", [8, 12, 16])
    @pytest.mark.parametrize("model_kind", [MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR])
    def test_fixed_point_run_equals_the_quantized_mirror(self, model_kind, bits, fe_policy):
        rng = np.random.default_rng(bits)
        X = rng.uniform(-1, 1, size=(40, 9))
        y = (rng.uniform(-1, 1, size=40) if model_kind == MODEL_LINEAR
             else rng.integers(0, 2, size=40).astype(float))
        shards = [ClientShard(X[:, :3], y), ClientShard(X[:, 3:5], None),
                  ClientShard(X[:, 5:], None)]
        codec = FixedPointConfig(data_bits=bits, weight_bits=bits)
        config = TrainingConfig(model_kind=model_kind, iterations=20, batch_size=8,
                                learning_rate=0.1, reg_lambda=0.01, seed=bits,
                                codec=codec, fe_policy=fe_policy)
        history = []
        run_training(TrainingPlan(shards, config), on_iteration=history.append)
        mirror = _quantized_mirror(X, y, model_kind, codec,
                                   make_batch_schedule(40, 8, 20, bits), 0.1, 0.01)
        assert len(history) == len(mirror) == 20
        for metrics, (gradient, weights) in zip(history, mirror):
            assert metrics.gradient.tobytes() == gradient.tobytes()
            assert metrics.weights.tobytes() == weights.tobytes()

    def test_on_iteration_sees_each_metrics_record_in_order(self):
        seen = []
        config = TrainingConfig(iterations=5, batch_size=4)
        weights = run_training(TrainingPlan(self._shards(), config), on_iteration=seen.append)
        assert [m.iteration for m in seen] == list(range(5))
        assert weights is seen[-1].weights

    def test_non_finite_gradient_raises_before_it_is_recorded(self, monkeypatch):
        # Without the quantizer guard on the update, an infinite decrypted
        # slice from iteration 1 on reaches run_training's own check.
        import fedquad.protocol as protocol_module

        real = protocol_module.dequantize
        calls = []

        def inflated(raw, scale_exp):
            calls.append(None)
            res = real(raw, scale_exp)
            return res * np.inf if len(calls) > 1 else res

        monkeypatch.setattr(protocol_module, "dequantize", inflated)
        monkeypatch.setattr(protocol_module, "snap_to_grid", lambda v, bits: v)
        seen = []
        plan = TrainingPlan(self._shards(), TrainingConfig(iterations=3, batch_size=4))
        with pytest.raises(ValueError, match="iteration 1 diverged"):
            run_training(plan, initial_weights=np.ones(4), on_iteration=seen.append)
        assert [m.iteration for m in seen] == [0]

    def test_fresh_instance_every_iteration(self):
        shards = self._shards()
        config = TrainingConfig(iterations=3, batch_size=4)
        artifacts = []
        run_training(TrainingPlan(shards, config), artifacts_out=artifacts)
        ids = [a.instance.instance_id for a in artifacts]
        assert len(set(ids)) == 3

    def test_determinism_across_runs(self):
        outputs = []
        for _ in range(2):
            history, bus = [], MessageBus()
            config = TrainingConfig(iterations=4, batch_size=4, seed=31)
            run_training(TrainingPlan(self._shards(), config),
                         on_iteration=history.append, bus=bus)
            records = [json.dumps(iteration_record(m), sort_keys=True)
                       for m in history]
            outputs.append((records, bus))
        assert outputs[0] == outputs[1]

    def test_counts_per_iteration(self):
        shards = self._shards()
        config = TrainingConfig(iterations=5, batch_size=4)
        history, artifacts = [], []
        run_training(TrainingPlan(shards, config), on_iteration=history.append,
                     artifacts_out=artifacts)
        assert len(history) == len(artifacts) == 5
        for metrics, art in zip(history, artifacts):
            assert metrics.encryptions_per_client == (2, 1)
            assert metrics.decryptions == 4
            assert fe.audit_counters(art.instance) == (3, 4, 4)

    @pytest.mark.parametrize("fe_policy", ["fresh", "tagged"])
    def test_one_set_check_and_one_block_product_per_iteration(self, fe_policy,
                                                               monkeypatch):
        # run_iteration decrypts all F keys in one decrypt_all call, so the
        # set is checked once and its block's slices are computed once.
        calls = {"checks": 0, "slices": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(fe, "_checked_operands",
                            counted("checks", fe._checked_operands))
        slices = counted("slices", tensor.block_slices)
        monkeypatch.setattr(fe, "block_slices", slices)
        monkeypatch.setattr(tensor, "block_slices", slices)
        config = TrainingConfig(iterations=5, batch_size=4, fe_policy=fe_policy)
        history = []
        run_training(TrainingPlan(self._shards(), config), on_iteration=history.append)
        assert [m.decryptions for m in history] == [4] * 5
        assert calls == {"checks": 5, "slices": 5}

    def test_fe_policy_changes_no_record_or_header(self):
        # The policy decides which instances and tags the FE layer sees;
        # metrics, weights and the message log do not depend on it.
        runs = []
        for fe_policy in ("fresh", "tagged", "reused"):
            config = TrainingConfig(iterations=5, batch_size=4, learning_rate=0.05,
                                    seed=6, fe_policy=fe_policy)
            history, bus = [], MessageBus()
            final = run_training(TrainingPlan(self._shards(), config),
                                 on_iteration=history.append, bus=bus)
            records = [json.dumps(iteration_record(m), sort_keys=True) for m in history]
            runs.append((records, bus, final.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_tagged_mode_tags_with_iteration(self):
        shards = self._shards()
        config = TrainingConfig(iterations=3, batch_size=4, fe_policy="tagged")
        artifacts = []
        run_training(TrainingPlan(shards, config), artifacts_out=artifacts)
        for t, art in enumerate(artifacts):
            assert {ct.tag for ct in art.ciphertexts} == {t}
            assert {sk.tag for sk in art.secret_keys} == {t}
        assert len({id(a.instance) for a in artifacts}) == 1

    @pytest.mark.parametrize("fe_policy", ["fresh", "tagged", "reused"])
    def test_second_run_on_a_plan_repeats_the_first(self, fe_policy):
        config = TrainingConfig(iterations=3, batch_size=4, fe_policy=fe_policy)
        plan = TrainingPlan(self._shards(), config)
        assert run_training(plan).tobytes() == run_training(plan).tobytes()

    def test_two_tagged_runs_on_a_plan_use_two_instances(self):
        # Each run sets up its own instance, tagged from 0 again; a key of
        # one run still decrypts nothing of the other's.
        config = TrainingConfig(iterations=3, batch_size=4, fe_policy="tagged")
        plan = TrainingPlan(self._shards(), config)
        first, second = [], []
        run_training(plan, artifacts_out=first)
        run_training(plan, artifacts_out=second)
        assert len({id(a.instance) for a in first}) == 1
        assert len({id(a.instance) for a in second}) == 1
        assert first[0].instance is not second[0].instance
        assert [a.ciphertexts[0].tag for a in second] == [0, 1, 2]
        with pytest.raises(fe.InstanceMismatch):
            fe.decrypt(second[0].ciphertexts, first[0].secret_keys[0])

    def test_a_plan_that_outlives_its_run_holds_none_of_its_ciphertexts(self):
        # S=32 and F=16: the last ciphertext set and its x are 2 * 32 * 17 * 8
        # bytes of payload, which the tagged plan's one instance would keep
        # for as long as the plan lives unless the run drops them at its end.
        rng = np.random.default_rng(29)
        labels = rng.integers(-4, 5, size=64).astype(float)
        shards = [ClientShard(rng.integers(-4, 5, size=(64, 8)).astype(float), labels),
                  ClientShard(rng.integers(-4, 5, size=(64, 8)).astype(float))]
        held = {}
        for fe_policy in ("fresh", "tagged"):
            plan = TrainingPlan(shards, TrainingConfig(iterations=3, batch_size=32,
                                                       learning_rate=0.01,
                                                       fe_policy=fe_policy))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run_training(plan)
                gc.collect()
                held[fe_policy] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert held["tagged"] - held["fresh"] < 1024

    def test_batch_size_larger_than_dataset_rejected(self):
        # Also with no iterations: the check does not wait for a batch.
        for iterations in (1, 0):
            with pytest.raises(ValueError, match="batch_size 5 exceeds dataset rows 4"):
                run_training(TrainingPlan(self._shards(rows=4),
                                          TrainingConfig(iterations=iterations, batch_size=5)))

    @staticmethod
    def _held_after(iterations, **sinks):
        """Bytes run_training leaves allocated, S=32 and F=16, after a gc.collect."""
        rng = np.random.default_rng(26)
        labels = rng.integers(-4, 5, size=64).astype(float)
        shards = [ClientShard(rng.integers(-4, 5, size=(64, 8)).astype(float), labels),
                  ClientShard(rng.integers(-4, 5, size=(64, 8)).astype(float))]
        config = TrainingConfig(iterations=iterations, batch_size=32,
                                learning_rate=0.01, seed=2)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            weights = run_training(TrainingPlan(shards, config),
                                   initial_weights=np.ones(16), **sinks)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, weights
        finally:
            tracemalloc.stop()

    def test_held_memory_does_not_grow_with_fe_objects(self):
        # S=32, F=16: one iteration's FE objects (function vectors, keys,
        # ciphertexts) took about 0.9 MB when the bus kept whole messages.
        # What the sinks may keep per iteration is one header record per
        # message and one metrics record, a few hundred bytes each.
        short_history, long_history = [], []
        short, _ = self._held_after(2, on_iteration=short_history.append, bus=MessageBus())
        long, _ = self._held_after(16, on_iteration=long_history.append, bus=MessageBus())
        assert len(long_history) == 16
        assert long - short < 14 * 4096

    def test_run_without_sinks_holds_nothing_per_iteration(self):
        # Only the final weights outlive the run: no metrics, weight or
        # header record is kept per iteration.
        short, _ = self._held_after(2)
        long, weights = self._held_after(64)
        assert weights.shape == (16,)
        assert long - short < 4096

    @staticmethod
    def _peak(iterations, fe_policy):
        """Peak bytes allocated during run_training, S=16 and F=4, no sinks."""
        rng = np.random.default_rng(28)
        labels = rng.integers(-4, 5, size=64).astype(float)
        shards = [ClientShard(rng.integers(-4, 5, size=(64, 2)).astype(float), labels),
                  ClientShard(rng.integers(-4, 5, size=(64, 2)).astype(float))]
        config = TrainingConfig(iterations=iterations, batch_size=16,
                                learning_rate=0.001, seed=3, fe_policy=fe_policy)
        gc.collect()
        tracemalloc.start()
        try:
            run_training(TrainingPlan(shards, config))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fe_policy", ["fresh", "tagged"])
    def test_peak_memory_does_not_grow_with_iterations(self, fe_policy):
        # A schedule of all T batches held up front costs about 0.2 KB per
        # iteration at S=16, and so does a tuple built from a generator once
        # per iteration (CPython keeps it in a free list when it is freed).
        # A run's one tagged instance keeps one tag per slot, not every tag.
        assert self._peak(2000, fe_policy) - self._peak(2, fe_policy) < 64 * 1024


class TestTrainingPlan:
    """The per-run plan against explicit per-iteration batches, bit for bit."""

    @staticmethod
    def _shards():
        # Negative values and exact .5 ties at every codec used below:
        # halves (0 bits), odd quarters (1 bit) and odd multiples of 2**-17.
        rng = np.random.default_rng(27)
        ties = np.array([0.5, -1.5, 2.25, -0.75, 3 * 2.0 ** -17, -5 * 2.0 ** -17])

        def block(cols):
            values = rng.integers(-4, 5, size=(12, cols)) + rng.choice(ties, size=(12, cols))
            return values.astype(float)

        labels = rng.integers(0, 2, size=12) + rng.choice(ties, size=12)
        return [ClientShard(block(2)), ClientShard(block(1), labels), ClientShard(block(2))]

    @pytest.mark.parametrize("codec", ["exact", "16/16"])
    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("model_kind", [MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR])
    def test_plan_path_equals_explicit_batches(self, model_kind, tagged, codec):
        shards = self._shards()
        codec = exact_codec(model_kind) if codec == "exact" else FixedPointConfig(16, 16)
        config = TrainingConfig(model_kind=model_kind, iterations=6, batch_size=4,
                                learning_rate=0.05, reg_lambda=0.1, seed=8,
                                codec=codec, fe_policy="tagged" if tagged else "fresh")
        initial = np.array([0.5, -1.5, 2.0, -0.25, 1.0])
        history, run_bus = [], MessageBus()
        final = run_training(TrainingPlan(shards, config), initial_weights=initial,
                             on_iteration=history.append, bus=run_bus)

        plan = TrainingPlan(shards, config)
        labels = shards[1].labels
        y_eff = labels - 0.5 if model_kind == MODEL_LOGISTIC_TAYLOR else labels
        weights = initial
        bus = MessageBus()
        schedule = make_batch_schedule(12, 4, 6, 8)
        for t, rows in enumerate(schedule):
            batch = [ClientShard(sh.features[rows],
                                 labels[rows] if sh.labels is not None else None)
                     for sh in shards]
            block = plan.quantized[rows]
            for sh, columns in zip(batch, plan.columns):
                assert (vec_columns(block[:, columns]).tolist()
                        == quantize_vector(vec_columns(sh.features), codec.data_bits))
            assert (block[:, -1].tolist()
                    == quantize_vector(y_eff[rows], codec.data_bits))

            metrics = _step(weights, batch, config, iteration=t, bus=bus)
            expected = history[t]
            assert metrics.gradient.tobytes() == expected.gradient.tobytes()
            assert metrics.weights.tobytes() == expected.weights.tobytes()
            assert (metrics.iteration, metrics.encryptions_per_client,
                    metrics.decryptions) == (expected.iteration,
                                             expected.encryptions_per_client,
                                             expected.decryptions)
            assert metrics.loss.hex() == expected.loss.hex()
            assert (metrics.max_abs_grad_diff_vs_oracle.hex()
                    == expected.max_abs_grad_diff_vs_oracle.hex())
            weights = metrics.weights
        assert final.tobytes() == weights.tobytes()
        assert bus.header_log() == run_bus.header_log()

    def test_columns_follow_one_another_in_slot_order(self):
        # Clients with 3, 1 and 4 features, then the label: slot k's columns
        # start where slot k-1's end, and a slot holds S entries per column.
        shards = [ClientShard(np.ones((5, f)), np.ones(5) if i == 1 else None)
                  for i, f in enumerate((3, 1, 4))]
        plan = TrainingPlan(shards, TrainingConfig(batch_size=5, fe_policy="tagged"))
        assert plan.columns == (slice(0, 3), slice(3, 4), slice(4, 8), slice(8, 9))
        assert plan.X.shape[1] == 8
        artifacts = []
        run_training(plan, artifacts_out=artifacts)
        assert artifacts[0].instance.slot_lengths == (15, 5, 20, 5)

    def test_quarter_weights_and_shifted_labels(self):
        shards = [ClientShard(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 0.0]))]
        logistic = TrainingPlan(shards, TrainingConfig(
            model_kind=MODEL_LOGISTIC_TAYLOR, codec=exact_codec(MODEL_LOGISTIC_TAYLOR)))
        assert np.array_equal(np.array([4.0, 8.0]) * logistic.weight_factor, [1.0, 2.0])
        assert logistic.quantized[:, -1].tolist() == [1, -1]  # y - 1/2 at one data bit
        linear = TrainingPlan(shards, TrainingConfig(codec=exact_codec(MODEL_LINEAR)))
        assert linear.weight_factor == 1.0
        assert linear.quantized[:, -1].tolist() == [1, 0]

    def test_zero_weights_stay_zero(self):
        # At w = 0 only the shifted labels reach the decrypted slices:
        # the gradient is -(y - 1/2)^T X / S, exactly.
        shards = [ClientShard(np.array([[1.0, -2.0], [3.0, 4.0]]), np.array([1.0, 0.0])),
                  ClientShard(np.array([[2.0], [-1.0]]))]
        config = TrainingConfig(model_kind=MODEL_LOGISTIC_TAYLOR,
                                codec=exact_codec(MODEL_LOGISTIC_TAYLOR))
        gradient = _step(np.zeros(3), shards, config).gradient
        assert gradient.tolist() == [0.5, 1.5, -0.75]


class TestBatchSchedule:
    def test_deterministic(self):
        a = make_batch_schedule(10, 3, 7, seed=2)
        b = make_batch_schedule(10, 3, 7, seed=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_batches_have_requested_size(self):
        for rows in make_batch_schedule(10, 3, 9, seed=3):
            assert len(rows) == 3
            assert all(0 <= r < 10 for r in rows)

    def test_epoch_has_no_repeats(self):
        schedule = make_batch_schedule(12, 4, 3, seed=4)
        first_epoch = np.concatenate(schedule)
        assert len(set(first_epoch)) == 12

    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            make_batch_schedule(4, 5, 1, seed=0)

    def test_schedule_is_pinned(self):
        # Stable argsort of random.Random(2).randbytes keys, epoch by epoch:
        # a change of the generator or of the sort changes these rows.
        schedule = [rows.tolist() for rows in make_batch_schedule(10, 3, 7, seed=2)]
        assert schedule == [[9, 2, 4], [8, 7, 3], [5, 1, 6],
                            [6, 8, 5], [2, 0, 3], [4, 9, 7],
                            [6, 9, 7]]

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_negative_seed_is_refused_by_name(self, iterations):
        # random.Random would take -1 as 1; refused before any batch is drawn.
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            iter_batches(10, 3, iterations, -1)

    @pytest.mark.parametrize("args, error, message", [
        ((4, True, 2), TypeError, "batch_size must be an integer, got True"),
        ((4, 2.0, 1), TypeError, "batch_size must be an integer, got 2.0"),
        ((4, 0, 1), ValueError, "batch_size must be >= 1, got 0"),
        ((4, 2, -1), ValueError, "n_iterations must be >= 0, got -1"),
        ((4, 2, 1.0), TypeError, "n_iterations must be an integer, got 1.0"),
        ((4.0, 2, 1), TypeError, "n_rows must be an integer, got 4.0"),
        ((0, 1, 1), ValueError, "n_rows must be >= 1, got 0"),
    ], ids=["batch-bool", "batch-float", "batch-zero", "iterations-negative",
            "iterations-float", "rows-float", "rows-zero"])
    def test_counts_are_refused_by_name(self, args, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make_batch_schedule(*args, 0)

    def test_numpy_counts_are_their_ints(self):
        schedule = make_batch_schedule(np.int64(10), np.int32(3), np.int64(7), 2)
        assert [rows.tolist() for rows in schedule] == [
            rows.tolist() for rows in make_batch_schedule(10, 3, 7, 2)]

    @pytest.mark.parametrize("seed", [2.5, "3"])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(TypeError):
            iter_batches(10, 3, 0, seed)

    def test_each_epoch_is_a_permutation_and_the_leftover_is_dropped(self):
        # 10 rows in batches of 3: an epoch is three batches of nine distinct
        # rows, the tenth is dropped and the next batch starts a new epoch.
        for seed in range(20):
            schedule = make_batch_schedule(10, 3, 9, seed)
            for epoch in range(3):
                rows = np.concatenate(schedule[3 * epoch:3 * epoch + 3])
                assert len(set(rows.tolist())) == 9
                assert rows.min() >= 0 and rows.max() < 10
            # A batch size that divides the rows uses every row once per epoch.
            halves = make_batch_schedule(10, 5, 4, seed)
            for epoch in range(2):
                rows = np.concatenate(halves[2 * epoch:2 * epoch + 2])
                assert sorted(rows.tolist()) == list(range(10))


class TestMixAndMatch:
    def _artifacts(self, iterations, fe_policy="fresh"):
        rng = np.random.default_rng(25)
        labels = rng.integers(-3, 4, size=12).astype(float)
        shards = [ClientShard(rng.integers(-3, 4, size=(12, 2)).astype(float),
                              labels)]
        config = TrainingConfig(iterations=iterations, batch_size=3,
                                codec=exact_codec(MODEL_LINEAR), fe_policy=fe_policy)
        artifacts = []
        run_training(TrainingPlan(shards, config), artifacts_out=artifacts)
        return artifacts

    def test_two_iterations_both_cross_pairs_rejected(self):
        report = mix_and_match_probe(self._artifacts(2))
        assert report.cross_attempts == 2
        assert report.cross_successes == []
        assert report.controls_ok
        assert report.defended

    def test_five_iterations_all_twenty_rejected(self):
        report = mix_and_match_probe(self._artifacts(5))
        assert report.cross_attempts == 20
        assert report.cross_successes == []
        assert report.failure_kinds == {"InstanceMismatch": 20}
        assert report.defended

    def test_instance_reuse_lets_the_attack_through(self):
        report = mix_and_match_probe(self._artifacts(3, "reused"))
        assert len(report.cross_successes) == 6
        assert not report.defended

    def test_reused_instance_is_set_up_once_per_plan(self, monkeypatch):
        setups = []
        setup = fe.setup
        monkeypatch.setattr(fe, "setup",
                            lambda *args: setups.append(setup(*args)) or setups[-1])
        artifacts = self._artifacts(3, "reused")
        assert len(setups) == 1
        assert all(a.instance is setups[0][0] for a in artifacts)

    def test_tags_defend_even_with_reused_instance(self):
        report = mix_and_match_probe(self._artifacts(3, "tagged"))
        assert report.cross_successes == []
        assert report.failure_kinds == {"TagMismatch": 6}
        assert report.defended

    def test_needs_two_iterations(self):
        with pytest.raises(ValueError):
            mix_and_match_probe(self._artifacts(2)[:1])


class TestActorAndConfig:
    def test_actor_names(self):
        shards = [ClientShard(np.ones((2, 1)), np.ones(2)),
                  ClientShard(np.ones((2, 1))), ClientShard(np.ones((2, 1)))]
        bus = MessageBus()
        _step(np.zeros(3), shards, TrainingConfig(batch_size=2), bus=bus)
        names = {h.sender for h in bus} | {h.recipient for h in bus}
        assert names == {"ttp", "aggregator", "client0", "client1", "client2"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(iterations=-1)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(reg_lambda=-0.5)
        with pytest.raises(ValueError):
            TrainingConfig(model_kind="cubic")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainingConfig(seed=-1)
        with pytest.raises(ValueError, match="unknown fe_policy 'shared'"):
            TrainingConfig(fe_policy="shared")
        # nan fails every comparison, so it must be refused explicitly.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainingConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="reg_lambda must be finite"):
                TrainingConfig(reg_lambda=bad)

    @pytest.mark.parametrize("name, value", [("iterations", 2.5), ("batch_size", 2.0),
                                             ("seed", 1.5), ("iterations", True)])
    def test_integer_field_refuses_a_float_by_name(self, name, value):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value}$"):
            TrainingConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("learning_rate", "0.1"), ("reg_lambda", None),
                                             ("learning_rate", True), ("reg_lambda", False)])
    def test_real_field_refuses_a_non_number_by_name(self, name, value):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            TrainingConfig(**{name: value})

    @pytest.mark.parametrize("codec", [None, {"data_bits": 12, "weight_bits": 12}, 12])
    def test_codec_must_be_a_fixed_point_config(self, codec):
        message = f"codec must be a FixedPointConfig, got {codec!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            TrainingConfig(codec=codec)

    def test_model_state_validation(self):
        # The model settings live in TrainingConfig only; it refuses bad ones.
        with pytest.raises(ValueError, match="unknown model kind"):
            TrainingConfig(model_kind="cubic")
        with pytest.raises(ValueError, match="learning_rate"):
            TrainingConfig(learning_rate=-0.1)

    def test_user_built_state_is_checked_and_converted(self):
        with pytest.raises(ValueError, match="reg_lambda"):
            TrainingConfig(reg_lambda=-1.0)
        shards, _ = _hand_instance()
        config = TrainingConfig(learning_rate=0.5, codec=exact_codec(MODEL_LINEAR))
        listed = [2, 3]
        from_list = _step(listed, shards, config)
        assert listed == [2, 3]
        assert from_list.weights.dtype == np.float64
        array = np.array([2.0, 3.0])
        from_array = _step(array, shards, config)
        assert from_array.weights.tobytes() == from_list.weights.tobytes()

    def test_next_state_keeps_settings_and_is_frozen(self):
        shards, _ = _hand_instance()
        config = TrainingConfig(learning_rate=0.5, reg_lambda=1.0,
                                codec=exact_codec(MODEL_LINEAR))
        weights = np.array([2.0, 3.0])
        metrics = _step(weights, shards, config)
        assert metrics.weights is not weights
        assert metrics.weights.dtype == np.float64
        assert weights.tolist() == [2.0, 3.0]
        assert (config.learning_rate, config.reg_lambda,
                config.model_kind) == (0.5, 1.0, MODEL_LINEAR)
        with pytest.raises(AttributeError):
            config.learning_rate = 0.1

    def test_codec_and_grid_follow_the_model(self):
        assert exact_codec(MODEL_LINEAR) == FixedPointConfig(0, 0)
        assert exact_codec(MODEL_LOGISTIC_TAYLOR) == FixedPointConfig(1, 2)
        codec = FixedPointConfig(12, 12)
        assert weight_grid_bits(MODEL_LINEAR, codec) == 12
        assert weight_grid_bits(MODEL_LOGISTIC_TAYLOR, codec) == 10
        assert weight_grid_bits(MODEL_LOGISTIC_TAYLOR, FixedPointConfig(12, 1)) == 0
        with pytest.raises(ValueError, match="unknown model kind 'cubic'"):
            exact_codec("cubic")

    def test_message_header(self):
        # client0 holds the labels, so it gets its own key and the label slot's.
        shards, weights = _hand_instance()
        bus = MessageBus()
        _step(weights, shards, TrainingConfig(), bus=bus, iteration=3)
        assert bus[0] == Header("ttp", "client0", 3, "deliver_keys", 2)
        assert bus.header_log()[0] == {
            "from": "ttp", "to": "client0", "iteration": 3,
            "kind": "deliver_keys", "size": 2,
        }



class RunCase(NamedTuple):
    """One whole run of TestWholeRuns, fully determined by its fields.

    features holds each client's column count, and holder is the client
    with the labels. fe_policy is the policy run first; the other one
    runs next. weights are the initial weights, on the run's weight grid.
    magnitude is the bit length that bounds every quantized data value
    (None: real values in [-4, 4)); seed draws the data and the batches.
    """

    model_kind: str
    codec: str
    features: tuple
    holder: int
    batch_size: int
    iterations: int
    n_rows: int
    fe_policy: str
    weights: tuple
    magnitude: int | None
    seed: int


_RUN_CODECS = {f"{b}/{b}": FixedPointConfig(b, b) for b in (8, 12, 16, 24)}


def _run_codec(model_kind, codec):
    return exact_codec(model_kind) if codec == "exact" else _RUN_CODECS[codec]


@st.composite
def run_cases(draw):
    model_kind = draw(st.sampled_from([MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR]))
    codec = draw(st.sampled_from(["exact", *_RUN_CODECS]))
    features = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    holder = draw(st.integers(0, len(features) - 1))
    batch_size = draw(st.integers(1, 6))
    iterations = draw(st.integers(1, 6))
    n_rows = draw(st.integers(batch_size, 12))
    fe_policy = draw(st.sampled_from(["fresh", "tagged"]))
    grid = weight_grid_bits(model_kind, _run_codec(model_kind, codec))
    weights = tuple(math.ldexp(draw(st.integers(-4 << grid, 4 << grid)), -grid)
                    for _ in range(sum(features)))
    # 30 to 50 bits reach block_slices' limbs and its object path; 61 bits
    # put most runs past 2**126.
    magnitude = draw(st.sampled_from([None, 30, 40, 50, 61]))
    return RunCase(model_kind, codec, features, holder, batch_size, iterations, n_rows,
                   fe_policy, weights, magnitude, draw(st.integers(0, 1 << 16)))


# Runs that reach each path of block_slices, and one that fails its first
# iteration's overflow check; test_pinned_runs_reach_their_path keeps
# them there. Every profile runs them.
PINNED_RUNS = {
    "one-limb": RunCase(MODEL_LINEAR, "12/12", (2, 1), 0, 4, 3, 8, "fresh",
                        (0.5, -1.25, 2.0), None, 1),
    "limbs": RunCase(MODEL_LOGISTIC_TAYLOR, "16/16", (1, 2, 1), 1, 3, 4, 7, "tagged",
                     (1.0, -0.5, 0.25, 3.0), 30, 2),
    "object": RunCase(MODEL_LINEAR, "24/24", (3, 1), 1, 5, 2, 9, "fresh",
                      (-2.0, 1.5, 0.75, -3.0), 40, 3),
    "past-2**126": RunCase(MODEL_LINEAR, "12/12", (1, 2), 0, 2, 3, 6, "tagged",
                           (1.0, 2.0, -1.0), 61, 4),
}


def _whole_run(case):
    """(central X, y, shards, config) of a case: uniform data, labels on its holder."""
    codec = _run_codec(case.model_kind, case.codec)
    rng = np.random.default_rng(case.seed)
    top = 4.0 if case.magnitude is None else math.ldexp(1.0, case.magnitude - codec.data_bits)
    X = rng.uniform(-top, top, size=(case.n_rows, sum(case.features)))
    y = (rng.integers(0, 2, size=case.n_rows).astype(float)
         if case.model_kind == MODEL_LOGISTIC_TAYLOR else rng.uniform(-top, top, case.n_rows))
    if case.codec == "exact":
        X, y = np.round(X), np.round(y)
    edges = list(accumulate(case.features, initial=0))
    shards = [ClientShard(X[:, a:b], y if i == case.holder else None)
              for i, (a, b) in enumerate(zip(edges, edges[1:]))]
    # Stable for descent on rows up to `top`, so the weights stay small.
    config = TrainingConfig(model_kind=case.model_kind, iterations=case.iterations,
                            batch_size=case.batch_size,
                            learning_rate=1 / (2 * (X.shape[1] + 1) * max(1.0, top) ** 2),
                            reg_lambda=0.01, seed=case.seed, codec=codec,
                            fe_policy=case.fe_policy)
    return X, y, shards, config


def _checked_run(case, shards, config, mirror, batches, central):
    """One policy's run of a case, checked per iteration; its records and error.

    Every iteration's gradient and weights equal the mirror's bitwise, and
    the run stops with an OverflowError naming the iteration where the
    mirror stops. Before any probe decrypts, each fresh iteration's
    instance reads (N+1, F, F) on fe.audit_counters, and a tagged run's
    one instance reads T' times that after T' completed iterations; with
    T' >= 2 mix_and_match_probe is defended. Unless central is None,
    every iteration's weights equal its centralized descent's bitwise.
    When the case has no magnitude, every gap is within the step's
    certified bound: inner_product_error_bound over the step's budget,
    scaled as gradient_error_bound scales it.
    """
    plan = TrainingPlan(shards, config)
    history, artifacts = [], []
    try:
        run_training(plan, initial_weights=case.weights, on_iteration=history.append,
                     artifacts_out=artifacts)
        error = None
    except OverflowError as err:
        error = str(err)
    assert len(history) == len(artifacts) == len(mirror)
    for metrics, (gradient, new_weights) in zip(history, mirror):
        assert metrics.gradient.tobytes() == gradient.tobytes()
        assert metrics.weights.tobytes() == new_weights.tobytes()
    if len(mirror) < config.iterations:
        assert error is not None and error.startswith(f"iteration {len(mirror)}: ")
    else:
        assert error is None

    F = plan.X.shape[1]
    once = (len(plan.columns), F, F)
    expected = (tuple(n * len(history) for n in once) if config.fe_policy == "tagged"
                else once)
    assert [fe.audit_counters(a.instance) for a in artifacts] == [expected] * len(history)
    if len(history) >= 2:
        assert mix_and_match_probe(artifacts).defended

    if central is not None:
        assert ([m.weights.tobytes() for m in history]
                == [w.tobytes() for w in central.weight_history])
    if case.magnitude is None:
        w = np.array(case.weights, dtype=float)
        for metrics, rows in zip(history, batches):
            budget = plan.budget(rows, w * plan.weight_factor)
            bound = -plan.model.slice_scale * inner_product_error_bound(*budget) / len(rows)
            assert metrics.max_abs_grad_diff_vs_oracle <= bound
            w = metrics.weights
    return [json.dumps(iteration_record(m), sort_keys=True) for m in history], error


def _check_whole_run(case):
    """Both policies' runs of a case against the mirror and each other."""
    X, y, shards, config = _whole_run(case)
    batches = make_batch_schedule(case.n_rows, case.batch_size, case.iterations, case.seed)
    mirror = _quantized_mirror(X, y, case.model_kind, config.codec, batches,
                               config.learning_rate, config.reg_lambda, weights=case.weights)
    central = None
    if case.codec == "exact" and case.magnitude is None:
        central = centralized_training(X, y, case.weights, case.model_kind, batches,
                                       config.learning_rate, config.reg_lambda,
                                       weight_grid_bits(case.model_kind, config.codec))
    other = "tagged" if case.fe_policy == "fresh" else "fresh"
    runs = {policy: _checked_run(case, shards, dataclasses.replace(config, fe_policy=policy),
                                 mirror, batches, central)
            for policy in (case.fe_policy, other)}
    assert runs["tagged"] == runs["fresh"]
    return mirror


class TestWholeRuns:
    """Whole runs of drawn geometry, model, codec, policy and magnitude against the mirror.

    Every iteration's gradient and weights equal the quantized mirror's
    bitwise, a tagged run's records and error are the fresh run's, and a
    run stops with an OverflowError naming the iteration where the mirror
    finds its bound at 2**126 or more. Every run's audit counters and
    mix-and-match probe are checked too, and on real values in [-4, 4)
    the certified error bound, and centralized descent under the exact
    codec (_checked_run). Tier-1 runs the small "whole-run"
    profile of tests/conftest.py; a deeper run is

        python -m pytest tests/test_protocol.py::TestWholeRuns \\
            --hypothesis-profile whole-run-deep
    """

    @settings(settings.get_profile(
        "whole-run-deep" if settings.get_current_profile_name() == "whole-run-deep"
        else "whole-run"))
    @example(PINNED_RUNS["one-limb"])
    @example(PINNED_RUNS["limbs"])
    @example(PINNED_RUNS["object"])
    @example(PINNED_RUNS["past-2**126"])
    @given(run_cases())
    def test_every_iteration_equals_the_quantized_mirror(self, case):
        _check_whole_run(case)

    @pytest.mark.parametrize("path", sorted(PINNED_RUNS))
    def test_pinned_runs_reach_their_path(self, path, monkeypatch):
        plans, real = [], tensor.limb_plan

        def recorded(*args):
            plans.append(real(*args))
            return plans[-1]

        monkeypatch.setattr(tensor, "limb_plan", recorded)
        case = PINNED_RUNS[path]
        mirror = _check_whole_run(case)
        kinds = {"object" if plan is None else "one-limb" if plan[1] == 1 else "limbs"
                 for plan in plans}
        if path == "past-2**126":
            assert mirror == [] and plans == []
        else:
            assert len(mirror) == case.iterations and kinds == {path}
