"""The package's acceptance gate, one test per published criterion.

Every test states its tolerance inline and computes expected values
through an oracle that is independent of the code path under test.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from fedquad import fe
from fedquad.baseline import (
    MODEL_LINEAR,
    MODEL_LOGISTIC_TAYLOR,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    centralized_training,
    finite_difference_gradient,
    mse_loss,
    taylor_loss,
)
from fedquad.cli import main
from fedquad.data import partition_dataset, synthesize
from fedquad.fixedpoint import FixedPointConfig
from fedquad.funcvec import SparseFunctionVector, all_gradient_slice_vectors
from fedquad.protocol import (
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    make_batch_schedule,
    run_iteration,
    run_training,
    weight_grid_bits,
)
from fedquad.tensor import block_slices, dense_kron, kron_flat, sparse_inner_kron
from fedquad.verify import (
    concatenated_input,
    gradient_error_bound,
    mix_and_match_probe,
    random_exact_instance,
    random_unit_instance,
)


def _slice_instances(rng, count, nonzero_weights=False):
    """Criterion-1 grid: N in 1..3, S in 1..8, F_i in 1..4, ints in +-8/+-4."""
    for _ in range(count):
        shards, weights = random_exact_instance(rng)
        if nonzero_weights:
            weights[weights == 0] = 1.0
        vectors = all_gradient_slice_vectors([int(v) for v in weights], 1,
                                             shards[0].features.shape[0])
        yield shards, weights, vectors


def test_01_function_vector_identity():
    """function-vector identity across three oracles, 500 instances in <10s"""
    rng = random.Random(100)
    start = time.perf_counter()
    slices_checked = 0
    for shards, weights, vectors in _slice_instances(rng, 500):
        x = concatenated_input(shards, shards[0].labels)
        xx = dense_kron(x)
        X = np.hstack([sh.features for sh in shards])
        u = shards[0].labels - X @ weights
        direct = np.hstack([u @ sh.features for sh in shards])
        slices = block_slices(vectors[0].block, x)
        for k, c in enumerate(vectors):
            sparse = sparse_inner_kron(c, x, slices=slices)
            dense = sum(v * xx[flat] for flat, v in c.entries)
            assert sparse == dense == int(direct[k])
            slices_checked += 1
    elapsed = time.perf_counter() - start
    assert slices_checked >= 500
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s"


def _protocol_gradient(shards, weights, config):
    """The secure gradient of one step over all of the shards' rows."""
    plan = TrainingPlan(shards, config)
    return run_iteration(weights, plan, np.arange(plan.n_rows)).gradient


def _assert_gradient_equivalence(model_kind, rng):
    binary = model_kind == MODEL_LOGISTIC_TAYLOR

    # exact mode on the criterion-1 integer grid: bitwise equality
    config = TrainingConfig(model_kind=model_kind, codec=exact_codec(model_kind))
    for _ in range(500):
        shards, weights = random_exact_instance(rng, binary_labels=binary)
        gradient = _protocol_gradient(shards, weights, config)
        X = np.hstack([sh.features for sh in shards])
        y = shards[0].labels
        if model_kind == MODEL_LINEAR:
            oracle = centralized_gradient_linear(X, y, weights)
        else:
            oracle = centralized_gradient_logistic_taylor(X, y, weights)
        assert np.array_equal(gradient, oracle)

    # fixed-point mode (12, 12) on unit-scale data: within the stated
    # rounding bound, and that bound sits below 1e-2 on this grid
    codec = FixedPointConfig(data_bits=12, weight_bits=12)
    config_fp = TrainingConfig(model_kind=model_kind, codec=codec)
    for _ in range(200):
        shards, weights = random_unit_instance(rng, binary_labels=binary)
        gradient = _protocol_gradient(shards, weights, config_fp)
        X = np.hstack([sh.features for sh in shards])
        y = shards[0].labels
        if model_kind == MODEL_LINEAR:
            oracle = centralized_gradient_linear(X, y, weights)
        else:
            oracle = centralized_gradient_logistic_taylor(X, y, weights)
        gap = float(np.max(np.abs(gradient - oracle)))
        bound = gradient_error_bound(TrainingPlan(shards, config_fp), weights)
        assert gap <= bound
        assert bound <= 1e-2


def test_02_linear_gradient_equivalence():
    """linear protocol gradient equals the plaintext formula in both modes"""
    _assert_gradient_equivalence(MODEL_LINEAR, random.Random(201))


def test_03_logistic_taylor_gradient_equivalence():
    """logistic surrogate gradient equals formula and finite differences"""
    _assert_gradient_equivalence(MODEL_LOGISTIC_TAYLOR,
                                 random.Random(200))
    rng = random.Random(300)
    for _ in range(50):
        shards, weights = random_unit_instance(rng, binary_labels=True)
        X = np.hstack([sh.features for sh in shards])
        y = shards[0].labels
        exact = centralized_gradient_logistic_taylor(X, y, weights)
        approx = finite_difference_gradient(lambda w: taylor_loss(X, y, w),
                                            weights)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert float(np.max(np.abs(exact - approx))) / scale <= 1e-6


def test_04_encryption_and_decryption_counts():
    """one encryption per client (two with labels), F decryptions, 10 rounds"""
    data = synthesize(MODEL_LINEAR, 32, [2, 2, 2], seed=40)
    shards, _ = partition_dataset(data.header, data.rows, data.spec)
    config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=10,
                            batch_size=8, learning_rate=0.01, seed=41,
                            codec=exact_codec(MODEL_LINEAR))
    history, retained = [], []
    run_training(TrainingPlan(shards, config), on_iteration=history.append,
                 artifacts_out=retained)
    assert len(history) == len(retained) == 10
    for metrics, artifacts in zip(history, retained):
        assert metrics.encryptions_per_client == (2, 1, 1)
        assert metrics.decryptions == 6
        assert fe.audit_counters(artifacts.instance) == (4, 6, 6)


def test_05_mix_and_match_rejected(tmp_path):
    """all 20 cross-iteration decryptions rejected; reuse control fails"""
    data = synthesize(MODEL_LINEAR, 32, [2, 2, 2], seed=50)
    shards, _ = partition_dataset(data.header, data.rows, data.spec)
    config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=5,
                            batch_size=8, learning_rate=0.01, seed=51,
                            codec=exact_codec(MODEL_LINEAR))
    artifacts = []
    run_training(TrainingPlan(shards, config), artifacts_out=artifacts)
    report = mix_and_match_probe(artifacts)
    assert report.cross_attempts == 20
    assert report.cross_successes == []
    assert report.failure_kinds == {"InstanceMismatch": 20}
    assert report.controls_ok

    # negative control: deliberate instance reuse lets every attempt through
    reuse = TrainingConfig(model_kind=MODEL_LINEAR, iterations=5,
                           batch_size=8, learning_rate=0.01, seed=51,
                           codec=exact_codec(MODEL_LINEAR),
                           fe_policy="reused")
    reused = []
    run_training(TrainingPlan(shards, reuse), artifacts_out=reused)
    leaked = mix_and_match_probe(reused)
    assert len(leaked.cross_successes) == 20
    assert not leaked.defended

    report_path = tmp_path / "verify.txt"
    assert main(["verify", "--debug-reuse-instance",
                 "--out", str(report_path)]) == 1
    assert "FAIL mix_and_match" in report_path.read_text()


def test_06_tag_gating():
    """decryption succeeds exactly when both ciphertext tags match the key"""
    instance, eks = fe.setup([1, 1])
    tags = ("r0", "r1")
    cts = {(slot, tag): fe.encrypt(eks[slot], tag, [slot + 2])
           for slot in (0, 1) for tag in tags}
    c = SparseFunctionVector(dimension=4, entries=((kron_flat(0, 1, 2), 1),))
    keys = {tag: fe.keygen(instance, tag, c) for tag in tags}
    for tag0, tag1, key_tag in itertools.product(tags, repeat=3):
        group = [cts[(0, tag0)], cts[(1, tag1)]]
        if tag0 == tag1 == key_tag:
            assert fe.decrypt(group, keys[key_tag]) == 2 * 3
        else:
            with pytest.raises(fe.TagMismatch):
                fe.decrypt(group, keys[key_tag])


def test_07_sparsity_and_structure():
    """each slice vector has S(F+1) entries, all inside its diagonal block"""
    rng = random.Random(700)
    for shards, _, vectors in _slice_instances(rng, 500, nonzero_weights=True):
        S = shards[0].features.shape[0]
        counts = [sh.features.shape[1] for sh in shards]
        F = sum(counts)
        L = S * (F + 1)
        assert len(vectors) == F
        k = 0
        for i, f_count in enumerate(counts):
            # client i's block of x starts after every earlier client's S*F_j
            offset = S * sum(counts[:i])
            for p in range(f_count):
                # slice order: position k == sum of earlier clients' F_j + p
                assert k == offset // S + p
                c = vectors[k]
                assert c.nnz == S * (F + 1)
                block_start = offset + p * S
                for flat, _ in c.entries:
                    row, _ = divmod(flat, L)
                    assert block_start <= row < block_start + S
                k += 1


def test_08_end_to_end_training():
    """exact run tracks centralized descent bitwise; fixed-point MSE within 1%"""
    start = time.perf_counter()
    data = synthesize(MODEL_LINEAR, 64, [2, 2, 2], seed=11)
    shards, central = partition_dataset(data.header, data.rows, data.spec)
    T, S, lr = 200, 16, 0.02

    exact_config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=T,
                                  batch_size=S, learning_rate=lr, seed=3,
                                  codec=exact_codec(MODEL_LINEAR))
    exact_history = []
    run_training(TrainingPlan(shards, exact_config), on_iteration=exact_history.append)
    batches = make_batch_schedule(64, S, T, seed=3)
    mirror = centralized_training(
        central.X, central.y, np.zeros(6), MODEL_LINEAR, batches, lr,
        weight_grid_bits=weight_grid_bits(MODEL_LINEAR, exact_config.codec))
    assert len(exact_history) == T
    for secure, central_w in zip(exact_history, mirror.weight_history):
        assert np.array_equal(secure.weights, central_w)

    fp_config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=T,
                               batch_size=S, learning_rate=lr, seed=3,
                               codec=FixedPointConfig(12, 12))
    fp_weights = run_training(TrainingPlan(shards, fp_config))
    plain = centralized_training(central.X, central.y, np.zeros(6),
                                 MODEL_LINEAR, batches, lr)
    mse_secure = mse_loss(central.X, central.y, fp_weights)
    mse_plain = mse_loss(central.X, central.y, plain.weights)
    assert abs(mse_secure - mse_plain) <= 0.01 * mse_plain
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"


def test_09_deterministic_metrics_files(tmp_path):
    """same config and seed give byte-identical train metrics files"""
    paths = [tmp_path / "run_a.jsonl", tmp_path / "run_b.jsonl"]
    for path in paths:
        code = main(["train", "--synthetic", "--rows", "32", "--iters", "8",
                     "--batch-size", "8", "--model", "linear", "--seed",
                     "123", "--out", str(path)])
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert len(first.splitlines()) == 9


def test_10_ciphertext_sealing():
    """no payload value is visible on any ciphertext surface"""
    instance, eks = fe.setup([2, 1])
    payload = [987654321, 246813579]
    ct = fe.encrypt(eks[0], "tag-x", payload)
    surfaces = [repr(ct), str(ct), json.dumps(ct.header(), sort_keys=True)]
    for value in payload:
        for surface in surfaces:
            assert str(value) not in surface
    assert not hasattr(ct, "payload")
    assert not hasattr(ct, "__dict__")
    assert ct.slot == 0 and ct.tag == "tag-x"
