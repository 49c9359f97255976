"""Named self-checks: oracle agreement, counters, attack probes, sealing.

Each check returns a CheckResult instead of raising, so a driver can run
the whole battery and report every outcome. The checks are the library's
own acceptance story in miniature; the test suite runs the same
properties at larger instance counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from . import fe
from .baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR, finite_difference_gradient, model
from .data import partition_dataset, synthesize
from .draws import seeded, uniform_ints, uniform_unit
from .fixedpoint import FixedPointConfig, inner_product_error_bound
from .funcvec import all_gradient_slice_vectors
from .protocol import (
    ClientShard,
    MessageBus,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    iteration_record,
    mix_and_match_probe,
    run_iteration,
    run_training,
)
from .tensor import dense_kron, sparse_inner_kron, vec_columns


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_exact_instance(rng: random.Random, *, max_clients: int = 3,
                          max_batch: int = 8, max_features: int = 4,
                          data_range: int = 8, weight_range: int = 4,
                          binary_labels: bool = False,
                          ) -> tuple[list[ClientShard], np.ndarray]:
    """A random integer-valued instance; labels live on client 0."""
    def ints(bound):
        return lambda size: uniform_ints(rng, -bound, bound, size)

    return _random_instance(rng, ints(data_range), ints(weight_range), max_clients,
                            max_batch, max_features, binary_labels)


def random_unit_instance(rng: random.Random, *, max_clients: int = 3,
                         max_batch: int = 8, max_features: int = 4,
                         binary_labels: bool = False,
                         ) -> tuple[list[ClientShard], np.ndarray]:
    """A random continuous instance with all values in [-1, 1)."""
    def unit(size):
        return uniform_unit(rng, size)

    return _random_instance(rng, unit, unit, max_clients, max_batch, max_features,
                            binary_labels)


def _random_instance(rng, data, weight, max_clients, max_batch, max_features,
                     binary_labels):
    """Shards and weights drawn by data(size) and weight(size); labels on client 0."""
    n_clients = int(uniform_ints(rng, 1, max_clients))
    batch = int(uniform_ints(rng, 1, max_batch))
    counts = [int(v) for v in uniform_ints(rng, 1, max_features, n_clients)]
    if binary_labels:
        labels = uniform_ints(rng, 0, 1, batch)
    else:
        labels = data(batch)
    shards = [ClientShard(data((batch, f)), labels if i == 0 else None)
              for i, f in enumerate(counts)]
    return shards, weight(sum(counts))


def concatenated_input(shards, labels_effective) -> list[int]:
    """The integer vector x = [x_0 || ... || x_{N-1} || y] of an exact instance."""
    parts: list[int] = []
    for sh in shards:
        parts.extend(int(v) for v in vec_columns(sh.features))
    parts.extend(int(v) for v in labels_effective)
    return parts


def gradient_error_bound(shards, weights, model_kind: str,
                         codec: FixedPointConfig) -> float:
    """Worst-case protocol-vs-oracle gradient gap for one instance."""
    m = model(model_kind)
    labels = next(sh.labels for sh in shards if sh.labels is not None)
    w_eff = np.ldexp(np.asarray(weights, dtype=float), -m.weight_shift)
    y_eff = labels - m.label_shift
    S = shards[0].features.shape[0]
    F = sum(sh.features.shape[1] for sh in shards)
    max_abs_x = max(max(float(np.max(np.abs(sh.features))) for sh in shards),
                    float(np.max(np.abs(y_eff))))
    max_abs_w = max(1.0, float(np.max(np.abs(w_eff))))
    per_slice = inner_product_error_bound(S, F, codec.data_bits, codec.weight_bits,
                                          max_abs_x, max_abs_w)
    return -m.slice_scale * per_slice / S


def check_funcvec_identity(seed: int = 0, rounds: int = 60) -> CheckResult:
    """Sparse, dense, and matrix oracles agree on every gradient slice."""
    rng = seeded(seed)
    checked = 0
    for _ in range(rounds):
        shards, weights = random_exact_instance(rng)
        labels = shards[0].labels
        vectors = all_gradient_slice_vectors([int(v) for v in weights], 1,
                                             shards[0].features.shape[0])
        x = concatenated_input(shards, labels)
        u = labels - np.hstack([sh.features for sh in shards]) @ weights
        direct = np.hstack([u @ sh.features for sh in shards])
        kron = dense_kron(x)
        for k, c in enumerate(vectors):
            sparse = sparse_inner_kron(c, x)
            dense = sum(a * b for a, b in zip(c.to_dense(), kron))
            if not (sparse == dense == int(round(direct[k]))):
                return CheckResult(
                    "funcvec_identity", False,
                    f"slice {k}: sparse={sparse} dense={dense} direct={direct[k]}",
                )
            checked += 1
    return CheckResult("funcvec_identity", True,
                       f"{checked} slices agree across three oracles")


def check_gradient_oracle(model_kind: str, seed: int = 1,
                          rounds: int = 40) -> CheckResult:
    """Protocol gradients hit the plaintext formula in both codec modes."""
    name = f"gradient_oracle_{model_kind}"
    oracle_gradient = model(model_kind).gradient
    rng = seeded(seed)
    binary = model_kind == MODEL_LOGISTIC_TAYLOR
    for _ in range(rounds):
        shards, weights = random_exact_instance(rng, binary_labels=binary)
        config = TrainingConfig(model_kind=model_kind, codec=exact_codec(model_kind))
        plan = TrainingPlan(shards, config)
        gradient = run_iteration(weights, plan, np.arange(plan.n_rows)).gradient
        oracle = oracle_gradient(plan.X, plan.y, weights, 0.0)
        if not np.array_equal(gradient, oracle):
            return CheckResult(name, False,
                               f"exact-mode mismatch {gradient} vs {oracle}")

        shards_u, weights_u = random_unit_instance(rng, binary_labels=binary)
        codec = FixedPointConfig()
        config_u = TrainingConfig(model_kind=model_kind, codec=codec)
        plan_u = TrainingPlan(shards_u, config_u)
        gradient_u = run_iteration(weights_u, plan_u, np.arange(plan_u.n_rows)).gradient
        oracle_u = oracle_gradient(plan_u.X, plan_u.y, weights_u, 0.0)
        gap = float(np.max(np.abs(gradient_u - oracle_u)))
        bound = gradient_error_bound(shards_u, weights_u, model_kind, codec)
        if gap > bound:
            return CheckResult(name, False,
                               f"fixed-point gap {gap} exceeds bound {bound}")
    return CheckResult(name, True, f"{rounds} exact and {rounds} fixed-point instances")


def check_gradient_finite_difference(seed: int = 2, rounds: int = 20) -> CheckResult:
    """Closed-form gradients match central differences of their losses."""
    rng = seeded(seed)
    worst = 0.0
    for _ in range(rounds):
        shards, weights = random_unit_instance(rng)
        X = np.hstack([sh.features for sh in shards])
        y = shards[0].labels
        for m in (model(MODEL_LINEAR), model(MODEL_LOGISTIC_TAYLOR)):
            exact_grad = m.gradient(X, y, weights, 0.0)
            fd_grad = finite_difference_gradient(lambda w: m.loss(X, y, w), weights)
            scale = max(1.0, float(np.max(np.abs(exact_grad))))
            gap = float(np.max(np.abs(exact_grad - fd_grad))) / scale
            worst = max(worst, gap)
            if gap > 1e-6:
                return CheckResult("gradient_finite_difference", False,
                                   f"relative gap {gap} exceeds 1e-6")
    return CheckResult("gradient_finite_difference", True,
                       f"worst relative gap {worst:.2e} over {rounds} instances")


def _synthetic_shards(model_kind: str, seed: int, n_rows: int = 24,
                      features_per_client=(2, 2, 2)):
    dataset = synthesize(model_kind, n_rows, list(features_per_client), seed)
    return partition_dataset(dataset.header, dataset.rows, dataset.spec)


def check_counts(seed: int = 3) -> CheckResult:
    """Per-iteration encryption and decryption counts match the cost model."""
    shards, _ = _synthetic_shards(MODEL_LINEAR, seed)
    config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=3, batch_size=4,
                            learning_rate=0.01, seed=seed,
                            codec=exact_codec(MODEL_LINEAR))
    history, artifacts = [], []
    run_training(shards, config, on_iteration=history.append, artifacts_out=artifacts)
    F = sum(sh.features.shape[1] for sh in shards)
    for metrics, art in zip(history, artifacts):
        expected = tuple(2 if sh.labels is not None else 1 for sh in shards)
        if metrics.encryptions_per_client != expected:
            return CheckResult("counts", False,
                               f"encryptions {metrics.encryptions_per_client}, "
                               f"expected {expected}")
        if metrics.decryptions != F:
            return CheckResult("counts", False,
                               f"decryptions {metrics.decryptions}, expected {F}")
        audited = fe.audit_counters(art.instance)
        if audited != (len(shards) + 1, F, F):
            return CheckResult("counts", False,
                               f"instance counters {audited}, expected "
                               f"{(len(shards) + 1, F, F)}")
    return CheckResult("counts", True,
                       f"3 iterations at 1/2 encryptions per client, {F} decryptions")


def check_mix_and_match(seed: int = 4, *, fe_policy: str = "fresh") -> CheckResult:
    """Cross-iteration decryptions must all be rejected (controls must pass)."""
    shards, _ = _synthetic_shards(MODEL_LINEAR, seed)
    config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=5, batch_size=4,
                            learning_rate=0.01, seed=seed,
                            codec=exact_codec(MODEL_LINEAR), fe_policy=fe_policy)
    artifacts = []
    run_training(shards, config, artifacts_out=artifacts)
    report = mix_and_match_probe(artifacts)
    detail = (f"{report.cross_attempts} cross attempts, "
              f"{len(report.cross_successes)} decrypted, "
              f"failure kinds {report.failure_kinds}, "
              f"controls_ok={report.controls_ok}")
    return CheckResult("mix_and_match", report.defended, detail)


def check_tag_gating() -> CheckResult:
    """Decryption succeeds exactly when both ciphertext tags equal the key tag."""
    from .funcvec import SparseFunctionVector
    from .tensor import kron_flat

    instance, eks = fe.setup(2, [1, 1])
    cts = {
        (slot, tag): fe.encrypt(eks[slot], tag, [slot + 2])
        for slot in (0, 1) for tag in ("a", "b")
    }
    c = SparseFunctionVector(dimension=4, entries=((kron_flat(0, 1, 2), 1),))
    keys = {tag: fe.keygen(instance, tag, c) for tag in ("a", "b")}
    for tag0 in ("a", "b"):
        for tag1 in ("a", "b"):
            for key_tag in ("a", "b"):
                group = [cts[(0, tag0)], cts[(1, tag1)]]
                should_pass = tag0 == tag1 == key_tag
                try:
                    value = fe.decrypt(group, keys[key_tag])
                except fe.TagMismatch:
                    if should_pass:
                        return CheckResult("tag_gating", False,
                                           f"rejected matching tags {key_tag!r}")
                else:
                    if not should_pass:
                        return CheckResult(
                            "tag_gating", False,
                            f"accepted tags ({tag0!r}, {tag1!r}) under key {key_tag!r}")
                    if value != 6:
                        return CheckResult("tag_gating", False,
                                           f"wrong value {value}, expected 6")
    return CheckResult("tag_gating", True, "all 8 tag combinations gated correctly")


def check_ciphertext_sealing() -> CheckResult:
    """No payload value appears in any public or serialized ciphertext form."""
    instance, eks = fe.setup(2, [2, 1])
    sentinel = [987654321, 246813579]
    ct = fe.encrypt(eks[0], None, sentinel)
    surfaces = [repr(ct), str(ct), json.dumps(ct.header(), sort_keys=True)]
    for value in sentinel:
        for surface in surfaces:
            if str(value) in surface:
                return CheckResult("ciphertext_sealing", False,
                                   f"payload value {value} leaked into {surface!r}")
    if hasattr(ct, "payload") or hasattr(ct, "__dict__"):
        return CheckResult("ciphertext_sealing", False,
                           "ciphertext exposes a payload attribute surface")
    return CheckResult("ciphertext_sealing", True,
                       "repr, str, and header are payload-free")


def check_determinism(seed: int = 5) -> CheckResult:
    """Identical config and seed give identical metrics and message logs."""
    outputs = []
    for _ in range(2):
        shards, _ = _synthetic_shards(MODEL_LINEAR, seed)
        config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=3, batch_size=4,
                                learning_rate=0.01, seed=seed,
                                codec=FixedPointConfig())
        history, bus = [], MessageBus()
        run_training(shards, config, on_iteration=history.append, bus=bus)
        records = "\n".join(json.dumps(iteration_record(m), sort_keys=True)
                            for m in history)
        outputs.append((records, bus.export_jsonl()))
    if outputs[0] != outputs[1]:
        return CheckResult("determinism", False,
                           "two identical runs produced different records")
    return CheckResult("determinism", True,
                       "metrics and message logs identical across two runs")


def run_all_checks(*, seed: int = 0, fe_policy: str = "fresh") -> list[CheckResult]:
    """The full battery; fe_policy "reused" is the deliberate negative control."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [
        check_funcvec_identity(seed),
        check_gradient_oracle(MODEL_LINEAR, seed + 1),
        check_gradient_oracle(MODEL_LOGISTIC_TAYLOR, seed + 2),
        check_gradient_finite_difference(seed + 3),
        check_counts(seed + 4),
        check_mix_and_match(seed + 5, fe_policy=fe_policy),
        check_tag_gating(),
        check_ciphertext_sealing(),
        check_determinism(seed + 6),
    ]
