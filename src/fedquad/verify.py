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
from typing import Sequence

import numpy as np

from . import fe
from .baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR, finite_difference_gradient, model
from .data import partition_dataset, synthesize
from .draws import check_int, seeded, uniform_ints, uniform_unit
from .fixedpoint import FixedPointConfig, inner_product_error_bound
from .funcvec import all_gradient_slice_vectors
from .protocol import (
    ClientShard,
    IterationArtifacts,
    MessageBus,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    iteration_record,
    run_iteration,
    run_training,
)
from .tensor import dense_kron, int_list, sparse_inner_kron, vec_columns


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# Limits of the random instances: clients, batch rows and features per
# client are drawn from 1..max; exact instances' data and weights from
# [-range, range].
_MAX_CLIENTS, _MAX_BATCH, _MAX_FEATURES = 3, 8, 4
_DATA_RANGE, _WEIGHT_RANGE = 8, 4
# Instances per run of check_funcvec_identity, check_gradient_oracle (each
# exact and fixed-point) and check_gradient_finite_difference.
_IDENTITY_ROUNDS, _ORACLE_ROUNDS, _FD_ROUNDS = 60, 40, 20


def random_exact_instance(rng: random.Random, *, binary_labels: bool = False,
                          ) -> tuple[list[ClientShard], np.ndarray]:
    """A random integer-valued instance; labels live on client 0."""
    def ints(bound):
        return lambda size: uniform_ints(rng, -bound, bound, size)

    return _random_instance(rng, ints(_DATA_RANGE), ints(_WEIGHT_RANGE), binary_labels)


def random_unit_instance(rng: random.Random, *, binary_labels: bool = False,
                         ) -> tuple[list[ClientShard], np.ndarray]:
    """A random continuous instance with all values in [-1, 1)."""
    def unit(size):
        return uniform_unit(rng, size)

    return _random_instance(rng, unit, unit, binary_labels)


def _random_instance(rng, data, weight, binary_labels):
    """Shards and weights drawn by data(size) and weight(size); labels on client 0."""
    n_clients = int(uniform_ints(rng, 1, _MAX_CLIENTS))
    batch = int(uniform_ints(rng, 1, _MAX_BATCH))
    counts = [int(v) for v in uniform_ints(rng, 1, _MAX_FEATURES, n_clients)]
    if binary_labels:
        labels = uniform_ints(rng, 0, 1, batch)
    else:
        labels = data(batch)
    shards = [ClientShard(data((batch, f)), labels if i == 0 else None)
              for i, f in enumerate(counts)]
    return shards, weight(sum(counts))


def concatenated_input(shards, labels_effective) -> list[int]:
    """The integer vector x = [x_0 || ... || x_{N-1} || y] of an exact instance.

    A value that is not an integer raises ValueError naming its position
    in x (tensor.int_list); none is truncated.
    """
    table = np.column_stack([*(sh.features for sh in shards), labels_effective])
    return int_list(vec_columns(table))


def gradient_error_bound(plan: TrainingPlan, weights) -> float:
    """Worst-case protocol-vs-oracle gradient gap of a step on all of the plan's rows.

    The model and codec are the plan's; the budget comes from
    TrainingPlan.budget, the one run_iteration's overflow check uses.
    """
    b = plan.budget(np.arange(plan.n_rows), np.asarray(weights) * plan.weight_factor)
    return -plan.model.slice_scale * inner_product_error_bound(*b) / b[0]


def check_funcvec_identity(seed: int = 0) -> CheckResult:
    """Sparse, dense, and matrix oracles agree on every gradient slice."""
    rng = seeded(seed)
    checked = 0
    for _ in range(_IDENTITY_ROUNDS):
        shards, weights = random_exact_instance(rng)
        labels = shards[0].labels
        vectors = all_gradient_slice_vectors(weights, 1, shards[0].features.shape[0])
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


def check_gradient_oracle(model_kind: str, seed: int = 1) -> CheckResult:
    """Protocol gradients hit the plaintext formula in both codec modes.

    Each instance's gap is the one its secure step on all rows reports
    (max_abs_grad_diff_vs_oracle): 0 under the exact codec, within
    gradient_error_bound under the default one.
    """
    name = f"gradient_oracle_{model_kind}"
    rng = seeded(seed)
    binary = model_kind == MODEL_LOGISTIC_TAYLOR
    codec = FixedPointConfig()
    for _ in range(_ORACLE_ROUNDS):
        shards, weights = random_exact_instance(rng, binary_labels=binary)
        plan = TrainingPlan(shards, TrainingConfig(model_kind=model_kind,
                                                   codec=exact_codec(model_kind)))
        gap = run_iteration(weights, plan, np.arange(plan.n_rows)).max_abs_grad_diff_vs_oracle
        if gap != 0:
            return CheckResult(name, False, f"exact-mode gap {gap}, expected 0")

        shards, weights = random_unit_instance(rng, binary_labels=binary)
        plan = TrainingPlan(shards, TrainingConfig(model_kind=model_kind, codec=codec))
        gap = run_iteration(weights, plan, np.arange(plan.n_rows)).max_abs_grad_diff_vs_oracle
        bound = gradient_error_bound(plan, weights)
        if gap > bound:
            return CheckResult(name, False,
                               f"fixed-point gap {gap} exceeds bound {bound}")
    return CheckResult(name, True, f"{_ORACLE_ROUNDS} exact and {_ORACLE_ROUNDS} "
                                   f"fixed-point instances")


def check_gradient_finite_difference(seed: int = 2) -> CheckResult:
    """Closed-form gradients match central differences of their losses."""
    rng = seeded(seed)
    worst = 0.0
    for _ in range(_FD_ROUNDS):
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
                       f"worst relative gap {worst:.2e} over {_FD_ROUNDS} instances")


def _synthetic_run(seed: int, iterations: int, codec: FixedPointConfig,
                   fe_policy: str = "fresh", **sinks) -> list[ClientShard]:
    """Train on the 24-row linear dataset of a seed; return its shards.

    Three clients of two features, batches of 4 drawn by seed, learning
    rate 0.01; sinks are run_training's keywords.
    """
    dataset = synthesize(MODEL_LINEAR, 24, [2, 2, 2], seed)
    shards, _ = partition_dataset(dataset.header, dataset.rows, dataset.spec)
    config = TrainingConfig(model_kind=MODEL_LINEAR, iterations=iterations, batch_size=4,
                            learning_rate=0.01, seed=seed, codec=codec, fe_policy=fe_policy)
    run_training(TrainingPlan(shards, config), **sinks)
    return shards


def check_counts(seed: int = 3) -> CheckResult:
    """Per-iteration encryption and decryption counts match the cost model."""
    history, artifacts = [], []
    shards = _synthetic_run(seed, 3, exact_codec(MODEL_LINEAR),
                            on_iteration=history.append, artifacts_out=artifacts)
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


@dataclass
class ProbeReport:
    """Outcome of replaying keys against ciphertexts across iterations."""

    cross_attempts: int
    cross_successes: list[tuple[int, int]]
    failure_kinds: dict[str, int]
    controls_ok: bool

    @property
    def defended(self) -> bool:
        return self.cross_attempts > 0 and not self.cross_successes and self.controls_ok


def mix_and_match_probe(artifacts: Sequence[IterationArtifacts]) -> ProbeReport:
    """Try every cross-iteration (ciphertext set, key) pair; none may decrypt.

    Uses the first secret key of each iteration. Same-iteration pairs are
    the controls and must succeed. A successful cross decryption is the
    mix-and-match attack going through, which fresh per-iteration
    instances, or iteration tags on one instance, are there to stop.
    """
    if len(artifacts) < 2:
        raise ValueError(f"need at least 2 iterations to probe, got {len(artifacts)}")
    attempts = 0
    successes: list[tuple[int, int]] = []
    failure_kinds: dict[str, int] = {}
    controls_ok = True
    for a in artifacts:
        for b in artifacts:
            if a.iteration == b.iteration:
                continue
            attempts += 1
            try:
                fe.decrypt(a.ciphertexts, b.secret_keys[0])
            except fe.FEError as err:
                kind = type(err).__name__
                failure_kinds[kind] = failure_kinds.get(kind, 0) + 1
            else:
                successes.append((a.iteration, b.iteration))
    for a in artifacts:
        try:
            fe.decrypt(a.ciphertexts, a.secret_keys[0])
        except fe.FEError:
            controls_ok = False
    return ProbeReport(
        cross_attempts=attempts,
        cross_successes=successes,
        failure_kinds=failure_kinds,
        controls_ok=controls_ok,
    )


def check_mix_and_match(seed: int = 4, *, fe_policy: str = "fresh") -> CheckResult:
    """Cross-iteration decryptions must all be rejected (controls must pass)."""
    artifacts = []
    _synthetic_run(seed, 5, exact_codec(MODEL_LINEAR), fe_policy, artifacts_out=artifacts)
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

    instance, eks = fe.setup([1, 1])
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
    instance, eks = fe.setup([2, 1])
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
        history, bus = [], MessageBus()
        _synthetic_run(seed, 3, FixedPointConfig(), on_iteration=history.append, bus=bus)
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
    check_int("seed", seed)
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
