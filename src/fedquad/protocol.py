"""Secure vertical-federated training over the ideal FE layer.

Three kinds of actors run a fixed single-threaded schedule each iteration:
the trusted third party sets up a fresh FE instance and hands out keys,
every client encrypts its quantized feature block (the label holder also
encrypts the label block), and the aggregator builds the coefficient
vectors from its weights, obtains secret keys, and decrypts one gradient
slice per feature. Clients never receive anything from the aggregator;
the message bus records headers only, so the log can be audited without
seeing data.

Weights live on the fixed-point weight grid: after every update they are
projected back, which makes the quantization step of the next iteration
lossless and lets exact-mode runs match a plaintext mirror bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import json

import numpy as np

from . import fe
from .baseline import (
    MODEL_KINDS,
    MODEL_LINEAR,
    MODEL_LOGISTIC_TAYLOR,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    mse_loss,
    taylor_loss,
)
from .fixedpoint import (
    FixedPointConfig,
    ScaledResult,
    dequantize,
    overflow_bound,
    quantize,
    quantize_vector,
    snap_to_grid,
)
from .funcvec import SliceVector, all_gradient_slice_vectors, build_layout, logistic_adjust
from .tensor import vec_columns

OVERFLOW_LIMIT_BITS = 126


@dataclass(frozen=True)
class ActorId:
    """One of the three entity kinds; clients carry their index."""

    kind: str
    client_index: int | None = None

    @classmethod
    def ttp(cls) -> "ActorId":
        return cls("ttp")

    @classmethod
    def aggregator(cls) -> "ActorId":
        return cls("aggregator")

    @classmethod
    def client(cls, index: int) -> "ActorId":
        return cls("client", index)

    def __str__(self) -> str:
        if self.kind == "client":
            return f"client{self.client_index}"
        return self.kind


@dataclass(frozen=True)
class DeliverKeys:
    keys: tuple[fe.EncryptionKey, ...]


@dataclass(frozen=True)
class ClientCiphertexts:
    ciphertexts: tuple[fe.Ciphertext, ...]


@dataclass(frozen=True)
class FuncVecRequest:
    funcvecs: tuple[SliceVector, ...]


@dataclass(frozen=True)
class SecretKeys:
    keys: tuple[fe.SecretKey, ...]


_BODY_KINDS = {
    DeliverKeys: "deliver_keys",
    ClientCiphertexts: "client_ciphertexts",
    FuncVecRequest: "funcvec_request",
    SecretKeys: "secret_keys",
}


@dataclass(frozen=True)
class Message:
    sender: ActorId
    recipient: ActorId
    iteration: int
    body: object

    def header(self) -> dict:
        """Transport metadata only; payload contents never appear here."""
        (items,) = vars(self.body).values()
        return {
            "from": str(self.sender),
            "to": str(self.recipient),
            "iteration": self.iteration,
            "kind": _BODY_KINDS[type(self.body)],
            "size": len(items),
        }


class MessageBus:
    """Ordered header record of every message of a run.

    Only the header is kept, so the log holds no FE object and its size
    does not depend on S or F.
    """

    def __init__(self) -> None:
        self.messages: list[dict] = []

    def send(self, message: Message) -> None:
        self.messages.append(message.header())

    def header_log(self) -> list[dict]:
        return list(self.messages)

    def export_jsonl(self) -> str:
        """One JSON object per line, headers only."""
        return "\n".join(json.dumps(h, sort_keys=True) for h in self.header_log())


@dataclass
class ClientShard:
    """One client's rows-by-features block; the label holder also has y."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError(
                    f"labels have shape {self.labels.shape}, expected "
                    f"({self.features.shape[0]},)"
                )

    def batch(self, rows: np.ndarray) -> "ClientShard":
        labels = self.labels[rows] if self.labels is not None else None
        return ClientShard(self.features[rows], labels)


@dataclass(frozen=True, eq=False)
class ModelState:
    """Aggregator-held weights and optimizer settings."""

    weights: np.ndarray
    learning_rate: float
    reg_lambda: float
    model_kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")


@dataclass(frozen=True)
class TrainingConfig:
    """Run parameters shared by the protocol and its plaintext mirrors."""

    model_kind: str = MODEL_LINEAR
    iterations: int = 1
    batch_size: int = 1
    learning_rate: float = 0.1
    reg_lambda: float = 0.0
    seed: int = 0
    codec: FixedPointConfig = field(default_factory=FixedPointConfig)
    tagged: bool = False
    reuse_fe_instance: bool = False
    retain_artifacts: bool = False

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")


def exact_codec(model_kind: str) -> FixedPointConfig:
    """Smallest codec under which quantization is lossless on integer data.

    Linear needs no fractional bits. The logistic path feeds y - 1/2 and
    w/4 through the same pipeline, so labels need one data bit and weights
    two; with those, integer-grid weights and 0/1 labels survive exactly.
    """
    if model_kind == MODEL_LINEAR:
        return FixedPointConfig(data_bits=0, weight_bits=0)
    if model_kind == MODEL_LOGISTIC_TAYLOR:
        return FixedPointConfig(data_bits=1, weight_bits=2)
    raise ValueError(f"unknown model kind {model_kind!r}")


def weight_grid_bits(model_kind: str, codec: FixedPointConfig) -> int:
    """Fractional bits of the grid that keeps weight quantization lossless.

    The logistic path quantizes w/4 at weight_bits, so stored weights get
    two fewer bits; then w/4 lands exactly on the weight_bits grid.
    """
    if model_kind == MODEL_LOGISTIC_TAYLOR:
        return max(codec.weight_bits - 2, 0)
    return codec.weight_bits


@dataclass
class IterationArtifacts:
    """FE objects retained for post-hoc attack probing."""

    iteration: int
    instance: fe.FEInstance
    encryption_keys: tuple[fe.EncryptionKey, ...]
    ciphertexts: tuple[fe.Ciphertext, ...]
    secret_keys: tuple[fe.SecretKey, ...]
    tag: object


@dataclass
class IterationMetrics:
    """Per-iteration counters and diagnostics.

    loss and max_abs_grad_diff_vs_oracle are simulator-side diagnostics
    computed from the plaintext view; no protocol party could compute
    them from what it sees.
    """

    iteration: int
    encryptions_per_client: tuple[int, ...]
    decryptions: int
    gradient: np.ndarray
    loss: float
    max_abs_grad_diff_vs_oracle: float


def iteration_record(metrics: IterationMetrics) -> dict:
    """Plain-dict view of one iteration's metrics, ready for JSON lines."""
    return {
        "iteration": metrics.iteration,
        "loss": metrics.loss,
        "grad_norm": float(np.linalg.norm(metrics.gradient)),
        "max_abs_grad_diff_vs_oracle": metrics.max_abs_grad_diff_vs_oracle,
        "encryptions_per_client": list(metrics.encryptions_per_client),
        "decryptions": metrics.decryptions,
    }


def _label_client(shards: Sequence[ClientShard]) -> int:
    holders = [i for i, sh in enumerate(shards) if sh.labels is not None]
    if len(holders) != 1:
        raise ValueError(f"exactly one shard must hold labels, got {len(holders)}")
    return holders[0]


def run_iteration(state: ModelState, shards: Sequence[ClientShard],
                  config: TrainingConfig, *, iteration: int = 0,
                  bus: MessageBus | None = None,
                  fe_setup: tuple[fe.FEInstance, list[fe.EncryptionKey]] | None = None,
                  artifacts_out: list[IterationArtifacts] | None = None,
                  ) -> tuple[np.ndarray, ModelState, IterationMetrics]:
    """One secure gradient step: setup, encrypt, keygen, decrypt, update.

    fe_setup reuses an existing instance instead of a fresh one; that is
    a debug hook for demonstrating the mix-and-match attack and must not
    be used otherwise.
    """
    if bus is None:
        bus = MessageBus()
    n_clients = len(shards)
    label_index = _label_client(shards)
    S = shards[0].features.shape[0]
    for i, sh in enumerate(shards):
        if sh.features.shape[0] != S:
            raise ValueError(
                f"client {i} has {sh.features.shape[0]} rows, expected {S}"
            )
    features_per_client = [sh.features.shape[1] for sh in shards]
    layout = build_layout(n_clients, S, features_per_client)
    F = layout.feature_total
    if state.weights.shape != (F,):
        raise ValueError(f"weights have shape {state.weights.shape}, expected ({F},)")

    labels = shards[label_index].labels
    if state.model_kind == MODEL_LOGISTIC_TAYLOR:
        w_eff, y_eff = logistic_adjust(state.weights, labels)
    else:
        w_eff, y_eff = state.weights, labels

    codec = config.codec
    max_abs_x = max(max(float(np.max(np.abs(sh.features))) for sh in shards),
                    float(np.max(np.abs(y_eff))))
    max_abs_w = max(1.0, float(np.max(np.abs(w_eff))))
    bound = overflow_bound(S, F, codec.data_bits, codec.weight_bits,
                           max_abs_x, max_abs_w)
    if bound >= 1 << OVERFLOW_LIMIT_BITS:
        raise OverflowError(
            f"worst-case accumulation {bound} exceeds 2**{OVERFLOW_LIMIT_BITS}; "
            f"reduce batch size, magnitudes, or fractional bits"
        )

    tag = iteration if config.tagged else None
    ttp = ActorId.ttp()
    aggregator = ActorId.aggregator()

    # TTP: fresh instance with one slot per client plus the label slot.
    if fe_setup is None:
        slot_lengths = [S * f for f in features_per_client] + [S]
        instance, eks = fe.setup(n_clients + 1, slot_lengths)
    else:
        instance, eks = fe_setup
    for i in range(n_clients):
        keys = (eks[i], eks[n_clients]) if i == label_index else (eks[i],)
        bus.send(Message(ttp, ActorId.client(i), iteration, DeliverKeys(keys)))

    # Clients: quantize and encrypt; the label holder fills the label slot too.
    all_cts: list[fe.Ciphertext] = []
    encryptions_per_client = []
    for i, sh in enumerate(shards):
        x_q = quantize_vector(vec_columns(sh.features), codec.data_bits)
        cts = [fe.encrypt(eks[i], tag, x_q)]
        if i == label_index:
            y_q = quantize_vector(y_eff, codec.data_bits)
            cts.append(fe.encrypt(eks[n_clients], tag, y_q))
        bus.send(Message(ActorId.client(i), aggregator, iteration,
                         ClientCiphertexts(tuple(cts))))
        all_cts.extend(cts)
        encryptions_per_client.append(len(cts))

    # Aggregator: coefficient vectors from its (effective) weights.
    segments = []
    start = 0
    for f in features_per_client:
        segments.append([quantize(v, codec.weight_bits) for v in w_eff[start:start + f]])
        start += f
    funcvecs = all_gradient_slice_vectors(segments, codec.one_weight, layout)
    bus.send(Message(aggregator, ttp, iteration, FuncVecRequest(tuple(funcvecs))))
    secret_keys = [fe.keygen(instance, tag, c) for c in funcvecs]
    bus.send(Message(ttp, aggregator, iteration, SecretKeys(tuple(secret_keys))))

    # Aggregator: one decryption per gradient slice, in (client, feature) order.
    residual_products = [
        dequantize(ScaledResult(fe.decrypt(all_cts, sk), codec.scale_exp))
        for sk in secret_keys
    ]
    res = np.array(residual_products, dtype=float)
    lam = state.reg_lambda
    w = state.weights
    if state.model_kind == MODEL_LINEAR:
        gradient = (-2.0 * res) / S + lam * w
    else:
        gradient = (-1.0 * res) / S + lam * w

    new_w = snap_to_grid(w - state.learning_rate * gradient,
                         weight_grid_bits(state.model_kind, codec))
    new_state = replace(state, weights=new_w)

    # Plaintext oracle view for diagnostics, at the weights just used.
    X_central = np.hstack([sh.features for sh in shards])
    if state.model_kind == MODEL_LINEAR:
        oracle = centralized_gradient_linear(X_central, labels, w, lam)
        loss = mse_loss(X_central, labels, w)
    else:
        oracle = centralized_gradient_logistic_taylor(X_central, labels, w, lam)
        loss = taylor_loss(X_central, labels, w)
    diff = float(np.max(np.abs(gradient - oracle)))

    metrics = IterationMetrics(
        iteration=iteration,
        encryptions_per_client=tuple(encryptions_per_client),
        decryptions=len(residual_products),
        gradient=gradient,
        loss=loss,
        max_abs_grad_diff_vs_oracle=diff,
    )
    if artifacts_out is not None:
        artifacts_out.append(IterationArtifacts(
            iteration=iteration,
            instance=instance,
            encryption_keys=tuple(eks),
            ciphertexts=tuple(all_cts),
            secret_keys=tuple(secret_keys),
            tag=tag,
        ))
    return gradient, new_state, metrics


def make_batch_schedule(n_rows: int, batch_size: int, n_iterations: int,
                        seed: int) -> list[np.ndarray]:
    """Seeded mini-batch row indices: contiguous chunks of per-epoch shuffles.

    Each epoch is one permutation of all rows consumed in order; when
    fewer than batch_size rows remain, the leftover is dropped and a new
    epoch starts. Fully determined by (n_rows, batch_size, n_iterations,
    seed).
    """
    if batch_size > n_rows:
        raise ValueError(f"batch_size {batch_size} exceeds dataset rows {n_rows}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_rows)
    pos = 0
    schedule = []
    for _ in range(n_iterations):
        if pos + batch_size > n_rows:
            order = rng.permutation(n_rows)
            pos = 0
        schedule.append(order[pos:pos + batch_size].copy())
        pos += batch_size
    return schedule


@dataclass
class TrainingResult:
    """Everything a training run produced, message log included."""

    metrics: list[IterationMetrics]
    state: ModelState
    bus: MessageBus
    artifacts: list[IterationArtifacts]
    weight_history: list[np.ndarray] = field(default_factory=list)


def run_training(shards: Sequence[ClientShard], config: TrainingConfig,
                 initial_weights=None) -> TrainingResult:
    """T secure iterations over seeded mini-batches of the given shards.

    Every iteration uses a fresh FE instance unless the debug
    reuse_fe_instance flag is set. Exact-mode guarantees assume the
    initial weights sit on the weight grid (the zero default always
    does).
    """
    n_rows = shards[0].features.shape[0]
    for i, sh in enumerate(shards):
        if sh.features.shape[0] != n_rows:
            raise ValueError(f"client {i} has {sh.features.shape[0]} rows, expected {n_rows}")
    _label_client(shards)
    F = sum(sh.features.shape[1] for sh in shards)
    if initial_weights is None:
        weights = np.zeros(F)
    else:
        weights = np.asarray(initial_weights, dtype=float)
    state = ModelState(weights, config.learning_rate, config.reg_lambda,
                       config.model_kind)
    schedule = make_batch_schedule(n_rows, config.batch_size,
                                   config.iterations, config.seed)
    bus = MessageBus()
    artifacts: list[IterationArtifacts] = []
    collect = artifacts if config.retain_artifacts else None

    fe_setup = None
    if config.reuse_fe_instance and config.iterations > 0:
        features_per_client = [sh.features.shape[1] for sh in shards]
        slot_lengths = [config.batch_size * f for f in features_per_client]
        slot_lengths.append(config.batch_size)
        fe_setup = fe.setup(len(shards) + 1, slot_lengths)

    metrics_history = []
    weight_history = []
    for t, rows in enumerate(schedule):
        batch = [sh.batch(rows) for sh in shards]
        _, state, metrics = run_iteration(
            state, batch, config, iteration=t, bus=bus, fe_setup=fe_setup,
            artifacts_out=collect,
        )
        metrics_history.append(metrics)
        weight_history.append(state.weights.copy())
    return TrainingResult(metrics=metrics_history, state=state, bus=bus,
                          artifacts=artifacts, weight_history=weight_history)


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
    instances (or tags) are there to stop.
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
