"""Secure vertical-federated training over the ideal FE layer.

Three kinds of actors run a fixed single-threaded schedule each iteration:
the trusted third party hands out keys of the iteration's FE instance,
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

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

import json
import math
import numbers

import numpy as np

from . import draws, fe
from .baseline import (
    MODEL_LINEAR,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    model,
    mse_loss,
    taylor_loss,
)
# quantize is not called here; perfbench/tracer.py wraps it under this name.
from .fixedpoint import (  # noqa: F401
    FixedPointConfig,
    dequantize,
    overflow_bound,
    quantize,
    quantize_array,
    quantize_vector,
    snap_to_grid,
)
from .funcvec import all_gradient_slice_vectors
from .tensor import vec_columns

OVERFLOW_LIMIT_BITS = 126


# Actor names as they appear in message headers.
TTP = "ttp"
AGGREGATOR = "aggregator"


def client_name(index: int) -> str:
    return f"client{index}"


class Header(NamedTuple):
    """One message's transport metadata: actor names, iteration, body kind and size.

    The body itself (keys, ciphertexts, function vectors) is never
    recorded; size is the number of items it carried.
    """

    sender: str
    recipient: str
    iteration: int
    kind: str
    size: int


class MessageBus:
    """Ordered header record of every message of a run.

    Only headers are sent, so the log holds no FE object and its size
    does not depend on S or F.
    """

    def __init__(self) -> None:
        self.messages: list[Header] = []

    def send(self, header: Header) -> None:
        self.messages.append(header)

    def header_log(self) -> list[dict]:
        return [{"from": h.sender, "to": h.recipient, "iteration": h.iteration,
                 "kind": h.kind, "size": h.size} for h in self.messages]

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
            raise ValueError(f"features must be 2-D with at least one column, got shape "
                             f"{self.features.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError(
                    f"labels have shape {self.labels.shape}, expected "
                    f"({self.features.shape[0]},)"
                )


@dataclass(frozen=True)
class TrainingConfig:
    """Run parameters shared by the protocol and its plaintext mirrors.

    The one place a run's settings live and are checked, each error
    naming its field:
    - model_kind: a kind baseline.model knows, else ValueError;
    - iterations (>= 0), batch_size (>= 1) and seed (>= 0): ints by
      draws.check_int, so 2.0 or a bool raises TypeError and a value
      below its floor ValueError ("batch_size must be an integer, got
      2.0");
    - learning_rate (finite, > 0) and reg_lambda (finite, >= 0): real
      numbers, so a bool, a string or None raises TypeError
      ("learning_rate must be a real number, got '0.1'") and nan, an
      infinity or a value out of range ValueError;
    - codec: a FixedPointConfig, else (None included) TypeError;
    - fe_policy: which FE instances the run uses, else ValueError.
      "fresh" sets up an untagged instance per iteration. "tagged" is the
      paper's deployment: one setup per run, iteration t's ciphertexts
      and keys tagged t. "reused" is one untagged setup per run, the
      negative control the mix-and-match probe must catch.
    """

    model_kind: str = MODEL_LINEAR
    iterations: int = 1
    batch_size: int = 1
    learning_rate: float = 0.1
    reg_lambda: float = 0.0
    seed: int = 0
    codec: FixedPointConfig = field(default_factory=FixedPointConfig)
    fe_policy: str = "fresh"

    def __post_init__(self) -> None:
        model(self.model_kind)  # ValueError for an unknown kind
        if not isinstance(self.codec, FixedPointConfig):
            raise TypeError(f"codec must be a FixedPointConfig, got {self.codec!r}")
        if self.fe_policy not in ("fresh", "tagged", "reused"):
            raise ValueError(f"unknown fe_policy {self.fe_policy!r}")
        draws.check_int("iterations", self.iterations)
        draws.check_int("batch_size", self.batch_size, 1)
        for name in ("learning_rate", "reg_lambda"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        # Written so that nan, which fails every comparison, is refused too.
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0 <= self.reg_lambda < math.inf):
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        draws.check_int("seed", self.seed)


def exact_codec(model_kind: str) -> FixedPointConfig:
    """Smallest codec under which quantization is lossless on integer data.

    Labels shifted by 1/2 need one data bit and weights divided by
    2**weight_shift need weight_shift weight bits; with those, integer-grid
    weights and the model's integer labels (0/1 for logistic) survive exactly.
    """
    m = model(model_kind)
    return FixedPointConfig(data_bits=int(m.label_shift != 0), weight_bits=m.weight_shift)


def weight_grid_bits(model_kind: str, codec: FixedPointConfig) -> int:
    """Fractional bits of the grid that keeps weight quantization lossless.

    Weights are quantized as w / 2**weight_shift at weight_bits, so stored
    weights get weight_shift fewer bits; then w / 2**weight_shift lands
    exactly on the weight_bits grid.
    """
    return max(codec.weight_bits - model(model_kind).weight_shift, 0)


@dataclass
class IterationArtifacts:
    """FE objects retained for post-hoc attack probing."""

    iteration: int
    instance: fe.FEInstance
    ciphertexts: tuple[fe.Ciphertext, ...]
    secret_keys: tuple[fe.SecretKey, ...]


@dataclass
class IterationMetrics:
    """Per-iteration counters, the gradient, the updated weights and diagnostics.

    loss and max_abs_grad_diff_vs_oracle are simulator-side diagnostics
    computed from the plaintext view; no protocol party could compute
    them from what it sees.
    """

    iteration: int
    encryptions_per_client: tuple[int, ...]
    decryptions: int
    gradient: np.ndarray
    weights: np.ndarray
    loss: float
    max_abs_grad_diff_vs_oracle: float


def iteration_record(metrics: IterationMetrics) -> dict:
    """Plain-dict view of one iteration's metrics, ready for JSON lines."""
    return {
        "iteration": metrics.iteration,
        "loss": metrics.loss,
        # np.linalg.norm of a real vector is sqrt(g.dot(g)); this skips its wrapper.
        "grad_norm": math.sqrt(metrics.gradient.dot(metrics.gradient)),
        "max_abs_grad_diff_vs_oracle": metrics.max_abs_grad_diff_vs_oracle,
        "encryptions_per_client": list(metrics.encryptions_per_client),
        "decryptions": metrics.decryptions,
    }


class TrainingPlan:
    """What a run needs from its shards, computed once before the first iteration.

    The shards must be at least one, exactly one of them holding labels,
    all with the same row count, else ValueError. The plan holds the
    config, its model record, the row count, the central X and y for
    the oracle, the weight factor 2**-weight_shift, and every row of
    [X_0 | ... | X_{N-1} | y_eff] quantized at data scale together with
    its largest magnitude for the overflow bound (y_eff is y minus the
    model's label shift).
    Quantization is elementwise, so the rows of a batch sliced from here
    are exactly the integers each client would quantize from that batch
    itself. columns is the one record of where each slot's columns sit in
    x: one slice per client, then the label's. client_slots is the one
    record of which slots each client fills: its own slot i, and the label
    slot N too for the label holder; encryptions_per_client counts them
    (2 for the label holder, 1 for every other client). A plan is data:
    it holds no FE state and serves any number of runs.
    """

    def __init__(self, shards: Sequence[ClientShard], config: TrainingConfig) -> None:
        if not shards:
            raise ValueError("need at least one client shard, got none")
        holders = [i for i, sh in enumerate(shards) if sh.labels is not None]
        if len(holders) != 1:
            raise ValueError(f"exactly one shard must hold labels, got {len(holders)}")
        n_rows = shards[0].features.shape[0]
        for i, sh in enumerate(shards):
            if sh.features.shape[0] != n_rows:
                raise ValueError(f"client {i} has {sh.features.shape[0]} rows, expected {n_rows}")
        self.config = config
        self.model = model(config.model_kind)
        self.n_rows = n_rows
        self.y = shards[holders[0]].labels
        self.weight_factor = math.ldexp(1.0, -self.model.weight_shift)
        data = np.column_stack([*(sh.features for sh in shards),
                                self.y - self.model.label_shift])
        self.X = data[:, :-1]
        # max(max, -min) is max |.| without a full-size temporary.
        self.row_max_abs = np.maximum(data.max(axis=1), -data.min(axis=1))
        self.quantized = quantize_array(data, config.codec.data_bits)
        # Each slot's columns of `quantized`: one per client, then the label.
        counts = [sh.features.shape[1] for sh in shards]
        edges = list(accumulate((*counts, 1), initial=0))
        self.columns = tuple(slice(a, b) for a, b in zip(edges, edges[1:]))
        # Each tuple from a list, as in fe.setup; built once per run.
        slots = [(i,) for i in range(len(shards))]
        slots[holders[0]] = (holders[0], len(shards))
        self.client_slots = tuple(slots)
        self.encryptions_per_client = tuple([len(s) for s in slots])

    def budget(self, rows: np.ndarray, w_eff: np.ndarray
               ) -> tuple[int, int, int, int, float, float]:
        """(S, F, data_bits, weight_bits, max|x|, max|w|) of one step on these rows.

        The arguments overflow_bound and inner_product_error_bound share:
        max|x| bounds the rows' features and shifted labels, and max|w| is
        at least 1, as the constant label coefficient needs.
        """
        codec = self.config.codec
        return (len(rows), self.X.shape[1], codec.data_bits, codec.weight_bits,
                float(self.row_max_abs[rows].max()), max(1.0, float(np.abs(w_eff).max())))


def run_iteration(weights, plan: TrainingPlan, rows: np.ndarray, *, iteration: int = 0,
                  bus: MessageBus | None = None,
                  artifacts_out: list[IterationArtifacts] | None = None,
                  fe_setup: tuple[fe.FEInstance, list[fe.EncryptionKey]] | None = None,
                  ) -> IterationMetrics:
    """One secure gradient step on the plan's rows: setup, encrypt, keygen, decrypt, update.

    Settings come from plan.config; weights are only read, and the
    updated ones are returned in the metrics. For one step over all
    rows, pass np.arange(plan.n_rows). A step whose overflow_bound
    reaches 2**OVERFLOW_LIMIT_BITS raises OverflowError before anything
    is encrypted. fe_setup is the (instance, encryption keys) pair of
    fe.setup to encrypt under, as run_training passes its run's one;
    when None the call sets up a fresh instance. Under fe_policy
    "tagged" the iteration tags every ciphertext and key. Every call
    makes N+1 encryptions, F keygens and F decryptions; key delivery and
    encryption walk plan.client_slots, so headers go out in client order
    and the ciphertexts reach decrypt in the order they were sent.
    """
    if bus is None:
        bus = MessageBus()
    config = plan.config
    codec = config.codec
    S = len(rows)
    if S < 1:
        raise ValueError("the batch has no rows; an iteration needs at least one")
    F = plan.X.shape[1]
    w = np.asarray(weights, dtype=float)
    if w.shape != (F,):
        raise ValueError(f"weights have shape {w.shape}, expected ({F},)")
    w_eff = w * plan.weight_factor

    bound = overflow_bound(*plan.budget(rows, w_eff))
    if bound >= 1 << OVERFLOW_LIMIT_BITS:
        raise OverflowError(
            f"worst-case accumulation {bound} exceeds 2**{OVERFLOW_LIMIT_BITS}; "
            f"reduce batch size, magnitudes, or fractional bits"
        )

    # Plaintext oracle view for diagnostics, at the weights used below. It
    # runs first, so its float gather is freed before the integer copies exist.
    lam = config.reg_lambda
    X, y = plan.X[rows], plan.y[rows]
    # Not plan.model's functions: perfbench/tracer.py times these module names.
    if config.model_kind == MODEL_LINEAR:
        oracle = centralized_gradient_linear(X, y, w, lam)
        loss = mse_loss(X, y, w)
    else:
        oracle = centralized_gradient_logistic_taylor(X, y, w, lam)
        loss = taylor_loss(X, y, w)
    del X, y

    tag = iteration if config.fe_policy == "tagged" else None
    # Each slot's quantized batch columns, stacked: x = [x_0||...||x_{N-1}||y].
    # The payloads are views of x; x's memory goes with the last of them.
    x = vec_columns(plan.quantized[rows])
    payloads = [x[c.start * S:c.stop * S] for c in plan.columns]
    del x

    # TTP: fresh (or the run's shared) instance, a slot per client plus labels.
    instance, eks = fe_setup or fe.setup([len(p) for p in payloads])
    for i, slots in enumerate(plan.client_slots):
        bus.send(Header(TTP, client_name(i), iteration, "deliver_keys", len(slots)))

    # Clients: encrypt the block of each of their slots (plan.client_slots).
    sent: list[fe.Ciphertext] = []
    for i, slots in enumerate(plan.client_slots):
        sent.extend([fe.encrypt(eks[k], tag, payloads[k]) for k in slots])
        bus.send(Header(client_name(i), AGGREGATOR, iteration,
                        "client_ciphertexts", len(slots)))
    # The ciphertexts hold sealed copies, so the batch's x is freed here.
    del payloads
    all_cts = tuple(sent)

    # Aggregator: coefficient vectors from its (effective) weights.
    funcvecs = all_gradient_slice_vectors(quantize_vector(w_eff, codec.weight_bits),
                                          codec.one_weight, S)
    bus.send(Header(AGGREGATOR, TTP, iteration, "funcvec_request", len(funcvecs)))
    secret_keys = [fe.keygen(instance, tag, c) for c in funcvecs]
    bus.send(Header(TTP, AGGREGATOR, iteration, "secret_keys", len(secret_keys)))

    # Aggregator: one decryption per gradient slice, in (client, feature) order.
    # decrypt_all checks the set once for all F keys and keeps nothing, so a
    # run-long (tagged) instance holds no iteration's x into the next.
    raws = fe.decrypt_all(all_cts, secret_keys)
    res = dequantize(np.array(raws, dtype=float), codec.scale_exp)
    gradient = (plan.model.slice_scale * res) / S + lam * w

    new_w = snap_to_grid(w - config.learning_rate * gradient,
                         weight_grid_bits(config.model_kind, codec))

    diff = float(abs(gradient - oracle).max())

    metrics = IterationMetrics(
        iteration=iteration,
        encryptions_per_client=plan.encryptions_per_client,
        decryptions=len(raws),
        gradient=gradient,
        weights=new_w,
        loss=loss,
        max_abs_grad_diff_vs_oracle=diff,
    )
    if artifacts_out is not None:
        artifacts_out.append(IterationArtifacts(
            iteration=iteration,
            instance=instance,
            ciphertexts=all_cts,
            secret_keys=tuple(secret_keys),
        ))
    return metrics


def iter_batches(n_rows: int, batch_size: int, n_iterations: int,
                 seed: int) -> Iterator[np.ndarray]:
    """Seeded mini-batch row indices, drawn one batch at a time.

    The batches are contiguous chunks of per-epoch shuffles: each epoch is
    one permutation of all rows consumed in order; when fewer than
    batch_size rows remain, the leftover is dropped and a new epoch
    starts. Fully determined by (n_rows, batch_size, n_iterations, seed).
    A permutation is the stable argsort of n_rows little-endian 64-bit
    keys (draws.keys of draws.seeded(seed)); a tie (probability below
    n_rows**2 / 2**65) goes to the lower row. The counts and the seed
    follow draws.check_int, each named: one that is not an int raises
    TypeError, and n_rows or batch_size below 1, n_iterations or the
    seed below 0, or batch_size > n_rows ValueError, all before any
    batch is drawn.
    """
    n_rows = draws.check_int("n_rows", n_rows, 1)
    batch_size = draws.check_int("batch_size", batch_size, 1)
    n_iterations = draws.check_int("n_iterations", n_iterations)
    rng = draws.seeded(seed)
    if batch_size > n_rows:
        raise ValueError(f"batch_size {batch_size} exceeds dataset rows {n_rows}")

    def permutation() -> np.ndarray:
        return np.argsort(draws.keys(rng, n_rows, "<u8"), kind="stable")

    def batches() -> Iterator[np.ndarray]:
        order = permutation()
        pos = 0
        for _ in range(n_iterations):
            if pos + batch_size > n_rows:
                order = permutation()
                pos = 0
            yield order[pos:pos + batch_size].copy()
            pos += batch_size

    return batches()


def make_batch_schedule(n_rows: int, batch_size: int, n_iterations: int,
                        seed: int) -> list[np.ndarray]:
    """The batches of iter_batches, collected into a list."""
    return list(iter_batches(n_rows, batch_size, n_iterations, seed))


def run_training(plan: TrainingPlan, initial_weights=None, *,
                 on_iteration: Callable[[IterationMetrics], None] | None = None,
                 bus: MessageBus | None = None,
                 artifacts_out: list[IterationArtifacts] | None = None,
                 ) -> np.ndarray:
    """T secure iterations over seeded mini-batches of the plan's rows; returns the final weights.

    Settings come from plan.config. Under fe_policy "fresh" every
    iteration sets up its own FE instance; under "tagged" or "reused"
    the run sets up one before its first batch (batch_size rows per
    slot) and passes it to every iteration (run_iteration's fe_setup).
    That instance dies with the run unless artifacts_out holds it, so
    a second run on the same plan repeats the first on its own
    instance, with tags from 0 again, and a key of one run decrypts
    nothing of another's (fe.InstanceMismatch). Exact-mode guarantees assume the
    initial weights sit on the weight grid (the zero default always
    does). Only the weights carry over between iterations; on_iteration
    gets each iteration's metrics as soon as they are made, bus the
    headers (a throwaway bus per iteration when None) and artifacts_out
    the FE objects. A non-finite loss or gradient raises ValueError
    before its metrics are passed on, and an OverflowError (a value past
    the quantizer guard) is raised again with its iteration named.
    """
    config = plan.config
    if initial_weights is None:
        weights = np.zeros(plan.X.shape[1])
    else:
        weights = np.array(initial_weights, dtype=float)
    batches = iter_batches(plan.n_rows, config.batch_size, config.iterations, config.seed)
    fe_setup = (None if config.fe_policy == "fresh" else
                fe.setup([config.batch_size * (c.stop - c.start) for c in plan.columns]))
    for t, rows in enumerate(batches):
        try:
            metrics = run_iteration(weights, plan, rows, iteration=t, bus=bus,
                                    artifacts_out=artifacts_out, fe_setup=fe_setup)
        except OverflowError as err:
            raise OverflowError(f"iteration {t}: {err}") from None
        if not (math.isfinite(metrics.loss) and np.isfinite(metrics.gradient).all()):
            raise ValueError(f"iteration {t} diverged: loss {metrics.loss!r} or its "
                             f"gradient is not finite; lower the learning rate")
        if on_iteration is not None:
            on_iteration(metrics)
        weights = metrics.weights
    return weights
