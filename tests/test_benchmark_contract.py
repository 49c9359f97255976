"""The names the benchmark hooks must see every call of a `train` run.

perfbench/worker.py times each iteration by replacing
fedquad.protocol.run_iteration and measures held memory around one
fedquad.cli.run_training call, and perfbench/tracer.py times and counts
FE calls, the tensor kernel, quantization, function-vector builds,
dequantizations, the plaintext oracle and bus messages by replacing the
functions at the module attributes their callers look up. A refactor that
calls around those attributes leaves the benchmark timing or counting
nothing, so this test counts the calls through the same attributes, and
requires every name the tracer replaces to exist, including those no run
calls today.
"""

import importlib.util
from collections import Counter
from itertools import product
from pathlib import Path

from fedquad import cli, fe, protocol

N_CLIENTS, F, T = 2, 3, 4

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ORACLES = {
    "linear": ("centralized_gradient_linear", "mse_loss"),
    "logistic": ("centralized_gradient_logistic_taylor", "taylor_loss"),
}


def test_train_calls_every_hooked_name(monkeypatch, tmp_path):
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cli, "run_training")
    for name in ("run_iteration", "dequantize", "all_gradient_slice_vectors",
                 "quantize_vector", "snap_to_grid", "overflow_bound",
                 *ORACLES["linear"], *ORACLES["logistic"]):
        counted(protocol, name)
    counted(protocol.MessageBus, "send")
    for name in ("setup", "encrypt", "keygen", "decrypt", "sparse_inner_kron"):
        counted(fe, name)

    for (model, (gradient, loss)), tagged in product(ORACLES.items(), (False, True)):
        calls.clear()
        argv = ["train", "--synthetic", "--rows", "16", "--features-per-client", "1,2",
                "--model", model, "--iters", str(T), "--batch-size", "4",
                *(["--tagged"] if tagged else []),
                "--out", str(tmp_path / "metrics.jsonl")]
        assert cli.main(argv) == 0
        # Only this model's oracle pair is called; the other one not at all.
        assert calls == {
            "run_training": 1,
            "run_iteration": T,
            "dequantize": T,
            "send": (2 * N_CLIENTS + 2) * T,
            "all_gradient_slice_vectors": T,
            "quantize_vector": T,
            "snap_to_grid": T,
            "overflow_bound": T,
            gradient: T,
            loss: T,
            # --tagged sets up one instance per run and tags each iteration.
            "setup": 1 if tagged else T,
            "encrypt": (N_CLIENTS + 1) * T,
            "keygen": F * T,
            "decrypt": F * T,
            "sparse_inner_kron": F * T,
        }


def test_every_name_the_tracer_replaces_is_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.SPAN_TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert callable(protocol.overflow_bound)
    assert callable(protocol.MessageBus.send)
