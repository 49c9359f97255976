"""The names the benchmark hooks must see every call of a `train` run.

perfbench/worker.py times each iteration by replacing
fedquad.protocol.run_iteration and measures held memory around one
fedquad.cli.run_training call, and perfbench/tracer.py counts FE calls,
function-vector builds, dequantizations and bus messages by replacing
the functions at the module attributes their callers look up. A refactor
that calls around those attributes leaves the benchmark timing or
counting nothing, so this test counts the calls through the same
attributes.
"""

from collections import Counter

from fedquad import cli, fe, protocol

N_CLIENTS, F, T = 2, 3, 4


def test_train_calls_every_hooked_name(monkeypatch, tmp_path):
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cli, "run_training")
    counted(protocol, "run_iteration")
    counted(protocol, "dequantize")
    counted(protocol.MessageBus, "send")
    counted(protocol, "all_gradient_slice_vectors")
    for name in ("encrypt", "keygen", "decrypt"):
        counted(fe, name)

    argv = ["train", "--synthetic", "--rows", "16", "--features-per-client", "1,2",
            "--iters", str(T), "--batch-size", "4", "--tagged",
            "--out", str(tmp_path / "metrics.jsonl")]
    assert cli.main(argv) == 0
    assert calls == {
        "run_training": 1,
        "run_iteration": T,
        "dequantize": T,
        "send": (2 * N_CLIENTS + 2) * T,
        "all_gradient_slice_vectors": T,
        "encrypt": (N_CLIENTS + 1) * T,
        "keygen": F * T,
        "decrypt": F * T,
    }
