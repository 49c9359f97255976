import gc
import importlib

import pytest

from fedquad import cli, protocol
from tracer import ROOT, SELF_TIME_METRICS, SPAN_TARGETS, Tracer
from workloads import WORKLOADS

# 3 clients with 2, 1, 2 features, 4 iterations.
SMALL = ["train", "--synthetic", "--rows", "24", "--features-per-client", "2,1,2",
         "--iters", "4", "--batch-size", "6", "--exact", "--seed", "3"]


def _targets():
    yield from ((importlib.import_module(m), a) for m, a, _ in SPAN_TARGETS)
    yield protocol, "overflow_bound"
    yield protocol.MessageBus, "send"


def _traced_run(argv, out):
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.trace_main(cli.main, argv + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return _traced_run(SMALL, tmp_path_factory.mktemp("small") / "m.jsonl")


def test_uninstall_restores_every_wrapper():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in _targets()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for o, a, f in before)
        assert tracer._on_gc in gc.callbacks
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for o, a, f in before)
    assert tracer._on_gc not in gc.callbacks


def test_spans_nest_and_self_time_is_within_total(small):
    spans = small.spans()
    assert spans[0][0] == ROOT and spans[0][3] == -1
    for (name, start, end, parent), own in zip(spans, small.self_times_ns()):
        assert start <= end
        assert 0 <= own <= end - start, name
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name


def test_layer_self_times_and_remainder_sum_to_run_time(small):
    layers = small.layer_metrics(4)
    total_ms = sum(layers[m] for m in SELF_TIME_METRICS) + layers["trace.unattributed_ms"]
    assert total_ms == pytest.approx(layers["trace.run_s"] * 1e3, abs=1e-6)
    assert layers["trace.unattributed_ms"] >= 0
    assert all(layers[m] >= 0 for m in SELF_TIME_METRICS)


def test_fe_call_counts_match_the_protocol(small):
    layers = small.layer_metrics(4)
    n_clients, F, T = 3, 5, 4
    assert layers["fe.encrypt_calls"] == (n_clients + 1) * T
    assert layers["fe.keygen_calls"] == F * T
    assert layers["fe.decrypt_calls"] == F * T
    # Keys to each client, ciphertexts from each, the key request and reply.
    assert layers["protocol.messages"] == 2 * n_clients + 2
    # Every key is evaluated once, term by term, by the kernel.
    assert layers["tensor.terms"] == layers["funcvec.entries"] > 0


def test_spans_file_has_one_line_per_span(small, tmp_path):
    path = tmp_path / "spans.tsv"
    small.write_spans(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(small.spans())
    assert lines[1].split("\t")[1] == ROOT


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bound_bits_put_each_workload_on_its_side_of_int64(name, tmp_path):
    w = WORKLOADS[name]
    bundle = None
    if w.from_csv:
        bundle = str(tmp_path / "bundle")
        cli.main(w.synth_argv(1, bundle))
    argv = w.train_argv(1, bundle, str(tmp_path / "m.jsonl"))
    out = argv.index("--out")
    tracer = _traced_run(argv[:out], tmp_path / "m.jsonl")
    assert len(tracer.bound_bits) == w.iterations
    if name == "wide-fixed":
        assert min(tracer.bound_bits) >= 64
    else:
        assert max(tracer.bound_bits) < 63
