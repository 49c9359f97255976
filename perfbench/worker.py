"""One measured `fedquad train` call in a fresh process.

    python3 perfbench/worker.py MODE RESULT_JSON [SPANS_TSV] -- TRAIN_ARGV...

MODE is one of:

plain   the end-to-end run. Its only hook is a timer around
        fedquad.protocol.run_iteration, which gives setup time (call into
        cli.main to the first iteration), every iteration's wall time, and
        the run time of the whole cli.main call.
setup   a plain run that stops at the first iteration: a set-up time
        sample from a fresh process without paying for the training.
trace   the per-layer run: every layer function is wrapped (see tracer.py),
        spans are written to SPANS_TSV after the run, and the wrappers are
        removed again.
memory  bytes still held under tracemalloc when run_training returns. Kept
        apart from the timed runs because tracemalloc slows allocation-heavy
        code unevenly.

The result JSON always has "exit" (cli.main's return value, or null when it
raised, with "error" set). The parent process checks the records that the
train call wrote; this process only measures.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from array import array
from time import perf_counter_ns

from tracer import Tracer


class _SetupDone(Exception):
    """Raised at the first iteration by a setup probe to end the call there."""


def run_plain(cli, protocol, argv: list[str], setup_only: bool = False) -> dict:
    starts = array("q")
    ends = array("q")
    original = protocol.run_iteration

    def timed(*args, **kwargs):
        starts.append(perf_counter_ns())
        if setup_only:
            raise _SetupDone
        try:
            return original(*args, **kwargs)
        finally:
            ends.append(perf_counter_ns())

    protocol.run_iteration = timed
    try:
        t0 = perf_counter_ns()
        try:
            code = cli.main(argv)
        except _SetupDone:
            code = 0
        t1 = perf_counter_ns()
    finally:
        protocol.run_iteration = original
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "exit": code,
        "setup_s": ((starts[0] if starts else t1) - t0) / 1e9,
        "run_s": (t1 - t0) / 1e9,
        "iter_ns": [e - s for s, e in zip(starts, ends)],
        "peak_rss_mb": rss_kb / 1024,
    }


def run_trace(cli, argv: list[str], iterations: int, spans_path: str | None) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.trace_main(cli.main, argv)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "exit": code,
        "layers": tracer.layer_metrics(iterations),
        "bound_bits": tracer.bound_bits,
    }


def run_memory(cli, argv: list[str]) -> dict:
    import tracemalloc

    held = []
    original = cli.run_training

    def measured(*args, **kwargs):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = original(*args, **kwargs)
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return result

    cli.run_training = measured
    tracemalloc.start()
    try:
        code = cli.main(argv)
    finally:
        tracemalloc.stop()
        cli.run_training = original
    return {"exit": code, "retained_mb": held[0] / 2**20}


def main(argv: list[str]) -> int:
    split = argv.index("--")
    mode, result_path, *rest = argv[:split]
    train_argv = argv[split + 1:]
    iterations = int(train_argv[train_argv.index("--iters") + 1])
    try:
        from fedquad import cli, protocol

        if mode in ("plain", "setup"):
            result = run_plain(cli, protocol, train_argv, setup_only=mode == "setup")
        elif mode == "trace":
            result = run_trace(cli, train_argv, iterations, rest[0] if rest else None)
        elif mode == "memory":
            result = run_memory(cli, train_argv)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception:
        result = {"exit": None, "error": traceback.format_exc()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
