"""fedquad benchmark: `fedquad train` end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fedquad checkout; the package is imported from its
src/ directory. Every measured call of cli.main(["train", ...]) runs in a
fresh worker process (perfbench/worker.py) with one BLAS thread, one at a
time. The k-th worker of an invocation runs with PYTHONHASHSEED=k: string
hashing changes dict layouts and so the speed of name lookups by several
percent, and a fixed sequence of hash seeds lets every invocation, on every
commit, average over the same layouts. Scratch files live under .perfbench/
in the checkout and are removed on exit; the spans of the last traced run
are kept in .perfbench/traces/.

--trace 0 alternates set-up probes and the untraced run for S seconds and
reports the end-to-end metrics. --trace 1 makes one tracemalloc pass,
then alternates untraced and traced runs until S seconds have passed (one
pair at least), and reports the per-layer metrics. Both check every run's
output (see checks.py) and run `fedquad verify` (must pass) and
`fedquad verify --debug-reuse-instance` (must fail). The last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Expectation, check_records, expectation_for
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent

# Hard cap on one invocation: a run must end well within 180 s.
DEADLINE_S = 170.0
# Fresh processes that stop at the first iteration, for set-up time, made
# before each measured run.
SETUP_PROBES_PER_RUN = 2
# Datasets per invocation, drawn with seeds seed*DATASETS + j. Measured runs
# take them in turn, so each result is a median over several draws of the
# workload's inputs rather than a property of one draw.
DATASETS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "iter_ms_p90": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "data.load_ms": "ms",
    "protocol.iter_self_ms": "ms",
    "protocol.messages": "count",
    "protocol.retained_mb": "MB",
    "funcvec.build_ms": "ms",
    "funcvec.residual_ms": "ms",
    "funcvec.entries": "count",
    "fe.setup_ms": "ms",
    "fe.encrypt_ms": "ms",
    "fe.keygen_ms": "ms",
    "fe.decrypt_self_ms": "ms",
    "fe.encrypt_calls": "count",
    "fe.keygen_calls": "count",
    "fe.decrypt_calls": "count",
    "tensor.kernel_ms": "ms",
    "tensor.terms": "count",
    "tensor.terms_per_us": "1/us",
    "fixedpoint.quantize_ms": "ms",
    "fixedpoint.snap_ms": "ms",
    "fixedpoint.bound_bits": "bits",
    "baseline.oracle_ms": "ms",
    "cli.emit_ms": "ms",
    "runtime.gc_ms": "ms",
    "runtime.gc_collections": "count",
    "trace.run_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "ratio",
    "checks.failed_frac": "ratio",
}


class RunFailed(Exception):
    """A worker process crashed, timed out, or left no result."""


@dataclass(frozen=True)
class Input:
    """One dataset: the train argv (records path left as {out}) and its oracle."""

    argv: list[str]
    expected: Expectation


class Bench:
    """One invocation: its inputs, its workers, and the tally of its checks."""

    def __init__(self, root: Path, workload: Workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.traces = root / ".perfbench" / "traces"
        self.env = dict(os.environ,
                        PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.inputs: list[Input] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def python(self, args: list[str], hash_seed: int = 0) -> tuple[int, str]:
        """Run the interpreter on args in the checkout: (exit code, stdout)."""
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=self.root,
                env=dict(self.env, PYTHONHASHSEED=str(hash_seed)),
                capture_output=True, text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{args[0]} timed out") from None
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode, proc.stdout

    def tally(self, attempted: int, passed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += attempted - passed
        self.problems.extend(problems)

    # -- inputs and one-off checks ---------------------------------------

    def prepare(self) -> None:
        """Write each dataset's input files and compute its expected result."""
        from fedquad import cli

        self.work.mkdir(parents=True)
        for j in range(DATASETS):
            data_seed = self.seed * DATASETS + j
            bundle = None
            if self.workload.from_csv:
                bundle = str(self.work / f"bundle-{j}")
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(self.workload.synth_argv(data_seed, bundle))
            argv = self.workload.train_argv(data_seed, bundle, "{out}")
            expected = expectation_for([a.replace("{out}", os.devnull) for a in argv])
            self.inputs.append(Input(argv, expected))

    def check_verify(self) -> None:
        """verify passes; with a reused FE instance it reports failed checks."""
        for flags, want in (([], 0), (["--debug-reuse-instance"], 1)):
            try:
                code, report = self.python(["-m", "fedquad", "verify", "--seed",
                                            str(self.seed), *flags])
            except RunFailed as err:
                code, report = str(err), ""
            ok = code == want and (" checks passed" in report
                                   and ("FAIL " in report) == bool(want))
            self.tally(1, int(ok), [] if ok else
                       [f"verify {' '.join(flags)}: exit {code}, expected {want}"])

    # -- measured runs -----------------------------------------------------

    def worker(self, mode: str, inp: Input, spans: Path | None = None) -> dict:
        self.runs += 1
        result_path = self.work / f"{mode}-{self.runs}.json"
        records = self.work / f"records-{self.runs}.jsonl"
        train = [a.replace("{out}", str(records)) for a in inp.argv]
        extra = [str(spans)] if spans else []
        self.python([str(HERE / "worker.py"), mode, str(result_path), *extra,
                     "--", *train], hash_seed=self.runs)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            raise RunFailed(f"{mode} run left no result") from None
        if result["exit"] != 0:
            raise RunFailed(f"{mode} run failed: {result.get('error', result['exit'])}")
        result["records"] = records
        return result

    def measured(self, mode: str, inp: Input, spans: Path | None = None) -> dict | None:
        """One checked run; None (with its checks failed) when it crashed."""
        expected = inp.expected
        extra = 1 if mode == "trace" else 0
        try:
            result = self.worker(mode, inp, spans)
        except RunFailed as err:
            self.tally(expected.checks_per_run + extra, 0, [str(err)])
            return None
        passed, problems = check_records(result["records"], expected)
        if mode == "trace":
            calls = {k: result["layers"][k] for k in expected.fe_calls()}
            if calls == expected.fe_calls():
                passed += 1
            else:
                problems.append(f"FE calls {calls}, expected {expected.fe_calls()}")
        self.tally(expected.checks_per_run + extra, passed, problems)
        return result

    def cycle(self, modes: tuple[str, ...], stop_at: float,
              spans: Path | None = None) -> dict[str, list[dict]]:
        """Run each mode on dataset 0, then 1, ..., until stop_at (once at least)."""
        out: dict[str, list[dict]] = {m: [] for m in modes}
        k = 0
        while k == 0 or (time.perf_counter() < stop_at and self.remaining() > 0):
            inp = self.inputs[k % DATASETS]
            for mode in modes:
                result = self.measured(mode, inp, spans if mode == "trace" else None)
                if result is not None:
                    out[mode].append(result)
            k += 1
        return out

    def setup_probe(self, inp: Input) -> float | None:
        """Set-up time of one fresh process that stops at the first iteration."""
        try:
            sample = self.worker("setup", inp)["setup_s"]
        except RunFailed as err:
            self.tally(1, 0, [str(err)])
            return None
        self.tally(1, 1, [])
        return sample


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Set-up probes and plain runs, interleaved, until `seconds` have passed.

    The shared host runs this process at speeds up to 2x apart, switching
    every half second to few seconds, and how often it is fast drifts over
    minutes. The median iteration falls between the speeds and follows that
    drift, and so does a low percentile once the fast speed turns rare; the
    slowest speed is always present and steadiest, so the iteration metric
    is p90 over all the iterations of the invocation. Probes are spread over
    the whole invocation for the same reason.
    """
    stop_at = time.perf_counter() + seconds
    setup: list[float] = []
    runs: list[dict] = []
    k = 0
    while k == 0 or (time.perf_counter() < stop_at and bench.remaining() > 0):
        inp = bench.inputs[k % DATASETS]
        for _ in range(SETUP_PROBES_PER_RUN):
            sample = bench.setup_probe(inp)
            if sample is not None:
                setup.append(sample)
        result = bench.measured("plain", inp)
        if result is not None:
            runs.append(result)
            setup.append(result["setup_s"])
        k += 1
    if not runs or not setup:
        return {}
    w = bench.workload
    rows = w.batch_size * w.iterations
    iter_ms = [ns / 1e6 for r in runs for ns in r["iter_ns"]]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "iter_ms_p90": statistics.quantiles(iter_ms, n=10)[8],
        "rows_per_s": statistics.median(rows / (sum(r["iter_ns"]) / 1e9) for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    stop_at = time.perf_counter() + seconds
    memory = bench.measured("memory", bench.inputs[0])
    bench.traces.mkdir(parents=True, exist_ok=True)
    spans = bench.traces / f"{bench.workload.name}-seed{bench.seed}.tsv"
    runs = bench.cycle(("plain", "trace"), stop_at, spans)
    if not runs["plain"] or not runs["trace"] or memory is None:
        return {}
    layers = [r["layers"] for r in runs["trace"]]
    out = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    out["trace.overhead_frac"] = (
        out["trace.run_s"] / statistics.median(r["run_s"] for r in runs["plain"]) - 1)
    out["protocol.retained_mb"] = memory["retained_mb"]
    return out


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fedquad" / "__init__.py").is_file():
        print(f"perfbench: no fedquad sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        bench.prepare()
        bench.check_verify()
        if args.trace:
            values, units = per_layer(bench, args.seconds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(bench, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not values:
        for problem in bench.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    if args.trace:
        values["checks.failed_frac"] = bench.failed / bench.attempted
    for problem in bench.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
