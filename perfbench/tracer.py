"""Span tracer that wraps fedquad's layer functions from outside.

Each wrapper replaces a function at the name its caller looks it up by
(``from x import f`` binds ``f`` in the importing module, so that module's
attribute is the one replaced). Nothing under ``src/`` is modified, and
``Tracer.uninstall`` puts every original back.

Spans are kept in memory as four parallel integer arrays (name id, start,
end, parent index), which the garbage collector never has to scan, and are
written out only when the traced run is over. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in the single-threaded protocol, so children never overlap.
"""

from __future__ import annotations

import gc
import importlib
from array import array
from time import perf_counter_ns

ROOT = "fedquad.cli.main"

# (module, attribute, per-layer metric that collects the span's self time).
# None: the span exists to give its children a parent; its self time is
# left in the unattributed remainder.
SPAN_TARGETS = (
    ("fedquad.cli", "load_csv", "data.load_ms"),
    ("fedquad.cli", "load_partition_spec", "data.load_ms"),
    ("fedquad.cli", "partition_dataset", "data.load_ms"),
    ("fedquad.cli", "synthesize", "data.load_ms"),
    ("fedquad.cli", "run_training", None),
    ("fedquad.protocol", "run_iteration", "protocol.iter_self_ms"),
    ("fedquad.protocol", "quantize_vector", "fixedpoint.quantize_ms"),
    ("fedquad.protocol", "quantize", "fixedpoint.quantize_ms"),
    ("fedquad.protocol", "dequantize", "fixedpoint.snap_ms"),
    ("fedquad.protocol", "snap_to_grid", "fixedpoint.snap_ms"),
    ("fedquad.protocol", "all_gradient_slice_vectors", "funcvec.build_ms"),
    ("fedquad.funcvec", "residual_coefficients", "funcvec.residual_ms"),
    ("fedquad.protocol", "centralized_gradient_linear", "baseline.oracle_ms"),
    ("fedquad.protocol", "centralized_gradient_logistic_taylor", "baseline.oracle_ms"),
    ("fedquad.protocol", "mse_loss", "baseline.oracle_ms"),
    ("fedquad.protocol", "taylor_loss", "baseline.oracle_ms"),
    ("fedquad.fe", "setup", "fe.setup_ms"),
    ("fedquad.fe", "encrypt", "fe.encrypt_ms"),
    ("fedquad.fe", "keygen", "fe.keygen_ms"),
    ("fedquad.fe", "decrypt", "fe.decrypt_self_ms"),
    ("fedquad.fe", "sparse_inner_kron", "tensor.kernel_ms"),
)

SELF_TIME_METRICS = tuple(dict.fromkeys(
    m for _, _, m in SPAN_TARGETS if m is not None)) + ("cli.emit_ms",)


class Tracer:
    """Installs span and counter wrappers into the fedquad modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.messages = 0
        self.funcvec_entries = 0
        self.kernel_terms = 0
        self.bound_bits: list[int] = []
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, observe=None):
        """fn wrapped so that each call records one span (and feeds observe)."""
        nid = self._name_id(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from fedquad import protocol

        observers = {
            "all_gradient_slice_vectors": self._observe_funcvecs,
            "sparse_inner_kron": self._observe_kernel,
        }
        for module_name, attr, _ in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._replace(module, attr, self.span(
                f"{module_name}.{attr}", original, observers.get(attr)))

        bound = protocol.overflow_bound

        def overflow_bound(*args, **kwargs):
            value = bound(*args, **kwargs)
            self.bound_bits.append(value.bit_length())
            return value

        self._replace(protocol, "overflow_bound", overflow_bound)

        send = protocol.MessageBus.send

        def counted_send(bus, message):
            self.messages += 1
            return send(bus, message)

        self._replace(protocol.MessageBus, "send", counted_send)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _observe_funcvecs(self, args, vectors) -> None:
        self.funcvec_entries += sum(v.nnz for v in vectors)

    def _observe_kernel(self, args, value) -> None:
        self.kernel_terms += len(args[0].entries)

    # -- analysis ----------------------------------------------------------

    def trace_main(self, main, argv):
        """Call main(argv) inside the root span; returns main's exit code."""
        return self.span(ROOT, main)(argv)

    def spans(self):
        """(name, start_ns, end_ns, parent_index) for every recorded span."""
        return [(self.names[n], s, e, p) for n, s, e, p in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent)]

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(durations)
        for parent, d in zip(self.span_parent, durations):
            if parent >= 0:
                own[parent] -= d
        return own

    def count(self, name: str) -> int:
        nid = self.name_ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-layer numbers of the traced run (times are sums over the run, ms).

        The self-time metrics plus trace.unattributed_ms add up to the root
        span, trace.run_s; GC time overlaps whichever span it interrupted and
        is reported beside that partition, not inside it.
        """
        metric_of = {f"{m}.{a}": metric for m, a, metric in SPAN_TARGETS}
        own = self.self_times_ns()
        totals = dict.fromkeys(SELF_TIME_METRICS, 0)
        root = self.name_ids[ROOT]
        root_idx = self.span_name.index(root)
        run_ns = self.span_end[root_idx] - self.span_start[root_idx]
        for nid, t in zip(self.span_name, own):
            metric = metric_of.get(self.names[nid])
            if metric is not None:
                totals[metric] += t
        training = self.span_name.index(self.name_ids["fedquad.cli.run_training"])
        totals["cli.emit_ms"] = self.span_end[root_idx] - self.span_end[training]
        per_iter = max(iterations, 1)
        out = {name: ns / 1e6 for name, ns in totals.items()}
        out["trace.unattributed_ms"] = (run_ns - sum(totals.values())) / 1e6
        out["trace.run_s"] = run_ns / 1e9
        kernel_us = totals["tensor.kernel_ms"] / 1e3
        out.update({
            "protocol.messages": self.messages / per_iter,
            "funcvec.entries": self.funcvec_entries / per_iter,
            "fe.encrypt_calls": self.count("fedquad.fe.encrypt"),
            "fe.keygen_calls": self.count("fedquad.fe.keygen"),
            "fe.decrypt_calls": self.count("fedquad.fe.decrypt"),
            "tensor.terms": self.kernel_terms / per_iter,
            "tensor.terms_per_us": self.kernel_terms / kernel_us if kernel_us else 0.0,
            "fixedpoint.bound_bits": max(self.bound_bits, default=0),
            "runtime.gc_ms": self.gc_ns / 1e6,
            "runtime.gc_collections": self.gc_collections,
        })
        return out

    def write_spans(self, path) -> None:
        """Spans as tab-separated lines: index, name, start_ns, end_ns, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")
