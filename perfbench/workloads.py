"""The benchmark's workloads: `fedquad train` argument lists and geometry.

Every workload trains on integer data with a codec that represents it
losslessly, so each iteration's secure gradient must equal the plaintext
oracle exactly and the final weights must equal centralized descent
bitwise. The seed given to the benchmark seeds both the data and the
batch schedule.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    rows: int
    features_per_client: tuple[int, ...]
    batch_size: int
    iterations: int
    train_flags: tuple[str, ...]
    # Load from the CSV bundle `fedquad synth` writes instead of --synthetic.
    from_csv: bool = False

    @property
    def fpc_flag(self) -> str:
        return ",".join(str(f) for f in self.features_per_client)

    def synth_argv(self, seed: int, out_dir: str) -> list[str]:
        return ["synth", "--model", self.model, "--rows", str(self.rows),
                "--features-per-client", self.fpc_flag, "--seed", str(seed),
                "--out", out_dir]

    def train_argv(self, seed: int, bundle_dir: str | None, out: str) -> list[str]:
        argv = ["train", "--model", self.model]
        if self.from_csv:
            argv += ["--dataset", f"{bundle_dir}/dataset.csv",
                     "--partition", f"{bundle_dir}/partition.json"]
        else:
            argv += ["--synthetic", "--rows", str(self.rows),
                     "--features-per-client", self.fpc_flag]
        argv += ["--iters", str(self.iterations),
                 "--batch-size", str(self.batch_size),
                 "--seed", str(seed), *self.train_flags, "--out", out]
        return argv


WORKLOADS = {
    w.name: w for w in (
        # Fixed-point codec whose overflow bound needs 75-77 bits: every
        # decrypt is Python big-integer work. Function-vector build and the
        # tensor kernel dominate; an int64 fast path must not apply here.
        # Loaded from CSV, so set-up includes CSV parsing, and tagged, so
        # encrypt and decrypt take the tag-checking path.
        Workload("wide-fixed", "linear", 1024, (12, 12, 12, 12), 192, 16,
                 ("--tagged", "--lr", "0.01", "--data-bits", "16",
                  "--weight-bits", "16"),
                 from_csv=True),
        # Tiny logistic problem run for many iterations: the fixed cost per
        # iteration (protocol, FE bookkeeping, oracle, GC) dominates, the
        # 3000 samples give a real tail, and retained memory grows with T.
        Workload("narrow-long", "logistic", 48, (2, 2), 12, 3000,
                 ("--lr", "0.1", "--lambda", "0.01")),
    )
}
