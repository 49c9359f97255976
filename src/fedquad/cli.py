"""Command-line front end: train, verify, synth.

train runs secure training over a CSV dataset split by a partition spec
(or over a seeded synthetic dataset) and emits line-delimited JSON
metrics: one record per iteration, written as soon as it is made, then
one summary record. A record holding a NaN or an infinity is refused, not
written. verify runs the named self-check battery and exits nonzero if
any check fails. synth writes a synthetic dataset, its partition spec,
and the generating weights to a directory. train --tagged and verify
--tagged select fe_policy "tagged", and verify --debug-reuse-instance
without --tagged "reused" (protocol.TrainingConfig).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR
from .data import (
    load_csv,
    load_partition_spec,
    partition_dataset,
    refuse_past_guard,
    save_partition_spec,
    synthesize,
    write_csv,
)
from .fixedpoint import FixedPointConfig
from .protocol import TrainingConfig, TrainingPlan, exact_codec, iteration_record, run_training
from .verify import run_all_checks

MODEL_BY_FLAG = {"linear": MODEL_LINEAR, "logistic": MODEL_LOGISTIC_TAYLOR}

# json.dumps(record, sort_keys=True, allow_nan=False) without building an
# encoder per record: a NaN or an infinity raises ValueError instead of
# being written.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _parse_feature_counts(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError(
            f"every client needs at least one feature, got {text!r}"
        )
    return counts


def _refuse_oversized(rows: int, features_per_client: list[int]) -> None:
    """Refuse a synthetic shape whose run would not fit in physical memory.

    Raises ValueError naming --rows and --features-per-client before any
    array of that shape is allocated.
    """
    # A train run peaks at about 4.2 float64 copies of the data under
    # tracemalloc (4096 x 65, 20000 x 65 and 4096 x 513 tables), with or
    # without --tagged. The plan's build reaches 4.14-4.25: the partition's
    # X, whose shards are views of it, and the plan's float and int64
    # tables with the quantizer's temporaries. A full-batch iteration
    # reaches 4.03-4.21: the plan's two tables and two integer copies of
    # the batch. No fe call keeps a checked set past its return, so a
    # tagged run's one FE instance holds no iteration's x: it reads the same.
    # So five are budgeted.
    estimate = rows * (sum(features_per_client) + 1) * 8 * 5
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if estimate > memory:
        raise ValueError(
            f"--rows {rows} with --features-per-client "
            f"{','.join(map(str, features_per_client))} needs about "
            f"{estimate / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB "
            f"of physical memory"
        )


class _SyntheticOnly(argparse.Action):
    """Stores a flag that only shapes --synthetic data and notes that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.synthetic_only = (*namespace.synthetic_only, self.option_strings[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedquad",
        description="Secure vertical federated training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run secure training and emit metrics")
    train.add_argument("--dataset", help="CSV file with a header row")
    train.add_argument("--partition", help="JSON partition spec")
    train.add_argument("--synthetic", action="store_true",
                       help="generate a seeded dataset instead of loading files")
    train.add_argument("--rows", type=int, default=64, action=_SyntheticOnly,
                       help="synthetic dataset rows")
    train.add_argument("--features-per-client", type=_parse_feature_counts,
                       default=[2, 2, 2], metavar="N,N,...", action=_SyntheticOnly,
                       help="synthetic per-client feature counts")
    train.set_defaults(synthetic_only=())
    train.add_argument("--model", choices=sorted(MODEL_BY_FLAG), default="linear")
    train.add_argument("--iters", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--lambda", dest="reg_lambda", type=float, default=0.0,
                       help="L2 regularization strength")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--data-bits", type=int, default=12,
                       help="fractional bits for features and labels")
    train.add_argument("--weight-bits", type=int, default=12,
                       help="fractional bits for weights")
    train.add_argument("--exact", action="store_true",
                       help="lossless codec for integer data (overrides bit flags)")
    train.add_argument("--tagged", action="store_true",
                       help="one FE setup per run, iteration t's ciphertexts and keys tagged t")
    train.add_argument("--out", help="metrics file (default: stdout)")

    verify = sub.add_parser("verify", help="run the self-check battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tagged", action="store_true",
                        help="probe one tagged FE setup per run (the paper's deployment)")
    verify.add_argument("--debug-reuse-instance", action="store_true",
                        help="deliberately reuse one untagged FE instance across "
                             "iterations (negative control; verify must fail)")
    verify.add_argument("--out", help="write the report here as well as stdout")

    synth = sub.add_parser("synth", help="write a synthetic dataset to a directory")
    synth.add_argument("--model", choices=sorted(MODEL_BY_FLAG), default="linear")
    synth.add_argument("--rows", type=int, default=64)
    synth.add_argument("--features-per-client", type=_parse_feature_counts,
                       default=[2, 2, 2], metavar="N,N,...")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output directory")
    return parser


def _load_shards(args: argparse.Namespace, model_kind: str):
    """The client shards of --synthetic data or of --dataset split by --partition."""
    if args.synthetic:
        if args.dataset or args.partition:
            raise ValueError("--synthetic cannot be combined with --dataset/--partition")
        _refuse_oversized(args.rows, args.features_per_client)
        dataset = synthesize(model_kind, args.rows, args.features_per_client,
                             args.seed)
        return partition_dataset(dataset.header, dataset.rows, dataset.spec)[0]
    if not args.dataset or not args.partition:
        raise ValueError("train needs either --synthetic or both --dataset and --partition")
    if args.synthetic_only:
        raise ValueError(f"{args.synthetic_only[0]} applies to --synthetic only, "
                         f"not to --dataset/--partition")
    header, rows = load_csv(args.dataset)
    spec = load_partition_spec(args.partition)
    return partition_dataset(header, rows, spec)[0]


def cmd_train(args: argparse.Namespace) -> int:
    model_kind = MODEL_BY_FLAG[args.model]
    # The inputs are loaded before the settings are checked, so a missing
    # file is named before a bad flag. No reference to the shards outlives
    # the plan's build: from then on the plan holds the run's one table.
    try:
        plan = TrainingPlan(_load_shards(args, model_kind), config := TrainingConfig(
            model_kind=model_kind,
            iterations=args.iters,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            reg_lambda=args.reg_lambda,
            seed=args.seed,
            codec=exact_codec(model_kind) if args.exact else FixedPointConfig(
                data_bits=args.data_bits, weight_bits=args.weight_bits),
            fe_policy="tagged" if args.tagged else "fresh",
        ))
    except OverflowError:
        # The plan names a value past its quantizer guard by table entry; a
        # file names it by line and column. If no cell is at fault, the
        # plan's error stands.
        if args.dataset:
            refuse_past_guard(args.dataset, config.codec.data_bits)
        raise
    out = None

    def emit(record: dict) -> None:
        line = _RECORD_ENCODER.encode(record) + "\n"
        nonlocal out
        if out is None:
            out = open(args.out, "w") if args.out else sys.stdout
        out.write(line)

    try:
        # A run whose floats overflow is refused with one error line (a
        # non-finite value raises in run_training, in the quantizer guard or
        # in emit), so numpy's own overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = run_training(plan, on_iteration=lambda m: emit(
                {"record": "iteration", **iteration_record(m)}))
        emit({
            "record": "summary",
            "model": args.model,
            "iterations": plan.config.iterations,
            "batch_size": plan.config.batch_size,
            "seed": plan.config.seed,
            "data_bits": plan.config.codec.data_bits,
            "weight_bits": plan.config.codec.weight_bits,
            "final_loss": plan.model.loss(plan.X, plan.y, weights),
            "final_weights": [float(v) for v in weights],
        })
    finally:
        if out is not None and out is not sys.stdout:
            out.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Tags keep a reused instance's iterations apart, so --tagged wins.
    policy = "tagged" if args.tagged else "reused" if args.debug_reuse_instance else "fresh"
    results = run_all_checks(seed=args.seed, fe_policy=policy)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    return 1 if failed else 0


def cmd_synth(args: argparse.Namespace) -> int:
    model_kind = MODEL_BY_FLAG[args.model]
    _refuse_oversized(args.rows, args.features_per_client)
    dataset = synthesize(model_kind, args.rows, args.features_per_client, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "dataset.csv", dataset.header, dataset.rows)
    save_partition_spec(dataset.spec, out_dir / "partition.json")
    truth = {
        "model": args.model,
        "seed": args.seed,
        "true_weights": [float(v) for v in dataset.true_weights],
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote dataset.csv, partition.json, truth.json to {out_dir}\n")
    return 0


def main(argv=None) -> int:
    """Run one subcommand.

    Bad input, a missing or unreadable file, a diverging run and running
    out of memory each end with one error line on stderr and exit code 2.
    A reader that closes stdout early (``fedquad train ... | head -1``)
    ends the command quietly with exit code 0.
    """
    args = build_parser().parse_args(argv)
    handlers = {"train": cmd_train, "verify": cmd_verify, "synth": cmd_synth}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the interpreter's flush of what is
        # still buffered at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OverflowError, OSError, MemoryError) as err:
        # A MemoryError raised by the interpreter itself has no message.
        sys.stderr.write(f"fedquad: error: {str(err) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
