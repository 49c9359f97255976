"""Correctness checks on the records a benchmarked `fedquad train` wrote.

One check per iteration record (oracle gap exactly 0.0, one ciphertext per
client plus the label slot, F decryptions) and one for the summary (final
weights bitwise equal to centralized descent over the same batch schedule
and weight grid). Non-finite values fail the record they appear in: the
JSON is parsed with NaN and Infinity rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Expectation:
    iterations: int
    n_clients: int
    feature_total: int
    final_weights: np.ndarray

    @property
    def checks_per_run(self) -> int:
        return self.iterations + 1

    def fe_calls(self) -> dict[str, int]:
        """FE calls a full run must make: (N+1)T encrypts, FT keygens and decrypts."""
        T, F = self.iterations, self.feature_total
        return {"fe.encrypt_calls": (self.n_clients + 1) * T,
                "fe.keygen_calls": F * T, "fe.decrypt_calls": F * T}


def expectation_for(train_argv: list[str]) -> Expectation:
    """Centralized plaintext descent for the same data, schedule and codec."""
    from fedquad import cli
    from fedquad.baseline import centralized_training
    from fedquad.data import load_csv, load_partition_spec, partition_dataset, synthesize
    from fedquad.fixedpoint import FixedPointConfig
    from fedquad.protocol import exact_codec, make_batch_schedule, weight_grid_bits

    args = cli.build_parser().parse_args(train_argv)
    model_kind = cli.MODEL_BY_FLAG[args.model]
    if args.synthetic:
        data = synthesize(model_kind, args.rows, args.features_per_client, args.seed)
        shards, central = partition_dataset(data.header, data.rows, data.spec)
    else:
        header, rows = load_csv(args.dataset)
        shards, central = partition_dataset(header, rows,
                                            load_partition_spec(args.partition))
    if args.exact:
        codec = exact_codec(model_kind)
    else:
        codec = FixedPointConfig(data_bits=args.data_bits, weight_bits=args.weight_bits)
    schedule = make_batch_schedule(central.X.shape[0], args.batch_size,
                                   args.iters, args.seed)
    result = centralized_training(
        central.X, central.y, np.zeros(central.X.shape[1]), model_kind, schedule,
        args.lr, args.reg_lambda, weight_grid_bits(model_kind, codec))
    return Expectation(args.iters, len(shards), central.X.shape[1], result.weights)


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in a record")


def check_records(path, expected: Expectation) -> tuple[int, list[str]]:
    """(checks passed, problems) for one run's metrics file.

    A missing or truncated file fails every check it does not reach.
    """
    problems: list[str] = []
    passed = 0
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return 0, [f"no records: {err}"]
    records = []
    for line in lines:
        try:
            records.append(json.loads(line, parse_constant=_reject_constant))
        except ValueError as err:
            problems.append(str(err))
    iterations = {r.get("iteration"): r for r in records
                  if r.get("record") == "iteration"}
    summaries = [r for r in records if r.get("record") == "summary"]
    for t in range(expected.iterations):
        rec = iterations.get(t)
        if rec is None:
            problems.append(f"iteration {t}: no record")
            continue
        enc = rec["encryptions_per_client"]
        if rec["max_abs_grad_diff_vs_oracle"] != 0.0:
            problems.append(f"iteration {t}: oracle gap "
                            f"{rec['max_abs_grad_diff_vs_oracle']!r}")
        elif len(enc) != expected.n_clients or sum(enc) != expected.n_clients + 1:
            problems.append(f"iteration {t}: encryptions {enc}")
        elif rec["decryptions"] != expected.feature_total:
            problems.append(f"iteration {t}: {rec['decryptions']} decryptions")
        else:
            passed += 1
    if len(iterations) != expected.iterations:
        problems.append(f"{len(iterations)} iteration records, "
                        f"expected {expected.iterations}")
    if len(summaries) != 1:
        problems.append(f"{len(summaries)} summary records")
    else:
        final = np.array(summaries[0]["final_weights"], dtype=float)
        if final.tobytes() != expected.final_weights.tobytes():
            problems.append("final weights differ from centralized descent")
        else:
            passed += 1
    return passed, problems
