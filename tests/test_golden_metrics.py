"""Exact-mode `train` metrics files, pinned byte for byte.

Under the exact codec every quantized value and every decrypted slice is
an integer, so the records depend on no rounding choice and no platform.
A refactor of the protocol, the codec or the model arithmetic must leave
these files unchanged; tests/golden/ holds what the commands below write.
Regenerate a file only for a deliberate change of the records.
"""

from pathlib import Path

import pytest

from fedquad.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    # The first `train` example of the README.
    "train_linear_exact.jsonl": [
        "--synthetic", "--rows", "64", "--features-per-client", "2,2,2",
        "--model", "linear", "--iters", "20", "--batch-size", "16", "--lr", "0.02",
        "--seed", "3", "--exact"],
    "train_logistic_exact_tagged.jsonl": [
        "--synthetic", "--rows", "48", "--features-per-client", "2,2",
        "--model", "logistic", "--iters", "40", "--batch-size", "12", "--lr", "1",
        "--lambda", "0.01", "--seed", "7", "--exact", "--tagged"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exact_metrics_are_unchanged(name, tmp_path):
    out = tmp_path / name
    assert main(["train", *RUNS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
