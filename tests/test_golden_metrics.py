"""Exact-mode `train` metrics files, pinned byte for byte.

Under the exact codec every quantized value and every decrypted slice is
an integer, so the records depend on no rounding choice and no platform.
A refactor of the protocol, the codec or the model arithmetic must leave
these files unchanged; tests/golden/ holds what the commands below write.
Regenerate a file only for a deliberate change of the records.

The `_files` runs train on committed `synth` bundles instead of
`--synthetic`, so they pin the protocol apart from the synthesizer: a new
synthetic generator changes the `--synthetic` goldens, never these.
"""

from pathlib import Path

import pytest

from fedquad.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The first `train` example of the README.
LINEAR = ["--model", "linear", "--iters", "20", "--batch-size", "16", "--lr", "0.02",
          "--seed", "3", "--exact"]
LOGISTIC_TAGGED = ["--model", "logistic", "--iters", "40", "--batch-size", "12",
                   "--lr", "1", "--lambda", "0.01", "--seed", "7", "--exact", "--tagged"]


def _bundle(name: str) -> list[str]:
    return ["--dataset", str(GOLDEN / name / "dataset.csv"),
            "--partition", str(GOLDEN / name / "partition.json")]


RUNS = {
    "train_linear_exact.jsonl": [
        "--synthetic", "--rows", "64", "--features-per-client", "2,2,2", *LINEAR],
    "train_logistic_exact_tagged.jsonl": [
        "--synthetic", "--rows", "48", "--features-per-client", "2,2",
        *LOGISTIC_TAGGED],
    # `synth --rows 64 --features-per-client 2,2,2 --seed 3` of the
    # synthesizer that drew from numpy.random.default_rng.
    "train_linear_exact_files.jsonl": [*_bundle("bundle_linear_seed3"), *LINEAR],
    # `synth --model logistic --rows 48 --features-per-client 2,2 --seed 7`,
    # from the same synthesizer.
    "train_logistic_exact_tagged_files.jsonl": [
        *_bundle("bundle_logistic_seed7"), *LOGISTIC_TAGGED],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exact_metrics_are_unchanged(name, tmp_path):
    out = tmp_path / name
    assert main(["train", *RUNS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
