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

import os
import subprocess
import sys
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


def _bom_copy(name: str, tmp_path: Path, column: str = "x1") -> list[str]:
    """A bundle's two files with a UTF-8 byte-order mark first and x1 renamed to column."""
    args = []
    for flag, file in (("--dataset", "dataset.csv"), ("--partition", "partition.json")):
        text = (GOLDEN / name / file).read_text(encoding="utf-8").replace("x1", column)
        (tmp_path / file).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        args += [flag, str(tmp_path / file)]
    return args


def test_byte_order_mark_changes_no_record(tmp_path):
    out = tmp_path / "metrics.jsonl"
    assert main(["train", *_bom_copy("bundle_linear_seed3", tmp_path), *LINEAR,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "train_linear_exact_files.jsonl").read_bytes()


def test_ascii_locale_reads_utf8_files(tmp_path):
    # Under the C locale without UTF-8 mode, open() defaults to ASCII; the
    # loaders read UTF-8 anyway, so a non-ASCII column name and a
    # byte-order mark train to the same records.
    name = "train_logistic_exact_tagged_files.jsonl"
    out = tmp_path / name
    bundle = _bom_copy("bundle_logistic_seed7", tmp_path, "gr\u00f6\u00dfe")
    script = ("import locale, sys\n"
              "from fedquad.cli import main\n"
              "print(locale.getpreferredencoding(False))\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-c", script, "train", *bundle,
                           *LOGISTIC_TAGGED, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.stdout == "ANSI_X3.4-1968\n", proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
