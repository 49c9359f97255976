import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from fedquad import baseline, cli, protocol
from fedquad.cli import build_parser, main
from fedquad.data import load_partition_spec


def _train_lines(capsys, extra=()):
    argv = ["train", "--synthetic", "--rows", "16", "--iters", "3",
            "--batch-size", "4", "--features-per-client", "1,2",
            "--seed", "5", *extra]
    assert main(argv) == 0
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()]


class TestTrain:
    def test_emits_one_record_per_iteration_plus_summary(self, capsys):
        records = _train_lines(capsys)
        assert [r["record"] for r in records] == ["iteration"] * 3 + ["summary"]
        assert [r["iteration"] for r in records[:3]] == [0, 1, 2]

    def test_iteration_record_fields(self, capsys):
        record = _train_lines(capsys)[0]
        assert set(record) == {
            "record", "iteration", "loss", "grad_norm",
            "max_abs_grad_diff_vs_oracle", "encryptions_per_client",
            "decryptions",
        }
        assert record["encryptions_per_client"] == [2, 1]
        assert record["decryptions"] == 3

    def test_summary_record_fields(self, capsys):
        summary = _train_lines(capsys)[-1]
        assert summary["model"] == "linear"
        assert summary["iterations"] == 3
        assert summary["batch_size"] == 4
        assert summary["seed"] == 5
        assert summary["data_bits"] == 12
        assert summary["weight_bits"] == 12
        assert len(summary["final_weights"]) == 3
        assert summary["final_loss"] >= 0.0

    def test_exact_flag_overrides_bit_flags(self, capsys):
        summary = _train_lines(capsys, ["--exact", "--data-bits", "9"])[-1]
        assert summary["data_bits"] == 0
        assert summary["weight_bits"] == 0

    def test_exact_mode_matches_oracle_bitwise(self, capsys):
        for record in _train_lines(capsys, ["--exact"])[:-1]:
            assert record["max_abs_grad_diff_vs_oracle"] == 0.0

    def test_logistic_model(self, capsys):
        records = _train_lines(capsys, ["--model", "logistic", "--exact"])
        assert records[-1]["model"] == "logistic"
        for record in records[:-1]:
            assert record["max_abs_grad_diff_vs_oracle"] == 0.0

    def test_out_file_byte_identical_to_rerun(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["train", "--synthetic", "--rows", "12", "--iters",
                         "4", "--batch-size", "3", "--seed", "7",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_file_based_dataset(self, tmp_path, capsys):
        assert main(["synth", "--rows", "12", "--features-per-client", "2,1",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["train", "--dataset", str(tmp_path / "dataset.csv"),
                "--partition", str(tmp_path / "partition.json"),
                "--iters", "2", "--batch-size", "4"]
        assert main(argv) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert records[-1]["record"] == "summary"
        assert len(records) == 3

    @pytest.mark.parametrize("command", ["train-files", "train-synthetic", "synth",
                                         "verify"])
    def test_command_does_not_import_numpy_random(self, tmp_path, command):
        import subprocess
        import sys

        # numpy.random (and secrets, hashlib, OpenSSL with it) is imported
        # lazily on first use; no command has a use for it.
        (tmp_path / "dataset.csv").write_text(
            "a,b,c,y\n" + "".join(f"{i % 3},{i % 5 - 2},{i % 2},{i % 4}\n"
                                   for i in range(12)))
        (tmp_path / "partition.json").write_text(json.dumps({
            "clients": [{"name": "p", "features": ["a", "b"]},
                        {"name": "q", "features": ["c"]}],
            "label": {"client": "p", "column": "y"}}))
        metrics = tmp_path / "metrics.jsonl"
        train = ["--iters", "5", "--batch-size", "4", "--out", str(metrics)]
        argv = {
            "train-files": ["train", "--dataset", str(tmp_path / "dataset.csv"),
                            "--partition", str(tmp_path / "partition.json"), *train],
            "train-synthetic": ["train", "--synthetic", "--rows", "12", *train],
            "synth": ["synth", "--rows", "12", "--out", str(tmp_path / "bundle")],
            "verify": ["verify"],
        }[command]
        script = (
            "import contextlib, io, json, sys\n"
            "from fedquad.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "print(code, [m for m in ('numpy.random', 'secrets') if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.stderr == ""
        assert proc.stdout == "0 []\n"
        if command.startswith("train"):
            assert len(metrics.read_text().splitlines()) == 6

    def test_synthetic_conflicts_with_dataset(self, capsys):
        assert main(["train", "--synthetic", "--dataset", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "fedquad: error: --synthetic cannot be combined with --dataset/--partition\n")

    def test_dataset_requires_partition(self, capsys):
        # Also when no source is given at all.
        for flags in (["--dataset", "x.csv"], []):
            assert main(["train", *flags]) == 2
            assert capsys.readouterr().err == (
                "fedquad: error: train needs either --synthetic or both --dataset "
                "and --partition\n")

    # "--rows 64" is the default value, given explicitly: still refused.
    @pytest.mark.parametrize("flags", [
        ["--rows", "5", "--features-per-client", "9,9"],
        ["--features-per-client", "9,9"],
        ["--rows", "64"],
    ], ids=["both", "features", "default-rows"])
    def test_synthetic_only_flags_refused_with_files(self, flags, tmp_path, capsys):
        assert main(["synth", "--rows", "8", "--features-per-client", "1,1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.jsonl"
        assert main(["train", "--dataset", str(tmp_path / "dataset.csv"),
                     "--partition", str(tmp_path / "partition.json"), *flags,
                     "--iters", "1", "--batch-size", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"fedquad: error: {flags[0]} applies to --synthetic only, "
            "not to --dataset/--partition\n")
        assert not out.exists()

    def test_synthetic_defaults(self):
        args = build_parser().parse_args(["train", "--synthetic"])
        assert (args.rows, args.features_per_client) == (64, [2, 2, 2])

    def test_lambda_flag_parses(self):
        args = build_parser().parse_args(
            ["train", "--synthetic", "--lambda", "0.5"])
        assert args.reg_lambda == 0.5

    def test_bad_feature_counts_rejected(self):
        parser = build_parser()
        for bad in ("2,zero", "0,2", ""):
            with pytest.raises(SystemExit):
                parser.parse_args(["train", "--features-per-client", bad])


class TestErrors:
    def test_diverging_run_exits_2_with_one_line_and_no_traceback(self):
        import subprocess
        import sys

        # --lr 5 diverges until a weight leaves the quantizer's range.
        proc = subprocess.run(
            [sys.executable, "-m", "fedquad", "train", "--synthetic",
             "--lr", "5", "--iters", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("fedquad: error: ")
        assert "quantizer guard" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_float_overflow_prints_only_the_error_line(self):
        import subprocess
        import sys

        # lambda * w overflows; numpy would warn about it before the error.
        proc = subprocess.run(
            [sys.executable, "-m", "fedquad", "train", "--synthetic",
             "--lambda", "1e308", "--iters", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("fedquad: error: ")
        assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout

    def test_reader_closing_stdout_early_ends_quietly(self):
        import subprocess
        import sys

        # `fedquad train ... | head -1`: the reader takes one line and goes.
        # 1000 records are far more than the pipe holds, so later writes
        # meet the closed pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedquad", "train", "--synthetic", "--rows", "12",
             "--features-per-client", "1,1", "--iters", "1000", "--batch-size", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert stderr == b""
        assert json.loads(first)["iteration"] == 0

    @pytest.mark.parametrize("missing", ["dataset", "partition", "directory"])
    def test_unreadable_input_file_exits_2_with_one_line(self, tmp_path, missing):
        import subprocess
        import sys

        assert main(["synth", "--rows", "8", "--out", str(tmp_path)]) == 0
        files = {"dataset": str(tmp_path / "dataset.csv"),
                 "partition": str(tmp_path / "partition.json")}
        if missing == "directory":
            files["dataset"] = str(tmp_path)
        else:
            files[missing] = str(tmp_path / "absent")
        proc = subprocess.run(
            [sys.executable, "-m", "fedquad", "train",
             "--dataset", files["dataset"], "--partition", files["partition"]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("fedquad: error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    # Each document is malformed in one field of a spec for header a,b,y;
    # the message names the field and what is wrong with it.
    @pytest.mark.parametrize("doc,problem", [
        ({"clients": [{"name": "c", "features": "ab"}],
          "label": {"client": "c", "column": "y"}},
         "client 0 'features' must be a list, got a string"),
        ({"clients": [{"name": "c", "features": ["a", 2]}],
          "label": {"client": "c", "column": "y"}},
         "client 0 'features' entry must be a string, got a number"),
        ({"clients": [{"name": 7, "features": ["a", "b"]}],
          "label": {"client": 7, "column": "y"}},
         "client 0 'name' must be a string, got a number"),
        ({"clients": [{"name": "c", "features": ["a", "b"]}],
          "label": {"client": "c", "column": ["y"]}},
         "label 'column' must be a string, got a list"),
        ({"clients": [{"name": "c", "features": ["a", "b"]}]},
         "'label' is missing"),
        ({"clients": {"name": "c", "features": ["a", "b"]},
          "label": {"client": "c", "column": "y"}},
         "'clients' must be a list, got an object"),
        ({"clients": [{"name": "c", "features": ["a", "b"]}], "label": "y"},
         "'label' must be an object, got a string"),
        ([{"name": "c", "features": ["a", "b"]}],
         "the spec must be an object, got a list"),
    ], ids=["string-features", "number-feature", "number-name", "list-label",
            "missing-label", "object-clients", "string-label", "list-document"])
    def test_malformed_partition_spec_exits_2(self, doc, problem, tmp_path, capsys):
        dataset, spec = tmp_path / "dataset.csv", tmp_path / "partition.json"
        dataset.write_text("a,b,y\n1,2,3\n4,5,6\n")
        spec.write_text(json.dumps(doc))
        assert main(["train", "--dataset", str(dataset), "--partition", str(spec),
                     "--batch-size", "2", "--iters", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"fedquad: error: {spec}: malformed partition spec "
                                f"({problem})\n")
        assert captured.out == ""

    # (file, bytes, line): one file of a good a,b,y dataset and spec made
    # unreadable, and the file line a CSV's message names. The codec counts
    # positions from its read chunk, so only the late byte tells a chunk
    # position (5326 there) from a file offset (120014).
    @pytest.mark.parametrize("broken,content,line", [
        ("partition.json", b'{"clients":\n', None),
        ("partition.json", b'{"clients": "\xff"}', None),
        ("dataset.csv", b"a,b,y\n1,\xff,3\n", 2),
        ("dataset.csv", b"a,\xff,y\n1,2,3\n", 1),
        ("dataset.csv", b"a,b,y\n" + b"1,2,3\n" * 20001 + b"1,\xff,3\n", 20003),
        ("dataset.csv", b"a,b,y\r1,2,3\r\n\xff,2,3\r", 3),
    ], ids=["spec-broken-json", "spec-not-utf8", "csv-body-not-utf8", "csv-header-not-utf8",
            "csv-late-byte-not-utf8", "csv-cr-lines-not-utf8"])
    def test_undecodable_file_is_named(self, broken, content, line, tmp_path, capsys):
        (tmp_path / "dataset.csv").write_text("a,b,y\n1,2,3\n4,5,6\n")
        (tmp_path / "partition.json").write_text(json.dumps(
            {"clients": [{"name": "c", "features": ["a", "b"]}],
             "label": {"client": "c", "column": "y"}}))
        (tmp_path / broken).write_bytes(content)
        assert main(["train", "--dataset", str(tmp_path / "dataset.csv"),
                     "--partition", str(tmp_path / "partition.json"),
                     "--batch-size", "1", "--iters", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"fedquad: error: {tmp_path / broken}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        if line is not None:
            assert captured.err == (f"fedquad: error: {tmp_path / broken}: line {line}: "
                                    f"'utf-8' codec can't decode byte 0xff: "
                                    f"invalid start byte\n")

    # The label column comes first, so the plan's column index of a bad value
    # (the label is last there) is not the file's; load_csv names the file's.
    @pytest.mark.parametrize("line,column,cell", [
        (4, "a", "inf"), (3, "b", "-inf"), (4, "y", "nan"),
    ])
    def test_non_finite_cell_is_named_by_line_and_column(self, line, column, cell,
                                                         tmp_path, capsys):
        records = [["y", "a", "b"], ["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]
        records[line - 1][records[0].index(column)] = cell
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("".join(",".join(r) + "\n" for r in records))
        (tmp_path / "partition.json").write_text(json.dumps(
            {"clients": [{"name": "c0", "features": ["a"]},
                         {"name": "c1", "features": ["b"]}],
             "label": {"client": "c0", "column": "y"}}))
        assert main(["train", "--dataset", str(dataset),
                     "--partition", str(tmp_path / "partition.json"),
                     "--batch-size", "2", "--iters", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"fedquad: error: {dataset}: line {line}, column "
                                f"{column!r}: non-finite cell {cell!r}\n")
        assert captured.out == ""

    # A bare MemoryError has no message; numpy's names the allocation.
    @pytest.mark.parametrize("error,message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 EiB for an array"),
         "Unable to allocate 8.00 EiB for an array"),
    ], ids=["bare", "numpy"])
    def test_out_of_memory_exits_2_with_one_line(self, error, message, monkeypatch,
                                                 capsys):
        def synthesize(*args):
            raise error

        monkeypatch.setattr(cli, "synthesize", synthesize)
        assert main(["train", "--synthetic"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"fedquad: error: {message}\n"
        assert captured.out == ""

    # 10**15 rows are past the address space: even without the check,
    # numpy's allocation would fail rather than take the memory.
    @pytest.mark.parametrize("command", [["train", "--synthetic"], ["synth"]],
                             ids=["train", "synth"])
    def test_oversized_synthetic_shape_is_refused_by_its_flags(self, command, tmp_path,
                                                               capsys):
        assert main([*command, "--out", str(tmp_path / "out"), "--rows",
                     "1000000000000000", "--features-per-client", "4,4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fedquad: error: --rows 1000000000000000 with "
                              "--features-per-client 4,4 needs about ")
        assert err.endswith(" of physical memory\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_shape_over_physical_memory_is_refused_before_synthesizing(self, monkeypatch,
                                                                       capsys):
        # 10**6 rows of 8 features and a label budget 10**6 * 9 * 8 * 5 bytes,
        # against 2**16 pages of 4 KiB; synthesize is never reached.
        monkeypatch.setattr(cli.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 16}.__getitem__)
        monkeypatch.setattr(cli, "synthesize", None)
        assert main(["train", "--synthetic", "--rows", "1000000",
                     "--features-per-client", "4,4"]) == 2
        assert capsys.readouterr().err == (
            "fedquad: error: --rows 1000000 with --features-per-client 4,4 needs about "
            "0.335 GiB, more than the 0.25 GiB of physical memory\n")

    def test_bad_value_exits_2(self, capsys):
        assert main(["train", "--synthetic", "--rows", "16",
                     "--batch-size", "100"]) == 2
        err = capsys.readouterr().err
        assert err == "fedquad: error: batch_size 100 exceeds dataset rows 16\n"

    # {tmp} is a directory holding a synthesized dataset.csv and partition.json.
    @pytest.mark.parametrize("flags,message", [
        (["train", "--synthetic", "--lr", "nan"], "learning_rate must be finite and > 0, got nan"),
        (["train", "--synthetic", "--lr", "inf"], "learning_rate must be finite and > 0, got inf"),
        (["train", "--synthetic", "--lr", "0"], "learning_rate must be finite and > 0, got 0.0"),
        (["train", "--synthetic", "--lambda", "nan"], "reg_lambda must be finite and >= 0, got nan"),
        (["train", "--synthetic", "--lambda", "inf"], "reg_lambda must be finite and >= 0, got inf"),
        (["train", "--synthetic", "--rows", "-3"], "n_rows must be >= 1, got -3"),
        (["train", "--synthetic", "--rows", "0"], "n_rows must be >= 1, got 0"),
        (["train", "--synthetic", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--dataset", "{tmp}/dataset.csv", "--partition", "{tmp}/partition.json",
          "--seed", "-1"], "seed must be >= 0, got -1"),
        (["synth", "--seed", "-1", "--out", "{tmp}/out"], "seed must be >= 0, got -1"),
        (["verify", "--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_setting_is_named(self, flags, message, tmp_path, capsys):
        assert main(["synth", "--rows", "8", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([f.replace("{tmp}", str(tmp_path)) for f in flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"fedquad: error: {message}\n"
        assert captured.out == ""

    # The inputs are loaded, and an oversized shape refused, before the
    # settings are checked: the file or the shape is named, not --lr.
    @pytest.mark.parametrize("flags,message", [
        (["--dataset", "{tmp}/nope.csv", "--partition", "{tmp}/nope.json"],
         "[Errno 2] No such file or directory: '{tmp}/nope.csv'"),
        (["--synthetic", "--rows", "1000000000000000"],
         "--rows 1000000000000000 with --features-per-client 2,2,2 needs about"),
    ], ids=["missing-file", "oversized-shape"])
    def test_inputs_are_checked_before_settings(self, flags, message, tmp_path, capsys):
        assert main(["train", *[f.replace("{tmp}", str(tmp_path)) for f in flags],
                     "--lr", "nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fedquad: error: {message.replace('{tmp}', str(tmp_path))}")
        assert err.count("\n") == 1


def _reject_constant(token):
    raise ValueError(f"non-finite value {token} in a record")


def _strict_records(text):
    """Parse JSON lines, failing on NaN, Infinity and -Infinity."""
    return [json.loads(line, parse_constant=_reject_constant)
            for line in text.splitlines()]


class TestStreamedRecords:
    def test_records_are_written_as_they_are_made(self, monkeypatch, capsys):
        written = []
        original = protocol.run_iteration

        def spy(*args, **kwargs):
            written.append(len(capsys.readouterr().out.splitlines()))
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol, "run_iteration", spy)
        records = _train_lines(capsys)
        assert written == [0, 1, 1]
        assert [r["record"] for r in records] == ["iteration", "summary"]

    def test_diverging_run_keeps_the_records_before_the_failure(self, tmp_path, capsys):
        argv = ["train", "--synthetic", "--lr", "5"]
        out = tmp_path / "f"
        assert main([*argv, "--iters", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fedquad: error: ") and err.count("\n") == 1
        records = _strict_records(out.read_text())
        k = len(records)
        assert 0 < k < 10
        assert [r["iteration"] for r in records] == list(range(k))
        # Byte for byte what a run of only those k iterations writes first.
        complete = tmp_path / "k"
        assert main([*argv, "--iters", str(k), "--out", str(complete)]) == 0
        assert complete.read_text().splitlines()[:k] == out.read_text().splitlines()

    def test_quantizer_overflow_names_its_iteration(self, tmp_path, capsys):
        # Iteration 0's step is so large that iteration 1 passes the guard.
        out = tmp_path / "f"
        assert main(["train", "--synthetic", "--lr", "1e10", "--iters", "20",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fedquad: error: iteration 1: ")
        # The weight that left the range first, by its index.
        assert err.endswith(" quantizer guard at entry 0\n") and err.count("\n") == 1
        assert [r["iteration"] for r in _strict_records(out.read_text())] == [0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_loss_is_refused_before_its_record(self, value, tmp_path,
                                                          monkeypatch, capsys):
        real = protocol.mse_loss
        calls = []

        def flaky(*args):
            calls.append(None)
            return value if len(calls) == 3 else real(*args)

        monkeypatch.setattr(protocol, "mse_loss", flaky)
        out = tmp_path / "f"
        assert main(["train", "--synthetic", "--iters", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("fedquad: error: iteration 2 diverged")
        assert [r["iteration"] for r in _strict_records(out.read_text())] == [0, 1]

    def test_non_finite_summary_is_refused(self, monkeypatch, capsys):
        record = dataclasses.replace(baseline.model(baseline.MODEL_LINEAR),
                                     loss=lambda *args: float("inf"))
        # The summary reads the loss through the plan's model record.
        monkeypatch.setattr(protocol, "model", lambda kind: record)
        assert main(["train", "--synthetic", "--iters", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert [r["record"] for r in _strict_records(captured.out)] == ["iteration"] * 2

    @pytest.mark.parametrize("extra", [
        ["--lr", "5"], ["--lr", "1e300"], ["--lambda", "1e308"],
        ["--lambda", "1e300", "--lr", "1e-300"], ["--model", "logistic", "--lr", "40"],
    ])
    def test_no_output_holds_nan_or_infinity(self, extra, tmp_path, capsys):
        out = tmp_path / "f"
        code = main(["train", "--synthetic", "--iters", "10", *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        # numpy's overflow warnings would add lines; only the error may appear.
        assert err.count("\n") == (code == 2)
        # A run that fails before its first record writes no file.
        text = out.read_text() if out.exists() else ""
        assert "NaN" not in text and "Infinity" not in text
        _strict_records(text)


# train's flags for each fe_policy the CLI selects.
POLICY_FLAGS = {"fresh": [], "tagged": ["--tagged"]}


class TestHeldMemory:
    @pytest.mark.parametrize("policy", ["fresh", "tagged"])
    def test_train_holds_one_plan_not_the_shards(self, policy, monkeypatch, capsys):
        # 20000 rows of 64 features and a label, one full batch: a 9.9 MiB
        # float table. At the start of the last iteration train holds the
        # plan's float and int64 tables (about 2.08x) under either policy. A
        # reference to the shards kept through the run would add the
        # partition's copy (3.05x); a run-long --tagged instance that kept the
        # last iteration's checked set would add its ciphertexts and its
        # concatenated x (4.08x).
        rows, counts = 20000, "16,16,16,16"
        table = rows * 65 * 8
        held = []
        original = protocol.run_iteration

        def probe(*args, **kwargs):
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol, "run_iteration", probe)
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["train", "--synthetic", "--rows", str(rows),
                         "--features-per-client", counts, "--iters", "2",
                         "--batch-size", str(rows), *POLICY_FLAGS[policy]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        # Reported, not gated: the peak is test_full_batch_peak's.
        print(f"held {held[-1] / table:.2f}x, peak {peak / table:.2f}x the float table")
        assert len(held) == 2
        assert held[-1] <= 2.2 * table

    @pytest.mark.parametrize("policy", ["fresh", "tagged"])
    def test_full_batch_peak(self, policy, capsys):
        # 4096 rows of 64 features and a label, one full batch: a 2.1 MB float
        # table. The plan's build and an iteration each peak at about 4.2x
        # under either policy: an iteration holds the plan's float and int64
        # tables and at most two integer copies of the batch at once, since
        # its oracle runs before the integer gather, each copy is freed after
        # its use, and decrypt_all drops the checked set when it returns.
        rows = 4096
        table = rows * 65 * 8
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["train", "--synthetic", "--rows", str(rows),
                         "--features-per-client", "16,16,16,16", "--iters", "2",
                         "--batch-size", str(rows), *POLICY_FLAGS[policy]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert peak <= 4.5 * table, f"peak {peak / table:.2f}x the float table"


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out
        assert out.count("PASS") == 9
        assert "FAIL" not in out

    def test_report_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        assert main(["verify", "--out", str(path)]) == 0
        assert path.read_text() == capsys.readouterr().out

    def test_reuse_negative_control_fails(self, capsys):
        assert main(["verify", "--debug-reuse-instance"]) == 1
        out = capsys.readouterr().out
        assert "FAIL mix_and_match" in out
        assert "8/9 checks passed" in out

    def test_tagged_deployment_rejects_by_tag(self, capsys):
        # One setup per run: the probe's cross pairs fail on their tags.
        assert main(["verify", "--tagged"]) == 0
        out = capsys.readouterr().out
        assert "failure kinds {'TagMismatch': 20}" in out
        assert "9/9 checks passed" in out

    def test_tags_rescue_reused_instance(self, capsys):
        assert main(["verify", "--debug-reuse-instance", "--tagged"]) == 0
        assert "9/9 checks passed" in capsys.readouterr().out


class TestSynth:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["synth", "--model", "logistic", "--rows", "10",
                     "--features-per-client", "2,2", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "dataset.csv").exists()
        spec = load_partition_spec(out / "partition.json")
        assert [c.name for c in spec.clients] == ["c0", "c1"]
        truth = json.loads((out / "truth.json").read_text())
        assert truth["model"] == "logistic"
        assert truth["seed"] == 1
        assert len(truth["true_weights"]) == 4

    def test_deterministic_outputs(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["synth", "--rows", "8", "--seed", "2",
                         "--out", str(d)]) == 0
        for name in ("dataset.csv", "partition.json", "truth.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "fedquad", "verify", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "9/9 checks passed" in proc.stdout
