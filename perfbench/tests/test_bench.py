import json
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from checks import check_records, expectation_for
from fedquad import cli, protocol
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]

SMALL = ["train", "--synthetic", "--model", "logistic", "--rows", "24",
         "--features-per-client", "2,2", "--iters", "5", "--batch-size", "6",
         "--lr", "0.1", "--seed", "4"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.fixture
def records(tmp_path):
    path = tmp_path / "m.jsonl"
    assert cli.main(SMALL + ["--out", str(path)]) == 0
    return path


def test_checks_pass_on_a_correct_run(records):
    expected = expectation_for(SMALL)
    assert check_records(records, expected) == (expected.checks_per_run, [])


@pytest.mark.parametrize("old, new", [
    ('"loss": ', '"loss": NaN, "was": '),
    ('"max_abs_grad_diff_vs_oracle": 0.0', '"max_abs_grad_diff_vs_oracle": 1e-300'),
    ('"decryptions": 4', '"decryptions": 3'),
])
def test_checks_fail_a_tampered_iteration(records, old, new):
    lines = records.read_text().splitlines()
    assert old in lines[2]
    lines[2] = lines[2].replace(old, new)
    records.write_text("\n".join(lines) + "\n")
    expected = expectation_for(SMALL)
    passed, problems = check_records(records, expected)
    assert passed == expected.checks_per_run - 1 and problems


def test_checks_compare_final_weights_bitwise(records):
    lines = records.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["final_weights"][0] = float(np.nextafter(summary["final_weights"][0], 1.0))
    records.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    expected = expectation_for(SMALL)
    passed, problems = check_records(records, expected)
    assert passed == expected.iterations
    assert problems == ["final weights differ from centralized descent"]


def test_missing_records_fail_every_check(tmp_path):
    assert check_records(tmp_path / "absent.jsonl", expectation_for(SMALL))[0] == 0


def test_plain_run_times_every_iteration_and_restores_the_hook(tmp_path):
    original = protocol.run_iteration
    result = worker.run_plain(cli, protocol, SMALL + ["--out", str(tmp_path / "m")])
    assert protocol.run_iteration is original
    assert result["exit"] == 0 and len(result["iter_ns"]) == 5
    assert 0 < result["setup_s"] < result["run_s"]


def test_setup_probe_stops_at_the_first_iteration(tmp_path):
    out = tmp_path / "m"
    result = worker.run_plain(cli, protocol, SMALL + ["--out", str(out)],
                              setup_only=True)
    assert result["iter_ns"] == [] and result["setup_s"] > 0
    assert not out.exists()


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "narrow-long", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
