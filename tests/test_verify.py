import hashlib
import random
import re
from pathlib import Path

import numpy as np
import pytest

from fedquad.baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR
from fedquad.cli import main
from fedquad.draws import seeded
from fedquad.fixedpoint import FixedPointConfig
from fedquad import protocol
from fedquad.verify import (
    check_gradient_oracle,
    concatenated_input,
    gradient_error_bound,
    random_exact_instance,
    random_unit_instance,
    run_all_checks,
)
from fedquad.protocol import ClientShard, TrainingConfig, TrainingPlan


class TestInstanceGenerators:
    def test_exact_instances_respect_ranges(self):
        rng = random.Random(0)
        for _ in range(50):
            shards, weights = random_exact_instance(rng)
            assert 1 <= len(shards) <= 3
            assert shards[0].labels is not None
            assert all(sh.labels is None for sh in shards[1:])
            for sh in shards:
                assert 1 <= sh.features.shape[0] <= 8
                assert 1 <= sh.features.shape[1] <= 4
                assert np.all(np.abs(sh.features) <= 8)
                assert np.array_equal(sh.features, np.round(sh.features))
            assert np.all(np.abs(weights) <= 4)
            assert len(weights) == sum(sh.features.shape[1] for sh in shards)

    def test_binary_labels(self):
        rng = random.Random(1)
        shards, _ = random_exact_instance(rng, binary_labels=True)
        assert set(shards[0].labels) <= {0.0, 1.0}

    def test_unit_instances_stay_in_unit_box(self):
        rng = random.Random(2)
        for _ in range(50):
            shards, weights = random_unit_instance(rng)
            for sh in shards:
                assert np.all(np.abs(sh.features) <= 1.0)
            assert np.all(np.abs(weights) <= 1.0)

    # uniform_unit is exact IEEE arithmetic, so these digests do not depend
    # on the BLAS or the machine.
    @pytest.mark.parametrize("seed,binary_labels,digest", [
        (0, False, "2170a604f75e980c4e3fe7a2cf44d8ab95c587286b04540b534403f13dab84fd"),
        (0, True, "12604c474b3db4ec2e31d9c067e0ad67753ab5c4c2b8aff6fa2897ccdf44b4f5"),
        (1, False, "613972d1af8f7bd0f4c19c2ec7e4b3e4bc8569058aba406e6ed270bb2709e372"),
        (1, True, "2177dded4fa25426bd51fe431d213f04b120e88ea97a4c7c56f6bcb78e29637d"),
    ], ids=["seed0", "seed0-binary", "seed1", "seed1-binary"])
    def test_unit_instance_draws_are_pinned(self, seed, binary_labels, digest):
        shards, weights = random_unit_instance(seeded(seed), binary_labels=binary_labels)
        h = hashlib.sha256()
        for values in (*(sh.features for sh in shards), shards[0].labels, weights):
            h.update(np.asarray(values, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest


class TestConcatenatedInput:
    def test_column_major_blocks_then_labels(self):
        shards = [
            ClientShard(np.array([[1.0, 3.0], [2.0, 4.0]]), np.array([9.0, 8.0])),
            ClientShard(np.array([[5.0], [6.0]])),
        ]
        assert concatenated_input(shards, shards[0].labels) == [
            1, 2, 3, 4, 5, 6, 9, 8,
        ]

    def test_a_non_integer_is_refused_by_position(self):
        # x = [1.0, 1.5, 2, 3]: position 1 holds 1.5, which int() would make 1.
        shards = [ClientShard(np.array([[1.0], [1.5]]), np.array([2.0, 3.0]))]
        with pytest.raises(ValueError, match=r"^position 1 holds 1\.5$"):
            concatenated_input(shards, shards[0].labels)
        x = concatenated_input([ClientShard(np.array([[-2.0], [2.0 ** 62]]))], [7, 0])
        assert x == [-2, 1 << 62, 7, 0] and all(type(v) is int for v in x)


class TestGradientErrorBound:
    def _instance(self):
        rng = random.Random(3)
        return random_unit_instance(rng)

    def test_positive(self):
        shards, weights = self._instance()
        plan = TrainingPlan(shards, TrainingConfig(MODEL_LINEAR, codec=FixedPointConfig()))
        bound = gradient_error_bound(plan, weights)
        assert bound > 0

    def test_more_bits_tighten_the_bound(self):
        shards, weights = self._instance()
        coarse = gradient_error_bound(TrainingPlan(shards, TrainingConfig(
            MODEL_LINEAR, codec=FixedPointConfig(8, 8))), weights)
        fine = gradient_error_bound(TrainingPlan(shards, TrainingConfig(
            MODEL_LINEAR, codec=FixedPointConfig(16, 16))), weights)
        assert fine < coarse

    def test_logistic_bound_differs_from_linear(self):
        shards, weights = self._instance()
        lin = gradient_error_bound(TrainingPlan(shards, TrainingConfig(
            MODEL_LINEAR, codec=FixedPointConfig())), weights)
        log = gradient_error_bound(TrainingPlan(shards, TrainingConfig(
            MODEL_LOGISTIC_TAYLOR, codec=FixedPointConfig())), weights)
        assert lin != log


class TestBattery:
    def test_all_checks_pass(self):
        results = run_all_checks(seed=7)
        assert len(results) == 9
        assert all(r.passed for r in results), \
            [f"{r.name}: {r.detail}" for r in results if not r.passed]
        assert len({r.name for r in results}) == 9
        assert all(r.detail for r in results)

    # The oracle check reads each step's own gap; decrypted slices off by
    # one must make it fail, not pass.
    @pytest.mark.parametrize("model_kind", [MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR])
    def test_gradient_oracle_fails_on_a_wrong_slice(self, model_kind, monkeypatch):
        dequantize = protocol.dequantize
        monkeypatch.setattr(protocol, "dequantize",
                            lambda raw, exp: dequantize(raw, exp) + 1.0)
        result = check_gradient_oracle(model_kind)
        assert not result.passed
        assert re.fullmatch(r"exact-mode gap \S+, expected 0", result.detail)

    def test_reuse_control_fails_exactly_mix_and_match(self):
        results = run_all_checks(seed=7, fe_policy="reused")
        failed = [r.name for r in results if not r.passed]
        assert failed == ["mix_and_match"]


class TestPinnedReports:
    """`fedquad verify --seed 0` and `--seed 1` print tests/golden/verify_seed<n>.txt.

    `--seed 0 --tagged` and `--seed 0 --debug-reuse-instance` print
    verify_seed0_tagged.txt and verify_seed0_debug_reuse_instance.txt (the
    latter fails mix_and_match and exits 1). The reports pin the draws of
    the instance generators and of the synthetic shards ("322 slices
    agree"). The finite-difference line is matched by pattern only: its
    float digits depend on the BLAS build.
    """

    FINITE_DIFFERENCE = re.compile(r"PASS gradient_finite_difference: worst relative "
                                   r"gap \d\.\d\de-\d\d over 20 instances")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_report_is_unchanged(self, seed, capsys):
        self._assert_pinned(["verify", "--seed", str(seed)], 0, f"verify_seed{seed}", capsys)

    @pytest.mark.parametrize("flag, code", [("--tagged", 0), ("--debug-reuse-instance", 1)],
                             ids=["tagged", "debug-reuse-instance"])
    def test_policy_report_is_unchanged(self, flag, code, capsys):
        golden = "verify_seed0_" + flag.lstrip("-").replace("-", "_")
        self._assert_pinned(["verify", "--seed", "0", flag], code, golden, capsys)

    def _assert_pinned(self, argv, code, golden, capsys):
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        pinned = (Path(__file__).parent / "golden" / f"{golden}.txt").read_text().splitlines()
        assert len(lines) == len(pinned)
        for line, want in zip(lines, pinned):
            if want.startswith("PASS gradient_finite_difference:"):
                assert self.FINITE_DIFFERENCE.fullmatch(line), line
            else:
                assert line == want
