import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedquad.fixedpoint import (
    FixedPointConfig,
    dequantize,
    inner_product_error_bound,
    overflow_bound,
    quantize,
    quantize_array,
    quantize_vector,
    snap_to_grid,
)


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, 8) == 0

    def test_unit(self):
        assert quantize(1.0, 8) == 256

    def test_half_away_from_zero(self):
        # -0.3 * 16 = -4.8 rounds away from zero
        assert quantize(-0.3, 4) == -5
        assert quantize(0.3, 4) == 5

    def test_exact_halves(self):
        assert quantize(0.5, 0) == 1
        assert quantize(-0.5, 0) == -1
        assert quantize(2.5, 0) == 3

    @given(st.floats(-1e6, 1e6), st.integers(0, 24))
    def test_odd_symmetry(self, v, bits):
        assert quantize(-v, bits) == -quantize(v, bits)

    @given(st.integers(0, 24))
    def test_zero_for_all_bits(self, bits):
        assert quantize(0.0, bits) == 0

    def test_magnitude_guard(self):
        with pytest.raises(OverflowError):
            quantize(float(1 << 40), 24)

    # The guard comes before ldexp, which overflows past 2**(1024 - bits),
    # and its messages are quantize_array's without the entry.
    @pytest.mark.parametrize("value", [1e305, -1e305])
    def test_far_past_the_guard_raises_the_guard_message(self, value):
        message = re.escape(f"|{value}| * 2**12 exceeds the 2**62 quantizer guard")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            quantize(value, 12)
        with pytest.raises(OverflowError, match=f"^{message} at entry 0$"):
            quantize_array(np.array([value]), 12)

    def test_nan_raises_the_guard_message(self):
        message = re.escape("cannot quantize NaN (at 2**12)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            quantize(math.nan, 12)
        with pytest.raises(ValueError, match=f"^{message} at entry 0$"):
            quantize_array(np.array([math.nan]), 12)

    def test_vector_helper(self):
        assert quantize_vector(np.array([0.5, -0.5]), 1) == [1, -1]


# Finite floats up to just past the guard at every bit count, plus exact
# halves and signed zeros, which is where rounding could drift.
_guard_floats = st.one_of(
    st.floats(-2.0 ** 63, 2.0 ** 63, allow_nan=False),
    st.integers(-(1 << 20), 1 << 20).map(lambda n: n / 2 + 0.0),
    st.sampled_from([0.0, -0.0, 2.0 ** 61 - 0.5, -(2.0 ** 62), 2.0 ** 62]),
)


def _scalar_or_error(values, bits):
    try:
        return [quantize(v, bits) for v in values]
    except (OverflowError, ValueError) as err:
        return type(err)


def _scalar_or_error_vector(values, bits):
    try:
        return quantize_vector(np.array(values, dtype=float), bits)
    except (OverflowError, ValueError) as err:
        return type(err)


class TestVectorizedQuantize:
    """quantize_vector and snap_to_grid against the scalar quantize loop."""

    @given(st.lists(_guard_floats, max_size=12), st.integers(0, 24))
    def test_quantize_vector_matches_scalar(self, values, bits):
        expected = _scalar_or_error(values, bits)
        if isinstance(expected, list):
            got = quantize_vector(np.array(values, dtype=float), bits)
            assert got == expected
            assert all(type(q) is int for q in got)
        else:
            with pytest.raises(expected):
                quantize_vector(np.array(values, dtype=float), bits)

    @given(st.lists(_guard_floats, max_size=12), st.integers(0, 24))
    def test_snap_matches_scalar_bitwise(self, values, bits):
        expected = _scalar_or_error(values, bits)
        if isinstance(expected, list):
            scalar = np.array([dequantize(q, bits) for q in expected],
                              dtype=float)
            got = snap_to_grid(np.array(values, dtype=float), bits)
            assert got.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("bad,error", [
        (math.nan, ValueError), (math.inf, OverflowError),
        (-math.inf, OverflowError), (1e308, OverflowError),
    ])
    def test_non_finite_raises(self, bad, error):
        values = np.array([1.0, bad, 2.0])
        with pytest.raises(error):
            quantize_vector(values, 12)
        with pytest.raises(error):
            snap_to_grid(values, 12)

    @pytest.mark.parametrize("bits", [0, 1, 12, 24])
    def test_guard_edge_at_every_bit_count(self, bits):
        edge = 2.0 ** (62 - bits)
        for v in (np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0), edge, -edge):
            assert _scalar_or_error([v], bits) == _scalar_or_error_vector([v], bits)

    def test_array_keeps_shape(self):
        values = np.array([[0.5, -1.25], [2.75, -0.5], [3.0, 0.0]])
        got = quantize_array(values, 1)
        assert got.dtype == np.int64 and got.shape == (3, 2)
        assert got.tolist() == [[quantize(v, 1) for v in row] for row in values]


class TestDequantize:
    def test_float_array_matches_scalar_bitwise(self):
        # Raws up to 126 bits, including ones that round to a float tie.
        rng = np.random.default_rng(5)
        raws = [int(r) << int(k) for r, k in zip(rng.integers(-(1 << 62), 1 << 62, 200),
                                                 rng.integers(0, 64, 200))]
        raws += [((1 << 53) + 1) << 60, -(((1 << 53) + 3) << 40), (1 << 53) - 1]
        for scale in (0, 36, 72):
            got = dequantize(np.array(raws, dtype=float), scale)
            scalar = np.array([dequantize(r, scale) for r in raws])
            assert got.tobytes() == scalar.tobytes()

    def test_zero(self):
        assert dequantize(0, 16) == 0.0

    def test_unit(self):
        assert dequantize(1 << 16, 16) == 1.0

    def test_roundtrip_on_grid(self):
        for v in (-2.75, 0.125, 3.5):
            assert dequantize(quantize(v, 4), 4) == v


class TestSnapToGrid:
    def test_identity_on_grid(self):
        w = np.array([0.25, -1.5, 3.0])
        assert np.array_equal(snap_to_grid(w, 2), w)

    def test_rounds_off_grid(self):
        assert np.array_equal(snap_to_grid(np.array([0.3]), 2), np.array([0.25]))

    def test_preserves_shape(self):
        w = np.zeros((2, 3))
        assert snap_to_grid(w, 5).shape == (2, 3)


class TestConfig:
    def test_defaults(self):
        config = FixedPointConfig()
        assert (config.data_bits, config.weight_bits) == (12, 12)
        assert config.scale_exp == 36
        assert config.one_weight == 4096

    @pytest.mark.parametrize("kwargs", [
        {"data_bits": -1}, {"weight_bits": 25}, {"data_bits": 99},
        {"data_bits": 12.5}, {"weight_bits": True}, {"weight_bits": "3"},
    ])
    def test_rejects_out_of_range(self, kwargs):
        # An int outside [0, 24] is a ValueError; a float, a bool or a
        # string is a TypeError (12.5 would make scale_exp the float 37.0).
        (name, value), = kwargs.items()
        if type(value) is int:
            error, message = ValueError, f"{name} must be in [0, 24], got {value}"
        else:
            error, message = TypeError, f"{name} must be an integer, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            FixedPointConfig(**kwargs)


class TestOverflowBound:
    def test_minimal(self):
        assert overflow_bound(1, 1, 0, 0, 1.0, 1.0) == 2

    def test_formula_evaluation(self):
        # S*(F+1)*ceil(max_w*2^qw)*ceil(max_x*2^qx)^2 = 8*7*1024*1024^2
        assert overflow_bound(8, 6, 8, 8, 4.0, 4.0) == 8 * 7 * 1024 * 1024 ** 2
        assert overflow_bound(8, 6, 8, 8, 4.0, 4.0) == 60_129_542_144

    def test_monotone_in_every_argument(self):
        base = (4, 3, 6, 6, 2.0, 2.0)
        reference = overflow_bound(*base)
        for position in range(len(base)):
            bumped = list(base)
            bumped[position] = bumped[position] + 1
            assert overflow_bound(*bumped) >= reference

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            overflow_bound(0, 1, 0, 0, 1.0, 1.0)

    # S and F are counts (draws.check_int); 2.5 was taken and gave a float bound.
    @pytest.mark.parametrize("S, F, message", [
        (2.5, 1, "S must be an integer, got 2.5"),
        (True, 1, "S must be an integer, got True"),
        (1, 2.0, "F must be an integer, got 2.0"),
    ], ids=["S-float", "S-bool", "F-float"])
    def test_counts_refused_by_name(self, S, F, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            overflow_bound(S, F, 0, 0, 1.0, 1.0)

    def test_bounds_actual_accumulation(self):
        rng = np.random.default_rng(3)
        qx = qw = 6
        S, F = 4, 3
        bound = overflow_bound(S, F, qx, qw, 1.0, 1.0)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=(S, F))
            y = rng.uniform(-1, 1, size=S)
            w = rng.uniform(-1, 1, size=F)
            xq = np.array([[quantize(v, qx) for v in row] for row in x], dtype=object)
            yq = [quantize(v, qx) for v in y]
            wq = [quantize(v, qw) for v in w]
            one = 1 << qw
            for p in range(F):
                raw = sum(
                    (one * yq[s] - sum(wq[f] * xq[s][f] for f in range(F)))
                    * xq[s][p]
                    for s in range(S)
                )
                assert abs(raw) <= bound


class TestErrorBound:
    def test_quantize_compute_dequantize_within_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            S = int(rng.integers(1, 9))
            F = int(rng.integers(1, 13))
            qx = qw = 12
            x = rng.uniform(-1, 1, size=(S, F))
            y = rng.uniform(-1, 1, size=S)
            w = rng.uniform(-1, 1, size=F)
            xq = [[quantize(v, qx) for v in row] for row in x]
            yq = [quantize(v, qx) for v in y]
            wq = [quantize(v, qw) for v in w]
            one = 1 << qw
            bound = inner_product_error_bound(S, F, qx, qw, 1.0, 1.0)
            real = (y - x @ w) @ x
            for p in range(F):
                raw = sum(
                    (one * yq[s] - sum(wq[f] * xq[s][f] for f in range(F)))
                    * xq[s][p]
                    for s in range(S)
                )
                got = dequantize(raw, qw + 2 * qx)
                assert abs(got - real[p]) <= bound

    def test_exact_mode_is_lossless_on_integers(self):
        rng = np.random.default_rng(5)
        S, F = 5, 4
        x = rng.integers(-8, 9, size=(S, F)).astype(float)
        y = rng.integers(-8, 9, size=S).astype(float)
        w = rng.integers(-4, 5, size=F).astype(float)
        real = (y - x @ w) @ x
        for p in range(F):
            raw = sum(
                (int(y[s]) - sum(int(w[f]) * int(x[s][f]) for f in range(F)))
                * int(x[s][p])
                for s in range(S)
            )
            assert dequantize(raw, 0) == real[p]

    def test_bound_grows_with_batch(self):
        small = inner_product_error_bound(1, 3, 12, 12, 1.0, 1.0)
        large = inner_product_error_bound(8, 3, 12, 12, 1.0, 1.0)
        assert large > small
