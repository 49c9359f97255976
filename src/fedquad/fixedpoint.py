"""Fixed-point codec between real-valued data and the integer vectors fed to FE.

One rounding rule (half away from zero), one shared scale per decrypted
inner product. A decryption of quantized inputs carries the combined scale
2^(weight_bits + 2*data_bits): one weight factor and two data factors per
term. Both the overflow budget and the rounding-error budget are exposed
as explicit formulas so callers can check them before running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .draws import check_int

# Quantizing magnitudes at or above 2**62 would leave int64 territory on
# the numpy side and signals a caller error in any case.
QUANTIZE_GUARD_BITS = 62

MAX_FRACTIONAL_BITS = 24


@dataclass(frozen=True)
class FixedPointConfig:
    """Fractional bit counts for data (features, labels) and weights.

    Each is an int in [0, MAX_FRACTIONAL_BITS] (draws.check_int), as in
    "data_bits must be in [0, 24], got 25".
    """

    data_bits: int = 12
    weight_bits: int = 12

    def __post_init__(self) -> None:
        for name in ("data_bits", "weight_bits"):
            check_int(name, getattr(self, name), 0, MAX_FRACTIONAL_BITS)

    @property
    def scale_exp(self) -> int:
        """Scale exponent of a decrypted inner product: one weight and two data factors."""
        return self.weight_bits + 2 * self.data_bits

    @property
    def one_weight(self) -> int:
        """The constant coefficient 1 quantized at weight scale."""
        return 1 << self.weight_bits


def quantize(value: float, bits: int) -> int:
    """Round value * 2**bits to an integer, halves away from zero.

    The guard comes first, as in quantize_array and with its messages
    (no entry): NaN raises ValueError, and |value| >= 2**(guard - bits),
    an infinity included, OverflowError, before ldexp can overflow.
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"cannot quantize NaN (at 2**{bits})")
    if not abs(value) < math.ldexp(1.0, QUANTIZE_GUARD_BITS - bits):
        raise OverflowError(f"|{value}| * 2**{bits} exceeds the "
                            f"2**{QUANTIZE_GUARD_BITS} quantizer guard")
    q = math.floor(math.ldexp(abs(value), bits) + 0.5)
    return -q if value < 0 else q


def quantize_array(values: np.ndarray, bits: int) -> np.ndarray:
    """quantize applied to every entry of a float array, as int64 of the same shape.

    The same float operations in the same order as quantize, so every
    entry is bitwise equal to the scalar result. The guard is checked as
    |v| < 2**(guard - bits), exact and before ldexp can overflow. NaN
    raises ValueError, and an infinity, like any value past the guard,
    OverflowError; the error names the first entry that fails, by its
    index in a vector and by (row, column) in a table.
    """
    magnitude = np.abs(values)
    within = magnitude < math.ldexp(1.0, QUANTIZE_GUARD_BITS - bits)
    if not within.all():
        index = tuple(map(int, np.unravel_index(np.argmin(within), within.shape)))
        bad = values[index]
        entry = index[0] if len(index) == 1 else index
        if np.isnan(bad):
            raise ValueError(f"cannot quantize NaN (at 2**{bits}) at entry {entry}")
        raise OverflowError(
            f"|{bad}| * 2**{bits} exceeds the 2**{QUANTIZE_GUARD_BITS} quantizer "
            f"guard at entry {entry}"
        )
    # In place: each full-size temporary costs a fresh allocation.
    np.ldexp(magnitude, bits, out=magnitude)
    magnitude += 0.5
    np.floor(magnitude, out=magnitude)
    # copysign turns a negative value that rounds to zero into -0.0, which
    # the int64 cast makes 0, as the scalar -q does.
    return np.copysign(magnitude, values, out=magnitude).astype(np.int64)


def quantize_vector(values, bits: int) -> list[int]:
    """Quantize every entry of a 1-D array-like to a list of Python ints."""
    return quantize_array(np.asarray(values, dtype=float).ravel(), bits).tolist()


def dequantize(raw, scale_exp: int) -> float:
    """Exact raw / 2**scale_exp as a float (single correctly rounded division).

    raw may also be a float array of such integers: dividing by a power of
    two is exact below 2**126, so rounding raw to a float first changes nothing.
    """
    return raw / (1 << scale_exp)


def snap_to_grid(values, bits: int) -> np.ndarray:
    """Project real values onto the 2**-bits grid (quantize then dequantize)."""
    arr = np.asarray(values, dtype=float)
    # int64 / 2**bits is one correctly rounded division, as in dequantize.
    return (quantize_array(arr.ravel(), bits) / (1 << bits)).reshape(arr.shape)


def overflow_bound(S: int, F: int, qx: int, qw: int,
                   max_abs_x: float, max_abs_w: float) -> int:
    """Upper bound on |raw| for a decrypted gradient slice.

    Each of the S*(F+1) terms is one weight-scale coefficient times two
    data-scale factors. Callers must check the bound is < 2**126 before
    running, and must pass max_abs_w >= 1 when the constant label
    coefficient (value 1 at weight scale) participates. S and F are
    counts of at least 1 (draws.check_int).
    """
    S, F = check_int("S", S, 1), check_int("F", F, 1)
    return (S * (F + 1)
            * math.ceil(max_abs_w * (1 << qw))
            * math.ceil(max_abs_x * (1 << qx)) ** 2)


def inner_product_error_bound(S: int, F: int, qx: int, qw: int,
                              max_abs_x: float, max_abs_w: float) -> float:
    """Worst-case |dequantized - real| for one decrypted gradient slice.

    Rounding analysis with per-value rounding errors of at most 1/2:
    the quantized residual for one sample differs from 2^(qw+qx) times
    the real residual by at most

        delta = 2^(qw-1) + F * (2^(qw-1)*max_w + 2^(qx-1)*max_x + 1/4)

    and multiplying by the quantized data column adds one more rounded
    factor, giving a raw error of at most

        S * (2^(qw+qx)*max_res/2 + 2^qx*max_x*delta + delta/2)

    with max_res = max_x + F*max_w*max_x bounding the real residual
    (max_abs_x must bound labels as well as features). Divide by the
    scale 2^(qw+2qx) to get the bound below. It is a bound, not an
    estimate; typical errors sit far under it.
    """
    bx = float(max_abs_x)
    bw = float(max_abs_w)
    delta = math.ldexp(1.0, qw - 1) + F * (
        math.ldexp(bw, qw - 1) + math.ldexp(bx, qx - 1) + 0.25
    )
    max_res = bx + F * bw * bx
    raw_err = S * (math.ldexp(max_res, qw + qx - 1) + math.ldexp(bx, qx) * delta
                   + 0.5 * delta)
    return raw_err / math.ldexp(1.0, qw + 2 * qx)
