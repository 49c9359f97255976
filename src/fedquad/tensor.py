"""Dense/sparse kernels for vectors and their Kronecker squares.

Arithmetic on quantized data is exact, in a signed accumulator of
ACCUMULATOR_BITS whose overflow raises AccumulatorOverflow, never wraps.
The per-term sparse loop of sparse_inner_kron works on Python integers
and is the reference. Block-structured vectors (one shared coefficient
block on a row block, see funcvec.SliceVector) have a block kernel:
block_slices gives every slice value of a block at once, and limb_plan
picks its arithmetic. sparse_inner_kron only looks a slice up in the
list its caller passes; fe makes that list once per checked ciphertext
set, the one package caller of block_slices.

Integer vectors enter the kernel through int_list, the one place that
decides what an integer value is. It is the rule of every ciphertext
payload and of every function vector's coefficients; int_vector is that
rule as an array and seal its read-only copy. Counts and indices follow
draws.check_int instead. The dense Kronecker product exists purely as a
desk-scale oracle for tests and is size-guarded accordingly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Accumulators emulate a signed integer of this width; exceeding it is a
# hard error, never a silent wrap.
ACCUMULATOR_BITS = 128

# Values and partial sums below this fit int64.
INT64_LIMIT = 1 << 63

# dense_kron materializes len(x)**2 entries; oracle use only.
DENSE_KRON_MAX_LEN = 256


class AccumulatorOverflow(OverflowError):
    """An exact integer accumulation left the supported width."""


def vec_columns(matrix: np.ndarray) -> np.ndarray:
    """Stack the columns of a 2-D matrix into one vector.

    out[f*S + s] == matrix[s, f] for an S-row, F-column input.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    return m.ravel(order="F")


def kron_flat(a: int, b: int, length: int) -> int:
    """Flat index of entry (a, b) in the Kronecker square of a length-`length` vector.

    divmod(flat, length) inverts it.
    """
    if not (0 <= a < length and 0 <= b < length):
        raise ValueError(f"index ({a}, {b}) out of range for length {length}")
    return a * length + b


def dense_kron(x: Sequence[int]) -> list[int]:
    """Materialize x (x) x as a dense list: out[a*L + b] = x[a]*x[b].

    Test oracle only; guarded so it never runs at protocol scale.
    """
    n = len(x)
    if n < 1:
        raise ValueError("empty vector")
    if n > DENSE_KRON_MAX_LEN:
        raise ValueError(
            f"dense Kronecker materialization is capped at {DENSE_KRON_MAX_LEN} "
            f"entries (got {n}); it exists only as a test oracle"
        )
    xs = int_list(x)
    return [a * b for a in xs for b in xs]


def int_list(values, name: str = "position") -> list[int]:
    """The values of a 1-D integer vector as a list of Python ints.

    A value v is an integer when int(v) == v, so True and 2.0 pass; any
    other value (2.9), and one int() rejects (nan, inf, '3'), raises
    ValueError naming its position ("{name} {position} holds {value!r}",
    as in "coefficient 0 holds -1.5"). No value is truncated. An array is
    read through its tolist, so every value is compared as a Python object.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
        values = values.tolist()
    else:
        values = list(values)
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    # One comparison of whole lists; the loop only names the first offender.
    if ints != values:
        for position, value in enumerate(values):
            try:
                if int(value) == value:
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            raise ValueError(f"{name} {position} holds {value!r}")
    return ints


def int_vector(values, name: str = "position") -> np.ndarray:
    """int_list(values, name) as int64 when every value fits, else as Python ints.

    The result is never uint64 or float: values past int64 go into an
    object array of Python ints. A 1-D int64 array comes back as is.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        return values
    ints = int_list(values, name)
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def seal(values) -> np.ndarray:
    """A read-only int_vector copy of values that shares no memory with them."""
    sealed = np.array(int_vector(values))
    # `flags.writeable = False` leaves bytes allocated per call (numpy 2.4).
    sealed.setflags(write=False)
    return sealed


def limb_plan(rows: int, total: int, largest: int) -> tuple[int, int] | None:
    """(b, k) for the int64 limb kernel, or None for Python-int object arrays.

    For S = rows, C = total and X = largest, every |r_s| and partial sum of
    r is at most C·X, so r fits int64 when C·X < 2**63. A low limb of b
    bits lies in [0, 2**b) and the signed top limb in [-2**b, 2**b), so
    with b = 63 - bitlen(S·X) every partial sum of a limb's dot product
    with S values of x stays below S·X·2**b < 2**63; S·X < 2**62 keeps
    b >= 1. k = ceil(bitlen(C·X) / b) limbs cover r.
    """
    spread, reach = rows * largest, total * largest
    if reach >= INT64_LIMIT or spread >= 1 << 62:
        return None
    bits = 63 - spread.bit_length()
    return bits, -(-reach.bit_length() // bits)


def block_slices(block, x) -> list[int] | None:
    """Every slice value of one coefficient block on x, as Python ints.

    `block` provides `rows` (S) and `coefficients` (one per S-long column
    of the integer vector x). r_s = sum_c coefficients[c] * x[c*S + s] is
    the residual every slice vector on that block shares, and entry k is
    sum_s x[k*S + s] * r_s, the value of slice vector k.
    B = S * sum|coefficients| * max|x|**2 (each factor at least 1) bounds
    every partial sum of r and of each slice. At B >= 2**(ACCUMULATOR_BITS
    - 1) the result is None, and callers fall back to the per-term loop,
    which raises exactly where the accumulator leaves its width. Otherwise
    r = coefficients @ x.reshape(-1, S) and the slices x.reshape(-1, S) @ r
    are computed on object arrays when limb_plan gives None, and in int64
    when it gives (b, k): one x.reshape(-1, S) @ limb product per limb of
    r, recombined Horner-style in Python ints (one limb is r itself).
    """
    x = int_vector(x)
    coefficients = block.coefficients
    rows = block.rows
    largest = max(1, int(x.max()), -int(x.min()))
    total = max(1, sum(map(abs, coefficients)))
    if rows * total * largest * largest >= 1 << (ACCUMULATOR_BITS - 1):
        return None
    plan = limb_plan(rows, total, largest)
    dtype = object if plan is None else np.int64
    x = x.astype(dtype, copy=False)
    residual = np.array(coefficients, dtype=dtype) @ x.reshape(len(coefficients), rows)
    columns = x.reshape(-1, rows)
    if plan is None or plan[1] == 1:
        return (columns @ residual).tolist()
    bits, count = plan
    mask = (1 << bits) - 1
    # An arithmetic shift floors, so the top limb keeps the sign and the
    # masked low limbs are unsigned.
    values = (columns @ (residual >> bits * (count - 1))).tolist()
    for i in reversed(range(count - 1)):
        low = (columns @ ((residual >> bits * i) & mask)).tolist()
        values = [(v << bits) + w for v, w in zip(values, low)]
    return values


def sparse_inner_kron(c, x: Sequence[int], *, slices=None) -> int:
    """Inner product of a sparse coefficient vector with x (x) x.

    `c` provides `dimension` (must equal len(x)**2) and `entries`, an
    iterable of (flat_index, value) pairs. The Kronecker square is never
    materialized: entry k contributes value * x[k // L] * x[k % L].
    Accumulation is exact; leaving the accumulator width raises.

    A `c` that also provides `block` names slice `c.index` of that block.
    When the caller passes `slices`, block_slices(c.block, x) for this x,
    it is looked up there; this function never computes them itself.
    Every other call takes the per-term loop: a vector without a block,
    a slice vector passed without slices, and one whose block is past the
    width (slices None). Wherever x is read, it is read by int_list's
    rule: a non-integer value raises ValueError.
    """
    length = len(x)
    if c.dimension != length * length:
        raise ValueError(
            f"dimension mismatch: c has {c.dimension}, x (x) x has {length * length}"
        )
    if slices is not None and getattr(c, "block", None) is not None:
        return slices[c.index]
    xs = int_list(x)
    limit = ACCUMULATOR_BITS - 1
    acc = 0
    for k, v in c.entries:
        acc += v * xs[k // length] * xs[k % length]
        if acc.bit_length() > limit:
            raise AccumulatorOverflow(
                f"accumulator exceeded {ACCUMULATOR_BITS}-bit signed range"
            )
    return acc
