"""Dense/sparse kernels for vectors and their Kronecker squares.

Arithmetic on quantized data is exact. The per-term sparse loop works on
Python integers and checks the accumulator width as it goes; it is the
reference. Block-structured vectors (one shared coefficient block on a
row block, see funcvec.SliceVector) take a residual kernel instead: the
block's residual r = coef·x is computed once per input and each slice is
a dot product of S input values with r. Write S for the block's rows,
C = max(1, sum|coef|), X = max(1, max|x|) and B = S·C·X², which bounds
every partial sum. The kernel has three paths:

- int64, when B < 2**63;
- two limbs, when B >= 2**63 but C·X < 2**63 and S·X < 2**31: r is
  computed in int64 and split into hi = r >> 32 and lo = r & (2**32 - 1),
  and a slice is (x·hi << 32) + x·lo with both dot products in int64;
- Python ints in numpy object arrays, when B < 2**(ACCUMULATOR_BITS - 1).

Past that the per-term loop runs and raises exactly where the
accumulator leaves its width. On the int64 and two-limb paths every
slice of a block is also available at once: block_slices computes the
slices at all aligned base rows (multiples of S) as one product,
x.reshape(-1, S) @ r or @ [hi, lo].T, converted to Python ints once, and
sparse_inner_kron answers an aligned slice from that list. The object
path and the per-term loop compute each slice on its own. Integer vectors enter the kernel through
int_vector (int64 when every value fits, otherwise Python ints, never
uint64 or float); seal is the read-only copy fe.encrypt keeps as a
ciphertext payload. The dense Kronecker product exists purely as a
desk-scale oracle for tests and is size-guarded accordingly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Accumulators emulate a signed integer of this width; exceeding it is a
# hard error, never a silent wrap.
ACCUMULATOR_BITS = 128

# The residual kernel runs in int64 when its a-priori bound stays below this.
INT64_LIMIT = 1 << 63

# The two-limb path splits r at this bit and needs S·max|x| below LIMB_LIMIT,
# so that S·max|x|·2**LIMB_BITS stays below INT64_LIMIT.
LIMB_BITS = 32
LIMB_LIMIT = 1 << (63 - LIMB_BITS)
LIMB_MASK = (1 << LIMB_BITS) - 1

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
    """Flat index of entry (a, b) in the Kronecker square of a length-`length` vector."""
    if not (0 <= a < length and 0 <= b < length):
        raise ValueError(f"index ({a}, {b}) out of range for length {length}")
    return a * length + b


def kron_unflat(flat: int, length: int) -> tuple[int, int]:
    """Inverse of kron_flat: recover (row, col) from a flat index."""
    if not (0 <= flat < length * length):
        raise ValueError(f"flat index {flat} out of range for length {length}")
    return divmod(flat, length)


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
    xs = [int(v) for v in x]
    return [a * b for a in xs for b in xs]


def int_vector(values) -> np.ndarray:
    """A 1-D integer vector as int64 when every value fits, else as Python ints.

    The result is never uint64 or float: values past int64 go into an
    object array of Python ints. An int64 array comes back as is, and any
    other signed or fitting unsigned integer array is cast; everything
    else goes through int() value by value.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
        if values.dtype == np.int64:
            return values
        if values.dtype.kind == "i" or (
                values.dtype.kind == "u"
                and (values.size == 0 or values.max() < INT64_LIMIT)):
            return values.astype(np.int64)
        values = values.tolist()
    ints = list(map(int, values))
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


def block_residual(block, x):
    """(x, r) as numpy arrays for a coefficient block, or None past the width.

    `block` provides `rows` (S) and `coefficients` (one per S-long column of
    the integer vector x). r_s = sum_c coefficients[c] * x[c*S + s] is
    the residual every slice vector on that block shares.
    B = S * sum|coefficients| * max|x|**2 (each factor at least 1) bounds
    every partial sum of r and of any slice's sum_s x[base + s] * r_s, as
    well as every single x and coefficient. Below 2**63 both arrays are
    int64. On the two-limb path x is int64 and r is a (2, S) int64 array
    holding hi = r >> LIMB_BITS and lo = r & LIMB_MASK. Below
    2**(ACCUMULATOR_BITS - 1) both hold Python ints. Otherwise the result
    is None, and callers fall back to the per-term loop, which raises
    exactly where the accumulator leaves its width.
    """
    x = int_vector(x)
    coefficients = block.coefficients
    rows = block.rows
    largest = max(1, int(x.max()), -int(x.min()))
    total = max(1, sum(map(abs, coefficients)))
    bound = rows * total * largest * largest
    if bound >= 1 << (ACCUMULATOR_BITS - 1):
        return None
    if bound < INT64_LIMIT or (total * largest < INT64_LIMIT
                               and rows * largest < LIMB_LIMIT):
        # |r_s| and its partial sums are at most total * largest.
        residual = (np.array(coefficients, dtype=np.int64)
                    @ x.reshape(len(coefficients), rows))
        if bound >= INT64_LIMIT:
            residual = np.stack((residual >> LIMB_BITS, residual & LIMB_MASK))
        return x, residual
    x = x.astype(object)
    residual = np.array(coefficients, dtype=object) @ x.reshape(len(coefficients), rows)
    return x, residual


def block_slices(residual) -> list[int] | None:
    """Every aligned slice value of one block and input, from one product.

    For (x, r) = block_residual(block, x), entry k is
    sum_s x[k*S + s] * r_s, the value of the slice vector at base row k*S,
    for every k in 0..len(x)/S - 1. On the int64 path this is
    x.reshape(-1, S) @ r; on the two-limb path it is x.reshape(-1, S) @
    [hi, lo].T, each row recombined as (hi << LIMB_BITS) + lo. Both are
    the dot products sparse_inner_kron takes per slice, so the same bound
    keeps them in int64. On the object path the result is None.
    """
    x, r = residual
    if r.dtype == object:
        return None
    products = x.reshape(-1, r.shape[-1]) @ r.T
    if r.ndim == 1:
        return products.tolist()
    return [(hi << LIMB_BITS) + lo for hi, lo in products.tolist()]


def sparse_inner_kron(c, x: Sequence[int], *, residual=None, slices=None) -> int:
    """Inner product of a sparse coefficient vector with x (x) x.

    `c` provides `dimension` (must equal len(x)**2) and `entries`, an
    iterable of (flat_index, value) pairs. The Kronecker square is never
    materialized: entry k contributes value * x[k // L] * x[k % L].
    Accumulation is exact; leaving the accumulator width raises.

    A `c` that also provides `block` and `base_row` evaluates as
    sum_s x[base_row + s] * r_s with (x, r) = block_residual(c.block, x);
    pass that value as `residual` to share it across the vectors of one
    block and input. With `slices` = block_slices(residual) as well, a
    base row that is a multiple of S is a lookup; any other base row
    takes the dot product.
    """
    length = len(x)
    if c.dimension != length * length:
        raise ValueError(
            f"dimension mismatch: c has {c.dimension}, x (x) x has {length * length}"
        )
    block = getattr(c, "block", None)
    if block is not None:
        if slices is not None:
            row, offset = divmod(c.base_row, block.rows)
            if offset == 0:
                return slices[row]
        if residual is None:
            residual = block_residual(block, x)
        if residual is not None:
            xa, r = residual
            xs = xa[c.base_row:c.base_row + block.rows]
            if r.ndim == 1:
                return int(xs @ r)
            hi, lo = r @ xs
            return (int(hi) << LIMB_BITS) + int(lo)
    xs = [int(v) for v in x]
    limit = ACCUMULATOR_BITS - 1
    acc = 0
    for k, v in c.entries:
        acc += v * xs[k // length] * xs[k % length]
        if acc.bit_length() > limit:
            raise AccumulatorOverflow(
                f"accumulator exceeded {ACCUMULATOR_BITS}-bit signed range"
            )
    return acc
