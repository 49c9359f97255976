"""Dense/sparse kernels for vectors and their Kronecker squares.

Arithmetic on quantized data is exact. The per-term sparse loop works on
Python integers and checks the accumulator width as it goes; it is the
reference. Block-structured vectors (one shared coefficient block on a
row block, see funcvec.SliceVector) take a residual kernel instead, on
int64 or Python-int numpy arrays, chosen by an a-priori bound that covers
every partial sum. The dense Kronecker product exists purely as a
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


def block_residual(block, x: Sequence[int]):
    """(x, r) as numpy arrays for a coefficient block, or None past the width.

    `block` provides `rows` (S) and `coefficients` (one per S-long column of
    the Python-int list x). r_s = sum_c coefficients[c] * x[c*S + s] is
    the residual every slice vector on that block shares.
    B = S * sum|coefficients| * max|x|**2 (each factor at least 1) bounds
    every partial sum of r and of any slice's sum_s x[base + s] * r_s, as
    well as every single x and coefficient. Below 2**63 the arrays are
    int64; below 2**(ACCUMULATOR_BITS - 1) they hold Python ints; otherwise
    None, and callers fall back to the per-term loop, which raises exactly
    where the accumulator leaves its width.
    """
    coefficients = block.coefficients
    largest = max(1, max(x), -min(x))
    bound = block.rows * max(1, sum(map(abs, coefficients))) * largest * largest
    if bound >= 1 << (ACCUMULATOR_BITS - 1):
        return None
    dtype = np.int64 if bound < INT64_LIMIT else object
    columns = np.array(x, dtype=dtype).reshape(len(coefficients), block.rows)
    residual = np.array(coefficients, dtype=dtype) @ columns
    return columns.ravel(), residual


def sparse_inner_kron(c, x: Sequence[int], *, residual=None) -> int:
    """Inner product of a sparse coefficient vector with x (x) x.

    `c` provides `dimension` (must equal len(x)**2) and `entries`, an
    iterable of (flat_index, value) pairs. The Kronecker square is never
    materialized: entry k contributes value * x[k // L] * x[k % L].
    Accumulation is exact; leaving the accumulator width raises.

    A `c` that also provides `block` and `base_row` evaluates as
    sum_s x[base_row + s] * r_s with (x, r) = block_residual(c.block, x);
    pass that value as `residual` to share it across the vectors of one
    block and input.
    """
    length = len(x)
    if c.dimension != length * length:
        raise ValueError(
            f"dimension mismatch: c has {c.dimension}, x (x) x has {length * length}"
        )
    block = getattr(c, "block", None)
    if block is not None:
        if residual is None:
            residual = block_residual(block, [int(v) for v in x])
        if residual is not None:
            xa, r = residual
            return int(xa[c.base_row:c.base_row + block.rows] @ r)
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
