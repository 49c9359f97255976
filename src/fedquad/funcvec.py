"""Sparse coefficient vectors whose Kronecker inner products are gradient slices.

The concatenated input is x = [x_0 || ... || x_{N-1} || y], where x_i stacks
the columns of client i's feature matrix and y is the label vector. For each
client i and local feature p there is one coefficient vector c over x (x) x
such that

    <c, x (x) x> = ((y - sum_j X_j w_j)^T X_i)[p]

exactly, in integer arithmetic. Only S*(F+1) of the L**2 coefficients are
nonzero, and they are the same for every slice: one row block holding the
F+1 column coefficients (minus each quantized weight, and the quantized
constant 1 for the label column), shifted to the S rows of the slice's
feature column. A SliceVector therefore names its slice by index and
stores that block once, shared by all F slices of one weight vector; its
sorted (flat index, value) entries and dense form are derived on demand
for the oracles. SparseFunctionVector keeps an explicit entry list for
vectors built by hand.

The builders need only the flat quantized weights, in the column order of
x, and the batch size S: feature column k starts at x[k*S], so slice k
sits on rows k*S .. k*S + S - 1 of x (x) x. Which columns belong to which
client is the caller's record (TrainingPlan.columns), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .tensor import DENSE_KRON_MAX_LEN


@dataclass(frozen=True)
class SparseFunctionVector:
    """Sorted nonzero (flat index, value) entries over a dimension-L**2 space."""

    dimension: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = -1
        for index, value in self.entries:
            if not (0 <= index < self.dimension):
                raise ValueError(
                    f"entry index {index} out of range for dimension {self.dimension}"
                )
            if index <= prev:
                raise ValueError(f"entry indices must be strictly increasing at {index}")
            if value == 0:
                raise ValueError(f"zero value stored at index {index}")
            prev = index

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> list[int]:
        """Dense coefficient list; test-oracle use only, size guarded."""
        return _to_dense(self)


def _to_dense(c) -> list[int]:
    # The bound of tensor.dense_kron, the oracle these lists are paired with.
    if c.dimension > DENSE_KRON_MAX_LEN ** 2:
        raise ValueError(
            f"dense expansion is capped at dimension {DENSE_KRON_MAX_LEN ** 2}, "
            f"got {c.dimension}"
        )
    dense = [0] * c.dimension
    for index, value in c.entries:
        dense[index] = value
    return dense


@dataclass(frozen=True)
class ResidualBlock:
    """The row block of coefficients that every slice vector of one weight vector shares.

    x is the column stack of the S-row matrix [X_0 | ... | X_{N-1} | y], so
    column c starts at x[c*S]. Row s of the block holds coefficients[c] at
    column position c*S + s, so its inner product with x is the quantized
    residual of sample s. Zero coefficients are stored but are not entries.
    """

    rows: int
    coefficients: tuple[int, ...]
    nonzero_columns: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # L = rows * len(coefficients), the length of x, and L**2, the dimension
    # of x (x) x: stored once, since each of the F slice vectors reads them.
    vector_length: int = field(init=False, repr=False, compare=False)
    dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or not self.coefficients:
            raise ValueError(
                f"need rows >= 1 and at least one coefficient, got {self.rows} "
                f"and {len(self.coefficients)}"
            )
        # From a list, as in fe.setup: built once per iteration.
        object.__setattr__(self, "nonzero_columns", tuple(
            [c for c, value in enumerate(self.coefficients) if value != 0]))
        length = self.rows * len(self.coefficients)
        object.__setattr__(self, "vector_length", length)
        object.__setattr__(self, "dimension", length * length)

    def entries(self, base_row: int) -> Iterator[tuple[int, int]]:
        """Ascending (flat index, value) pairs of the block placed at base_row.

        Flat index of (row s, column c) is (base_row + s)*L + c*S + s.
        """
        S = self.rows
        L = self.vector_length
        columns = [(c * S, self.coefficients[c]) for c in self.nonzero_columns]
        for s in range(S):
            origin = (base_row + s) * L + s
            for start, value in columns:
                yield origin + start, value


class _SliceEntries:
    """Lazy sorted entries of a SliceVector: len is O(1), iteration derives them."""

    __slots__ = ("_vector",)

    def __init__(self, vector: SliceVector) -> None:
        self._vector = vector

    def __len__(self) -> int:
        return self._vector.nnz

    def __iter__(self) -> Iterator[tuple[int, int]]:
        block = self._vector.block
        return block.entries(self._vector.index * block.rows)


@dataclass(frozen=True)
class SliceVector:
    """Gradient slice `index`: the shared block on rows index*S .. index*S + S - 1.

    index runs over 0..F, one per column of x, the label column F
    included. Every entry outside those rows of x (x) x is zero. Two slice
    vectors are equal when their indices and block coefficients are.
    """

    index: int
    block: ResidualBlock

    def __post_init__(self) -> None:
        last = len(self.block.coefficients) - 1
        if not (0 <= self.index <= last):
            raise ValueError(f"slice index {self.index} outside 0..{last}")

    @property
    def dimension(self) -> int:
        return self.block.dimension

    @property
    def nnz(self) -> int:
        return self.block.rows * len(self.block.nonzero_columns)

    @property
    def entries(self) -> _SliceEntries:
        return _SliceEntries(self)

    def to_dense(self) -> list[int]:
        """Dense coefficient list; test-oracle use only, size guarded."""
        return _to_dense(self)


def residual_block(quantized_weights: Sequence[int], one_quantized: int,
                   rows: int) -> ResidualBlock:
    """The shared block: minus each quantized weight, then one_quantized for y.

    quantized_weights is in the column order of x (client ascending,
    feature ascending) and rows is the batch size S.
    """
    coefficients = [-int(w) for w in quantized_weights]
    coefficients.append(int(one_quantized))
    return ResidualBlock(rows=rows, coefficients=tuple(coefficients))


def residual_coefficients(quantized_weights: Sequence[int], one_quantized: int,
                          rows: int) -> tuple[tuple[int, int], ...]:
    """Coefficient entries of one row block, relative to that block's origin.

    For each sample s the entries pair position s of the block's rows with
    the s-th component of every feature column (value: minus the quantized
    weight) and of the label vector (value: the quantized constant 1), so a
    row's inner product with x is the quantized residual of sample s.
    Relative index of (row s, column c) is s*L + c*S + s. Zero weights are dropped.
    """
    return tuple(residual_block(quantized_weights, one_quantized, rows).entries(0))


def all_gradient_slice_vectors(quantized_weights: Sequence[int], one_quantized: int,
                               rows: int) -> list[SliceVector]:
    """All F slice vectors, in the order of quantized_weights.

    Slice k's decryption is gradient component k: the shared block sits on
    the rows of x's column k. All F vectors share one block.
    """
    block = residual_block(quantized_weights, one_quantized, rows)
    return [SliceVector(k, block) for k in range(len(quantized_weights))]
