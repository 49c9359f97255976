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

Coefficients follow the rule of a ciphertext's payload, tensor.int_list:
a value v is taken when int(v) == v and stored as that Python int (2.0 and
numpy.int64(2) are 2), and any other value raises ValueError naming its
position; none is truncated. Counts and indices (a block's rows, a slice
index, a vector's dimension and its entries' flat indices) follow
draws.check_int, which refuses a float and a bool with TypeError.

The builders need only the flat quantized weights, in the column order of
x, and the batch size S: feature column k starts at x[k*S], so slice k
sits on rows k*S .. k*S + S - 1 of x (x) x. Which columns belong to which
client is the caller's record (TrainingPlan.columns), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .draws import check_int
from .tensor import DENSE_KRON_MAX_LEN, int_list


@dataclass(frozen=True)
class SparseFunctionVector:
    """Sorted nonzero (flat index, value) entries over a dimension-L**2 space.

    dimension is a count and each index must exceed the one before it
    and lie below dimension; the entries are stored as pairs of Python ints.
    """

    dimension: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", check_int("dimension", self.dimension))
        indices = []
        for position, (index, _) in enumerate(self.entries):
            # low is the previous index + 1: one check for range and order.
            indices.append(check_int(f"entry {position} index", index,
                                     indices[-1] + 1 if indices else 0, self.dimension - 1))
        values = int_list([value for _, value in self.entries], "entry")
        if 0 in values:
            raise ValueError(f"zero value stored at index {indices[values.index(0)]}")
        object.__setattr__(self, "entries", tuple(zip(indices, values)))

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
        rows = check_int("rows", self.rows, 1)
        coefficients = tuple(int_list(self.coefficients, "coefficient"))
        if not coefficients:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "coefficients", coefficients)
        # From a list, as in fe.setup: built once per iteration.
        object.__setattr__(self, "nonzero_columns", tuple(
            [c for c, value in enumerate(coefficients) if value != 0]))
        length = rows * len(coefficients)
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

    # O(1), not a count of the derived entries: perfbench/tracer.py reads
    # len(c.entries) on every sparse_inner_kron call.
    def __len__(self) -> int:
        return self._vector.nnz

    def __iter__(self) -> Iterator[tuple[int, int]]:
        block = self._vector.block
        return block.entries(self._vector.index * block.rows)


class ReadOnly:
    """Slots that are set once, through their descriptors, and never again.

    Assigning or deleting any attribute raises AttributeError; the one
    way to set a slot is its descriptor's __set__ (see slot_setters).
    """

    __slots__ = ()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    # delattr(obj, name) passes no value, and is refused alike.
    __delattr__ = __setattr__


def slot_setters(cls: type) -> list:
    """The __set__ of each of cls's slot descriptors, in __slots__ order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class SliceVector(ReadOnly):
    """Gradient slice `index`: the shared block on rows index*S .. index*S + S - 1.

    index runs over 0..F, one per column of x, the label column F
    included. Every entry outside those rows of x (x) x is zero. A value
    with the eq, hash and repr of a frozen dataclass of (index, block):
    two slice vectors are equal when their indices and block coefficients
    are, and no field can be assigned or deleted. The block's dimension
    is stored once, since keygen and the kernel read it for every key.
    """

    __slots__ = ("index", "block", "dimension")

    def __init__(self, index: int, block: ResidualBlock) -> None:
        _set_index(self, check_int("slice index", index, 0, len(block.coefficients) - 1))
        _set_block(self, block)
        _set_dimension(self, block.dimension)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index, self.block) == (other.index, other.block)

    def __hash__(self) -> int:
        return hash((self.index, self.block))

    def __repr__(self) -> str:
        return f"SliceVector(index={self.index!r}, block={self.block!r})"

    # perfbench/tracer.py sums v.nnz over every vector the protocol builds.
    @property
    def nnz(self) -> int:
        return self.block.rows * len(self.block.nonzero_columns)

    @property
    def entries(self) -> _SliceEntries:
        return _SliceEntries(self)

    def to_dense(self) -> list[int]:
        """Dense coefficient list; test-oracle use only, size guarded."""
        return _to_dense(self)


_set_index, _set_block, _set_dimension = slot_setters(SliceVector)


def residual_block(quantized_weights: Sequence[int], one_quantized: int,
                   rows: int) -> ResidualBlock:
    """The shared block: minus each quantized weight, then one_quantized for y.

    quantized_weights is in the column order of x (client ascending,
    feature ascending) and rows is the batch size S.
    """
    coefficients = [-w for w in quantized_weights]
    coefficients.append(one_quantized)
    return ResidualBlock(rows=rows, coefficients=coefficients)


def residual_coefficients(quantized_weights: Sequence[int], one_quantized: int,
                          rows: int) -> tuple[tuple[int, int], ...]:
    """Coefficient entries of one row block, relative to that block's origin.

    For each sample s the entries pair position s of the block's rows with
    the s-th component of every feature column (value: minus the quantized
    weight) and of the label vector (value: the quantized constant 1), so a
    row's inner product with x is the quantized residual of sample s.
    Relative index of (row s, column c) is s*L + c*S + s. Zero weights are dropped.
    The protocol does not call it; perfbench/tracer.py wraps it by this
    name (funcvec.residual_ms), so renaming or removing it breaks the
    traced benchmark.
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
