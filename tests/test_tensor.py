import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedquad.funcvec import SparseFunctionVector
from fedquad.tensor import (
    ACCUMULATOR_BITS,
    DENSE_KRON_MAX_LEN,
    AccumulatorOverflow,
    dense_kron,
    kron_flat,
    sparse_inner_kron,
    vec_columns,
)


class TestVecColumns:
    def test_single_entry(self):
        assert list(vec_columns(np.array([[7]]))) == [7]

    def test_two_by_two_stacks_columns(self):
        assert list(vec_columns(np.array([[1, 2], [3, 4]]))) == [1, 3, 2, 4]

    def test_index_formula(self):
        rng = np.random.default_rng(0)
        m = rng.integers(-9, 10, size=(3, 2))
        v = vec_columns(m)
        for s in range(3):
            for f in range(2):
                assert v[f * 3 + s] == m[s, f]

    def test_roundtrip_by_columns(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 5))
        v = vec_columns(m)
        assert np.array_equal(v.reshape(5, 4).T, m)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_rejects_non_matrix(self, bad):
        with pytest.raises(ValueError):
            vec_columns(bad)


class TestKronIndex:
    def test_zero(self):
        assert kron_flat(0, 0, 5) == 0

    def test_formula(self):
        assert kron_flat(2, 3, 5) == 13

    def test_roundtrip_exhaustive(self):
        for length in range(1, 9):
            for a in range(length):
                for b in range(length):
                    assert divmod(kron_flat(a, b, length), length) == (a, b)

    def test_bijection(self):
        length = 7
        flats = {kron_flat(a, b, length)
                 for a in range(length) for b in range(length)}
        assert flats == set(range(length * length))

    @pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_out_of_range(self, a, b):
        with pytest.raises(ValueError):
            kron_flat(a, b, 5)


class TestDenseKron:
    def test_identity(self):
        assert dense_kron([1]) == [1]

    def test_two_entries(self):
        assert dense_kron([2, 3]) == [4, 6, 6, 9]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_kron([0] * (DENSE_KRON_MAX_LEN + 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dense_kron([])

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_matches_outer_product(self, x):
        expected = np.outer(x, x).ravel()
        assert dense_kron(x) == list(expected)


def _sparse(dimension, pairs):
    return SparseFunctionVector(dimension=dimension, entries=tuple(pairs))


class TestSparseInnerKron:
    def test_empty_vector_gives_zero(self):
        assert sparse_inner_kron(_sparse(4, []), [3, 4]) == 0

    def test_single_entry(self):
        c = _sparse(4, [(kron_flat(0, 1, 2), 5)])
        assert sparse_inner_kron(c, [3, 4]) == 60

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sparse_inner_kron(_sparse(9, []), [1, 2])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            length = int(rng.integers(1, 7))
            x = [int(v) for v in rng.integers(-9, 10, size=length)]
            n_entries = int(rng.integers(0, length * length + 1))
            indices = sorted(rng.choice(length * length, size=n_entries,
                                        replace=False))
            pairs = [(int(k), int(rng.integers(-9, 10)) or 1) for k in indices]
            c = _sparse(length * length, pairs)
            dense_c = c.to_dense()
            kron = dense_kron(x)
            expected = sum(a * b for a, b in zip(dense_c, kron))
            assert sparse_inner_kron(c, x) == expected

    def test_accumulator_overflow_is_loud(self):
        big = 1 << (ACCUMULATOR_BITS // 2)
        c = _sparse(1, [(0, big)])
        with pytest.raises(AccumulatorOverflow):
            sparse_inner_kron(c, [big])
