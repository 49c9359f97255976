import numpy as np
import pytest

from fedquad.funcvec import (
    SparseFunctionVector,
    all_gradient_slice_vectors,
    build_layout,
    gradient_slice_vector,
    residual_coefficients,
)
from fedquad.tensor import dense_kron, sparse_inner_kron, vec_columns


class TestBuildLayout:
    def test_minimal(self):
        layout = build_layout(1, 1, [1])
        assert layout.offsets == (0,)
        assert layout.label_offset == 1
        assert layout.vector_length == 2

    def test_two_clients(self):
        layout = build_layout(2, 2, [1, 2])
        assert layout.offsets == (0, 2)
        assert layout.label_offset == 6
        assert layout.vector_length == 8

    def test_three_clients(self):
        layout = build_layout(3, 4, [2, 2, 2])
        assert layout.vector_length == 4 * 7

    def test_offset_recurrence(self):
        layout = build_layout(3, 5, [3, 1, 4])
        for i in range(2):
            expected = layout.offsets[i] + 5 * layout.features_per_client[i]
            assert layout.offsets[i + 1] == expected
        assert layout.label_offset == layout.offsets[-1] + 5 * 4
        assert layout.vector_length == layout.label_offset + 5

    @pytest.mark.parametrize("args", [
        (0, 1, []), (1, 0, [1]), (2, 1, [1]), (1, 1, [0]),
    ])
    def test_rejects_bad_counts(self, args):
        with pytest.raises(ValueError):
            build_layout(*args)


class TestSparseFunctionVector:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SparseFunctionVector(dimension=4, entries=((2, 1), (1, 1)))

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            SparseFunctionVector(dimension=4, entries=((1, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseFunctionVector(dimension=4, entries=((4, 1),))

    def test_to_dense(self):
        c = SparseFunctionVector(dimension=4, entries=((1, -2), (3, 5)))
        assert c.to_dense() == [0, -2, 0, 5]


class TestResidualCoefficients:
    def test_zero_weights_keep_only_label_entry(self):
        layout = build_layout(1, 1, [1])
        entries = residual_coefficients([[0]], 1, layout)
        assert entries == ((1, 1),)

    def test_hand_expanded_two_client_instance(self):
        layout = build_layout(2, 1, [1, 1])
        entries = residual_coefficients([[2], [3]], 1, layout)
        assert entries == ((0, -2), (1, -3), (2, 1))

    def test_entry_count_with_nonzero_weights(self):
        layout = build_layout(2, 3, [2, 1])
        entries = residual_coefficients([[1, 2], [3]], 4, layout)
        S, F = 3, 3
        assert len(entries) == S * (F + 1)

    def test_entry_positions(self):
        layout = build_layout(2, 2, [1, 1])
        entries = dict(residual_coefficients([[5], [7]], 9, layout))
        L = layout.vector_length
        for s in range(2):
            assert entries[s * L + layout.offsets[0] + s] == -5
            assert entries[s * L + layout.offsets[1] + s] == -7
            assert entries[s * L + layout.label_offset + s] == 9

    def test_rejects_segment_shape_mismatch(self):
        layout = build_layout(2, 1, [1, 1])
        with pytest.raises(ValueError):
            residual_coefficients([[1, 2], [3]], 1, layout)


def _concat_input(feature_blocks, labels):
    parts = []
    for block in feature_blocks:
        parts.extend(int(v) for v in vec_columns(block))
    parts.extend(int(v) for v in labels)
    return parts


class TestGradientSliceVector:
    def test_hand_worked_instance(self):
        layout = build_layout(2, 1, [1, 1])
        c = gradient_slice_vector([[2], [3]], 1, layout, 0, 0)
        assert dict(c.entries) == {0: -2, 1: -3, 2: 1}
        x = _concat_input([np.array([[5]]), np.array([[7]])], [4])
        assert sparse_inner_kron(c, x) == -135
        # u = 4 - 10 - 21 = -27; (u^T X_0)[0] = -27 * 5
        assert sparse_inner_kron(c, x) == -27 * 5

    def test_second_client_rows_stay_in_its_block(self):
        layout = build_layout(2, 1, [1, 1])
        c = gradient_slice_vector([[2], [3]], 1, layout, 1, 0)
        L = layout.vector_length
        rows = {index // L for index, _ in c.entries}
        block = set(range(layout.offsets[1], layout.offsets[1] + 1))
        assert rows <= block
        x = _concat_input([np.array([[5]]), np.array([[7]])], [4])
        assert sparse_inner_kron(c, x) == -27 * 7

    def test_identity_against_two_oracles(self):
        rng = np.random.default_rng(6)
        for _ in range(80):
            n = int(rng.integers(1, 4))
            S = int(rng.integers(1, 5))
            counts = [int(rng.integers(1, 4)) for _ in range(n)]
            blocks = [rng.integers(-6, 7, size=(S, f)).astype(int)
                      for f in counts]
            y = rng.integers(-6, 7, size=S).astype(int)
            w = [list(map(int, rng.integers(-4, 5, size=f))) for f in counts]
            layout = build_layout(n, S, counts)
            x = _concat_input(blocks, y)
            kron = dense_kron(x)
            X = np.hstack(blocks)
            flat_w = np.array([v for seg in w for v in seg])
            u = y - X @ flat_w
            direct = u @ X
            k = 0
            for i in range(n):
                for p in range(counts[i]):
                    c = gradient_slice_vector(w, 1, layout, i, p)
                    sparse = sparse_inner_kron(c, x)
                    dense = sum(a * b for a, b in zip(c.to_dense(), kron))
                    assert sparse == dense == direct[k]
                    k += 1

    def test_rejects_out_of_range_indices(self):
        layout = build_layout(2, 1, [1, 2])
        with pytest.raises(ValueError):
            gradient_slice_vector([[1], [1, 1]], 1, layout, 2, 0)
        with pytest.raises(ValueError):
            gradient_slice_vector([[1], [1, 1]], 1, layout, 0, 1)


class TestAllGradientSliceVectors:
    def test_order_and_count(self):
        layout = build_layout(2, 1, [1, 2])
        vectors = all_gradient_slice_vectors([[1], [1, 1]], 1, layout)
        assert len(vectors) == 3
        expected_order = [(0, 0), (1, 0), (1, 1)]
        for c, (i, p) in zip(vectors, expected_order):
            assert c == gradient_slice_vector([[1], [1, 1]], 1, layout, i, p)

    def test_nnz_bound(self):
        layout = build_layout(3, 4, [2, 2, 2])
        weights = [[1, -2], [3, 0], [-1, 2]]
        S, F = 4, 6
        for c in all_gradient_slice_vectors(weights, 16, layout):
            assert c.nnz <= S * (F + 1)
            # one weight is zero, so exactly S entries are dropped
            assert c.nnz == S * (F + 1) - S

    def test_distinct_features_use_disjoint_rows(self):
        layout = build_layout(1, 2, [3])
        vectors = all_gradient_slice_vectors([[1, 1, 1]], 1, layout)
        L = layout.vector_length
        row_sets = [{index // L for index, _ in c.entries} for c in vectors]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (row_sets[a] & row_sets[b])

    def test_global_index_formula(self):
        layout = build_layout(3, 2, [2, 1, 3])
        weights = [[1, 2], [3], [4, 5, 6]]
        vectors = all_gradient_slice_vectors(weights, 1, layout)
        counts = layout.features_per_client
        for i in range(3):
            for p in range(counts[i]):
                flat_index = sum(counts[:i]) + p
                direct = gradient_slice_vector(weights, 1, layout, i, p)
                assert vectors[flat_index] == direct

