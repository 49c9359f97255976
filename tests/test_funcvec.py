import numpy as np
import pytest

from fedquad.funcvec import (
    SparseFunctionVector,
    all_gradient_slice_vectors,
    residual_coefficients,
)
from fedquad import fe
from fedquad.protocol import ClientShard, TrainingConfig, TrainingPlan
from fedquad.tensor import dense_kron, sparse_inner_kron
from fedquad.verify import concatenated_input


def build_layout(n_clients, batch_size, features_per_client):
    """x's geometry as the protocol builds it: client offsets, label offset, length.

    The plan's columns give each slot's column range; the FE instance for
    N clients has N + 1 slots of batch_size entries per column, so it
    refuses columns that do not make N + 1 slots.
    """
    shards = [ClientShard(np.ones((batch_size, f)), np.ones(batch_size) if i == 0 else None)
              for i, f in enumerate(features_per_client)]
    plan = TrainingPlan(shards, TrainingConfig(batch_size=batch_size))
    instance, _ = fe.setup(n_clients + 1, [batch_size * (c.stop - c.start)
                                           for c in plan.columns])
    starts = tuple(c.start * batch_size for c in plan.columns)
    return starts[:-1], starts[-1], sum(instance.slot_lengths)


class TestBuildLayout:
    def test_minimal(self):
        offsets, label_offset, vector_length = build_layout(1, 1, [1])
        assert offsets == (0,)
        assert label_offset == 1
        assert vector_length == 2

    def test_two_clients(self):
        offsets, label_offset, vector_length = build_layout(2, 2, [1, 2])
        assert offsets == (0, 2)
        assert label_offset == 6
        assert vector_length == 8

    def test_three_clients(self):
        _, _, vector_length = build_layout(3, 4, [2, 2, 2])
        assert vector_length == 4 * 7

    def test_offset_recurrence(self):
        counts = [3, 1, 4]
        offsets, label_offset, vector_length = build_layout(3, 5, counts)
        for i in range(2):
            assert offsets[i + 1] == offsets[i] + 5 * counts[i]
        assert label_offset == offsets[-1] + 5 * 4
        assert vector_length == label_offset + 5

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
        entries = residual_coefficients([0], 1, 1)
        assert entries == ((1, 1),)

    def test_hand_expanded_two_client_instance(self):
        entries = residual_coefficients([2, 3], 1, 1)
        assert entries == ((0, -2), (1, -3), (2, 1))

    def test_entry_count_with_nonzero_weights(self):
        entries = residual_coefficients([1, 2, 3], 4, 3)
        S, F = 3, 3
        assert len(entries) == S * (F + 1)

    def test_entry_positions(self):
        S = 2
        entries = dict(residual_coefficients([5, 7], 9, S))
        # x = [x_0 || x_1 || y], S entries per column: column c starts at c*S.
        L = 3 * S
        for s in range(S):
            assert entries[s * L + 0 * S + s] == -5
            assert entries[s * L + 1 * S + s] == -7
            assert entries[s * L + 2 * S + s] == 9

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="rows >= 1"):
            residual_coefficients([1], 1, 0)


def _hand_input():
    """x = [5 || 7 || 4]: two one-column clients and the label, one row."""
    return concatenated_input([ClientShard(np.array([[5]])), ClientShard(np.array([[7]]))],
                              [4])


class TestGradientSliceVector:
    def test_hand_worked_instance(self):
        c = all_gradient_slice_vectors([2, 3], 1, 1)[0]
        assert dict(c.entries) == {0: -2, 1: -3, 2: 1}
        x = _hand_input()
        assert sparse_inner_kron(c, x) == -135
        # u = 4 - 10 - 21 = -27; (u^T X_0)[0] = -27 * 5
        assert sparse_inner_kron(c, x) == -27 * 5

    def test_second_client_rows_stay_in_its_block(self):
        c = all_gradient_slice_vectors([2, 3], 1, 1)[1]
        L = 3
        rows = {index // L for index, _ in c.entries}
        # Client 1's one column is x's column 1: row 1 with S = 1.
        assert rows == {1}
        x = _hand_input()
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
            flat_w = [v for seg in w for v in seg]
            x = concatenated_input([ClientShard(b) for b in blocks], y)
            kron = dense_kron(x)
            X = np.hstack(blocks)
            u = y - X @ np.array(flat_w)
            direct = u @ X
            vectors = all_gradient_slice_vectors(flat_w, 1, S)
            assert len(vectors) == sum(counts)
            for k, c in enumerate(vectors):
                sparse = sparse_inner_kron(c, x)
                dense = sum(a * b for a, b in zip(c.to_dense(), kron))
                assert sparse == dense == direct[k]


class TestAllGradientSliceVectors:
    def test_order_and_count(self):
        vectors = all_gradient_slice_vectors([1, 1, 1], 1, 1)
        assert len(vectors) == 3
        block = vectors[0].block
        for k, c in enumerate(vectors):
            assert c.index == k
            assert c.block is block

    def test_nnz_bound(self):
        weights = [1, -2, 3, 0, -1, 2]
        S, F = 4, 6
        for c in all_gradient_slice_vectors(weights, 16, S):
            assert c.nnz <= S * (F + 1)
            # one weight is zero, so exactly S entries are dropped
            assert c.nnz == S * (F + 1) - S

    def test_distinct_features_use_disjoint_rows(self):
        S = 2
        vectors = all_gradient_slice_vectors([1, 1, 1], 1, S)
        L = S * 4
        row_sets = [{index // L for index, _ in c.entries} for c in vectors]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (row_sets[a] & row_sets[b])

    def test_global_index_formula(self):
        S = 2
        weights = [1, 2, 3, 4, 5, 6]
        vectors = all_gradient_slice_vectors(weights, 1, S)
        L = S * (len(weights) + 1)
        for k, c in enumerate(vectors):
            # Column k of x holds rows k*S .. k*S + S - 1 of x (x) x's slice.
            assert {index // L for index, _ in c.entries} == set(range(k * S, k * S + S))
