"""The block kernel for block-structured slice vectors against the per-term loop.

The per-term loop over a SparseFunctionVector built from the same entries
is the reference; the dense Kronecker product is the second oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedquad import fe
from fedquad.baseline import MODEL_LINEAR
from fedquad.funcvec import (
    ResidualBlock,
    SliceVector,
    SparseFunctionVector,
    all_gradient_slice_vectors,
)
from fedquad.protocol import (
    ClientShard,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    make_batch_schedule,
    run_training,
)
from fedquad.tensor import (
    ACCUMULATOR_BITS,
    AccumulatorOverflow,
    block_slices,
    dense_kron,
    int_list,
    int_vector,
    limb_plan,
    sparse_inner_kron,
    vec_columns,
)
from fedquad.verify import mix_and_match_probe


def _reference(c, x):
    """The per-term loop: the same entries, as a hand-built vector."""
    return sparse_inner_kron(SparseFunctionVector(c.dimension, tuple(c.entries)), x)


def _plan(block, x):
    """limb_plan for a block and input: (b, k) for int64 limbs, None for objects."""
    largest = max(1, max(abs(int(v)) for v in x))
    return limb_plan(block.rows, max(1, sum(map(abs, block.coefficients))), largest)


def _outcome(evaluate):
    try:
        return evaluate()
    except AccumulatorOverflow:
        return AccumulatorOverflow


@st.composite
def weights_and_inputs(draw):
    n = draw(st.integers(1, 3))
    S = draw(st.integers(1, 4))
    counts = [draw(st.integers(1, 3)) for _ in range(n)]
    weights = [[draw(st.integers(-5, 5)) for _ in range(f)] for f in counts]
    one = draw(st.sampled_from([0, 1, 16, -3]))
    # 9 plans one limb, 2**40 up to three; 2**58 plans up to 21 limbs, or
    # object arrays once C·X reaches 2**63.
    magnitude = draw(st.sampled_from([9, 1 << 40, 1 << 58]))
    length = S * (sum(counts) + 1)
    x = draw(st.lists(st.integers(-magnitude, magnitude),
                      min_size=length, max_size=length))
    return S, [w for segment in weights for w in segment], one, x


class TestStructuredKernel:
    @settings(max_examples=150, deadline=None)
    @given(weights_and_inputs())
    def test_matches_per_term_loop_and_dense_oracle(self, case):
        S, weights, one, x = case
        kron = dense_kron(x)
        vectors = all_gradient_slice_vectors(weights, one, S)
        assert len(vectors) == len(weights)
        for c in vectors:
            assert isinstance(c, SliceVector)
            assert c.nnz == len(c.entries) == len(list(c.entries))
            dense = sum(a * b for a, b in zip(c.to_dense(), kron))
            assert sparse_inner_kron(c, x) == _reference(c, x) == dense

    def test_shared_residual_gives_the_same_values(self):
        vectors = all_gradient_slice_vectors([1, -2, 0], 5, 3)
        x = list(range(-6, 6))
        slices = block_slices(vectors[0].block, x)
        for c in vectors:
            assert sparse_inner_kron(c, x, slices=slices) == _reference(c, x)


def _one_slice(w, one):
    """S=1, F=1: the slice is x0 * (-w*x0 + one*y); with x = [1, 1] the
    bound is |w| + |one|."""
    (c,) = all_gradient_slice_vectors([w], one, 1)
    return c


class TestInt64Boundary:
    # S = X = 1, so b = 62 and C·X = bound: r fits int64 in two limbs up to
    # 2**63 - 1, and takes object arrays from 2**63.
    @pytest.mark.parametrize("w,one,plan", [
        (-(1 << 62), (1 << 62) - 1, (62, 2)),    # bound 2**63 - 1
        (1 << 62, -((1 << 62) - 1), (62, 2)),
        (-(1 << 62), 1 << 62, None),             # bound 2**63
        (1 << 62, -(1 << 62), None),
    ], ids=["2**63-1", "2**63-1-negated", "2**63", "2**63-negated"])
    def test_bound_edge_matches_reference(self, w, one, plan):
        c = _one_slice(w, one)
        x = [1, 1]
        assert _plan(c.block, x) == plan
        expected = _reference(c, x)
        assert expected == one - w
        assert sparse_inner_kron(c, x) == expected
        assert block_slices(c.block, x)[0] == expected

    def test_negative_x_counts_in_the_bound(self):
        # sum|coef| = 2**61 and max|x| = 2 comes from the negative entry:
        # C·X = 2**62 and S·X = 2 plan two 61-bit limbs (read as 1, one limb).
        c = _one_slice(-(1 << 60), 1 << 60)
        assert _plan(c.block, [-2, 1]) == (61, 2)
        assert sparse_inner_kron(c, [-2, 1]) == _reference(c, [-2, 1])
        # max|x| = 2**40 from the negative entry: S·X = 2**40 leaves 22-bit
        # limbs for C·X = 2**60. Read as 1 it would be one limb, where
        # x0 * r0 = 2**100 wraps.
        c = _one_slice(-(1 << 20), 0)
        x = [-(1 << 40), 1]
        assert _plan(c.block, x) == (22, 3)
        assert sparse_inner_kron(c, x) == _reference(c, x) == 1 << 100

    def test_negative_x_counts_in_the_limb_precondition(self):
        # sum|coef| = 2**62 and max|x| = 2 from the negative entry: C·X = 2**63,
        # so the object path. Read as 1 it would be int64 limbs, where r0 =
        # (-2**62) * (-2) = 2**63 wraps.
        c = _one_slice(-(1 << 62), 0)
        x = [-2, 1]
        assert _plan(c.block, x) is None
        assert sparse_inner_kron(c, x) == _reference(c, x) == 1 << 64

    def test_bound_edge_across_rows(self):
        # S=7 rows, sum|coef| = (2**63 - 1) / 7, |x| = 1: bound 2**63 - 1,
        # and every row pushes the sum the same way.
        per_row = (2 ** 63 - 1) // 7
        (c,) = all_gradient_slice_vectors([-(per_row // 2)],
                                          per_row - per_row // 2, 7)
        x = [1] * 14
        assert _plan(c.block, x) == (60, 2)
        assert sparse_inner_kron(c, x) == _reference(c, x) == 2 ** 63 - 1


@st.composite
def limb_band_inputs(draw):
    """Weights and inputs that plan two limbs.

    One x entry of magnitude 2**28 and one weight of magnitude 2**24 put
    C·X at 2**52 or more; with S <= 4 and at most 9 coefficients C·X stays
    below 2**56 and S·X at most 2**30, so limbs of b >= 32 bits.
    """
    n = draw(st.integers(1, 3))
    S = draw(st.integers(1, 4))
    counts = [draw(st.integers(1, 3)) for _ in range(n)]
    top_w, top_x = 1 << 24, 1 << 28
    weights = [[draw(st.integers(-top_w, top_w)) for _ in range(f)] for f in counts]
    weights[0][0] = draw(st.sampled_from([-top_w, top_w]))
    one = draw(st.sampled_from([0, 1, 1 << 16, -top_w]))
    length = S * (sum(counts) + 1)
    x = draw(st.lists(st.integers(-top_x, top_x), min_size=length, max_size=length))
    x[draw(st.integers(0, length - 1))] = draw(st.sampled_from([-top_x, top_x]))
    return S, [w for segment in weights for w in segment], one, x


class TestLimbKernel:
    @settings(max_examples=150, deadline=None)
    @given(limb_band_inputs())
    def test_matches_per_term_loop_and_dense_oracle(self, case):
        S, weights, one, x = case
        kron = dense_kron(x)
        vectors = all_gradient_slice_vectors(weights, one, S)
        assert _plan(vectors[0].block, x)[1] == 2
        slices = block_slices(vectors[0].block, x)
        for c in vectors:
            dense = sum(a * b for a, b in zip(c.to_dense(), kron))
            assert sparse_inner_kron(c, x, slices=slices) == _reference(c, x) == dense

    # S=7 rows of x = ±1, so X = 1 and S·X = 7; C = |w| + |one|.
    @pytest.mark.parametrize("w,one,path", [
        (-(1 << 62), (1 << 62) - 1, "limbs"),    # C·X = 2**63 - 1
        (1 << 62, -(1 << 62), "object"),         # C·X = 2**63
    ], ids=["CX=2**63-1", "CX=2**63"])
    def test_coefficient_edge(self, w, one, path):
        (c,) = all_gradient_slice_vectors([w], one, 7)
        # Signs that push every row's residual to ±C and the slice past int64.
        x = [1, -1, 1, 1, -1, 1, 1] + [1, -1, 1, 1, -1, 1, 1]
        assert (_plan(c.block, x) is None) == (path == "object")
        expected = _reference(c, x)
        assert abs(expected) >= 1 << 63
        assert sparse_inner_kron(c, x) == expected
        assert sparse_inner_kron(c, x, slices=block_slices(c.block, x)) == expected

    @pytest.mark.parametrize("S,largest,path", [
        (1, (1 << 62) - 1, "limbs"),   # S·X = 2**62 - 1
        (1, 1 << 62, "object"),        # S·X = 2**62
        (2, (1 << 61) - 1, "limbs"),   # S·X = 2**62 - 2
        (2, 1 << 61, "object"),        # S·X = 2**62
    ], ids=["SX=2**62-1", "SX=2**62", "S=2-SX=2**62-2", "S=2-SX=2**62"])
    def test_row_edge(self, S, largest, path):
        # C = 1 keeps C·X below 2**63; just under S·X = 2**62 the limbs are
        # one bit wide, so r splits into as many limbs as C·X has bits.
        (c,) = all_gradient_slice_vectors([-1], 0, S)
        for sign in (1, -1):
            x = [sign * largest] * S + [sign * (largest - 1)] * S
            plan = _plan(c.block, x)
            assert plan == (None if path == "object" else (1, largest.bit_length()))
            expected = _reference(c, x)
            assert sparse_inner_kron(c, x) == expected
            assert block_slices(c.block, x)[0] == expected

    # (S, X, C, plan): one limb up to bitlen(C·X) = b, three past 2·b.
    @pytest.mark.parametrize("S,largest,total,plan", [
        (1, 1, (1 << 62) - 1, (62, 1)),
        (1, 1, 1 << 62, (62, 2)),
        (2, 1 << 30, (1 << 32) - 1, (31, 2)),
        (2, 1 << 30, 1 << 32, (31, 3)),
    ], ids=["k=1", "k=1-to-2", "k=2", "k=2-to-3"])
    def test_limb_count_edge(self, S, largest, total, plan):
        # Coefficients (-a, C - a): r_0 = -C·X, the most negative residual,
        # and for S = 2 r_1 = C·X - (C - a), below the top with low bits set.
        share = total // 3
        block = ResidualBlock(rows=S, coefficients=(-share, total - share))
        x = [largest, -largest][:S] + [-largest, largest - 1][:S]
        assert _plan(block, x) == plan
        vectors = _every_slice(block)
        kron = dense_kron(x)
        expected = [_reference(c, x) for c in vectors]
        assert expected == [sum(a * b for a, b in zip(c.to_dense(), kron))
                            for c in vectors]
        assert block_slices(block, x) == expected

    def test_negative_residuals_split_by_floor(self):
        # Residuals of both signs, some with low bits set and some exact
        # multiples of 2**32, the limb size here: the top limb is
        # floor(r / 2**32) and the low limb r mod 2**32.
        # r_s = -3 x_s + 2**32 y_s; X = 2**28, so S·X = 2**30 and b = 32.
        # Four more columns, with zero coefficients, hold the unit vectors,
        # so the slice at column 2 + s is r_s itself.
        block = ResidualBlock(rows=4, coefficients=(-3, 1 << 32, 0, 0, 0, 0))
        x = [0, 1, 1 << 28, -(1 << 28)] + [-1, 0, -(1 << 28), (1 << 28) - 1]
        x += [int(s == t) for s in range(4) for t in range(4)]
        assert _plan(block, x) == (32, 2)
        exact = [-3 * x[s] + (1 << 32) * x[4 + s] for s in range(4)]
        assert exact[0] == -(1 << 32) and -(1 << 32) < exact[1] < 0
        assert exact[2] < 0 < exact[3]
        slices = block_slices(block, x)
        assert slices[2:] == exact
        assert slices == [_reference(c, x) for c in _every_slice(block)]

    def test_large_geometry_plans_limbs(self):
        # S = 4096 and F = 512 with the 12-bit codec: quantized |x| < 2**21,
        # and weights of magnitude below 2 give C < 512·2**13 + 2**12 < 2**23
        # (the label coefficient is 2**12). S·X < 2**33
        # leaves 30-bit limbs: two cover C·X, and r stays in int64 limbs
        # while C·X < 2**63, past C = 2**42.
        rows, largest = 4096, (1 << 21) - 1
        assert limb_plan(rows, (1 << 23) - 1, largest) == (30, 2)
        assert limb_plan(rows, 1 << 42, largest) == (30, 3)
        assert limb_plan(rows, 1 << 43, largest) is None


class TestIntVector:
    def test_int64_when_every_value_fits(self):
        v = int_vector([-(1 << 63), (1 << 63) - 1, 0])
        assert v.dtype == np.int64
        assert v.tolist() == [-(1 << 63), (1 << 63) - 1, 0]

    @pytest.mark.parametrize("values", [
        [1 << 63], [-1, 1 << 63], [-(1 << 63) - 1], [(1 << 64) - 1, 2],
        np.array([1 << 63, 5], dtype=np.uint64),
    ], ids=["2**63", "mixed-sign", "below-int64", "2**64-1", "uint64-array"])
    def test_python_ints_past_int64_never_uint64_or_float(self, values):
        v = int_vector(values)
        assert v.dtype == object
        assert all(type(e) is int for e in v)
        assert v.tolist() == [int(e) for e in values]

    def test_int64_array_is_not_copied(self):
        a = np.arange(4, dtype=np.int64)
        assert int_vector(a) is a
        assert int_vector(np.arange(3, dtype=np.uint8)).dtype == np.int64
        assert int_vector(np.array([7, 8], dtype=np.uint64)).dtype == np.int64

    # Arrays of other dtypes go through Python ints; each comes back with
    # the dtype and values an int64 cast gave, or as Python ints past int64.
    @pytest.mark.parametrize("values,dtype", [
        (np.array([-128, 0, 127], dtype=np.int8), np.int64),
        (np.array([-(1 << 31), (1 << 31) - 1, 5], dtype=np.int32), np.int64),
        (np.array([0, 7, 255], dtype=np.uint8), np.int64),
        (np.array([0, (1 << 63) - 1], dtype=np.uint64), np.int64),
        (np.array([1 << 63, 3], dtype=np.uint64), object),
        (np.array([(1 << 64) - 1], dtype=np.uint64), object),
        (np.array([True, False, True]), np.int64),
        (np.array([], dtype=np.int32), np.int64),
        (np.array([], dtype=np.uint64), np.int64),
        (np.array([], dtype=bool), np.int64),
        (np.array([]), np.int64),
    ], ids=["int8", "int32", "uint8", "uint64-below-2**63", "uint64-at-2**63",
            "uint64-max", "bool", "empty-int32", "empty-uint64", "empty-bool",
            "empty-float64"])
    def test_other_dtypes_keep_their_values(self, values, dtype):
        v = int_vector(values)
        assert v.dtype == dtype
        assert all(type(e) is int for e in v.tolist())
        assert v.tolist() == [int(e) for e in values]
        assert not np.shares_memory(v, values)
        with pytest.raises(ValueError, match="^expected a 1-D vector"):
            int_vector(values.reshape(1, -1))

    def test_non_integers_are_refused_not_truncated(self):
        for values, position, value in (([2.9], 0, "2.9"), ([1, -2.9], 1, "-2.9"),
                                        (np.array([2.0, 2.9]), 1, "2.9"),
                                        ([float("nan")], 0, "nan"), ([3, "3"], 1, "'3'")):
            with pytest.raises(ValueError, match=f"^position {position} holds {value}$"):
                int_vector(values)
        with pytest.raises(ValueError):
            int_vector(np.zeros((2, 2), dtype=np.int64))
        assert int_vector([True, 2.0, -3]).tolist() == [1, 2, -3]
        assert int_vector(np.array([2.0, -1.0])).dtype == np.int64


class TestIntList:
    @pytest.mark.parametrize("values", [
        [2.0, np.int64(-3), True, 1 << 70], np.array([-1.0, 4.0]),
        np.array([7, -8], dtype=np.int32), np.array([(1 << 64) - 1], dtype=np.uint64),
        np.array([True, False]), [],
    ], ids=["mixed-list", "float64", "int32", "uint64-max", "bool", "empty"])
    def test_python_ints_of_int_vector(self, values):
        ints = int_list(values)
        assert type(ints) is list
        assert all(type(v) is int for v in ints)
        assert ints == int_vector(values).tolist()


class TestKernelsRefuseNonIntegers:
    def test_every_kernel_path_refuses_a_float(self):
        c = _one_slice(2, 1)
        x = [1, 2.5]
        with pytest.raises(ValueError, match="^position 1 holds 2.5$"):
            sparse_inner_kron(c, x)
        with pytest.raises(ValueError, match="^position 1 holds 2.5$"):
            sparse_inner_kron(SparseFunctionVector(c.dimension, tuple(c.entries)), x)
        with pytest.raises(ValueError, match="^position 1 holds 2.5$"):
            dense_kron(x)


class TestAccumulatorWidth:
    top = 1 << (ACCUMULATOR_BITS - 2)

    @pytest.mark.parametrize("w,one,x", [
        (-top, top, [1, 1]),                    # bound 2**127, sum 2**127
        (-top, -top, [1, 1]),                   # bound 2**127, sum 0
        (-1, 0, [1 << 64, 1]),                  # bound 2**128, sum 2**128
        (-1, 1, [1 << 64, -(1 << 64)]),         # bound 2**129, first term 2**128, sum 0
        (-(top - 1), top, [1, 1]),              # bound 2**127 - 1: object path
    ], ids=["2**127-raises", "2**127-cancels", "2**128", "2**129-cancels",
            "2**127-1"])
    def test_raises_exactly_when_reference_does(self, w, one, x):
        c = _one_slice(w, one)
        expected = _outcome(lambda: _reference(c, x))
        assert _outcome(lambda: sparse_inner_kron(c, x)) == expected

        instance, keys = fe.setup([1, 1])
        cts = [fe.encrypt(keys[0], None, x[:1]), fe.encrypt(keys[1], None, x[1:])]
        sk = fe.keygen(instance, None, c)
        assert _outcome(lambda: fe.decrypt(cts, sk)) == expected

    def test_width_guard_still_trips(self):
        c = _one_slice(-self.top, self.top)
        with pytest.raises(AccumulatorOverflow):
            sparse_inner_kron(c, [1, 1])
        assert block_slices(c.block, [1, 1]) is None


class TestDecryptMemo:
    def test_reused_instance_without_tags(self):
        S = 3
        instance, keys = fe.setup([S * 2, S])
        rng = np.random.default_rng(13)

        def encrypted_set():
            x = [int(v) for v in rng.integers(-9, 10, size=3 * S)]
            return x, [fe.encrypt(keys[0], None, x[:2 * S]),
                       fe.encrypt(keys[1], None, x[2 * S:])]

        (x_a, set_a), (x_b, set_b) = encrypted_set(), encrypted_set()
        first = all_gradient_slice_vectors([2, -1], 1, S)
        second = all_gradient_slice_vectors([0, 3], 4, S)
        sk = fe.keygen(instance, None, first[1])
        other = fe.keygen(instance, None, second[0])
        # a stale x or slice would then show as a wrong value
        assert _reference(first[1], x_a) != _reference(first[1], x_b)
        assert _reference(first[1], x_a) != _reference(second[0], x_a)
        for cts, x in ((set_a, x_a), (set_b, x_b), (set_a, x_a)):
            assert fe.decrypt(cts, sk) == _reference(first[1], x)
        assert fe.decrypt(set_a, other) == _reference(second[0], x_a)
        assert fe.decrypt(list(reversed(set_b)), sk) == _reference(first[1], x_b)
        assert fe.decrypt(set_a, sk) == _reference(first[1], x_a)
        assert fe.audit_counters(instance)[2] == 6

    def test_probe_on_reused_instance(self):
        rng = np.random.default_rng(12)
        rows, batch, T, seed = 12, 4, 4, 3
        labels = rng.integers(-4, 5, size=rows).astype(float)
        shards = [ClientShard(rng.integers(-4, 5, size=(rows, 2)).astype(float), labels),
                  ClientShard(rng.integers(-4, 5, size=(rows, 1)).astype(float))]
        config = TrainingConfig(iterations=T, batch_size=batch, seed=seed,
                                learning_rate=0.05, codec=exact_codec(MODEL_LINEAR),
                                fe_policy="reused")
        artifacts = []
        run_training(TrainingPlan(shards, config), initial_weights=[1.0, -2.0, 1.0],
                     artifacts_out=artifacts)

        report = mix_and_match_probe(artifacts)
        assert report.cross_attempts == T * (T - 1)
        assert len(report.cross_successes) == T * (T - 1)
        assert report.failure_kinds == {} and report.controls_ok

        # Each cross decryption reveals the other iteration's slice on this
        # iteration's batch; the plaintexts come from the batch schedule.
        inputs = []
        for rows_t in make_batch_schedule(rows, batch, T, seed):
            x = [int(v) for sh in shards for v in vec_columns(sh.features[rows_t])]
            inputs.append(x + [int(v) for v in labels[rows_t]])
        for a in artifacts:
            for b in artifacts:
                key = b.secret_keys[0]
                assert (fe.decrypt(a.ciphertexts, key)
                        == _reference(key.funcvec, inputs[a.iteration]))


def _one_set(x, S):
    """An untagged instance holding x as a feature slot and an S-long label slot."""
    instance, keys = fe.setup([len(x) - S, S])
    return instance, [fe.encrypt(keys[0], None, x[:-S]), fe.encrypt(keys[1], None, x[-S:])]


def _every_slice(block):
    """Slice vector k for each column k of x, the label column included."""
    return [SliceVector(k, block) for k in range(len(block.coefficients))]


class TestFusedSlices:
    """All slices of a block from one product, each key a lookup."""

    def _check_warm_decrypts(self, S, weights, one, x):
        vectors = _every_slice(
            all_gradient_slice_vectors(weights, one, S)[0].block)
        kron = dense_kron(x)
        expected = [_reference(c, x) for c in vectors]
        assert expected == [sum(a * b for a, b in zip(c.to_dense(), kron))
                            for c in vectors]
        instance, cts = _one_set(x, S)
        # The first key fills the memo; every later one reads its slice from it.
        assert [fe.decrypt(cts, fe.keygen(instance, None, c))
                for c in vectors] == expected
        # On every path, the object path included, the memo holds them all.
        slices = instance._operands.slices
        assert slices == block_slices(vectors[0].block, x) == expected
        assert all(type(v) is int for v in slices)
        assert fe.audit_counters(instance)[2] == len(vectors)

    @settings(max_examples=150, deadline=None)
    @given(weights_and_inputs())
    def test_every_path_matches_per_term_loop(self, case):
        self._check_warm_decrypts(*case)

    @settings(max_examples=150, deadline=None)
    @given(limb_band_inputs())
    def test_limb_path_matches_per_term_loop(self, case):
        S, weights, one, x = case
        block = all_gradient_slice_vectors(weights, one, S)[0].block
        assert _plan(block, x)[1] == 2
        self._check_warm_decrypts(*case)

    def test_object_path_fills_the_memo(self):
        # C·X = 2**63: object arrays, still one evaluation per set.
        x = [1 << 62, -(1 << 62) + 1, 5, -(1 << 62)]
        block = all_gradient_slice_vectors([2], 0, 2)[0].block
        assert _plan(block, x) is None
        self._check_warm_decrypts(2, [2], 0, x)

    # A one-limb and a two-limb block, S >= 2. A block placed at a base row
    # that is no multiple of S straddles two slices, so it is no slice
    # vector: built by hand, it takes the per-term loop's dot product.
    @pytest.mark.parametrize("S,coefficients,magnitude,limbs", [
        (3, (2, -5, 1), 9, 1),
        (3, (1 << 24, -(1 << 24) + 3, 1 << 16), 1 << 28, 2),
    ], ids=["int64", "limbs"])
    def test_unaligned_base_row_takes_the_dot_product(self, S, coefficients,
                                                      magnitude, limbs):
        block = ResidualBlock(rows=S, coefficients=coefficients)
        rng = np.random.default_rng(41)
        x = [int(v) for v in rng.integers(-magnitude, magnitude + 1,
                                          size=block.vector_length)]
        assert _plan(block, x)[1] == limbs
        slices = block_slices(block, x)
        kron = dense_kron(x)
        instance, cts = _one_set(x, S)
        for base in range(block.vector_length - S + 1):
            if base % S == 0:
                continue
            c = SparseFunctionVector(block.dimension, tuple(block.entries(base)))
            expected = sum(a * b for a, b in zip(c.to_dense(), kron))
            assert sparse_inner_kron(c, x, slices=slices) == _reference(c, x) == expected
            assert fe.decrypt(cts, fe.keygen(instance, None, c)) == expected
            assert expected not in slices

    @pytest.mark.parametrize("index", [-1, 3, 1.0])
    def test_index_outside_the_columns_is_refused(self, index):
        # Columns 0..F with F = 2, the label column. -1 would read the last
        # slice from the lookup list, and 1.0 would yield float positions.
        block = ResidualBlock(rows=2, coefficients=(4, -1, 1))
        error = ValueError if isinstance(index, int) else TypeError
        with pytest.raises(error, match="slice index"):
            SliceVector(index, block)
