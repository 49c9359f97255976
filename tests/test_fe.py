import gc
import json
import tracemalloc

import numpy as np
import pytest

from fedquad import fe
from fedquad.funcvec import (
    ResidualBlock,
    SliceVector,
    SparseFunctionVector,
    all_gradient_slice_vectors,
)
from fedquad.protocol import ClientShard, TrainingConfig, TrainingPlan, run_training
from fedquad.tensor import dense_kron, kron_flat, vec_columns
from fedquad.verify import mix_and_match_probe


def _single_product_key(instance, tag=None):
    c = SparseFunctionVector(dimension=4, entries=((kron_flat(0, 1, 2), 1),))
    return fe.keygen(instance, tag, c)


class TestSetup:
    def test_minimal_instance(self):
        instance, keys = fe.setup([1, 1])
        assert len(keys) == 2
        assert instance.slot_lengths == (1, 1)
        assert instance.dimension == 4
        assert [k.slot for k in keys] == [0, 1]

    def test_instances_are_fresh(self):
        a, _ = fe.setup([1, 1])
        b, _ = fe.setup([1, 1])
        assert a.instance_id != b.instance_id

    def test_three_clients_plus_label_slot(self):
        _, keys = fe.setup([6, 6, 6, 3])
        assert len(keys) == 4

    @pytest.mark.parametrize("lengths", [[1], [1, 0]], ids=["1-lengths0", "2-lengths2"])
    def test_rejects_bad_shapes(self, lengths):
        with pytest.raises(ValueError):
            fe.setup(lengths)

    # A length is a count (draws.check_int): 2.0 and True are not taken as 2 and 1.
    @pytest.mark.parametrize("lengths, error, message", [
        ([2.0, 1], TypeError, "slot 0 length must be an integer, got 2.0"),
        ([True, 1], TypeError, "slot 0 length must be an integer, got True"),
        ([1, "3"], TypeError, "slot 1 length must be an integer, got '3'"),
        ([2, -1], ValueError, "slot 1 length must be >= 1, got -1"),
    ], ids=["float", "bool", "str", "negative"])
    def test_lengths_refused_by_slot(self, lengths, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            fe.setup(lengths)


class TestEncrypt:
    def test_public_fields_only(self):
        instance, keys = fe.setup([2, 1])
        ct = fe.encrypt(keys[0], "t", [11, 22])
        assert ct.instance_id == instance.instance_id
        assert ct.slot == 0
        assert ct.tag == "t"
        assert not hasattr(ct, "payload")
        assert not hasattr(ct, "__dict__")

    def test_reencryption_decrypts_identically(self):
        instance, keys = fe.setup([1, 1])
        sk = _single_product_key(instance)
        ct_y = fe.encrypt(keys[1], None, [3])
        first = fe.encrypt(keys[0], None, [5])
        second = fe.encrypt(keys[0], None, [5])
        assert fe.decrypt([first, ct_y], sk) == fe.decrypt([second, ct_y], sk) == 15

    def test_wrong_length_rejected(self):
        _, keys = fe.setup([2, 1])
        with pytest.raises(ValueError):
            fe.encrypt(keys[0], None, [1])

    def test_tagged_slot_is_single_use(self):
        _, keys = fe.setup([1, 1])
        fe.encrypt(keys[0], 7, [1])
        with pytest.raises(fe.DuplicateSlot):
            fe.encrypt(keys[0], 7, [2])
        # a different tag opens a new slot claim
        fe.encrypt(keys[0], 8, [3])

    def test_slot_tags_must_increase(self):
        instance, keys = fe.setup([1, 1])
        fe.encrypt(keys[0], 8, [1])
        # An older tag would re-open one already used, so it is refused too.
        with pytest.raises(fe.DuplicateSlot, match="tag 7 does not order after it"):
            fe.encrypt(keys[0], 7, [2])
        # A tag that cannot be compared with the last one is refused, not a TypeError.
        with pytest.raises(fe.DuplicateSlot, match="tag 'nine'"):
            fe.encrypt(keys[0], "nine", [2])
        fe.encrypt(keys[0], 9, [3])
        # Other slots keep their own last tag, and untagged use is unaffected.
        fe.encrypt(keys[1], 7, [4])
        fe.encrypt(keys[1], None, [5])
        fe.encrypt(keys[0], None, [6])
        assert instance._last_tags == [9, 7]
        assert fe.audit_counters(instance)[0] == 5

    @pytest.mark.parametrize("values,position,value", [
        ([1.5, -2.7], 0, "1.5"),
        ([2, 2.5], 1, "2.5"),
        (np.array([4.0, -0.25]), 1, "-0.25"),
        ((3, "3"), 1, "'3'"),
        ([float("nan"), 1], 0, "nan"),
        (np.array([1.0, np.inf]), 1, "inf"),
    ], ids=["floats", "one-float", "float-array", "string", "nan", "inf"])
    def test_non_integer_value_is_refused_not_truncated(self, values, position, value):
        instance, keys = fe.setup([2, 1])
        with pytest.raises(ValueError, match=f"^slot 0 takes integers; "
                                             f"position {position} holds {value}$"):
            fe.encrypt(keys[0], None, values)
        assert fe.audit_counters(instance)[0] == 0


class TestIssuedHandles:
    """Only setup, encrypt and keygen make handles, and no handle changes."""

    def test_no_field_can_be_assigned_or_deleted(self):
        instance, keys = fe.setup([1, 1])
        ct = fe.encrypt(keys[0], 7, [5])
        sk = _single_product_key(instance, 7)
        for handle in (keys[0], ct, sk):
            for name in type(handle).__slots__:
                before = getattr(handle, name)
                with pytest.raises(AttributeError, match="read-only"):
                    setattr(handle, name, 0)
                with pytest.raises(AttributeError, match="read-only"):
                    delattr(handle, name)
                assert getattr(handle, name) is before
            with pytest.raises(AttributeError):
                handle.extra = 0

    def test_every_slot_of_an_issued_handle_is_set(self):
        instance, keys = fe.setup([2, 1])
        ct = fe.encrypt(keys[1], "t", [3])
        vector = all_gradient_slice_vectors([5, -2], 1, 1)[0]
        loose = SparseFunctionVector(vector.dimension, ((1, 4),))
        sks = [fe.keygen(instance, "t", vector), fe.keygen(instance, None, loose)]
        expected = {keys[0]: {"slot": 0, "_instance": instance},
                    keys[1]: {"slot": 1, "_instance": instance},
                    ct: {"instance_id": instance.instance_id, "slot": 1, "tag": "t"},
                    sks[0]: {"tag": "t", "funcvec": vector, "_instance": instance},
                    sks[1]: {"tag": None, "funcvec": loose, "_instance": instance}}
        for handle, fields in expected.items():
            assert set(type(handle).__slots__) == set(fields) | (
                {"_payload"} if handle is ct else set())
            for name, value in fields.items():
                assert getattr(handle, name) is value
        assert ct._payload.tolist() == [3]

    def test_a_direct_call_is_refused(self):
        instance, keys = fe.setup([1, 1])
        ct = fe.encrypt(keys[0], None, [5])
        sk = _single_product_key(instance)
        for mint in (fe.EncryptionKey, fe.Ciphertext, fe.SecretKey,
                     lambda: fe.EncryptionKey(instance, 0),
                     lambda: fe.EncryptionKey(instance, 0, issuer=object()),
                     lambda: fe.Ciphertext(instance.instance_id, 0, None, ct._payload),
                     lambda: fe.Ciphertext(instance.instance_id, 0, None, ct._payload,
                                           issuer=None),
                     lambda: fe.SecretKey(instance, None, sk.funcvec),
                     lambda: fe.SecretKey(instance, None, sk.funcvec, issuer=sk)):
            with pytest.raises(fe.FEError, match=r"^\w+ is issued by fe.setup, "
                                                 r"fe.encrypt or fe.keygen only$"):
                mint()
        assert fe.audit_counters(instance) == (1, 1, 0)

    def test_retagged_and_minted_keys_are_refused(self):
        shards = [ClientShard(np.arange(12.0).reshape(6, 2) % 5 - 2, np.arange(6.0) % 3),
                  ClientShard(np.arange(6.0).reshape(6, 1) % 4 - 1)]
        artifacts = []
        config = TrainingConfig(iterations=3, batch_size=3, fe_policy="tagged")
        run_training(TrainingPlan(shards, config), artifacts_out=artifacts)
        assert mix_and_match_probe(artifacts).defended
        first, second = artifacts[0], artifacts[1]
        instance = first.instance
        counters = fe.audit_counters(instance)
        key = second.secret_keys[0]
        with pytest.raises(AttributeError):
            key.tag = first.iteration
        with pytest.raises(AttributeError):
            key.funcvec = SparseFunctionVector(key.funcvec.dimension, ((0, 1),))
        with pytest.raises(fe.TagMismatch):
            fe.decrypt(first.ciphertexts, key)
        for mint in (lambda: fe.SecretKey(instance, first.iteration, key.funcvec),
                     lambda: fe.EncryptionKey(instance, 0),
                     lambda: fe.Ciphertext(instance.instance_id, 0, first.iteration,
                                           first.ciphertexts[0]._payload)):
            with pytest.raises(fe.FEError, match="is issued by fe.setup, fe.encrypt "
                                                 "or fe.keygen only"):
                mint()
        with pytest.raises(AttributeError):
            del first.ciphertexts[0].tag
        assert fe.audit_counters(instance) == counters
        fe.decrypt(first.ciphertexts, first.secret_keys[0])


class TestSealedPayload:
    def _product_of_two(self, first, second):
        """Encrypt one value per slot and decrypt their product x0 * x1."""
        instance, keys = fe.setup([1, 1])
        cts = [fe.encrypt(keys[0], None, first), fe.encrypt(keys[1], None, second)]
        return cts, fe.decrypt(cts, _single_product_key(instance))

    def test_int64_payload_when_values_fit(self):
        cts, value = self._product_of_two([-(1 << 63)], np.array([(1 << 63) - 1]))
        assert [ct._payload.dtype for ct in cts] == [np.int64, np.int64]
        assert value == -(1 << 63) * ((1 << 63) - 1)

    @pytest.mark.parametrize("big", [
        [1 << 63], [(1 << 64) - 1], np.array([(1 << 64) - 1], dtype=np.uint64),
    ], ids=["2**63", "2**64-1", "uint64-array"])
    def test_values_past_int64_give_an_object_payload(self, big):
        cts, value = self._product_of_two(big, [-3])
        assert cts[0]._payload.dtype == object
        assert type(cts[0]._payload[0]) is int
        assert value == -3 * int(big[0])

    def test_object_and_int64_slots_decrypt_a_slice_vector(self):
        # C = 1 and X = 2**63: the bound is 2**126, the object path.
        (c,) = all_gradient_slice_vectors([0], 1, 1)
        instance, keys = fe.setup([1, 1])
        x = [1 << 63, -7]
        cts = [fe.encrypt(keys[0], None, x[:1]), fe.encrypt(keys[1], None, x[1:])]
        kron = dense_kron(x)
        expected = sum(a * b for a, b in zip(c.to_dense(), kron))
        assert fe.decrypt(cts, fe.keygen(instance, None, c)) == expected

    def test_payload_is_read_only(self):
        _, keys = fe.setup([2, 1])
        ct = fe.encrypt(keys[0], None, np.array([4, 5]))
        assert not ct._payload.flags.writeable
        with pytest.raises(ValueError):
            ct._payload[0] = 9

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_changing_the_source_after_encrypt_changes_nothing(self, dtype):
        instance, keys = fe.setup([1, 1])
        sk = _single_product_key(instance)
        source = np.array([6], dtype=dtype)
        label = [7]
        cts = [fe.encrypt(keys[0], None, source), fe.encrypt(keys[1], None, label)]
        assert fe.decrypt(cts, sk) == 42
        source[0] = -100
        label[0] = -100
        assert fe.decrypt(list(reversed(cts)), sk) == 42


class TestKeygen:
    def test_wrong_dimension_rejected(self):
        instance, _ = fe.setup([1, 1])
        c = SparseFunctionVector(dimension=9, entries=())
        with pytest.raises(ValueError):
            fe.keygen(instance, None, c)

    def test_two_keys_same_function_agree(self):
        instance, keys = fe.setup([1, 1])
        cts = [fe.encrypt(keys[0], None, [5]), fe.encrypt(keys[1], None, [3])]
        sk1 = _single_product_key(instance)
        sk2 = _single_product_key(instance)
        assert fe.decrypt(cts, sk1) == fe.decrypt(cts, sk2)

    def test_key_from_other_instance_rejected(self):
        inst_a, keys_a = fe.setup([1, 1])
        inst_b, _ = fe.setup([1, 1])
        cts = [fe.encrypt(keys_a[0], None, [5]), fe.encrypt(keys_a[1], None, [3])]
        sk_b = _single_product_key(inst_b)
        with pytest.raises(fe.InstanceMismatch):
            fe.decrypt(cts, sk_b)


class TestDecrypt:
    def test_single_product(self):
        instance, keys = fe.setup([1, 1])
        cts = [fe.encrypt(keys[0], None, [5]), fe.encrypt(keys[1], None, [3])]
        assert fe.decrypt(cts, _single_product_key(instance)) == 15

    # Coefficients are taken by tensor.int_vector's rule, as payloads are: an
    # integer-valued float or numpy integer decrypts as the int it equals.
    @pytest.mark.parametrize("coefficient", [2.0, np.int64(2), np.float64(2)],
                             ids=["float", "numpy-int64", "numpy-float64"])
    def test_integer_valued_coefficients_decrypt_as_ints(self, coefficient):
        instance, keys = fe.setup([1, 1])
        cts = (fe.encrypt(keys[0], None, [2]), fe.encrypt(keys[1], None, [3]))

        def value(c):
            return fe.decrypt(cts, fe.keygen(instance, None, c))

        assert value(SparseFunctionVector(4, ((1, coefficient),))) == 12  # 2 * x0 * x1
        block = ResidualBlock(rows=1, coefficients=(coefficient, 1))
        expected = value(SliceVector(0, ResidualBlock(rows=1, coefficients=(2, 1))))
        assert value(SliceVector(0, block)) == expected == 2 * (2 * 2 + 3)

    def test_cross_iteration_mix_rejected(self):
        inst_t, keys_t = fe.setup([1, 1])
        inst_next, _ = fe.setup([1, 1])
        cts = [fe.encrypt(keys_t[0], None, [5]), fe.encrypt(keys_t[1], None, [3])]
        with pytest.raises(fe.InstanceMismatch):
            fe.decrypt(cts, _single_product_key(inst_next))

    def test_slot_order_does_not_matter(self):
        instance, keys = fe.setup([1, 1, 1])
        cts = [fe.encrypt(keys[slot], None, [slot + 2]) for slot in range(3)]
        sk = fe.keygen(instance, None, SparseFunctionVector(9, ((1, 1),)))  # x0 * x1
        assert fe.decrypt(cts, sk) == fe.decrypt(cts[::-1], sk) == 6

    def test_missing_slot(self):
        instance, keys = fe.setup([1, 1])
        with pytest.raises(fe.MissingSlot):
            fe.decrypt([fe.encrypt(keys[0], None, [5])],
                       _single_product_key(instance))

    def test_duplicate_slot(self):
        instance, keys = fe.setup([1, 1])
        cts = [fe.encrypt(keys[0], None, [5]), fe.encrypt(keys[0], None, [6]),
               fe.encrypt(keys[1], None, [3])]
        with pytest.raises(fe.DuplicateSlot):
            fe.decrypt(cts, _single_product_key(instance))

    def test_tag_gate_exhaustive(self):
        instance, keys = fe.setup([1, 1])
        cts = {(slot, tag): fe.encrypt(keys[slot], tag, [slot + 2])
               for slot in (0, 1) for tag in ("a", "b")}
        sks = {tag: _single_product_key(instance, tag) for tag in ("a", "b")}
        for t0 in ("a", "b"):
            for t1 in ("a", "b"):
                for tk in ("a", "b"):
                    group = [cts[(0, t0)], cts[(1, t1)]]
                    if t0 == t1 == tk:
                        assert fe.decrypt(group, sks[tk]) == 6
                    else:
                        with pytest.raises(fe.TagMismatch):
                            fe.decrypt(group, sks[tk])

    def test_full_vector_set_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            S = int(rng.integers(1, 5))
            counts = [int(rng.integers(1, 4)) for _ in range(n)]
            blocks = [rng.integers(-6, 7, size=(S, f)).astype(int) for f in counts]
            y = [int(v) for v in rng.integers(-6, 7, size=S)]
            weights = [int(v) for f in counts for v in rng.integers(-4, 5, size=f)]

            instance, keys = fe.setup([S * f for f in counts] + [S])
            cts = [fe.encrypt(keys[i], None, [int(v) for v in vec_columns(blocks[i])])
                   for i in range(n)]
            cts.append(fe.encrypt(keys[n], None, y))

            x = [int(v) for block in blocks for v in vec_columns(block)] + y
            kron = dense_kron(x)
            for c in all_gradient_slice_vectors(weights, 1, S):
                sk = fe.keygen(instance, None, c)
                expected = sum(a * b for a, b in zip(c.to_dense(), kron))
                assert fe.decrypt(cts, sk) == expected


class TestAuditCounters:
    def test_fresh_instance(self):
        instance, _ = fe.setup([1, 1])
        assert fe.audit_counters(instance) == (0, 0, 0)

    def test_counts_one_protocol_iteration(self):
        # N=3 clients, F=6 features: label client encrypts twice,
        # aggregator decrypts once per feature.
        n, S, counts = 3, 2, [2, 2, 2]
        instance, keys = fe.setup([S * f for f in counts] + [S])
        rng = np.random.default_rng(8)
        cts = []
        for i in range(n):
            block = rng.integers(-3, 4, size=(S, counts[i]))
            cts.append(fe.encrypt(keys[i], None,
                                  [int(v) for v in vec_columns(block)]))
        cts.append(fe.encrypt(keys[n], None, [1, -1]))
        weights = [1, 2, 3, 4, 5, 6]
        for c in all_gradient_slice_vectors(weights, 1, S):
            sk = fe.keygen(instance, None, c)
            fe.decrypt(cts, sk)
        assert fe.audit_counters(instance) == (n + 1, 6, 6)

    def test_counters_never_decrease(self):
        instance, keys = fe.setup([1, 1])
        seen = [fe.audit_counters(instance)]
        fe.encrypt(keys[0], None, [1])
        seen.append(fe.audit_counters(instance))
        fe.encrypt(keys[1], None, [2])
        seen.append(fe.audit_counters(instance))
        _single_product_key(instance)
        seen.append(fe.audit_counters(instance))
        for before, after in zip(seen, seen[1:]):
            assert all(b <= a for b, a in zip(before, after))


class TestSealing:
    def test_serialized_forms_are_payload_free(self):
        _, keys = fe.setup([2, 1])
        sentinel = [987654321, 246813579]
        ct = fe.encrypt(keys[0], None, sentinel)
        surfaces = [repr(ct), str(ct), json.dumps(ct.header(), sort_keys=True)]
        for surface in surfaces:
            for value in sentinel:
                assert str(value) not in surface

    def test_header_fields(self):
        instance, keys = fe.setup([2, 1])
        ct = fe.encrypt(keys[0], 5, [1, 2])
        assert ct.header() == {
            "instance_id": instance.instance_id,
            "slot": 0,
            "tag": 5,
            "length": 2,
        }


class _Near:
    """A tag equal to any _Near at most 1 away: == is not transitive."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Near) and abs(self.value - other.value) <= 1

    def __hash__(self):
        return 0

    def __repr__(self):
        return f"_Near({self.value})"


class TestCheckedOnce:
    """Keys that share one check in a decrypt_all call read what bare decrypts would."""

    S, COUNTS = 2, [2, 1]

    def _set(self, tag, key_tag=None, seed=3):
        """Tagged set on a fresh instance, and one key per slice under key_tag.

        The ciphertexts come as one tuple, as run_iteration passes them.
        """
        S, counts = self.S, self.COUNTS
        instance, eks = fe.setup([S * f for f in counts] + [S])
        x = [int(v) for v in np.random.default_rng(seed).integers(
            -9, 10, size=S * (sum(counts) + 1))]
        bounds = np.cumsum([0] + [S * f for f in counts] + [S])
        cts = tuple([fe.encrypt(ek, tag, x[a:b])
                     for ek, a, b in zip(eks, bounds, bounds[1:])])
        vectors = all_gradient_slice_vectors([2, -1, 3], 1, S)
        key_tag = tag if key_tag is None else key_tag
        sks = [fe.keygen(instance, key_tag, c) for c in vectors]
        kron = dense_kron(x)
        expected = [sum(a * b for a, b in zip(c.to_dense(), kron)) for c in vectors]
        return instance, eks, cts, vectors, sks, x, expected

    @staticmethod
    def _counted(instance, call):
        """("value", v) or (error type, message); counts only a success, once."""
        before = fe.audit_counters(instance)[2]
        try:
            outcome = ("value", call())
        except fe.FEError as err:
            outcome = (type(err), str(err))
        assert fe.audit_counters(instance)[2] - before == (outcome[0] == "value")
        return outcome

    def _cold_equals_warm(self, instance, cts, sks, expected, key, group=None):
        """key's outcome on group (default cts), alone and among keys sharing a check.

        Cold: a bare decrypt. Warm: one decrypt_all on group in which key
        comes after the keys sks and before them again; on cts they share
        one check, and they must still read their values around key.
        """
        group = cts if group is None else group
        cold = self._counted(instance, lambda: fe.decrypt(group, key))
        keys = [*sks, key, *sks]
        before = fe.audit_counters(instance)[2]
        try:
            values = fe.decrypt_all(group, keys)
        except fe.FEError as err:
            warm = (type(err), str(err))
        else:
            warm = ("value", values[len(sks)])
            assert fe.audit_counters(instance)[2] - before == len(keys)
            if group is cts:
                assert values == [*expected, warm[1], *expected]
        assert warm == cold
        assert fe.decrypt_all(cts, sks) == expected
        return cold

    def test_one_check_per_set_and_one_count_per_key(self, monkeypatch):
        # Within one decrypt_all call the keys share one check of the set;
        # every key is counted.
        instance, _, cts, _, sks, _, expected = self._set("t")
        checks = []
        checked = fe._checked_operands
        monkeypatch.setattr(fe, "_checked_operands",
                            lambda *args: checks.append(1) or checked(*args))
        for rounds in (1, 2):
            assert fe.decrypt_all(cts, sks) == expected
            assert fe.audit_counters(instance)[2] == rounds * len(sks)
            assert len(checks) == rounds
        # The order the clients send in when client 0 holds the labels: the
        # label slot second, not last. One check for that set too.
        sent = (cts[0], cts[2], cts[1])
        assert fe.decrypt_all(sent, sks) == expected
        assert fe.audit_counters(instance)[2] == 3 * len(sks)
        assert len(checks) == 3

    def test_checked_headers_cannot_change(self):
        instance, _, cts, _, sks, _, expected = self._set("t")
        assert [fe.decrypt(cts, sk) for sk in sks] == expected
        for name, value in (("tag", "u"), ("slot", 1), ("instance_id", -1),
                            ("_payload", cts[1]._payload)):
            with pytest.raises(AttributeError):
                setattr(cts[0], name, value)
        assert [fe.decrypt(cts, sk) for sk in sks] == expected

    def test_key_from_another_instance(self):
        instance, _, cts, vectors, sks, _, expected = self._set("t")
        other, _ = fe.setup(instance.slot_lengths)
        foreign = fe.keygen(other, "t", vectors[0])
        assert self._cold_equals_warm(
            instance, cts, sks, expected, foreign)[0] is fe.InstanceMismatch

    def test_another_tag(self):
        instance, _, cts, vectors, sks, _, expected = self._set("t")
        wrong = fe.keygen(instance, "u", vectors[0])
        assert self._cold_equals_warm(
            instance, cts, sks, expected, wrong)[0] is fe.TagMismatch

    def test_equal_tag_object_is_checked_again(self):
        tag = tuple(["iteration", 7])
        instance, _, cts, vectors, sks, _, expected = self._set(tag)
        twin = fe.keygen(instance, tuple(["iteration", 7]), vectors[1])
        assert twin.tag == tag and twin.tag is not tag
        assert self._cold_equals_warm(
            instance, cts, sks, expected, twin) == ("value", expected[1])

    def test_non_transitive_tag_equality(self):
        # Ciphertexts under _Near(0), shared keys under _Near(1): both pass.
        # _Near(2) equals the warm keys' tag but not the ciphertexts'.
        instance, _, cts, vectors, sks, _, expected = self._set(_Near(0), _Near(1))
        far = fe.keygen(instance, _Near(2), vectors[0])
        assert self._cold_equals_warm(
            instance, cts, sks, expected, far)[0] is fe.TagMismatch

    @pytest.mark.parametrize("fault,kind", [
        ("reordered", "value"), ("missing", fe.MissingSlot),
        ("duplicate", fe.DuplicateSlot),
    ])
    def test_slot_faults(self, fault, kind):
        instance, _, cts, _, sks, _, expected = self._set("t")
        group = {"reordered": cts[::-1], "missing": cts[:-1],
                 "duplicate": cts + (cts[0],)}[fault]
        outcome = self._cold_equals_warm(instance, cts, sks, expected, sks[2], group)
        assert outcome[0] == kind
        assert kind != "value" or outcome[1] == expected[2]

    def test_new_list_of_other_ciphertexts(self):
        instance, eks, cts, vectors, sks, x, expected = self._set(None)
        other = list(cts)
        other[0] = fe.encrypt(eks[0], None, [v + 1 for v in x[:4]])
        kron = dense_kron([v + 1 for v in x[:4]] + x[4:])
        changed = sum(a * b for a, b in zip(vectors[0].to_dense(), kron))
        assert changed != expected[0]
        assert self._cold_equals_warm(
            instance, cts, sks, expected, sks[0], other) == ("value", changed)

    @pytest.mark.parametrize("form", [list, lambda cts: tuple(list(cts))],
                             ids=["list", "fresh-tuple"])
    def test_another_container_is_checked_again(self, form, monkeypatch):
        # The container makes no difference: the same ciphertexts in a list
        # or in a fresh tuple give the same values, one check per call of
        # either function and one count per key.
        instance, _, cts, _, sks, _, expected = self._set("t")
        checks = []
        checked = fe._checked_operands
        monkeypatch.setattr(fe, "_checked_operands",
                            lambda *args: checks.append(1) or checked(*args))
        again = form(cts)
        assert tuple(again) == cts and again is not cts
        assert fe.decrypt_all(again, sks) == expected
        assert len(checks) == 1
        for i, sk in enumerate(sks):
            assert fe.decrypt(again, sk) == expected[i]
            assert len(checks) == 2 + i
        assert fe.audit_counters(instance)[2] == 2 * len(sks)

    def test_the_same_tuple_is_checked_again(self, monkeypatch):
        # A bare decrypt keeps nothing, so the next call on that very tuple,
        # with that very key, runs every check again.
        instance, _, cts, _, sks, _, expected = self._set("t")
        checks = []
        checked = fe._checked_operands
        monkeypatch.setattr(fe, "_checked_operands",
                            lambda *args: checks.append(1) or checked(*args))
        assert [fe.decrypt(cts, sks[0]) for _ in range(2)] == [expected[0]] * 2
        assert len(checks) == 2

    def test_key_of_another_block(self):
        instance, _, cts, _, sks, x, expected = self._set("t")
        c = all_gradient_slice_vectors([0, 5, -4], 3, self.S)[0]
        value = sum(a * b for a, b in zip(c.to_dense(), dense_kron(x)))
        assert value != expected[0]
        assert self._cold_equals_warm(
            instance, cts, sks, expected, fe.keygen(instance, "t", c)) == ("value", value)

    def test_hand_built_vector(self):
        instance, _, cts, vectors, sks, _, expected = self._set("t")
        loose = fe.keygen(instance, "t", SparseFunctionVector(
            vectors[1].dimension, tuple(vectors[1].entries)))
        assert self._cold_equals_warm(
            instance, cts, sks, expected, loose) == ("value", expected[1])


class TestDecryptAll:
    S, COUNTS = TestCheckedOnce.S, TestCheckedOnce.COUNTS
    _set = TestCheckedOnce._set

    @pytest.mark.parametrize("tag", [None, "t"])
    def test_values_are_per_key_decrypts(self, tag):
        instance, _, cts, _, sks, _, expected = self._set(tag)
        assert fe.decrypt_all(cts, sks) == expected
        assert fe.decrypt_all(list(cts), sks) == expected
        assert [fe.decrypt(cts, sk) for sk in sks] == expected
        assert fe.decrypt_all(cts, []) == []

    def test_one_decrypt_per_key_through_the_module_name(self, monkeypatch):
        # perfbench times and counts fe.decrypt by this attribute.
        instance, _, cts, _, sks, _, expected = self._set("t")
        calls, checks = [], []
        decrypt, checked = fe.decrypt, fe._checked_operands
        monkeypatch.setattr(fe, "decrypt", lambda *args: calls.append(1) or decrypt(*args))
        monkeypatch.setattr(fe, "_checked_operands",
                            lambda *args: checks.append(1) or checked(*args))
        for rounds in (1, 2):
            assert fe.decrypt_all(cts, sks) == expected
            assert fe.audit_counters(instance) == (3, len(sks), rounds * len(sks))
            assert (len(calls), len(checks)) == (rounds * len(sks), rounds)

    @pytest.mark.parametrize("fault", ["instance", "tag"])
    def test_a_mismatched_key_raises_as_decrypt(self, fault):
        instance, _, cts, vectors, sks, _, expected = self._set("t")
        other, _ = fe.setup(instance.slot_lengths)
        bad = (fe.keygen(other, "t", vectors[1]) if fault == "instance"
               else fe.keygen(instance, "u", vectors[1]))
        with pytest.raises(fe.FEError) as direct:
            fe.decrypt(cts, bad)
        with pytest.raises(type(direct.value)) as batched:
            fe.decrypt_all(cts, [sks[0], bad, sks[2]])
        assert str(batched.value) == str(direct.value)
        # The key before the bad one was decrypted and counted; none after.
        assert fe.audit_counters(instance)[2] == 1
        assert fe.audit_counters(other)[2] == 0

    def test_one_check_per_run_of_alike_keys(self, monkeypatch):
        # Keys share a check while they bring the same instance, tag and
        # block objects as the key before them: the F keys of an iteration
        # check their set once, and each change of block checks it again.
        instance, _, cts, _, sks, x, expected = self._set("t")
        c = all_gradient_slice_vectors([0, 5, -4], 3, self.S)
        other = [fe.keygen(instance, "t", v) for v in c]
        kron = dense_kron(x)
        values = [sum(a * b for a, b in zip(v.to_dense(), kron)) for v in c]
        checks = []
        checked = fe._checked_operands
        monkeypatch.setattr(fe, "_checked_operands",
                            lambda *args: checks.append(1) or checked(*args))
        assert fe.decrypt_all(cts, sks) == expected
        assert len(checks) == 1
        assert fe.decrypt_all(cts, [*sks, *other, sks[0]]) == [*expected, *values, expected[0]]
        assert len(checks) == 1 + 3
        assert fe.audit_counters(instance)[2] == 2 * len(sks) + len(other) + 1

    def test_no_kept_set_is_left_behind(self):
        # A set with a 2 MiB x: held memory is the same before and after a
        # bare decrypt, a decrypt_all that returned and one that raised.
        S = 1 << 16
        instance, eks = fe.setup([2 * S, S, S])
        cts = tuple([fe.encrypt(ek, "t", np.full(n, i + 1, dtype=np.int64))
                     for i, (ek, n) in enumerate(zip(eks, instance.slot_lengths))])
        sks = [fe.keygen(instance, "t", c)
               for c in all_gradient_slice_vectors([2, -1, 3], 1, S)]
        other, _ = fe.setup(instance.slot_lengths)
        foreign = fe.keygen(other, "t", sks[0].funcvec)
        expected = fe.decrypt_all(cts, sks)

        def held_after(call):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            try:
                call()
            except fe.InstanceMismatch:
                pass
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before

        tracemalloc.start()
        try:
            held = [held_after(lambda: fe.decrypt(cts, sks[1])),
                    held_after(lambda: fe.decrypt_all(cts, sks)),
                    held_after(lambda: fe.decrypt_all(cts, [sks[1], foreign]))]
        finally:
            tracemalloc.stop()
        assert max(held) < 64 * 1024, held
        assert fe.decrypt_all(cts, sks) == expected
