"""The ideal FE layer against a reference model of plain dicts.

A hypothesis state machine sets up 1-3 instances, encrypts under tags
drawn from a small pool, issues keys for slice vectors and hand-built
sparse vectors, and decrypts subsets, permutations and duplicates of the
ciphertexts, passed as the same tuple, a copy or a list, to decrypt one
key at a time or to decrypt_all with a list of keys that mixes
instances, tags and blocks. Hand-built coefficients and slice weights
are drawn as ints, integer-valued floats and numpy.int64 values. After
every step fe agrees with the model: the same value, or the same error
type in decrypt's documented order (instance, then tag, then slots), and
the same audit_counters. decrypt_all is per-key decrypt in order: it
stops at the first error, and only the keys before it count. The
model reveals a value exactly when every ciphertext has the key's
instance and tag and the slots are complete, so mix-and-match across
instances or tags is always refused.

Tier-1 runs the small "fe-model" profile of tests/conftest.py; a deeper
run is

    python -m pytest tests/test_fe_model.py --hypothesis-profile fe-model-deep
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from fedquad import fe
from fedquad.funcvec import SparseFunctionVector, all_gradient_slice_vectors

# 1, 1.0 and True are equal tags; "a" orders against none of the others.
TAGS = (None, 0, 1, 1.0, True, 2, "a")
# Batch rows, then each slot's column count (the last slot is the label's).
SHAPES = st.tuples(st.integers(1, 3), st.lists(st.integers(1, 2), min_size=2, max_size=4))
VALUES = st.one_of(st.integers(-9, 9), st.sampled_from([-(1 << 40), 1 << 40]))


def integer_forms(ints):
    """Each drawn integer as an int, an integer-valued float or a numpy.int64."""
    return ints.flatmap(lambda v: st.sampled_from([v, float(v), np.int64(v)]))


# A key's coefficients are taken by tensor.int_vector's rule, as a payload is.
COEFFICIENTS = integer_forms(st.integers(-9, 9).filter(bool))


class Model:
    """What setup, encrypt, keygen, decrypt and audit_counters must do.

    Each method returns the error type fe must raise, or None (decrypt:
    a (value, error type) pair), and records what succeeds.
    """

    def __init__(self) -> None:
        # {"lengths", "last": {slot: last tag}, "counts": [encrypt, keygen, decrypt]}
        self.instances: list[dict] = []
        self.cts: list[dict] = []  # {"instance", "slot", "tag", "values"}
        self.keys: list[dict] = []  # {"instance", "tag", "entries"}

    def setup(self, lengths) -> None:
        self.instances.append({"lengths": tuple(lengths), "last": {}, "counts": [0, 0, 0]})

    def encrypt(self, i, slot, tag, values):
        inst = self.instances[i]
        if tag is not None:
            last = inst["last"].get(slot)
            try:
                later = last is None or bool(last < tag)
            except TypeError:
                later = False
            if not later:
                return fe.DuplicateSlot
            inst["last"][slot] = tag
        inst["counts"][0] += 1
        self.cts.append({"instance": i, "slot": slot, "tag": tag, "values": list(values)})
        return None

    def keygen(self, i, tag, dimension, entries):
        inst = self.instances[i]
        if dimension != sum(inst["lengths"]) ** 2:
            return ValueError
        inst["counts"][1] += 1
        # Each coefficient is the integer it equals (all drawn ones are integers).
        self.keys.append({"instance": i, "tag": tag,
                          "entries": [(f, int(v)) for f, v in entries]})
        return None

    def decrypt(self, picks, k):
        key = self.keys[k]
        chosen = [self.cts[p] for p in picks]
        if any(ct["instance"] != key["instance"] for ct in chosen):
            return None, fe.InstanceMismatch
        if any(ct["tag"] != key["tag"] for ct in chosen):
            return None, fe.TagMismatch
        slots = [ct["slot"] for ct in chosen]
        if len(set(slots)) != len(slots):
            return None, fe.DuplicateSlot
        inst = self.instances[key["instance"]]
        if len(slots) != len(inst["lengths"]):
            return None, fe.MissingSlot
        x = [v for ct in sorted(chosen, key=lambda ct: ct["slot"]) for v in ct["values"]]
        L = len(x)
        inst["counts"][2] += 1
        return sum(v * x[f // L] * x[f % L] for f, v in key["entries"]), None


def _outcome(call, errors):
    """(call(), None), or (None, the type of the error call raised)."""
    try:
        return call(), None
    except errors as err:
        return None, type(err)


class FEModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model = Model()
        # (instance, encryption keys, rows, columns per slot), then the issued handles.
        self.instances: list[tuple] = []
        self.cts: list[fe.Ciphertext] = []
        self.keys: list[fe.SecretKey] = []
        self.vectors: list = []  # the slice vectors of the last block built
        # The last set that decrypted: the container decrypt was given, its
        # ciphertexts' indices and its key.
        self.last: tuple | None = None

    @initialize(shapes=st.lists(SHAPES, min_size=1, max_size=3))
    def setup(self, shapes):
        for rows, columns in shapes:
            lengths = [rows * c for c in columns]
            instance, eks = fe.setup(lengths)
            self.instances.append((instance, eks, rows, columns))
            self.model.setup(lengths)

    @rule(data=st.data(), tag=st.sampled_from(TAGS), every_slot=st.booleans())
    def encrypt(self, data, tag, every_slot):
        i = data.draw(st.integers(0, len(self.instances) - 1))
        _, eks, rows, columns = self.instances[i]
        # A whole round (every slot under one tag), or one slot.
        slots = range(len(eks)) if every_slot else [data.draw(st.integers(0, len(eks) - 1))]
        for slot in slots:
            values = data.draw(st.lists(VALUES, min_size=rows * columns[slot],
                                        max_size=rows * columns[slot]))
            expected = self.model.encrypt(i, slot, tag, values)
            ct, error = _outcome(lambda: fe.encrypt(eks[slot], tag, values), fe.FEError)
            assert error is expected
            if ct is not None:
                self.cts.append(ct)

    @rule(data=st.data(), sliced=st.booleans())
    def keygen(self, data, sliced):
        i = data.draw(st.integers(0, len(self.instances) - 1))
        # Often a tag that instance i's ciphertexts carry, else any of the pool.
        used = [ct["tag"] for ct in self.model.cts if ct["instance"] == i]
        tag = data.draw(st.sampled_from(used) | st.sampled_from(TAGS) if used
                        else st.sampled_from(TAGS))
        # Sized for instance i, or for any instance's shape (keygen refuses a
        # dimension that is not instance i's).
        j = data.draw(st.one_of(st.just(i), st.integers(0, len(self.instances) - 1)))
        _, _, rows, columns = self.instances[j]
        length = rows * sum(columns)
        if sliced and self.vectors and data.draw(st.booleans()):
            # The last block again, maybe under another tag or for another instance.
            vectors = self.vectors
        elif sliced:
            # All F vectors of one weight vector share a block, as in an iteration.
            weights = data.draw(st.lists(integer_forms(st.integers(-9, 9)),
                                         min_size=sum(columns) - 1, max_size=sum(columns) - 1))
            vectors = all_gradient_slice_vectors(
                weights, data.draw(integer_forms(st.integers(1, 4))), rows)
            self.vectors = vectors
        else:
            flats = data.draw(st.lists(st.integers(0, length * length - 1),
                                       unique=True, max_size=6))
            entries = tuple(sorted((f, data.draw(COEFFICIENTS)) for f in flats))
            vectors = [SparseFunctionVector(length * length, entries)]
        instance = self.instances[i][0]
        for c in vectors:
            # The model takes a hand-built vector's entries as drawn.
            expected = self.model.keygen(i, tag, c.dimension,
                                         c.entries if sliced else entries)
            sk, error = _outcome(lambda: fe.keygen(instance, tag, c), ValueError)
            assert error is expected
            if sk is not None:
                self.keys.append(sk)

    def _decrypt(self, passed, picks, k):
        expected = self.model.decrypt(picks, k)
        assert _outcome(lambda: fe.decrypt(passed, self.keys[k]), fe.FEError) == expected
        if expected[1] is None:
            # Mix-and-match: a value is only ever revealed within one instance and tag.
            key = self.model.keys[k]
            assert all(self.model.cts[p]["instance"] == key["instance"]
                       and self.model.cts[p]["tag"] == key["tag"] for p in picks)
            self.last = (passed, picks, k)

    def _slot_choices(self, key, matching=False):
        """Per slot of the key's instance that has ciphertexts: those under its tag.

        A slot with none under the tag offers all of its ciphertexts, or,
        when matching, is left out.
        """
        choices = []
        for slot in range(len(self.model.instances[key["instance"]]["lengths"])):
            candidates = [p for p, ct in enumerate(self.model.cts)
                          if ct["instance"] == key["instance"] and ct["slot"] == slot]
            tagged = [p for p in candidates if self.model.cts[p]["tag"] == key["tag"]]
            if tagged or (candidates and not matching):
                choices.append(tagged or candidates)
        return choices

    def _draw_set(self, data):
        """A key and the indices of a ciphertext set to decrypt with it."""
        # Often a key whose instance holds a ciphertext under its tag in every slot.
        ready = [k for k, key in enumerate(self.model.keys)
                 if len(self._slot_choices(key, matching=True)) == len(
                     self.model.instances[key["instance"]]["lengths"])]
        any_key = st.integers(0, len(self.keys) - 1)
        k = data.draw(st.sampled_from(ready) | any_key if ready else any_key)
        # One ciphertext per slot of the key's instance, its tag preferred ...
        picks = [data.draw(st.sampled_from(c)) for c in self._slot_choices(self.model.keys[k])]
        # ... then some dropped, some added (duplicates, other instances), any order.
        if picks and data.draw(st.integers(0, 3)) == 0:
            picks = picks[data.draw(st.integers(1, len(picks))):]
        if data.draw(st.integers(0, 3)) == 0:
            picks += data.draw(st.lists(st.integers(0, len(self.cts) - 1), min_size=1,
                                        max_size=2))
        return k, data.draw(st.permutations(picks))

    @precondition(lambda self: self.keys and self.cts)
    @rule(data=st.data(), as_list=st.booleans())
    def decrypt(self, data, as_list):
        k, picks = self._draw_set(data)
        chosen = [self.cts[p] for p in picks]
        self._decrypt(chosen if as_list else tuple(chosen), picks, k)

    @precondition(lambda self: self.last is not None)
    @rule(data=st.data(), form=st.sampled_from(["same", "copy", "list"]))
    def decrypt_again(self, data, form):
        passed, picks, k = self.last
        if form != "same":
            passed = list(passed) if form == "list" else tuple(list(passed))
        # Often another key of the same instance.
        self._decrypt(passed, picks, data.draw(self._sibling_or_any(k)))

    def _sibling_or_any(self, k):
        """A key of key k's instance, or any key."""
        instance = self.model.keys[k]["instance"]
        siblings = [j for j, key in enumerate(self.model.keys) if key["instance"] == instance]
        return st.sampled_from(siblings) | st.integers(0, len(self.keys) - 1)

    @precondition(lambda self: self.keys and self.cts)
    @rule(data=st.data(), as_list=st.booleans())
    def decrypt_all(self, data, as_list):
        k, picks = self._draw_set(data)
        # Runs of keys issued one after another (often slice keys of one
        # instance, tag and block, which share a check), each run starting at
        # a key of the set's instance or at any key.
        runs = data.draw(st.lists(st.tuples(self._sibling_or_any(k), st.integers(1, 3)),
                                  max_size=4))
        ks = [j for first, n in runs for j in range(first, min(first + n, len(self.keys)))]
        values, error = [], None
        for j in ks:
            value, error = self.model.decrypt(picks, j)
            if error is not None:
                break
            values.append(value)
        chosen = [self.cts[p] for p in picks]
        passed = chosen if as_list else tuple(chosen)
        assert _outcome(lambda: fe.decrypt_all(passed, [self.keys[j] for j in ks]),
                        fe.FEError) == ((values, None) if error is None else (None, error))

    @invariant()
    def counters(self):
        for (instance, *_), inst in zip(self.instances, self.model.instances):
            assert fe.audit_counters(instance) == tuple(inst["counts"])


TestFEModel = FEModel.TestCase
TestFEModel.settings = settings.get_profile(
    "fe-model-deep" if settings.get_current_profile_name() == "fe-model-deep"
    else "fe-model")
