"""Ideal-functionality stand-in for quadratic multi-input functional encryption.

No cryptography happens here. The module enforces, at the API boundary, the
exact input/output behavior a secure scheme would provide: a ciphertext
reveals nothing but its header; a secret key bound to a coefficient vector c
decrypts a full set of slot ciphertexts to <c, x (x) x> for the concatenated
x, and to nothing else; decryption across instances, across tags, or with an
incomplete slot set fails with a typed error instead of a value. A slot's
tags must increase, so an instance serving a whole run holds one tag per slot.

Only setup issues encryption keys, only encrypt issues ciphertexts and
only keygen issues secret keys: calling one of the three classes raises,
and no field of an issued handle can be assigned or deleted. So a key's
instance, tag and function are the ones keygen bound, and the instance
keeps no record of the keys it issued.

Slot convention: one slot per feature-holding client plus one final slot for
the label vector, so the concatenation in slot order is [x_0||...||x_{N-1}||y].

Every decrypt call is checked and counted on its own, but a ciphertext set is
evaluated once: the instance remembers the last set that passed, as it was
passed, the key identity it passed with, and the set's concatenated x and
the shared block's slice values. A later key on that set pays a few
identity comparisons and a lookup; any other call runs every check again.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .funcvec import ResidualBlock, SliceVector, SparseFunctionVector
from .tensor import block_slices, seal, sparse_inner_kron


class FEError(Exception):
    """Base class for functional-encryption failures."""


class InstanceMismatch(FEError):
    """Key and ciphertexts come from different setup calls."""


class TagMismatch(FEError):
    """Ciphertext tags and key tag disagree."""


class MissingSlot(FEError):
    """Decryption needs every slot exactly once; one or more are absent."""


class DuplicateSlot(FEError):
    """A slot appears more than once where exactly one ciphertext is allowed."""


_instance_ids = itertools.count()


class _Operands(NamedTuple):
    """What one ciphertext set gives every key that passes its checks.

    ciphertexts is the validated tuple as decrypt was given it; holding
    it keeps those identities from being reused while the entry lives.
    instance_id and tag are those of the last key that passed every
    check on it. x is the payloads concatenated in slot order, and
    slices holds every slice value of block on x (None past the
    accumulator width). An entry is replaced whole, never edited.
    """

    ciphertexts: tuple[Ciphertext, ...]
    instance_id: int
    tag: object
    x: np.ndarray
    block: ResidualBlock | None = None
    slices: list[int] | None = None


class FEInstance:
    """One setup's worth of keys and counters; payloads never leave the module."""

    def __init__(self, n_slots: int, slot_lengths: tuple[int, ...]) -> None:
        self.instance_id = next(_instance_ids)
        self.n_slots = n_slots
        self.slot_lengths = slot_lengths
        self.total_length = sum(slot_lengths)
        self._n_encrypt = 0
        self._n_keygen = 0
        self._n_decrypt = 0
        self._last_tags: list[object] = [None] * n_slots
        self._operands: _Operands | None = None

    def __repr__(self) -> str:
        return f"FEInstance(instance_id={self.instance_id}, n_slots={self.n_slots})"


# setup, encrypt and keygen pass this to the handle classes; a handle
# built without it is refused, so only those three issue handles.
_ISSUER = object()

_seal_field = object.__setattr__


class _Issued:
    """A handle whose fields are set once, when this module issues it.

    Each subclass's __init__ refuses a call whose `issuer` is not _ISSUER
    with _not_issued, and sets its fields with _seal_field. Assigning or
    deleting a field afterwards raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")


def _not_issued(handle: _Issued) -> FEError:
    return FEError(f"{type(handle).__name__} is issued by fe.setup, fe.encrypt "
                   f"or fe.keygen only")


class EncryptionKey(_Issued):
    """Capability to encrypt into one slot of one instance; issued by setup."""

    __slots__ = ("instance_id", "slot", "_instance")

    def __init__(self, instance: FEInstance, slot: int, *, issuer: object = None) -> None:
        if issuer is not _ISSUER:
            raise _not_issued(self)
        _seal_field(self, "instance_id", instance.instance_id)
        _seal_field(self, "slot", slot)
        _seal_field(self, "_instance", instance)

    def __repr__(self) -> str:
        return f"EncryptionKey(instance_id={self.instance_id}, slot={self.slot})"


class Ciphertext(_Issued):
    """Sealed integer vector; only the header is public. Issued by encrypt.

    The payload is a read-only copy of the encrypted values (int64 when
    every value fits, Python ints otherwise; see tensor.seal). It has no
    accessor and never appears in repr or header output. Decryption
    inside this module is the single reader. Nothing can be reassigned
    after encrypt, so decrypt may trust a header it has checked once.
    """

    __slots__ = ("instance_id", "slot", "tag", "_payload")

    def __init__(self, instance_id: int, slot: int, tag: object, payload: np.ndarray,
                 *, issuer: object = None) -> None:
        if issuer is not _ISSUER:
            raise _not_issued(self)
        _seal_field(self, "instance_id", instance_id)
        _seal_field(self, "slot", slot)
        _seal_field(self, "tag", tag)
        _seal_field(self, "_payload", payload)

    def header(self) -> dict:
        """Public fields only, safe to serialize or log."""
        return {
            "instance_id": self.instance_id,
            "slot": self.slot,
            "tag": self.tag,
            "length": len(self._payload),
        }

    def __repr__(self) -> str:
        return (f"Ciphertext(instance_id={self.instance_id}, slot={self.slot}, "
                f"tag={self.tag!r}, length={len(self._payload)})")


class SecretKey(_Issued):
    """Decryption key bound to one instance, one tag, one coefficient vector.

    Issued by keygen; the binding cannot change afterwards.
    """

    __slots__ = ("instance_id", "tag", "funcvec", "_instance")

    def __init__(self, instance: FEInstance, tag: object,
                 funcvec: SparseFunctionVector | SliceVector, *,
                 issuer: object = None) -> None:
        if issuer is not _ISSUER:
            raise _not_issued(self)
        _seal_field(self, "instance_id", instance.instance_id)
        _seal_field(self, "tag", tag)
        _seal_field(self, "funcvec", funcvec)
        _seal_field(self, "_instance", instance)

    def __repr__(self) -> str:
        return (f"SecretKey(instance_id={self.instance_id}, tag={self.tag!r}, "
                f"nnz={self.funcvec.nnz})")


def setup(n_slots: int, slot_lengths: Sequence[int]) -> tuple[FEInstance, list[EncryptionKey]]:
    """Create a fresh instance and one encryption key per slot."""
    # From a list, not a generator: a tuple built from a generator is resized,
    # so it does not come from CPython's tuple free list but goes back to it,
    # which then grows by one entry per call (up to 2000 per size).
    lengths = tuple([int(n) for n in slot_lengths])
    if n_slots < 2:
        raise ValueError(f"need at least 2 slots (features + labels), got {n_slots}")
    if len(lengths) != n_slots:
        raise ValueError(
            f"slot_lengths has {len(lengths)} entries for {n_slots} slots"
        )
    if any(n < 1 for n in lengths):
        raise ValueError(f"every slot length must be >= 1, got {lengths}")
    instance = FEInstance(n_slots, lengths)
    keys = [EncryptionKey(instance, slot, issuer=_ISSUER) for slot in range(n_slots)]
    return instance, keys


def encrypt(ek: EncryptionKey, tag: object, values: Sequence[int]) -> Ciphertext:
    """Seal an integer vector into the key's slot under the given tag.

    A non-None tag must order strictly after the slot's last tag (last <
    tag); an equal, older or incomparable tag raises DuplicateSlot, so each
    (slot, tag) is used once and the instance keeps one tag per slot.
    Untagged use (tag None) has no such restriction. The ciphertext keeps a
    read-only copy, so later changes to `values` do not reach it. A value
    that is not an integer raises ValueError; it is never truncated.
    """
    instance = ek._instance
    # seal would truncate as int() does. An int64 array, the protocol's
    # payload, holds integers by its dtype; anything else is checked.
    if isinstance(values, np.ndarray):
        given = () if values.dtype == np.int64 else values.tolist()
    else:
        values = given = list(values)
    for position, value in enumerate(given):
        try:
            whole = int(value) == value
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"slot {ek.slot} takes integers; position "
                             f"{position} holds {value!r}")
    payload = seal(values)
    expected = instance.slot_lengths[ek.slot]
    if len(payload) != expected:
        raise ValueError(
            f"slot {ek.slot} expects a vector of length {expected}, got {len(payload)}"
        )
    if tag is not None:
        last = instance._last_tags[ek.slot]
        try:
            later = last is None or bool(last < tag)
        except (TypeError, ValueError):
            later = False
        if not later:
            raise DuplicateSlot(f"slot {ek.slot} was last encrypted under tag "
                                f"{last!r}; tag {tag!r} does not order after it")
        instance._last_tags[ek.slot] = tag
    instance._n_encrypt += 1
    return Ciphertext(instance.instance_id, ek.slot, tag, payload, issuer=_ISSUER)


def keygen(instance: FEInstance, tag: object,
           funcvec: SparseFunctionVector | SliceVector) -> SecretKey:
    """Bind a coefficient vector to the instance and tag."""
    expected = instance.total_length ** 2
    if funcvec.dimension != expected:
        raise ValueError(
            f"function vector dimension {funcvec.dimension} does not match "
            f"the instance's {expected}"
        )
    instance._n_keygen += 1
    return SecretKey(instance, tag, funcvec, issuer=_ISSUER)


def decrypt(ciphertexts: Iterable[Ciphertext], sk: SecretKey) -> int:
    """Reveal <c, x (x) x> for the concatenation of all slot payloads.

    Checks run in order: every ciphertext must share the key's instance,
    then its tag, then the slots must cover 0..n_slots-1 exactly once.
    Any violation raises; no partial value is ever returned. The
    ciphertexts may come in any order. A set is checked once: the
    instance keeps the ciphertexts that passed, as they were passed,
    with the instance id and tag object of the key that passed, and a
    later key skips the checks only when it brings the same ciphertext
    objects in the same order, the same instance id, that very tag
    object and that very block. Anything else runs every check again.
    The concatenated x and every slice value of a shared block
    are computed once per ciphertext set and block, so a later key of
    that block costs a few identity comparisons and a lookup. Each
    call counts once.
    """
    cts = tuple(ciphertexts)
    instance = sk._instance
    operands = instance._operands
    block = getattr(sk.funcvec, "block", None)
    # Ciphertext has no __eq__, so tuple comparison is by identity. The tag
    # is compared by identity too: an equal tag is checked again, since ==
    # need not be transitive.
    if (operands is None or operands.ciphertexts != cts
            or operands.instance_id != sk.instance_id
            or operands.tag is not sk.tag or operands.block is not block):
        operands = _checked_operands(cts, sk, block)
        instance._operands = operands
    value = sparse_inner_kron(sk.funcvec, operands.x, slices=operands.slices)
    instance._n_decrypt += 1
    return value


def _checked_operands(cts: tuple[Ciphertext, ...], sk: SecretKey,
                      block: ResidualBlock | None) -> _Operands:
    """decrypt's checks in their order; the memo entry for a set that passes."""
    instance = sk._instance
    for ct in cts:
        if ct.instance_id != sk.instance_id:
            raise InstanceMismatch(
                f"ciphertext from instance {ct.instance_id} cannot be decrypted "
                f"with a key from instance {sk.instance_id}"
            )
    for ct in cts:
        if ct.tag != sk.tag:
            raise TagMismatch(
                f"ciphertext tag {ct.tag!r} does not match key tag {sk.tag!r}"
            )
    by_slot: dict[int, Ciphertext] = {}
    for ct in cts:
        if ct.slot in by_slot:
            raise DuplicateSlot(f"slot {ct.slot} appears more than once")
        by_slot[ct.slot] = ct
    missing = [slot for slot in range(instance.n_slots) if slot not in by_slot]
    if missing:
        raise MissingSlot(f"no ciphertext for slots {missing}")
    x = np.concatenate([by_slot[slot]._payload for slot in range(instance.n_slots)])
    slices = None if block is None else block_slices(block, x)
    # Built whole, not by _replace: _make builds a tuple from an iterator,
    # which feeds CPython's tuple free list one entry per call.
    return _Operands(cts, sk.instance_id, sk.tag, x, block, slices)


def audit_counters(instance: FEInstance) -> tuple[int, int, int]:
    """Successful (encrypt, keygen, decrypt) counts since setup."""
    return (instance._n_encrypt, instance._n_keygen, instance._n_decrypt)
