"""Ideal-functionality stand-in for quadratic multi-input functional encryption.

No cryptography happens here. The module enforces, at the API boundary, the
exact input/output behavior a secure scheme would provide: a ciphertext
reveals nothing but its header; a secret key bound to a coefficient vector c
decrypts a full set of slot ciphertexts to <c, x (x) x> for the concatenated
x, and to nothing else; decryption across instances, across tags, or with an
incomplete slot set fails with a typed error instead of a value. A slot's
tags must increase, so an instance serving a whole run holds one tag per slot.

Only setup issues encryption keys, only encrypt issues ciphertexts and
only keygen issues secret keys. Each makes its handle with object.__new__
and sets the slots through the class's own slot descriptors
(funcvec.slot_setters); no token or keyword opens the constructor, and
calling one of the three classes raises FEError, with any arguments or
none. No field of an issued handle can be assigned or deleted
(AttributeError). So a key's instance, tag and function are the ones
keygen bound, and the instance keeps no record of the keys it issued.

Slot convention: one slot per feature-holding client plus one final slot for
the label vector, so the concatenation in slot order is [x_0||...||x_{N-1}||y].

An encryption key holds its instance and slot, a secret key its instance,
tag and function, and a ciphertext its instance's id, slot, tag and payload;
a key's instance id is read from its instance. decrypt states how a
checked ciphertext set is kept for the next key, and decrypt_all how
long.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .draws import check_int
from .funcvec import ReadOnly, ResidualBlock, SliceVector, SparseFunctionVector, slot_setters
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
    """What one checked ciphertext set gives the keys of its instance.

    ciphertexts is the tuple decrypt was given, the memo's key; holding it
    keeps that identity from being reused. tag is the checked key's tag
    object, x the payloads in slot order and slices every slice value of
    block on x (None past the accumulator width, or for no block).
    """

    ciphertexts: tuple[Ciphertext, ...]
    tag: object
    x: np.ndarray
    block: ResidualBlock | None
    slices: list[int] | None


class FEInstance:
    """One setup's worth of keys and counters; payloads never leave the module.

    It holds its id, slot lengths, counters and the last tag of each slot.
    The schedule is single-threaded, so it holds no lock.
    """

    def __init__(self, slot_lengths: tuple[int, ...]) -> None:
        self.instance_id = next(_instance_ids)
        self.slot_lengths = slot_lengths
        # Stored once: keygen checks every key's dimension against it.
        self.dimension = sum(slot_lengths) ** 2
        self._n_encrypt = 0
        self._n_keygen = 0
        self._n_decrypt = 0
        self._last_tags: list[object] = [None] * len(slot_lengths)
        self._operands: _Operands | None = None

    def __repr__(self) -> str:
        return f"FEInstance(instance_id={self.instance_id}, n_slots={len(self.slot_lengths)})"


class _Issued(ReadOnly):
    """A handle whose slots only setup, encrypt or keygen set, through their descriptors.

    Each issuing function makes the handle with object.__new__ and sets
    its slots with the class's slot_setters; calling the class raises.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise FEError(f"{type(self).__name__} is issued by fe.setup, fe.encrypt "
                      f"or fe.keygen only")


_new = object.__new__


class EncryptionKey(_Issued):
    """Capability to encrypt into one slot of one instance; issued by setup."""

    __slots__ = ("slot", "_instance")

    def __repr__(self) -> str:
        return f"EncryptionKey(instance_id={self._instance.instance_id}, slot={self.slot})"


_set_ek_slot, _set_ek_instance = slot_setters(EncryptionKey)


class Ciphertext(_Issued):
    """Sealed integer vector; only the header is public. Issued by encrypt.

    The payload is a read-only copy of the encrypted values (int64 when
    every value fits, Python ints otherwise; see tensor.seal). It has no
    accessor and never appears in repr or header output. Decryption
    inside this module is the single reader. Nothing can be reassigned
    after encrypt, so decrypt may trust a header it has checked once. It
    holds its instance's id, not the instance: the instance's memo holds
    ciphertexts, and a reference back would make a cycle for the cyclic
    garbage collector to free.
    """

    __slots__ = ("instance_id", "slot", "tag", "_payload")

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


_set_ct_instance_id, _set_ct_slot, _set_ct_tag, _set_ct_payload = slot_setters(Ciphertext)


class SecretKey(_Issued):
    """Decryption key bound to one instance, one tag, one coefficient vector.

    Issued by keygen; the binding cannot change afterwards.
    """

    __slots__ = ("tag", "funcvec", "_instance")

    def __repr__(self) -> str:
        return (f"SecretKey(instance_id={self._instance.instance_id}, tag={self.tag!r}, "
                f"nnz={self.funcvec.nnz})")


_set_sk_tag, _set_sk_funcvec, _set_sk_instance = slot_setters(SecretKey)


def setup(slot_lengths: Sequence[int]) -> tuple[FEInstance, list[EncryptionKey]]:
    """Create a fresh instance with one slot per length and one encryption key per slot.

    It takes at least two lengths, else ValueError. Each length is a
    count (draws.check_int): a float or a bool raises TypeError and a
    length below 1 ValueError, both naming the slot, as in "slot 0 length
    must be an integer, got 2.0".
    """
    # From a list, not a generator: a tuple built from a generator is resized,
    # so it does not come from CPython's tuple free list but goes back to it,
    # which then grows by one entry per call (up to 2000 per size).
    lengths = tuple([check_int(f"slot {slot} length", n, 1)
                     for slot, n in enumerate(slot_lengths)])
    if len(lengths) < 2:
        raise ValueError(f"need at least 2 slots (features + labels), got {len(lengths)}")
    instance = FEInstance(lengths)
    keys = [_new(EncryptionKey) for _ in lengths]
    for slot, ek in enumerate(keys):
        _set_ek_slot(ek, slot)
        _set_ek_instance(ek, instance)
    return instance, keys


def encrypt(ek: EncryptionKey, tag: object, values: Sequence[int]) -> Ciphertext:
    """Seal an integer vector into the key's slot under the given tag.

    A non-None tag must order strictly after the slot's last tag (last <
    tag); an equal, older or incomparable tag raises DuplicateSlot, so each
    (slot, tag) is used once and the instance keeps one tag per slot.
    Untagged use (tag None) has no such restriction. The ciphertext keeps a
    read-only copy, so later changes to `values` do not reach it. A value
    that is not an integer (see tensor.int_list) raises ValueError
    naming the slot and the position; it is never truncated.
    """
    instance = ek._instance
    try:
        payload = seal(values)
    except ValueError as err:
        raise ValueError(f"slot {ek.slot} takes integers; {err}") from None
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
    ct = _new(Ciphertext)
    _set_ct_instance_id(ct, instance.instance_id)
    _set_ct_slot(ct, ek.slot)
    _set_ct_tag(ct, tag)
    _set_ct_payload(ct, payload)
    return ct


def keygen(instance: FEInstance, tag: object,
           funcvec: SparseFunctionVector | SliceVector) -> SecretKey:
    """Bind a coefficient vector to the instance and tag.

    The vector's dimension must be the instance's, the square of its
    total slot length, else ValueError.
    """
    if funcvec.dimension != instance.dimension:
        raise ValueError(
            f"function vector dimension {funcvec.dimension} does not match "
            f"the instance's {instance.dimension}"
        )
    instance._n_keygen += 1
    sk = _new(SecretKey)
    _set_sk_tag(sk, tag)
    _set_sk_funcvec(sk, funcvec)
    _set_sk_instance(sk, instance)
    return sk


def decrypt(ciphertexts: Iterable[Ciphertext], sk: SecretKey) -> int:
    """Reveal <c, x (x) x> for the concatenation of all slot payloads.

    Checks run in order: every ciphertext must share the key's instance
    (else InstanceMismatch), then its tag (TagMismatch), then the slots
    must cover each slot of the instance exactly once (DuplicateSlot,
    MissingSlot). No partial value is ever returned. The ciphertexts may
    come in any order. The key's instance keeps the last set that passed
    with its concatenated x and the slice values of its block, so a later
    key of that instance skips the checks when it brings that very tuple
    object, the same tag object and the same block; any other call, a
    list or another tuple of the same ciphertexts included, runs every
    check again, in the same order and with the same errors. So a caller
    that passes one tuple to every decrypt of a set (as decrypt_all does)
    has it checked once. The kept set is replaced by the next one that
    passes; decrypt_all drops it when it returns or raises, and a set
    kept by a bare decrypt goes with its instance. Each call counts once.
    """
    cts = tuple(ciphertexts)
    instance = sk._instance
    operands = instance._operands
    block = getattr(sk.funcvec, "block", None)
    # Identity throughout: an equal tag is checked again, since == need not
    # be transitive, and tuple() of a tuple is that tuple.
    if (operands is None or operands.ciphertexts is not cts
            or operands.tag is not sk.tag or operands.block is not block):
        operands = _checked_operands(cts, sk, block)
        instance._operands = operands
    value = sparse_inner_kron(sk.funcvec, operands.x, slices=operands.slices)
    instance._n_decrypt += 1
    return value


def decrypt_all(ciphertexts: Iterable[Ciphertext], keys: Sequence[SecretKey]) -> list[int]:
    """[decrypt(cts, sk) for sk in keys] on one tuple cts of the ciphertexts.

    Each key is checked and counted as decrypt does, and the first error
    is raised as decrypt raises it. Whether the call returns or raises,
    every key's instance then drops its kept set, so the set lives only
    as long as the decrypts that share it, whichever instance serves the
    run.
    """
    cts = tuple(ciphertexts)
    try:
        return [decrypt(cts, sk) for sk in keys]
    finally:
        for sk in keys:
            sk._instance._operands = None


def _checked_operands(cts: tuple[Ciphertext, ...], sk: SecretKey,
                      block: ResidualBlock | None) -> _Operands:
    """decrypt's checks in their order; the memo entry for a set that passes."""
    instance = sk._instance
    for ct in cts:
        if ct.instance_id != instance.instance_id:
            raise InstanceMismatch(
                f"ciphertext from instance {ct.instance_id} cannot be decrypted "
                f"with a key from instance {instance.instance_id}"
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
    missing = [slot for slot in range(len(instance.slot_lengths)) if slot not in by_slot]
    if missing:
        raise MissingSlot(f"no ciphertext for slots {missing}")
    x = np.concatenate([by_slot[slot]._payload for slot in range(len(instance.slot_lengths))])
    slices = None if block is None else block_slices(block, x)
    return _Operands(cts, sk.tag, x, block, slices)


def audit_counters(instance: FEInstance) -> tuple[int, int, int]:
    """Successful (encrypt, keygen, decrypt) counts since setup."""
    return (instance._n_encrypt, instance._n_keygen, instance._n_decrypt)
