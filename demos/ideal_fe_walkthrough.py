"""One round trip through the ideal quadratic FE layer.

Shows what each party sees: clients encrypt integer vectors into their
slots, the trusted party turns a coefficient vector into a secret key,
and decryption reveals exactly one quadratic form, nothing else. Then
demonstrates the two guard rails: keys refuse ciphertexts from another
instance, and tagged keys refuse ciphertexts from another tag.
"""

from fedquad import fe
from fedquad.funcvec import SparseFunctionVector
from fedquad.tensor import kron_flat

# two slots of length 2 and 1; total concatenated length 3
instance, keys = fe.setup(slot_lengths=[2, 1])
print("fresh instance:", instance.instance_id)

ct_a = fe.encrypt(keys[0], None, [5, 7])
ct_b = fe.encrypt(keys[1], None, [4])
print("ciphertext for slot 0:", ct_a)
print("header only, payload sealed:", ct_a.header())

# ask for x[0]*x[2] + 2*x[1]*x[1]
c = SparseFunctionVector(dimension=9, entries=(
    (kron_flat(0, 2, 3), 1),
    (kron_flat(1, 1, 3), 2),
))
sk = fe.keygen(instance, None, c)
value = fe.decrypt([ct_a, ct_b], sk)
print("decrypted quadratic form:", value, "(expected 5*4 + 2*7*7 = 118)")

# guard rail 1: a different instance cannot open these ciphertexts
other, other_keys = fe.setup(slot_lengths=[2, 1])
sk_other = fe.keygen(other, None, c)
try:
    fe.decrypt([ct_a, ct_b], sk_other)
except fe.InstanceMismatch as err:
    print("cross-instance decryption rejected:", err)

# guard rail 2: with tags, every ciphertext must match the key's tag
tagged_ct_a = fe.encrypt(other_keys[0], "round-0", [5, 7])
tagged_ct_b = fe.encrypt(other_keys[1], "round-1", [4])
sk_round0 = fe.keygen(other, "round-0", c)
try:
    fe.decrypt([tagged_ct_a, tagged_ct_b], sk_round0)
except fe.TagMismatch as err:
    print("cross-tag decryption rejected:", err)

print("instance counters (encrypt, keygen, decrypt):",
      fe.audit_counters(instance))
