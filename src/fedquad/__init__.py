"""Deterministic simulator for secure vertical federated training.

Clients holding disjoint feature columns and one label column train a
shared linear (or Taylor-approximated logistic) model without revealing
data to the weight-holding aggregator. Gradients travel as decryptions of
an ideal quadratic functional-encryption layer: each secret key is bound
to a sparse coefficient vector whose inner product with the Kronecker
square of the concatenated inputs is exactly one gradient slice.
Plaintext oracles recompute and verify every value the protocol emits.

The package namespace holds no names of its own: import each one from
its module, such as fedquad.protocol.run_training or fedquad.fe.setup.
"""
