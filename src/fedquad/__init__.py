"""Deterministic simulator for secure vertical federated training.

Clients holding disjoint feature columns and one label column train a
shared linear (or Taylor-approximated logistic) model without revealing
data to the weight-holding aggregator. Gradients travel as decryptions of
an ideal quadratic functional-encryption layer: each secret key is bound
to a sparse coefficient vector whose inner product with the Kronecker
square of the concatenated inputs is exactly one gradient slice.
Plaintext oracles recompute and verify every value the protocol emits.
"""

from .baseline import (
    MODEL_LINEAR,
    MODEL_LOGISTIC_TAYLOR,
    CentralDataset,
    centralized_gradient_linear,
    centralized_gradient_logistic_taylor,
    centralized_training,
    finite_difference_gradient,
    mse_loss,
    taylor_loss,
)
from .fixedpoint import (
    FixedPointConfig,
    dequantize,
    inner_product_error_bound,
    overflow_bound,
    quantize,
)
from .funcvec import (
    ResidualBlock,
    SliceVector,
    SparseFunctionVector,
    all_gradient_slice_vectors,
    residual_coefficients,
)
from .protocol import (
    ClientShard,
    IterationMetrics,
    TrainingConfig,
    TrainingPlan,
    exact_codec,
    make_batch_schedule,
    mix_and_match_probe,
    run_iteration,
    run_training,
)

__version__ = "0.1.0"

__all__ = [
    "MODEL_LINEAR",
    "MODEL_LOGISTIC_TAYLOR",
    "CentralDataset",
    "ClientShard",
    "FixedPointConfig",
    "IterationMetrics",
    "ResidualBlock",
    "SliceVector",
    "SparseFunctionVector",
    "TrainingConfig",
    "TrainingPlan",
    "all_gradient_slice_vectors",
    "centralized_gradient_linear",
    "centralized_gradient_logistic_taylor",
    "centralized_training",
    "dequantize",
    "exact_codec",
    "finite_difference_gradient",
    "inner_product_error_bound",
    "make_batch_schedule",
    "mix_and_match_probe",
    "mse_loss",
    "overflow_bound",
    "quantize",
    "residual_coefficients",
    "run_iteration",
    "run_training",
    "taylor_loss",
]
