"""How one gradient slice becomes a sparse coefficient vector.

Works a two-client instance by hand: client 0 holds a single feature
column and the labels, client 1 holds another column. The aggregator
wants (u^T X_i)[p] for every feature, where u = y - X w is the residual.
Each of those numbers is a quadratic form <c, x (x) x> in the
concatenation x = [x_0 || x_1 || y], and the coefficient vector c is
sparse: one entry per (residual term, batch row) pair.
"""

from itertools import accumulate

import numpy as np

from fedquad.funcvec import all_gradient_slice_vectors
from fedquad.tensor import dense_kron, sparse_inner_kron

# one batch row, two clients with one feature each
X0 = np.array([[5.0]])
X1 = np.array([[7.0]])
y = np.array([4.0])
w = [2, 3]

S = 1
# x stacks the columns in order, S entries each: client 0's, client 1's, then y
starts = list(accumulate([1, 1], initial=0))
length = S * (starts[-1] + 1)
print("concatenated input length:", length)
print("client offsets:", tuple(S * c for c in starts[:-1]),
      "label offset:", S * starts[-1])

# exact mode: weights are already integers, so the codec scale is 1
vectors = all_gradient_slice_vectors(w, one_quantized=1, rows=S)
x = [5, 7, 4]
xx = dense_kron(x)

for k, c in enumerate(vectors):
    print(f"\nslice vector for feature {k}: {c.nnz} nonzero entries")
    for flat, coeff in c.entries:
        row, col = divmod(flat, length)
        print(f"  coefficient {coeff:+d} at x[{row}]*x[{col}]"
              f" = {x[row]}*{x[col]}")
    value = sparse_inner_kron(c, x)
    dense = sum(v * xx[flat] for flat, v in c.entries)
    print("  sparse evaluation:", value, " dense cross-check:", dense)

# the quadratic forms really are the residual-feature products
u = y - (X0 @ [w[0]] + X1 @ [w[1]])
print("\nresidual u =", u)
print("u^T X_0 =", (u @ X0).item(), " u^T X_1 =", (u @ X1).item())
print("so the (negated-weight, +1 label) structure recovers both slices")
