"""
Fixed-point threshold filter
============================

The filter writes y = 1 - tau/lambda (clamped at zero) into a register, with
the reciprocal computed by Newton's iteration z <- 2z - z*z*lambda.  Only the
zero/nonzero pattern of y matters downstream: y > 0 exactly on the kept
eigenvalues lambda > tau.
"""

import numpy as np

from qpcasim import (
    FilterParams,
    FixedPoint,
    RegisterLayout,
    StateVector,
    apply,
    build_filter_table,
    build_filter_unitary,
    newton_reciprocal,
    shrink,
)

# Newton reciprocal of 3 at 8 fractional bits: 5 iterations give 85/256,
# within one fixed-point ulp of 1/3 = 85.33../256.
z = newton_reciprocal(FixedPoint.integer(3, bits=8), iters=5)
print(f"1/3 ~ {z.raw}/{1 << z.frac} = {z.value:.6f}")

# Tables over a 2-bit register.  The kept set is every lambda above the exact
# tau, {2, 3} for tau = 1.8 as for tau = 1; only the y values use tau rounded
# to the register grid, 7/4.
for tau in (1.0, 1.8, 0.5):
    table = build_filter_table(FilterParams(tau=tau, n_bits=2))
    ys = [table.y_value(lam) for lam in range(4)]
    print(f"tau={tau}: y table {ys}, kept {table.kept_values}")

# Fixed-point y tracks the real shrinkage map within 2**-(n-1).
table = build_filter_table(FilterParams(tau=1.0, n_bits=4))
errs = [abs(table.y_value(lam) - shrink(lam, 1.0)) for lam in range(2, 16)]
print("max |y - shrink| at n=4:", max(errs))

# The filter is one table-controlled add on the joint y+lambda register:
# |c>|lam> -> |c + y(lam) mod 4>|lam>, the table holding y(lam).
layout = RegisterLayout(eig_bits=2, data_qubits=2)
op = build_filter_unitary(build_filter_table(FilterParams(1.0, 2)), layout)
start = StateVector.basis(layout.num_qubits, 3 << layout.data_qubits)  # y=0, lam=3
after = apply(start, op)
print("filter moves y=0,lam=3 to index", int(np.argmax(after.probabilities())),
      "  (y=y(3), lam=3)")

