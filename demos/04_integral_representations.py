"""Integral representations of the product logarithms.

log z_{a-1}(u) has three integral forms: a single integral over (0,1) when
the index is an integer (whose integrand near x = 1 is a delicate
cancellation of (1-x)^-d pieces, handled by an exact series expansion), a
double integral over the unit square valid for any real index a > -1, and a
"preliminary" single integral with an inner geometric-type sum.  This script
shows all of them converging to the same values, including at fractional
indices where no closed form is known.
"""

import numpy as np

from zetaprod.quad import integrate_double, integrate_prelim, integrate_single_d
from zetaprod.series import EvalParams, log_z_direct

print("integer index: all three integrals vs the direct series, u = 1/2")
print(f"{'d':>3} {'single':>20} {'double':>20} {'prelim':>20} {'series':>20}")
for d in range(4):
    s1 = integrate_single_d(d, 0.5).value
    s2 = integrate_double(float(d), 0.5).value
    s3 = integrate_prelim(float(d), 0.5).value
    sr = log_z_direct(EvalParams(float(d) - 1.0, 0.5)).value
    print(f"{d:>3} {s1:>20.14f} {s2:>20.14f} {s3:>20.14f} {sr:>20.14f}")
print()

print("fractional index a (no single-integral form there):")
print(f"{'a':>5} {'double':>20} {'prelim':>20} {'|diff|':>10}")
for a in (0.25, 0.5, 1.5, 2.5):
    s2 = integrate_double(a, 1.0).value
    s3 = integrate_prelim(a, 1.0).value
    print(f"{a:>5} {s2:>20.14f} {s3:>20.14f} {abs(s2 - s3):>10.2e}")
print()

print("monotonicity in the index (each t_n(1) >= 1, so shrinking exponents")
print("shrink the product): values of the double integral at u = 1")
vals = [(a, integrate_double(a, 1.0).value) for a in np.arange(0.0, 3.01, 0.5)]
for a, v in vals:
    print(f"  a = {a:3.1f}: {v:.12f}")
assert all(x[1] > y[1] for x, y in zip(vals, vals[1:]))
