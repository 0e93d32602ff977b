"""A product equal to the integral of an elementary function.

At fractional index 1/2 no closed form in familiar constants is known, but
the product with exponents 1/3, 1/5, 1/7, ... satisfies

    prod_{n>=1} t_n(1)^(1/(2n+1))
        = exp( int_0^1 (1/log x)(1 - atanh(sqrt(1-x))/sqrt(1-x)) dx ).

Since 1/(2n+1) is *half* of 1/(n + 1/2), this integral is half of the
index-1/2 product logarithm; the normalization is pinned numerically
against the truncated-product oracle rather than assumed.
"""

import numpy as np

from zetaprod.quad import integrate_elementary_half, integrate_prelim
from zetaprod.series import log_tn_sweep

e = integrate_elementary_half()
print(f"elementary integral E       = {e.value:.15f} (err_est {e.err_est:.1e})")

# truncated-product oracle: sum log t_n / (2n+1), one Richardson level
sweep = log_tn_sweep(1.0, 5000)
ns = np.arange(1, 5001)
terms = sweep[1:] / (2.0 * ns + 1.0)
p_full = float(np.sum(terms))
p_half = float(np.sum(terms[:2500]))
oracle = 2.0 * p_full - p_half
print(f"product oracle (N=5000)     = {oracle:.15f}")
print(f"|E - oracle|                = {abs(e.value - oracle):.2e}")
print()

p = integrate_prelim(0.5, 1.0)
print(f"index-1/2 route (full log)  = {p.value:.15f}")
print(f"|2 E - full|                = {abs(2.0 * e.value - p.value):.2e}")
print()
print("so the displayed exponents 1/(2n+1) really do give HALF the")
print("index-1/2 logarithm: E = sum log t_n/(2n+1) and 2E = log z_{-1/2}(1).")
print()
print(f"the product itself: exp(E)  = {np.exp(e.value):.12f}")
first = (2.0 / 1.0) ** (1.0 / 3.0) * (4.0 / 3.0) ** (1.0 / 5.0) \
    * (8.0 * 4.0 / 27.0) ** (1.0 / 7.0)
print(f"first three factors give    ~ {first:.12f}")
