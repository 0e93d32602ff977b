"""Shifted r-Stirling rows and the exact finite Bernoulli identity.

A row at shift r = 1 - u holds the coefficients of
(x + 1-u)(x + 2-u)...(x + n-u).  The library computes rows three ways
(generating-polynomial product, triangular recurrence, reduction to unsigned
Stirling numbers) in exact rational arithmetic, and those rows drive an
exact identity: for positive integer powers the weighted double sum of
binomial differences telescopes into Bernoulli polynomials.
"""

from fractions import Fraction

from zetaprod.rstirling import (entry_by_unsigned_identity, row_by_gf,
                                row_by_recurrence, shift_from_u)
from zetaprod.series import finite_bernoulli_identity_sides

u = Fraction(1, 3)
r = shift_from_u(u)
print(f"rows at shift r = 1 - u with u = {u} (r = {r}):")
for n in range(5):
    gf = row_by_gf(n, r)
    rec = row_by_recurrence(n, r)
    ident = [entry_by_unsigned_identity(n, k, u) for k in range(n + 1)]
    assert gf.coeffs == rec.coeffs == tuple(ident)
    print(f"  n={n}: {[str(c) for c in gf.coeffs]}")
print("  (all three construction routes agree coefficientwise, exactly)")
print()

print("exact finite identity, both sides as reduced fractions:")
for (m, d) in ((3, 0), (4, 2), (8, 4)):
    lhs, rhs = finite_bernoulli_identity_sides(m, d, u)
    status = "==" if lhs == rhs else "!="
    print(f"  m={m}, d={d}: {lhs} {status} {rhs}")
print()
print("at d = 0 the identity is the classical explicit formula for the")
print("Bernoulli polynomial B_m(u); larger d weights the sum by the row.")
