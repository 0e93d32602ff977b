"""Shifted r-Stirling rows for the rising factorial (x+r)(x+r+1)...(x+r+n-1).

A row holds the coefficients of x^m, m = 0..n, of the shifted rising
factorial.  The closed-form product evaluators use rows at shift r = 1 - u.
Three independent routes are provided:

  * row_by_gf          -- balanced product-tree expansion of the generating
                          polynomial,
  * row_by_recurrence  -- the triangular recurrence
                          new[m+1] = (n+r)*old[m+1] + old[m],
  * entry_by_unsigned_identity -- reduction to unsigned Stirling numbers of
                          the first kind via a binomial resummation.

Number mode is chosen by the caller through the type of the shift: an exact
Fraction r gives an exact row, a float r gives a floating row.  Nothing
switches modes silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import binomial, stirling1_unsigned

__all__ = ["RStirlingRow", "row_by_gf", "row_by_recurrence",
           "entry_by_unsigned_identity", "shift_from_u"]


@dataclass(frozen=True)
class RStirlingRow:
    """Coefficients (index m = 0..n) of (x+r)(x+r+1)...(x+r+n-1).

    coeffs[n] = 1 always (the polynomial is monic); for r = 0 the row equals
    the unsigned Stirling numbers of the first kind.
    """

    n: int
    r: object  # Fraction (exact mode) or float
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("row must have exactly n+1 coefficients")


def shift_from_u(u) -> object:
    """Shift r = 1 - u, staying in the caller's arithmetic."""
    if isinstance(u, Fraction):
        return Fraction(1) - u
    return 1.0 - float(u)


def _one_like(r):
    return Fraction(1) if isinstance(r, Fraction) else 1.0


def _poly_mul(a: list, b: list) -> list:
    # zero of the row's type from the monic leading 1, which stays finite
    # when a float a[0] has overflowed
    out = [a[-1] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def row_by_gf(n: int, r) -> RStirlingRow:
    """Row from the generating polynomial, expanded by a product tree."""
    if n < 0:
        raise ValueError("row_by_gf: n must be >= 0")
    one = _one_like(r)
    if n == 0:
        return RStirlingRow(0, r, (one,))
    factors = [[r + j * one, one] for j in range(n)]  # x + r + j
    while len(factors) > 1:
        nxt = []
        for i in range(0, len(factors) - 1, 2):
            nxt.append(_poly_mul(factors[i], factors[i + 1]))
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return RStirlingRow(n, r, tuple(factors[0]))


def row_by_recurrence(n: int, r) -> RStirlingRow:
    """Row from the triangular recurrence, starting at the base row [1]."""
    if n < 0:
        raise ValueError("row_by_recurrence: n must be >= 0")
    one = _one_like(r)
    zero = one * 0
    coeffs = [one]  # n = 0
    for nn in range(n):
        # entry m+1 of the next row from entries m+1 and m of this one
        new = [zero] * (nn + 2)
        new[0] = (nn * one + r) * coeffs[0]
        for m in range(nn + 1):
            new[m + 1] = (nn * one + r) * (coeffs[m + 1] if m + 1 <= nn else zero) + coeffs[m]
        coeffs = new
    return RStirlingRow(n, r, tuple(coeffs))


def entry_by_unsigned_identity(d: int, k: int, u):
    """Single row entry via unsigned Stirling numbers:

        sum_{l=k}^{d} stirling1_unsigned(d, l) * C(l, k) * (1-u)^(l-k).

    Exact when u is a Fraction, floating when u is a float.
    Rejects k outside 0..d.
    """
    if d < 0:
        raise ValueError("entry_by_unsigned_identity: d must be >= 0")
    if k < 0 or k > d:
        raise ValueError("entry_by_unsigned_identity: k must satisfy 0 <= k <= d")
    r = shift_from_u(u)
    one = _one_like(r)
    acc = one * 0
    power = one
    for ell in range(k, d + 1):
        acc += stirling1_unsigned(d, ell) * binomial(ell, k) * power
        power = power * r
    return acc
