"""Exact integer and rational kernels.

Binomial coefficients, harmonic numbers, Bernoulli numbers and polynomials,
Bernoulli numbers of the second kind (Gregory coefficients) and unsigned
Stirling numbers of the first kind, all in exact arithmetic.
These back both the floating-point evaluators (which convert on demand) and
the exact identity tests, so nothing here ever rounds.

Conventions:
  * Bernoulli numbers follow the x/(e^x - 1) generating function, so
    B_1 = -1/2 and B_k = 0 for odd k > 1.
  * bernoulli_second(n) is b_n in y/log(1+y) = sum b_n y^n, so
    b_1 = 1/2 and b_2 = -1/12.
  * stirling1_unsigned(n, m) is the coefficient of x^m in the rising
    factorial x(x+1)...(x+n-1).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RationalPoly",
    "binomial",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_second",
    "harmonic",
    "stirling1_unsigned",
]

_lock = threading.Lock()

# Memo tables, grown on demand (default sizing keeps repeated desk-scale
# evaluations cheap; growth is unbounded because exactness never overflows).
_DEFAULT_CAP = 64
_bernoulli: list[Fraction] = [Fraction(1)]
_harmonic: list[Fraction] = [Fraction(0)]
_stirling_rows: list[list[int]] = [[1]]


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with exact rational coefficients, index = degree.

    Trailing zero coefficients are trimmed; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction x, float otherwise."""
        acc = x * 0  # zero of the caller's arithmetic
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def binomial(n: int, k: int) -> int:
    """C(n, k) exactly; 0 for k < 0 or k > n.  Requires n >= 0."""
    if n < 0:
        raise ValueError("binomial: n must be >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _extend_bernoulli(k: int) -> None:
    # Integer tangent numbers T_1..T_J (Brent & Harvey, arXiv:1108.0286),
    # then B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).
    J = k // 2
    T = [0, 1] + [0] * (J - 1)
    for j in range(2, J + 1):
        T[j] = (j - 1) * T[j - 1]
    for i in range(2, J + 1):
        for j in range(i, J + 1):
            T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
    for m in range(len(_bernoulli), k + 1):
        if m == 1:
            _bernoulli.append(Fraction(-1, 2))
        elif m % 2:
            _bernoulli.append(Fraction(0))
        else:
            j = m // 2
            sign = 1 if j % 2 else -1
            _bernoulli.append(Fraction(sign * 2 * j * T[j], 4 ** j * (4 ** j - 1)))


def bernoulli_number(k: int) -> Fraction:
    """B_k under the x/(e^x-1) convention (B_1 = -1/2)."""
    if k < 0:
        raise ValueError("bernoulli_number: k must be >= 0")
    with _lock:
        if k >= len(_bernoulli):
            _extend_bernoulli(max(k, _DEFAULT_CAP))
        return _bernoulli[k]


def bernoulli_poly(m: int) -> RationalPoly:
    """B_m(u) = sum_j C(m, j) B_j u^(m-j) as an exact polynomial."""
    if m < 0:
        raise ValueError("bernoulli_poly: m must be >= 0")
    coeffs = [binomial(m, i) * bernoulli_number(m - i) for i in range(m + 1)]
    return RationalPoly.from_coeffs(coeffs)


def harmonic(k: int) -> Fraction:
    """H_k = 1 + 1/2 + ... + 1/k exactly, with H_0 = 0."""
    if k < 0:
        raise ValueError("harmonic: k must be >= 0")
    with _lock:
        while len(_harmonic) <= k:
            j = len(_harmonic)
            _harmonic.append(_harmonic[-1] + Fraction(1, j))
        return _harmonic[k]


def stirling1_unsigned(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind.

    Coefficient of x^m in x(x+1)...(x+n-1); zero outside 0 <= m <= n,
    with the empty product giving [0, 0] = 1.
    """
    if n < 0:
        raise ValueError("stirling1_unsigned: n must be >= 0")
    if m < 0 or m > n:
        return 0
    with _lock:
        while len(_stirling_rows) <= n:
            prev = _stirling_rows[-1]
            nn = len(_stirling_rows)  # building row nn from row nn-1
            row = [0] * (nn + 1)
            for j in range(nn):
                # multiply by (x + nn - 1)
                row[j + 1] += prev[j]
                row[j] += (nn - 1) * prev[j]
            _stirling_rows.append(row)
        return _stirling_rows[n][m]


@functools.cache
def bernoulli_second(n: int) -> Fraction:
    """b_n in y/log(1+y) = sum b_n y^n (Gregory coefficients).

    b_n = int_0^1 binom(x, n) dx = (1/n!) sum_k s(n, k)/(k+1), with the
    signed Stirling numbers s(n, k) = (-1)^(n-k) stirling1_unsigned(n, k);
    the sum is one integer over lcm(1..n+1).
    """
    if n < 0:
        raise ValueError("bernoulli_second: n must be >= 0")
    den = math.lcm(*range(1, n + 2))
    num = sum((-1) ** (n - k) * stirling1_unsigned(n, k) * (den // (k + 1))
              for k in range(n + 1))
    return Fraction(num, den * math.factorial(n))
