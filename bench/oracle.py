"""mpmath reference values for the benchmark's correctness checks.

    log z_d(u)   = log(u)/(d+1)
                   + (1/d!) sum_k row_k (zeta(1-k,u) - k zeta'(1-k,u)),
                   with the k = 0 summand the regularized value -psi(u)
    log z_-1(u)  = 1/u
    S_d(s,u)     = (1/d!) sum_k row_k (s-k-1) zeta(s-k,u)

row is the exact shifted r-Stirling row row_by_gf(d, 1 - u), u taken as the
exact rational value of the float the program receives.  Only the row comes
from the package; every transcendental value comes from mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from zetaprod.rstirling import row_by_gf

DPS = 30


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _row(d: int, u: float) -> tuple[mpmath.mpf, list[mpmath.mpf]]:
    uq = Fraction(u)
    return _mpf(uq), [_mpf(c) for c in row_by_gf(d, 1 - uq).coeffs]


def log_z(d: int, u: float) -> float:
    """log z_d(u) for integer d >= -1."""
    with mpmath.workdps(DPS):
        if d == -1:
            return float(1 / _mpf(Fraction(u)))
        if d < -1:
            raise ValueError("log z_d needs d >= -1")
        U, row = _row(d, u)
        total = mpmath.mpf(0)
        for k, c in enumerate(row):
            if k == 0:
                term = -mpmath.digamma(U)
            else:
                term = mpmath.zeta(1 - k, U) - k * mpmath.zeta(1 - k, U, 1)
            total += c * term
        return float(mpmath.log(U) / (d + 1) + total / math.factorial(d))


def s_d(d: int, s: float, u: float) -> float:
    """S_d(s, u) for integer d >= 0 and s off the poles 1..d+1."""
    with mpmath.workdps(DPS):
        U, row = _row(d, u)
        S = mpmath.mpf(s)
        total = mpmath.mpf(0)
        for k, c in enumerate(row):
            total += c * (S - k - 1) * mpmath.zeta(S - k, U)
        return float(total / math.factorial(d))


def constants() -> dict[str, float]:
    """The `constants` table of the CLI, by name."""
    with mpmath.workdps(DPS):
        log_a = mpmath.log(mpmath.glaisher)
        z3 = mpmath.zeta(3)
        return {
            "euler_gamma": float(mpmath.euler),
            "log_two_pi": float(mpmath.log(2 * mpmath.pi)),
            "log_glaisher_A": float(log_a),
            "glaisher_A": float(mpmath.glaisher),
            "zeta3": float(z3),
            "log_A2": float(z3 / (4 * mpmath.pi ** 2)),
            "gamma_one_third": float(mpmath.gamma(mpmath.mpf(1) / 3)),
        }
