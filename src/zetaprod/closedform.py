"""Closed-form evaluation of S_d(s,u) and log z_d(u) for integer d >= 0.

The main sum is

    S_d(s,u)     = (1/d!) sum_{k=0}^d row_k(u) (s-k-1) zeta(s-k, u)
    log z_d(u)   = log(u)/(d+1)
                   + (1/d!) sum_{k=0}^d row_k(u) (zeta(1-k,u) - k zeta'(1-k,u))

where row_k(u) is the shifted r-Stirling row at shift 1-u.  The k = 0
summand of the product formula is the regularized value of
zeta(s,u) + (s-1) zeta'(s,u) at s = 1, namely -psi(u); it is never obtained
by evaluating zeta at its pole.  zeta(1-k,u) for k >= 1 is taken exactly as
-B_k(u)/k; only the derivative needs Euler-Maclaurin.

Also provided: the harmonic/Bernoulli decomposition of log z_d at u = 1
through the generalized Glaisher constants A_k, and the named closed-form
special values used by the verification suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import (bernoulli_number, bernoulli_poly, harmonic,
                       stirling1_unsigned)
from .hurwitz import (agm, digamma, euler_gamma, hurwitz_zeta,
                      hurwitz_zeta_deriv, log_bendersky, log_gamma)
from .rstirling import row_by_gf
from .series import Approximation

__all__ = [
    "regularized_term",
    "s_d_closed",
    "log_z_closed",
    "log_z_explicit_u1",
    "special_value",
    "SPECIAL_VALUE_TAGS",
    "D_MAX",
]

# Primitive-accuracy floor charged per term when propagating error estimates
# (digamma / log-gamma / exact-Bernoulli pieces carry no EM err_est).
_PRIM_ERR = 5e-15

# Largest d log_z_closed and s_d_closed accept (and the CLI's bound on
# |alpha| and on the |d| of a crosscheck grid).  Against 40-digit mpmath
# over u in [0.05, 10] the closed form's relative error is <= 5.8e-8 for
# every d = 0..50, then 2.3e-6 at 60 and 1e-2 at 100 (s_d_closed at d = 50:
# <= 1.3e-11); at d = 171 its float row overflows, and a huge integer
# alpha would build a row of that degree before any route could decline.
D_MAX = 50


def regularized_term(k: int, u: float) -> tuple[float, float]:
    """(T_k(u), error estimate): the k-th regularized summand of the
    product formula.

    T_0(u) = -psi(u); for k >= 1,
    T_k(u) = zeta(1-k,u) - k zeta'(1-k,u) with zeta(1-k,u) = -B_k(u)/k.
    """
    if k < 0:
        raise ValueError("regularized_term: k must be >= 0")
    if k == 0:
        psi = digamma(u)
        return -psi, _PRIM_ERR * (1 + abs(psi))
    zeta_val = -float(bernoulli_poly(k)(Fraction(u))) / k
    zd = hurwitz_zeta_deriv(1.0 - k, u)
    return zeta_val - k * zd.deriv, k * zd.err_est + _PRIM_ERR


def _float_row(d: int, u: float) -> list[float]:
    return [float(c) for c in row_by_gf(d, 1.0 - float(u)).coeffs]


def s_d_closed(d: int, s: float, u: float) -> Approximation:
    """S_d(s, u) by the closed form.

    s in {1, ..., d+1} is rejected: each such point parks one summand on
    the zeta pole, and the removable-singularity limits are not provided.
    """
    if d < 0:
        raise ValueError("s_d_closed: d must be >= 0")
    if d > D_MAX:
        raise ValueError(f"s_d_closed: d = {d} is beyond D_MAX = {D_MAX}")
    if not u > 0:
        raise ValueError("s_d_closed: u must be > 0")
    if float(s) == int(s) and 1 <= s <= d + 1:
        raise ValueError(f"s_d_closed: s = {s} hits a zeta pole offset for "
                         f"d = {d} (s in 1..{d + 1} excluded)")
    row = _float_row(d, u)
    fact = math.factorial(d)
    total = 0.0
    err = 0.0
    for k in range(d + 1):
        z = hurwitz_zeta(s - k, u)
        w = row[k] * (s - k - 1.0)
        total += w * z.value
        err += abs(w) * z.err_est + _PRIM_ERR * abs(w * z.value)
    return Approximation(total / fact, err / fact, d + 1)


def log_z_closed(d: int, u: float) -> Approximation:
    """log z_d(u) by the closed form (regularized k = 0 term)."""
    if d < 0:
        raise ValueError("log_z_closed: d must be >= 0")
    if d > D_MAX:
        raise ValueError(f"log_z_closed: d = {d} is beyond D_MAX = {D_MAX}")
    if not u > 0:
        raise ValueError("log_z_closed: u must be > 0")
    row = _float_row(d, u)
    fact = math.factorial(d)
    total = math.log(u) / (d + 1)
    err = _PRIM_ERR
    for k in range(d + 1):
        term, term_err = regularized_term(k, u)
        total += row[k] * term / fact
        err += abs(row[k]) * term_err / fact
    return Approximation(total, err, d + 1)


def log_z_explicit_u1(d: int) -> Approximation:
    """log z_d at u = 1 through harmonic numbers, Bernoulli numbers, and the
    generalized Glaisher constants:

        (1/2d)(log(2 pi) - 1)
        + (1/d!) ( - sum_{k=1}^{floor(d/2)} [d, 2k] H_{2k} B_{2k}
                   + sum_{k=1}^{d-1} [d, k+1] (k+1) log A_k )

    with [d, m] the unsigned Stirling numbers of the first kind.
    Requires d >= 1 (the u = 1, d = 0 value is just Euler's constant).
    """
    if d < 1:
        raise ValueError("log_z_explicit_u1: d must be >= 1")
    total = (math.log(2.0 * math.pi) - 1.0) / (2 * d)
    fact = math.factorial(d)
    acc = Fraction(0)
    for k in range(1, d // 2 + 1):
        acc -= stirling1_unsigned(d, 2 * k) * harmonic(2 * k) * bernoulli_number(2 * k)
    total += float(acc) / fact
    err = _PRIM_ERR
    for k in range(1, d):
        w = stirling1_unsigned(d, k + 1) * (k + 1)
        total += w * log_bendersky(k) / fact
        err += abs(w) * 1e-13 / fact
    return Approximation(total, err, d)


SPECIAL_VALUE_TAGS = ("d1_general", "d1_u_half", "d1_u_third_agm",
                      "d0_plus_d1_u2")


def special_value(tag: str, u: float | None = None) -> Approximation:
    """Named closed-form constants built from the special-function primitives.

    d1_general (needs u):   log z_1(u) = log(u)/2 + (u-1) psi(u) + 1/2 - u
                            - log Gamma(u) + log(2 pi)/2
    d1_u_half:              log z_1(1/2) = log 2 + gamma/2
    d1_u_third_agm:         log z_1(1/3) incl. the AGM(2, sqrt(2+sqrt 3))
                            factor from the Gamma(1/3) closed form
    d0_plus_d1_u2:          log z_0(2) + log z_1(2) = log 4 + log(pi)/2 - 3/2
    """
    g = euler_gamma()
    if tag == "d1_general":
        if u is None or not u > 0:
            raise ValueError("special_value: d1_general needs u > 0")
        v = (0.5 * math.log(u) + (u - 1.0) * digamma(u) + 0.5 - u
             - log_gamma(u) + 0.5 * math.log(2.0 * math.pi))
        return Approximation(v, 1e-13 * (1 + abs(v)), 1)
    if u is not None:
        raise ValueError(f"special_value: tag {tag!r} takes no u")
    if tag == "d1_u_half":
        v = math.log(2.0) + 0.5 * g
    elif tag == "d1_u_third_agm":
        m = agm(2.0, math.sqrt(2.0 + math.sqrt(3.0)))
        v = ((3.5 * math.log(3.0) - 5.0 / 3.0 * math.log(2.0) - math.log(math.pi)) / 6.0
             + (0.5 + math.pi / math.sqrt(3.0) + 2.0 * g + math.log(m)) / 3.0)
    elif tag == "d0_plus_d1_u2":
        v = math.log(4.0) + 0.5 * math.log(math.pi) - 1.5
    else:
        raise ValueError(f"special_value: unknown tag {tag!r}; "
                         f"known tags: {SPECIAL_VALUE_TAGS}")
    return Approximation(v, 1e-13 * (1 + abs(v)), 1)
