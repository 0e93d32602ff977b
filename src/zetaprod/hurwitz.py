"""Hurwitz zeta, its s-derivative, digamma, log-gamma, and named constants.

The zeta evaluator uses Euler-Maclaurin summation:

    zeta(s,u) ~ sum_{k<N} (k+u)^-s  +  (N+u)^(1-s)/(s-1)  +  (N+u)^-s / 2
                + sum_{j=1..J} B_{2j}/(2j)! * (s)_{2j-1} * (N+u)^(-s-2j+1)

with (s)_m the rising factorial, a head of N = 40 terms and at most J = 12
corrections.  The s-derivative is the term-by-term analytic derivative of
the same formula.  The rising factorials and their derivatives are built
once per call, one factor at a time by the product rule, with no division,
so negative integer s (where the value series terminates but the
derivative series does not) and tiny s need no special case.

For s < -1/2 the head length is chosen adaptively, at most N: a long head
makes the head/boundary cancellation swamp double precision, while a short
head keeps rounding small and the (terminating or asymptotically truncated)
correction series accurate.  The candidate heads are prefixes of one
another, so one pass over the head serves them all; each is completed with
its own boundary and correction terms, and the one with the smallest
err_est wins.  err_est combines the first omitted/last kept correction
term with a head rounding estimate; it is a standard heuristic, not a
rigorous bound.

digamma and log_gamma use upward recurrence into the asymptotic region plus
the classical Bernoulli series, deliberately independent of the zeta
evaluator so the identity zeta'(0,u) = log Gamma(u) - log(2 pi)/2 is a
genuine cross-check between two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .exactnum import bernoulli_number, harmonic

__all__ = [
    "ZetaValue",
    "hurwitz_zeta",
    "hurwitz_zeta_deriv",
    "digamma",
    "log_gamma",
    "log_bendersky",
    "agm",
    "euler_gamma",
]

_EPS = 2.0 ** -52


# Euler-Maclaurin head length (the longest head tried) and correction
# count; read at call time, so a test can lengthen the head.
_EM_N = 40
_EM_J = 12


@dataclass(frozen=True)
class ZetaValue:
    value: float
    deriv: Optional[float]
    err_est: float

    def __post_init__(self):
        if not math.isfinite(self.err_est):
            raise ValueError("ZetaValue: err_est must be finite")


# float B_{2j}/(2j)! for j = 1..30, computed once from the exact table
_B2J_OVER_FACT = [
    float(bernoulli_number(2 * j)) / math.factorial(2 * j) for j in range(31)
]


def _odd_rising(s: float, J: int) -> list[tuple[float, float]]:
    """(s)_m and d/ds (s)_m for m = 1, 3, ..., 2J-1, one factor at a time.

    (s)_m = s(s+1)...(s+m-1).  Each factor f = s+l takes (P, P') to
    (P f, P' f + P) by the product rule, so the derivative needs no
    division: a zero factor at integer s leaves P' the product of the
    others, and a tiny s cannot overflow a reciprocal.
    """
    out = []
    prod, dprod = 1.0, 0.0
    for l in range(2 * J - 1):
        f = s + l
        prod, dprod = prod * f, dprod * f + prod
        if l % 2 == 0:
            out.append((prod, dprod))
    return out


def _candidate_heads(s: float) -> list[int]:
    """Head lengths to try, ascending; each is a prefix of the next."""
    N = _EM_N
    if s >= -0.5:
        return [N]
    # Small heads keep the head/boundary cancellation within double
    # precision for strongly negative s; try a few and keep the best.
    base = max(2, math.ceil((2 * _EM_J + abs(s)) / (2 * math.pi)))
    cands = sorted({2, 3, max(2, base // 2), base, min(N, 2 * base), N})
    return [c for c in cands if c <= N]


def _zeta_em(s: float, u: float, want_deriv: bool):
    """(value, deriv_or_None, err_est) of the best candidate head.

    The correction series is truncated adaptively: terms are added while
    they shrink (asymptotic series discipline), never past J.
    """
    if u <= 0.0:
        raise ValueError("hurwitz zeta: u must be > 0")
    if s == 1.0:
        raise ValueError("hurwitz zeta: s = 1 is the pole; use digamma for "
                         "the regularized combination")
    rising = _odd_rising(s, _EM_J)
    best = None
    head = dhead = head_mag = 0.0
    k = 0
    for N in _candidate_heads(s):  # ascending: one pass sums every head
        while k < N:
            x = k + u
            p = x ** (-s)
            head += p
            head_mag += abs(p)
            if want_deriv:
                dhead -= math.log(x) * p
            k += 1
        P = N + u
        lP = math.log(P)
        p1 = P ** (1.0 - s)
        p0 = P ** (-s)
        value = head + p1 / (s - 1.0) + 0.5 * p0
        deriv = None
        if want_deriv:
            deriv = (dhead + p1 * (-lP / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
                     - 0.5 * lP * p0)
        prev_mag = math.inf
        trunc = 0.0
        scale = p0 / P  # (N+u)^(-s-1), then divide by P^2 each step
        for b, (rf, drf) in zip(_B2J_OVER_FACT[1:], rising):
            term_v = b * rf * scale
            term_d = b * (drf - rf * lP) * scale if want_deriv else 0.0
            mag = max(abs(term_v), abs(term_d))
            if mag > prev_mag:
                # asymptotic series started growing: stop before this term
                # and charge the first omitted term to the error estimate
                trunc = mag
                break
            value += term_v
            if want_deriv:
                deriv += term_d
            prev_mag = mag
            trunc = mag
            scale /= P * P
        rounding = head_mag * _EPS * (4.0 + (abs(lP) if want_deriv else 0.0))
        err = trunc + rounding
        if best is None or err < best[2]:
            best = (value, deriv, err)
    return best


def hurwitz_zeta(s: float, u: float) -> ZetaValue:
    """zeta(s, u) = sum_{k>=0} (k+u)^-s, analytically continued in s.

    Requires u > 0 and s != 1.  err_est is the first omitted correction
    term plus a head rounding estimate.
    """
    v, _, e = _zeta_em(float(s), float(u), want_deriv=False)
    return ZetaValue(v, None, e)


def hurwitz_zeta_deriv(s: float, u: float) -> ZetaValue:
    """zeta(s, u) together with its s-derivative in the deriv field."""
    v, d, e = _zeta_em(float(s), float(u), want_deriv=True)
    return ZetaValue(v, d, e)


# --- digamma / log-gamma (independent asymptotic route) ---

_ASYM_THRESHOLD = 18.0
_PSI_COEFFS = [float(bernoulli_number(2 * j)) / (2 * j) for j in range(1, 10)]
_LGAMMA_COEFFS = [
    float(bernoulli_number(2 * j)) / ((2 * j) * (2 * j - 1)) for j in range(1, 10)
]
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def digamma(u: float) -> float:
    """psi(u) by upward recurrence plus the Bernoulli asymptotic series."""
    u = float(u)
    if u <= 0.0:
        raise ValueError("digamma: u must be > 0")
    acc = 0.0
    x = u
    while x < _ASYM_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = 0.0
    p = inv2
    for c in _PSI_COEFFS:
        s += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - s


def log_gamma(u: float) -> float:
    """log Gamma(u) by the Stirling series after upward recurrence.

    Kept free of any zeta machinery on purpose (cross-check independence).
    """
    u = float(u)
    if u <= 0.0:
        raise ValueError("log_gamma: u must be > 0")
    acc = 0.0
    x = u
    while x < _ASYM_THRESHOLD:
        acc -= math.log(x)
        x += 1.0
    invx = 1.0 / x
    s = 0.0
    p = invx
    for c in _LGAMMA_COEFFS:
        s += c * p
        p *= invx * invx
    return acc + (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + s


def euler_gamma() -> float:
    """Euler's constant via the digamma route (psi(1) = -gamma)."""
    return -digamma(1.0)


def log_bendersky(k: int) -> float:
    """log A_k = (-1)^k H_k zeta(-k) - zeta'(-k).

    A_0 = sqrt(2 pi), A_1 is the Glaisher-Kinkelin constant.  zeta(-k) is
    taken exactly as -B_{k+1}/(k+1); the derivative comes from the
    Euler-Maclaurin route.
    """
    if k < 0:
        raise ValueError("log_bendersky: k must be >= 0")
    zeta_neg_k = -float(bernoulli_number(k + 1)) / (k + 1)
    zp = hurwitz_zeta_deriv(-float(k), 1.0).deriv
    return (-1.0) ** k * float(harmonic(k)) * zeta_neg_k - zp


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean, iterated to machine convergence."""
    a = float(a)
    b = float(b)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm: both arguments must be > 0")
    for _ in range(64):
        if abs(a - b) <= 4.0 * _EPS * max(abs(a), abs(b)):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)
