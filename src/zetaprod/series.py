"""Direct series evaluation of the alternating-binomial products.

Central objects:

  log t_n(u)        = sum_{k=0}^n (-1)^(k+1) C(n,k) log(k+u)
                      (the n-th forward difference of log at u, up to sign)
  S_alpha(s, u)     = sum_{n>=0} 1/(n+alpha+1) * D_n(s, u)
  D_n(s, u)         = sum_{k=0}^n (-1)^k C(n,k) (k+u)^(1-s)
  log z_alpha(u)    = sum_{n>=1} log t_n(u) / (n+alpha+1)

The alternating inner sums lose roughly one bit per order n, so two methods
are provided and cross-checked:

  * alternating_sum: the literal sum over decimal values of (k+u)^(1-s)
    or ln(k+u) (Decimal's own ** and ln), each computed once per point for
    every n.  The sums themselves are exact (integer forward differences
    on the values' common decimal grid), so cancellation cannot pollute
    them, and each is rounded once to a float.  They serve
    log_tn(..., alternating_sum) for n <= 40, at 50 digits, and at s <= 0
    D_n for the few n < n_q = max(0, ceil(2-s)), where n + s - 1 < 1, at
    a precision sized from s (50 digits down to about s = -20).  At
    0 < s < 2, where n_q <= 2, the head is the float pair D_0 = u^(1-s)
    and D_1 = -u^(1-s) expm1((1-s) log1p(1/u)).
  * frullani_quadrature: one half-line integral,

        F_n(s, u) = int_0^inf (1-e^-t)^n e^(-ut) t^(s-2) dt     (n + s > 1),

    gives log t_n(u) = F_n(1, u) for n >= 1 and, by analytic continuation
    from s > 1, D_n(s, u) = F_n(s, u) / Gamma(s-1).  At integer s <= 1,
    1/Gamma(s-1) is exactly 0, which is the terminating D_n = 0 for
    n > 1-s.  _frullani_sweep forms F_n on a double-exponential grid
    t = exp(tau - exp(-tau)), a whole range of n as one matrix product of
    two np.power tables of 1-e^-t, and serves every n >= n_q of D_n at
    every real s.  A table entry below the normal float range is 0, which
    keeps pow off its slow subnormal path.

Against literal sums at 300 to 450 digits over u in {0.05, ..., 10}, the
head n < n_q is correctly rounded on s = -20.5, -40.7, ..., -150.3.  The
sweep's D_n at n_q, n_q + 10, n_q + 60 holds to 1.4e-14 relative on
s = -0.7, -1.7, ..., -40.7, and to 1.6e-15 beside the poles of
Gamma(s-1), at s = 1e-9 and s = -1 +- 1e-6; D_0..D_3, D_10 and D_60 hold
to 1.7e-15 on s in [1, 20].

The truncated S_alpha sums take their err_est from the exact tail, on the
sweep's own nodes (_s_alpha_tail).  The direct series is never truncated:
an explicit head of at least 200 terms plus the exact tail from
log t_n(u) = int_0^inf B(u+v, n+1) dv (_beta_tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction

import numpy as np

from .exactnum import bernoulli_number, bernoulli_poly, binomial
from .rstirling import row_by_gf, shift_from_u

__all__ = [
    "EvalParams",
    "Approximation",
    "DifferenceMethod",
    "ALTERNATING_MAX_N",
    "log_tn",
    "log_tn_sweep",
    "s_alpha_truncated",
    "log_z_direct",
    "resummed_power_partial",
    "functional_eq_residual",
    "inner_diff_exact",
    "finite_bernoulli_identity_sides",
]

# The highest order n that log_tn(..., ALTERNATING) serves.
ALTERNATING_MAX_N = 40


class DifferenceMethod(str, Enum):
    ALTERNATING = "alternating_sum"
    FRULLANI = "frullani_quadrature"


@dataclass(frozen=True)
class EvalParams:
    """Evaluation point (alpha, u[, s]).

    u must be positive.  alpha = -2, -3, ... is never a valid product
    shift; alpha = -1, -2, ... is never a valid S_alpha shift (the checks
    are per-operation because the two domains differ at alpha = -1).
    """

    alpha: float
    u: float
    s: float | None = None

    def __post_init__(self):
        if not self.u > 0:
            raise ValueError("EvalParams: u must be > 0")

    def require_product_valid(self):
        if self.alpha <= -2 and float(self.alpha) == int(self.alpha):
            raise ValueError(f"alpha = {self.alpha}: the product is undefined "
                             "for integer alpha <= -2")

    def require_s_alpha_valid(self):
        if self.alpha <= -1 and float(self.alpha) == int(self.alpha):
            raise ValueError(f"alpha = {self.alpha}: S_alpha is undefined "
                             "for integer alpha <= -1")


@dataclass(frozen=True)
class Approximation:
    """A value, its error estimate, and the terms (or nodes) it took."""

    value: float
    err_est: float
    terms_used: int

    def __post_init__(self):
        # plain floats, so that repr (the CSV cells) never reads np.float64
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "err_est", float(self.err_est))
        if not (math.isfinite(self.err_est) and self.err_est >= 0):
            raise ValueError("Approximation: err_est must be finite and >= 0")
        if self.terms_used < 1:
            raise ValueError("Approximation: terms_used must be >= 1")


# --------------------------------------------------------------------------
# high-precision alternating sums (decimal arithmetic)
# --------------------------------------------------------------------------

_DEC_PREC = 50


def _decimal_of(x) -> Decimal:
    fr = x if isinstance(x, Fraction) else Fraction(x)
    return Decimal(fr.numerator) / Decimal(fr.denominator)


def _alternating_sums(f: list[Decimal]) -> list[float]:
    """sum_{k=0}^n (-1)^k C(n,k) f[k] for n = 0..len(f)-1, each correctly
    rounded from the exact sum of the given f[k].

    Every f[k] becomes an exact integer on the finest decimal grid among
    them, and the sum for n is (-1)^n times the n-th forward difference of
    those integers; one int true division (correctly rounded) gives the
    float, or a signed inf past the float range.  Each f[k] may carry at
    most the caller's context precision in digits, which every result of
    that context does.
    """
    P = max([0] + [-x.as_tuple().exponent for x in f])
    row = [int(x.scaleb(P)) for x in f]
    scale = 10 ** P
    sums = []
    for n in range(len(f)):
        total = -row[0] if n % 2 else row[0]
        try:
            sums.append(total / scale)
        except OverflowError:
            sums.append(math.inf if total > 0 else -math.inf)
        row = [b - a for a, b in zip(row, row[1:])]
    return sums


def _log_tn_alternating(n_max: int, u: float) -> list[float]:
    """log t_n(u) for n = 0..n_max: the sums over -ln(k+u) (exact negation)."""
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        uu = _decimal_of(u)
        return _alternating_sums([-(uu + k).ln() for k in range(n_max + 1)])


def _inner_diff_alternating(n_max: int, s: float, u: float) -> list[float]:
    """D_n(s,u) for n = 0..n_max by the literal sums over the powers
    (k+u)^p, p = 1-s, each Decimal's own **.

    The sum for n has terms up to 2^n max_k (k+u)^p, and by the mean value
    theorem |D_n| >= |p(p-1)...(p-n+1)| min(u^(p-n), (u+n)^(p-n)).  The
    precision is 20 digits past the largest ratio of the two over n, and
    at least 50.
    """
    p, a = 1.0 - s, math.log10(u)
    digits = log_prod = 0.0
    for n in range(1, n_max + 1):
        log_prod += math.log10(abs(p - n + 1))
        b = math.log10(u + n)
        digits = max(digits, n * math.log10(2.0) + max(p * a, p * b)
                     - log_prod - min((p - n) * a, (p - n) * b))
    with localcontext() as ctx:
        ctx.prec = max(_DEC_PREC, 20 + math.ceil(digits))
        uu = _decimal_of(u)
        e = Decimal(1) - _decimal_of(s)
        return _alternating_sums([(uu + k) ** e for k in range(n_max + 1)])


# --------------------------------------------------------------------------
# double-exponential half-line quadrature for the (1-e^-t)^n kernels
# --------------------------------------------------------------------------

_H_DE = 1.0 / 16.0
_TAU_LO = -3.8

# log of the smallest normal float, 2^-1022.  An exp or pow whose result
# falls below it takes libm's slow path, at tens of times the cost of a
# normal result.
_LOG_MIN_NORMAL = math.log(2.0 ** -1022)
_LOG_MAX = math.log(np.finfo(float).max)


def _halfline_nodes(u: float, n_max: int, s: float):
    """The node record of the kernels (1-e^-t)^n e^(-ut) t^(s-2), n <= n_max:
    weights w, x = 1-e^-t, log x and the log kernel log(w e^-ut t^(s-2)), on
    t = exp(tau - exp(-tau)), which sends both tails to double-exponential
    decay.  The upper cutoff tracks the integrand support: (1-e^-t)^n
    suppresses t below log(n/u) and e^(-ut) t^(s-2) dies past it.
    """
    t_peak = math.log(max(n_max, 1) / u + 10.0)
    t_max = t_peak + (52.0 + 8.0 * max(0.0, s - 2.0)) / u
    if t_max == math.inf:
        raise ValueError(f"u = {u}: the half-line nodes' cutoff 52/u is inf")
    tau_hi = math.log(t_max) + 0.2
    taus = np.arange(_TAU_LO, tau_hi + _H_DE, _H_DE)
    emt = np.exp(-taus)
    t = np.exp(taus - emt)
    w = _H_DE * t * (1.0 + emt)
    base = -np.expm1(-t)                      # 1 - e^-t, accurate near 0
    return w, base, np.log(base), np.log(w) - u * t + (s - 2.0) * np.log(t)


def _normal_powers(base: np.ndarray, e: np.ndarray) -> np.ndarray:
    """np.power(base, e) for base in (0, 1], with every power that
    e log(base) puts below the normal float range taken as 0.

    pow takes a slow path below the normal range, at tens of times the
    cost of a normal power; on the benchmark's S_alpha sweeps 25-43 % of
    the high table's entries land there.  Each kept entry is still one pow
    call.
    """
    keep = e * np.log(base) >= _LOG_MIN_NORMAL
    return np.power(base, e, out=np.zeros(keep.shape), where=keep)


def _power_sums(base: np.ndarray, c: np.ndarray, n_max: int) -> np.ndarray:
    """sum_j c_j base_j^n for n = 0..n_max as one product of two tables.

    With n = jK + i and K = isqrt(n_max + 1), base^n = base^(jK) * base^i:
    two small tables and one (J x nodes) x (nodes x K) product.  Every
    power is one pow call, so its rounding does not grow with n as a
    chained product's would.  A power below the normal range is 0
    (_normal_powers); on the sweeps' nodes the subnormal powers lie far
    below an ulp of each sum, and every sum tested keeps its bits.  The
    product is an einsum, numpy's own loop in the calling thread: as a BLAS
    product a large sweep would start OpenBLAS's worker threads, which spin
    on the other cores between calls, and its rounding would depend on the
    thread count.
    """
    count = n_max + 1
    K = math.isqrt(count)
    J = -(-count // K)
    lo = _normal_powers(base, np.arange(K, dtype=float)[:, None])
    lo *= c
    hi = _normal_powers(base, K * np.arange(J, dtype=float)[:, None])
    return np.einsum("jn,kn->jk", hi, lo).ravel()[:count]


def _node_exp(log_terms: np.ndarray) -> np.ndarray:
    """np.exp of node terms formed in log space, a ValueError past floats."""
    if log_terms.max() > _LOG_MAX:
        raise ValueError("the half-line integrand overflows a float")
    return np.exp(log_terms)


def _frullani_sweep(u: float, s: float, n_lo: int, n_hi: int, nodes=None):
    """int_0^inf (1-e^-t)^n e^(-ut) t^(s-2) dt for n = n_lo..n_hi, on
    nodes = _halfline_nodes(u, n_hi, s) (built here when not given).

    Needs n_lo + s - 1 >= 1.  Each node's coefficient is formed in log
    space with (1-e^-t)^n_lo folded in, so it behaves like t^(n_lo+s-2) as
    t -> 0 and stays finite however far below 0 s lies.
    """
    _, base, log_base, log_kernel = nodes or _halfline_nodes(u, n_hi, s)
    c = _node_exp(log_kernel + n_lo * log_base)
    return _power_sums(base, c, n_hi - n_lo)


def log_tn_sweep(u: float, n_max: int) -> np.ndarray:
    """log t_n(u) for n = 0..n_max in one vectorized quadrature sweep.

    Entry n holds log t_n(u); entry 0 is the exact value -log u.  This is
    the bulk producer behind the direct product series and the truncated
    product oracles.
    """
    out = np.empty(n_max + 1)
    out[0] = -math.log(u)
    if n_max >= 1:
        out[1:] = _frullani_sweep(u, 1.0, 1, n_max)
    return out


def _sweep_start(s: float) -> int:
    """n_q, the first n whose D_n(s,u) the sweep serves (n + s - 1 >= 1)."""
    return max(0, math.ceil(2.0 - s))


def _recip_gamma_sm1(s: float) -> float:
    """1/Gamma(s-1) as (s-1) s ... (s+m-1) / Gamma(s+m), s + m >= 1/2: no
    factor rounds next to a pole, and at integer s <= 1 one is exactly 0."""
    m = max(0, math.ceil(0.5 - s))
    return math.prod(s + k for k in range(-1, m)) / math.gamma(s + m)


def _inner_differences(s: float, u: float, N: int, nodes=None) -> np.ndarray:
    """D_n(s,u) for n = 0..N, at every real s (nodes: see _frullani_sweep).

    The head n < n_q = _sweep_start(s), where the sweep's integral does
    not converge to round-off, comes from closed forms: at s > 0, where
    n_q <= 2, D_0 = u^p and D_1 = -u^p expm1(p log1p(1/u)) in float,
    p = 1-s (within 4.4e-16 relative of 80-digit sums on s in 0.05..1.99
    and the tests' u grid), and at s <= 0 the exact sums.  The sweep,
    times 1/Gamma(s-1), serves every n >= n_q: every n from s = 2 on, and
    every n >= 1 from s = 1 on.  The sweep's integrand is positive, but
    its error grows with u and n: against 300-digit sums it is 3.3e-9
    relative at (s, u, n) = (2.9, 10, 501) and 2.2e-12 at (1.56, 4, 501).
    """
    out = np.empty(N + 1)
    n_q = _sweep_start(s)
    if s <= 0:
        out[:n_q] = _inner_diff_alternating(min(N, n_q - 1), s, u)
    elif n_q:
        p = 1.0 - s
        d0 = u ** p
        head = min(N + 1, n_q)
        out[:head] = [d0, -d0 * math.expm1(p * math.log1p(1.0 / u))][:head]
    if N >= n_q:
        out[n_q:] = _recip_gamma_sm1(s) * _frullani_sweep(u, s, n_q, N, nodes)
    return out


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def log_tn(n: int, u: float,
           method: DifferenceMethod = DifferenceMethod.FRULLANI) -> float:
    """log t_n(u), the signed n-th forward difference of log at u.

    alternating_sum evaluates the literal sum (n <= 40); frullani_quadrature
    evaluates the equivalent half-line integral, which is the only
    cancellation-safe route for large n.
    """
    if n < 0:
        raise ValueError("log_tn: n must be >= 0")
    if not u > 0:
        raise ValueError("log_tn: u must be > 0")
    if n == 0:
        return -math.log(u)
    if method is DifferenceMethod.ALTERNATING:
        if n > ALTERNATING_MAX_N:
            raise ValueError(f"log_tn: alternating_sum is limited to "
                             f"n <= {ALTERNATING_MAX_N}")
        return _log_tn_alternating(n, u)[n]
    return float(_frullani_sweep(u, 1.0, n, n)[0])


def _s_alpha_tail(nodes, norm: float, a: float, M: int):
    """sum_{n>M} D_n(s,u)/(n+a) on the sweep's _halfline_nodes(u, ., s), with
    norm = 1/Gamma(s-1), and its error estimate: the change from the
    h = 1/8 to the h = 1/16 rule.  Needs M + s > 0 and M + a > 0.

    With x = 1-e^-t, sum_{n>M} x^n/(n+a) = x^-a int_0^t (1-e^-r)^(M+a) dr,
    so the tail is norm int_0^inf e^(-ut) t^(s-2) x^-a G(t) dt, G the
    running trapezoid sum of (1-e^-t)^(M+a) w.  Both rules start at the
    first node where that is not 0, rounded up to an even index, and each
    term is formed in log space.
    """
    w, _, log_base, log_kernel = nodes
    g = w * np.exp((M + a) * log_base)
    j0 = int(np.argmax(g > 0))
    j0 += j0 % 2
    g, lt = g[j0:], log_kernel[j0:] - a * log_base[j0:]
    fine = float(_node_exp(lt + np.log(np.cumsum(g) - 0.5 * g)).sum())
    g = 2.0 * g[::2]
    coarse = float(_node_exp(lt[::2] + np.log(np.cumsum(g) - 0.5 * g)).sum())
    return norm * fine, abs(norm * (fine - 2.0 * coarse))


def s_alpha_truncated(p: EvalParams, N: int) -> Approximation:
    """Partial sum of S_alpha(s, u) over n = 0..N.

    err_est is |the terms N+1..M plus the exact tail past M| (summed; M =
    max(N, n_q - 1, floor(-alpha))), plus the tail's quadrature error and
    1e-15 (1 + the magnitudes of the terms and the tail).

    Measured reach, against a 60-digit S_d: err_est covers all 1785 cells
    of d in {0, 1, 3} x 17 s in [-20.5, 2.5] x 5 u in [0.05, 10] x N in
    {1, ..., 100}, and all 1080 of d in {0, 2, 5} x 9 s in [-1.5, 3.5] x
    8 u in [0.05, 10] x N in {10, ..., 1000}.  For s << 0 the sum is
    ill-conditioned: at (alpha, s, u, N) = (0.5, -20, 1, 100) it reads
    -7.36e5 against an exact 2719.8, with err_est 1.0e7.
    """
    p.require_s_alpha_valid()
    if p.s is None:
        raise ValueError("s_alpha_truncated: params must carry s")
    if N < 1:
        raise ValueError("s_alpha_truncated: N must be >= 1")
    a = p.alpha + 1.0
    M = max(N, _sweep_start(p.s) - 1, math.floor(-a) + 1)
    nodes = _halfline_nodes(p.u, M, p.s)
    terms = (_inner_differences(p.s, p.u, M, nodes)
             * (1.0 / (np.arange(M + 1, dtype=float) + p.alpha + 1.0)))
    tail, tail_err = _s_alpha_tail(nodes, _recip_gamma_sm1(p.s), a, M)
    value = math.fsum(terms[:N + 1].tolist())
    rounding = 1e-15 * (1.0 + float(np.abs(terms).sum()) + abs(tail))
    return Approximation(value, abs(math.fsum(terms[N + 1:].tolist()) + tail)
                         + tail_err + rounding, N + 1)


# --------------------------------------------------------------------------
# the direct series' exact tail
# --------------------------------------------------------------------------
#
# With 1/t = int_0^inf e^(-vt) dv inside the t-integral of log t_n,
# log t_n(u) = int_0^inf B(u+v, n+1) dv, and so
#
#   sum_{n>=X} log t_n(u)/(n+a1) = int_0^inf Gamma(s) S(s) dv,  s = u+v,
#   S(s) = sum_{n>=X} Gamma(n+1)/Gamma(n+1+s) / (n+a1).
#
# log(Gamma(n+1)/Gamma(n+1+s)) = -s log n + sum_k beta_k(s) n^-k (DLMF
# 5.11.8), so each summand of S is sum_m e_m(s) n^-(s+1+m); every power is
# summed over n >= X by Euler-Maclaurin, and the v-integral is an exp-sinh
# rule (Takahasi & Mori 1974) in v log X.

_HEAD_MIN = 200     # head terms; the tail's expansions need X >> s, |a1|
_HEAD_PER_A1 = 8    # and a head of at least 8 |a1| terms
_K_BETA = 10        # beta_k(s), k = 1..10
_M_TAIL = 14        # e_m(s), m = 0..14
_J_EM = 6           # Bernoulli corrections of each power sum


def _beta_matrix() -> np.ndarray:
    """Row k-1 holds k beta_k(s) by powers s^0..s^(K+1), with
    beta_k(s) = (-1)^k (B_{k+1}(1+s) - B_{k+1}(1)) / (k(k+1)) and
    B_n(1+s) = sum_j C(n,j) B_{n-j}(1) s^j, where B_1(1) = +1/2."""
    out = np.zeros((_K_BETA, _K_BETA + 2))
    for k in range(1, _K_BETA + 1):
        n = k + 1
        for j in range(1, n + 1):
            b = bernoulli_number(n - j) if n - j != 1 else Fraction(1, 2)
            out[k - 1, j] = float((-1) ** k * binomial(n, j) * b / (k + 1))
    return out


_KBETA = _beta_matrix()
_EM_COEF = [float(bernoulli_number(2 * j) / math.factorial(2 * j))
            for j in range(1, _J_EM + 1)]

# exp-sinh nodes z = v log X = exp(pi/2 sinh t), t = -4.25 + i/16, kept while
# z <= 45 (the integrand falls like X^-v = e^-z), and the weights h dz/dt
_ES_T = -4.25 + np.arange(100) / 16.0
_ES_Z = np.exp(0.5 * math.pi * np.sinh(_ES_T))
_ES_W = _ES_Z * 0.5 * math.pi * np.cosh(_ES_T) / 16.0
_ES_W = _ES_W[_ES_Z <= 45.0]
_ES_Z = _ES_Z[_ES_Z <= 45.0]


def _head_terms(a1: float) -> int:
    """Terms of log_z_direct's explicit head at alpha = a1 - 1."""
    return max(_HEAD_MIN, math.ceil(_HEAD_PER_A1 * abs(a1)))


def _beta_tail(u: float, a1: float, X: int) -> tuple[float, float]:
    """sum_{n>=X} log t_n(u)/(n+a1) by the Beta-integral identity, and its
    error estimate: the change from h = 1/8 to the h = 1/16 exp-sinh rule
    plus the size of the last (m = 14) term.

    Needs X >> |a1|; nodes with s = u+v > X/4, where the expansions in s/X
    fail, are dropped (their weight there is below (4e)^(-X/4)).  Needs
    u >= _ES_Z[0] / log X (about 2e-25), the smallest node offset v, below
    which the nodes step over Gamma(s)'s 1/s peak (log_z_direct checks it).
    """
    log_x = math.log(X)
    keep = int(np.searchsorted(_ES_Z, (0.25 * X - u) * log_x, side="right"))
    s = u + _ES_Z[:keep] / log_x
    w = _ES_W[:keep] / log_x * np.array([math.gamma(x) for x in s])
    # e_m(s): exp of sum_k beta_k(s) y^k by its power-series recurrence,
    # then divided by 1 + a1 y (y = 1/n)
    kb = _KBETA @ np.power(s, np.arange(_K_BETA + 2)[:, None])
    e = np.empty((_M_TAIL + 1, keep))
    g = np.empty((_M_TAIL + 1, keep))
    e[0] = g[0] = 1.0
    for m in range(1, _M_TAIL + 1):
        k = min(m, _K_BETA)
        g[m] = np.einsum("kp,kp->p", kb[:k], g[m - 1::-1][:k]) / m
        e[m] = g[m] - a1 * e[m - 1]
    # sum_{n>=X} n^-p, p = s+1+m, by Euler-Maclaurin at X
    ms = np.arange(_M_TAIL + 1.0)[:, None]
    p = s + 1.0 + ms
    r = p / X
    corr = _EM_COEF[0] * r
    for j in range(2, _J_EM + 1):
        r = r * (p + (2 * j - 3)) * (p + (2 * j - 2)) / (X * X)
        corr += _EM_COEF[j - 1] * r
    x_pow = np.exp(-(s + 1.0) * log_x) * float(X) ** -ms
    # X / (p - 1) with p - 1 as s + m: formed from p it rounds s < 1e-16 to 0
    sums = x_pow * (X / (s + ms) + 0.5 + corr)
    terms = e * sums * w
    f = terms.sum(axis=0)
    fine = float(f.sum())
    coarse = 2.0 * float(f[::2].sum())
    return fine, abs(fine - coarse) + float(np.abs(terms[-1]).sum())


def log_z_direct(p: EvalParams, N: int | None = None,
                 method: DifferenceMethod = DifferenceMethod.FRULLANI,
                 tightened: bool = True) -> Approximation:
    """The direct series sum_{n>=1} log t_n(u) / (n+alpha+1), summed whole:
    an explicit head of H = _head_terms(alpha+1) terms from log_tn_sweep
    plus the exact tail (_beta_tail).

    The trailing parameters only accept the old whole-series call
    (p, N, FRULLANI, True) that bench/worker.py makes: N caps the head, so
    N < H raises a ValueError that names H, and no N beyond H changes the
    value; any other method, or tightened=False, raises a ValueError.
    """
    p.require_product_valid()
    if method is not DifferenceMethod.FRULLANI or not tightened:
        raise ValueError("log_z_direct: only the whole series by "
                         "frullani_quadrature is provided")
    a1 = p.alpha + 1.0
    n_head = _head_terms(a1)
    if N is not None and N < n_head:
        raise ValueError(f"log_z_direct: the series head is {n_head} "
                         f"terms at alpha = {p.alpha}, above N = {N}")
    v_min = _ES_Z[0] / math.log(n_head + 1)
    if p.u < v_min:
        raise ValueError(f"log_z_direct: u = {p.u} is below {v_min:.3g}, "
                         f"the smallest node of the tail's exp-sinh rule")
    logt = log_tn_sweep(p.u, n_head)
    ns = np.arange(1, n_head + 1, dtype=float)
    head = float(np.sum(logt[1:] / (ns + a1)))
    tail, tail_err = _beta_tail(p.u, a1, n_head + 1)
    return Approximation(head + tail, tail_err + 4e-15 * n_head ** 0.5,
                         n_head)


def resummed_power_partial(s: float, u: float, N: int) -> float:
    """Partial double sum sum_{n<=N} D_n(s, u+1); the limit is u^(1-s).

    Pascal's rule gives D_n(s, u+1) = D_n(s, u) - D_{n+1}(s, u), so the
    partial sum telescopes to exactly u^(1-s) - D_{N+1}(s, u).  For s << 0
    the sum is ill-conditioned: at s = -20.5, u = 1 its entries reach 3.6e23
    and the N = 200 sum reads -2.63e7 against a true -3290.7.
    """
    if not u > 0:
        raise ValueError("resummed_power_partial: u must be > 0")
    if N < 0:
        raise ValueError("resummed_power_partial: N must be >= 0")
    return math.fsum(_inner_differences(s, u + 1.0, N))


def functional_eq_residual(p: EvalParams, N: int) -> float:
    """Truncation residual of the three-term shift identity

        alpha S_alpha(s,u) - S_{alpha-1}(s-1,u) - (alpha-u) S_{alpha-1}(s,u).

    Truncations are index-matched per the shift n -> n+1: S_alpha runs over
    n = 0..N and both alpha-1 sums over n = 0..N+1.  With
    D_n(s-1, u) = (n+u) D_n(s, u) - n D_{n-1}(s, u) the three partial sums
    telescope, so the residual is exactly -D_{N+1}(s, u) for every alpha
    (-1/(N+2) at (s, u) = (2, 1)); it tends to 0 as D_N does.
    """
    if float(p.alpha) == int(p.alpha) and p.alpha <= 0:
        raise ValueError("functional_eq_residual: alpha must not be a "
                         "nonpositive integer")
    if p.s is None:
        raise ValueError("functional_eq_residual: params must carry s")
    a, s, u = p.alpha, p.s, p.u
    sa = s_alpha_truncated(EvalParams(a, u, s=s), N).value
    sb = s_alpha_truncated(EvalParams(a - 1.0, u, s=s - 1.0), N + 1).value
    sc = s_alpha_truncated(EvalParams(a - 1.0, u, s=s), N + 1).value
    return a * sa - sb - (a - u) * sc


# --------------------------------------------------------------------------
# exact finite identities (rational arithmetic)
# --------------------------------------------------------------------------

def inner_diff_exact(n: int, m: int, u: Fraction) -> Fraction:
    """sum_k (-1)^k C(n,k) (k+u)^m exactly (m a nonnegative integer)."""
    if n < 0 or m < 0:
        raise ValueError("inner_diff_exact: n, m must be >= 0")
    u = Fraction(u)
    acc = Fraction(0)
    for k in range(n + 1):
        term = binomial(n, k) * (u + k) ** m
        acc += -term if k % 2 else term
    return acc


def finite_bernoulli_identity_sides(m: int, d: int, u: Fraction
                                    ) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating-power identity, exactly:

      LHS = sum_{n=0}^m 1/(n+d+1) sum_k (-1)^k C(n,k) (k+u)^m
      RHS = (1/d!) sum_{k=0}^d row(d, 1-u)[k] * B_{m+k}(u)

    with row the exact shifted r-Stirling row.  The two are equal for every
    m >= 1, d >= 0, rational u; at d = 0 this is the classical explicit
    formula for B_m(u).
    """
    if m < 1 or d < 0:
        raise ValueError("identity requires m >= 1 and d >= 0")
    u = Fraction(u)
    lhs = Fraction(0)
    for n in range(m + 1):
        lhs += Fraction(1, n + d + 1) * inner_diff_exact(n, m, u)
    row = row_by_gf(d, shift_from_u(u))
    rhs = Fraction(0)
    for k in range(d + 1):
        rhs += row.coeffs[k] * bernoulli_poly(m + k)(u)
    rhs /= math.factorial(d)
    return lhs, rhs
