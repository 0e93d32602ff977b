"""Tanh-sinh quadrature and the integral routes to the product logarithms.

Engine: the double-exponential substitution x = (1 + tanh((pi/2) sinh tau))/2
on (0, 1), refined by halving the step until two levels agree.  One
refinement loop serves every integral here: it sums one integrand (node
values of shape (n,)) or a batch of m integrands on shared nodes (shape
(m, n)), as the nested passes of the double and preliminary routes do.
Levels 0-3, which every pass sums before its first stop test, are one
evaluation of the integrand on their concatenated nodes; from level 4 on,
each level is one evaluation, and a batch evaluates only its rows that
have not yet converged to round-off (see _refine).
Each level's nodes are cached with the complements 1-x and log x, computed
from the distance to the nearest endpoint without cancellation, so
endpoint-singular factors such as x^(u-1) or (1-x)^(-d) stay stable at node
distances down to ~1e-290.

The public entry point is tanh_sinh_01(f, cfg): f(nodes) reads the node
record's x, eps = 1-x and log_x = log x.  Every route's (outer) pass calls
it; the nested inner passes call the refinement loop directly.

Routes (d or alpha is the *integrand* index; the value is the log-product
one step down, log z_{d-1} / log z_{alpha-1}):

  integrate_single_d(d, u)    int_0^1 x^(u-1) [ (1-x)^-d
                                + (1/log x) sum_{m=1}^d 1/(m (1-x)^(d-m)) ] dx
  integrate_double(alpha, u)  - iint (1-p)^a (pq)^(u-1) / ((1-pq)^a log pq)
  integrate_prelim(alpha, u)  - int x^(u-1) G(1-x) / ((1-x)^a log x) dx,
                              G(w) = sum_{n>=1} w^(n+a)/(n+a)
                                   = int_0^w y^a/(1-y) dy
  integrate_elementary_half() int (1/log x)(1 - atanh(sqrt(1-x))/sqrt(1-x)) dx
                              = sum_{n>=1} log t_n(1)/(2n+1)  (alpha=1/2, u=1)

Near x = 1 the single-d bracket is a cancellation of O((1-x)^-d) pieces with
a finite limit; for 1-x below _EDGE_GUARD = 0.3 it is evaluated from its
exact expansion in (1-x), whose coefficients come from the Bernoulli numbers
of the second kind (the power-series coefficients of y/log(1+y),
exactnum.bernoulli_second).  Each coefficient is a sum of terms of one sign,
so summing them as floats loses nothing measurable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exactnum import bernoulli_second
from .series import Approximation

__all__ = [
    "QuadConfig",
    "QuadratureNonConvergence",
    "tanh_sinh_01",
    "integrate_single_d",
    "integrate_double",
    "integrate_prelim",
    "integrate_elementary_half",
]

_EPS = 2.0 ** -52

# Below this distance 1-x from x = 1, _bracket_values (the single-d bracket)
# and integrate_elementary_half's integrand are evaluated from their power
# series in 1-x; both size their term counts from it.  Beyond it the bracket
# cancels like (1-x)^-d, so the radius sets the single route's reach (target
# d <= 11, declined past that in cli.ROUTES).
_EDGE_GUARD = 0.3


class QuadratureNonConvergence(RuntimeError):
    """Raised when level_max is exhausted, or at the level where the level
    sum turns non-finite; carries the partial estimate."""

    def __init__(self, value: float, err_est: float, level: int,
                 non_finite: bool = False):
        what = ("sum became non-finite at level" if non_finite
                else "did not converge by level")
        super().__init__(f"tanh-sinh {what} {level} "
                         f"(partial value {value!r}, last change {err_est:.3e})")
        self.value = value
        self.err_est = err_est
        self.level = level


@dataclass(frozen=True)
class QuadConfig:
    """Tanh-sinh tuning: the halving depth."""

    level_max: int = 12

    def __post_init__(self):
        if not 1 <= self.level_max <= 14:
            raise ValueError("QuadConfig: level_max must be in 1..14")


DEFAULT_QUAD = QuadConfig()

# A pass stops once two levels agree to this; nested inner passes use a
# tenth of it.
_ABS_TOL = 1e-11


# --------------------------------------------------------------------------
# node tables
# --------------------------------------------------------------------------

_TAU_MAX = 6.2          # node distances bottom out near exp(-2*(pi/2)*sinh)
_MIN_DELTA = 1e-290     # keep exponentials like delta^(-0.95) finite

# The first level the stop test reads.  Every pass evaluates levels 0 to
# this one, so they are summed from one call of the integrand.
_FIRST_STOP = 3


class _Nodes(NamedTuple):
    """Tanh-sinh nodes with their weights w and the step h of their level.

    eps = 1-x and log_x = log(x) are built from the distance to the nearest
    endpoint, so neither cancels at either endpoint.  A level's table holds
    the nodes new at that level; a block of levels 0..top holds theirs in
    level order, so h changes where a level starts.
    """

    x: np.ndarray
    w: np.ndarray
    eps: np.ndarray
    log_x: np.ndarray
    h: np.ndarray


class _Block(NamedTuple):
    """Levels 0..top as one node set; starts[j] is where level j begins."""

    nodes: _Nodes
    starts: np.ndarray


def _read_only(arrays: list) -> list:
    for arr in arrays:          # shared by every caller and thread
        arr.flags.writeable = False
    return arrays


@functools.cache
def _level_nodes(level: int) -> _Nodes:
    h = 2.0 ** -level
    kmax = int(_TAU_MAX / h)
    ks = np.arange(-kmax, kmax + 1)
    if level > 0:
        ks = ks[ks % 2 != 0]
    tau = ks * h
    z = 0.5 * math.pi * np.sinh(tau)
    two_z = 2.0 * np.abs(z)
    e2 = np.exp(-two_z)
    delta = e2 / (1.0 + e2)
    logd = -two_z - np.log1p(e2)
    # dx/dtau = (pi/4) cosh(tau) / cosh^2(z), written via e^{-2|z|}
    w = math.pi * np.cosh(tau) * e2 / (1.0 + e2) ** 2
    x = np.where(tau >= 0, 1.0 - delta, delta)
    keep = (w > 0) & (delta > _MIN_DELTA)
    x, delta, logd, w = x[keep], delta[keep], logd[keep], w[keep]
    right = x > 0.5
    eps = np.where(right, delta, 1.0 - x)
    log_x = np.where(right, np.log1p(-delta * right), logd)
    return _Nodes(*_read_only([x, w, eps, log_x, np.full(len(x), h)]))


@functools.cache
def _block_nodes(top: int) -> _Block:
    levels = [_level_nodes(level) for level in range(top + 1)]
    nodes = _Nodes(*_read_only([np.concatenate(col) for col in zip(*levels)]))
    starts = np.cumsum([0] + [len(n.x) for n in levels[:-1]])
    return _Block(nodes, *_read_only([starts]))


def _refine(f, cfg: QuadConfig, tol: float, weight=1.0):
    """Sum f over the tanh-sinh levels, halving the step until they agree.

    f(nodes) gives one integrand at a set of nodes, shape (n,), for a value
    of shape (); a batch of m integrands gives (m, n) for (m,).  From level
    3 (_FIRST_STOP) on, a batch row stops with its value once its change,
    times weight (a scalar or one factor per row), is <= tol and its own
    change is at round-off (<= 64 eps |value|); the deeper levels, which
    could only round it, call f(nodes, rows) on the live rows only.  Returns
    (value, change, nodes_used) once every live row meets tol.  Raises
    QuadratureNonConvergence past level_max, with the partial value of one
    integrand (a batch reports nan: its rows are pieces of an outer one).

    Levels 0..min(3, level_max), which every pass sums before its first
    stop test, are one call f(block) on every row and their concatenated
    nodes, each node carrying its own level's step h.  A reduceat sums each
    level's run of nodes and a cumsum forms the running sums, so every test
    below sees the level sums of a level-by-level pass, and no node above
    level_max is evaluated.  (A zero-padded (n, levels) weight matrix would
    not do: an inf at a level-3 node would make 0 * inf = nan in the sums
    of levels 0-2.)  From level 4 on, each level is its own call.

    The pass also stops at the first level whose running sum holds an inf
    or nan on a live row (the deep nodes of a small-u double integral
    overflow exp): every later sum stays non-finite, so the change can
    never meet tol and the deeper levels could not alter the outcome.  That
    raise reports the level reached, with value and err_est nan.

    Each level sum is numpy's own loop in the calling thread (an einsum, or
    a product and a reduceat for the block).  As a BLAS product it would
    start OpenBLAS's worker threads, which keep spinning on the other cores
    between calls; a deep level's row alone is past the size OpenBLAS keeps
    in the calling thread.
    """
    top = min(_FIRST_STOP, cfg.level_max)
    block, starts = _block_nodes(top)
    fx = f(block)
    batch = np.ndim(fx) == 2
    # one integrand runs as a batch of one row, which sums bit for bit alike
    running = np.cumsum(np.add.reduceat(np.atleast_2d(fx) * block.w, starts,
                                        axis=-1), axis=-1)
    value = np.zeros(len(running))
    live = np.arange(len(running))
    weight = np.broadcast_to(weight, live.shape)
    nodes_used = len(block.x)
    change = math.inf
    for level in range(cfg.level_max + 1):
        if level <= top:
            S = running[:, level]
        else:
            nodes = _level_nodes(level)
            fx = f(nodes, live) if batch else f(nodes)
            S = S + np.einsum("...n,n->...", np.atleast_2d(fx), nodes.w)
            nodes_used += len(nodes.x)
        if not np.all(np.isfinite(S)):
            raise QuadratureNonConvergence(math.nan, math.nan, level,
                                           non_finite=True)
        new = 2.0 ** -level * S
        step = np.abs(new - value[live])
        value[live] = new
        if level >= _FIRST_STOP:
            change = step * weight[live]
            if np.max(change) <= tol:
                out = value if batch else value[0]
                return out, float(np.max(change)), nodes_used
            keep = (change > tol) | (step > 64.0 * _EPS * np.abs(new))
            live, S = live[keep], S[keep]
    raise QuadratureNonConvergence(math.nan if batch else float(value[0]),
                                   float(np.max(change)), cfg.level_max)


def tanh_sinh_01(f, cfg: QuadConfig = DEFAULT_QUAD) -> tuple[float, float, int]:
    """Integrate f over (0, 1); returns (value, err_est, nodes_used).

    f(nodes) gives the integrand, shape (n,), at the node record's x,
    eps = 1-x and log_x = log(x).  err_est is the last level change, but
    at least 8 eps |value|.  Raises ValueError when f returns a non-finite
    value and QuadratureNonConvergence when level_max is exhausted.
    """
    def checked(nodes):
        fx = np.asarray(f(nodes), dtype=float)
        if not np.all(np.isfinite(fx)):
            bad = nodes.x[~np.isfinite(fx)][:3]
            raise ValueError(f"integrand returned non-finite values near x={bad}")
        return fx

    value, change, nodes_used = _refine(checked, cfg, _ABS_TOL)
    value = float(value)
    return value, max(change, 8.0 * _EPS * abs(value)), nodes_used


# --------------------------------------------------------------------------
# the guarded single-d bracket
# --------------------------------------------------------------------------

@functools.cache
def _bracket_series(d: int, nterms: int) -> np.ndarray:
    """Expansion coefficients beta_j of the single-d bracket around x = 1:

        (1-x)^-d + (1/log x) sum_{m=1}^d (1-x)^(m-d)/m = sum_j beta_j (1-x)^j.

    All negative powers cancel exactly (the defining recurrence of the
    second-kind Bernoulli numbers); beta_j = sum_{m=1}^d (-1)^(n-1) b_n / m
    with n = d+1+j-m.  Since (-1)^(n-1) b_n > 0 for n >= 1, every term is
    |b_n| / m > 0, so an fsum of the float terms is within an ulp of the
    exact sum.
    """
    coeffs = [math.fsum(abs(float(bernoulli_second(d + 1 + j - m))) / m
                        for m in range(1, d + 1))
              for j in range(nterms)]
    return _read_only([np.array(coeffs)])[0]


def _bracket_values(d: int, eps: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """The single-d bracket; eps = 1-x and log_x are cancellation-free."""
    if d == 0:
        return np.ones_like(eps)
    out = np.empty_like(eps)
    near = eps < _EDGE_GUARD
    if near.any():
        nterms = max(10, int(math.ceil(40.0 / -math.log10(_EDGE_GUARD))))
        beta = _bracket_series(d, nterms)
        e = eps[near]
        acc = np.zeros_like(e)
        for c in beta[::-1]:
            acc = acc * e + c
        out[near] = acc
    far = ~near
    if far.any():
        ef = eps[far]
        s = np.zeros_like(ef)
        for m in range(1, d + 1):
            s += ef ** (m - d) / m
        out[far] = ef ** (-d) + s / log_x[far]
    return out


def integrate_single_d(d: int, u: float,
                       cfg: QuadConfig = DEFAULT_QUAD) -> Approximation:
    """Single-integral route for integer d >= 0; the value is log z_{d-1}(u)."""
    if not (float(d).is_integer() and d >= 0):
        raise ValueError("integrate_single_d: d must be an integer >= 0")
    if not u > 0:
        raise ValueError("integrate_single_d: u must be > 0")
    d = int(d)

    def f(nodes):
        xp = np.exp((u - 1.0) * nodes.log_x)
        return xp * _bracket_values(d, nodes.eps, nodes.log_x)

    value, err, nodes_used = tanh_sinh_01(f, cfg)
    return Approximation(value, err, nodes_used)


# --------------------------------------------------------------------------
# double integral (iterated; inner pass vectorized across outer nodes)
# --------------------------------------------------------------------------

def integrate_double(alpha: float, u: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> Approximation:
    """Double-integral route; the value is log z_{alpha-1}(u), alpha > -1.

    Iterated tanh-sinh: each outer (p) call, the block of levels 0-3 among
    them, is one inner (q) pass vectorized across its outer nodes.  Inner
    convergence is measured in the outer-weighted norm, so that deep,
    negligible-weight outer nodes cannot stall refinement, and an inner row
    stops at round-off: the extreme level-0 outer rows stop long before the
    inner depths where (pq)^(u-1) overflows.
    """
    if not alpha > -1:
        raise ValueError("integrate_double: requires alpha > -1")
    if not u > 0:
        raise ValueError("integrate_double: u must be > 0")
    inner_tol = _ABS_TOL / 10.0

    def inner_pass(p):
        columns = (p.eps[:, None], p.log_x[:, None], np.log(p.eps)[:, None])

        def inner(q, rows=slice(None)):
            eps_p, log_p, log_eps_p = (col[rows] for col in columns)
            log_pq = log_p + q.log_x[None, :]
            one_minus_pq = eps_p + q.eps[None, :] - eps_p * q.eps[None, :]
            expo = (alpha * (log_eps_p - np.log(one_minus_pq))
                    + (u - 1.0) * log_pq)
            return -np.exp(expo) / log_pq

        # no non-finite guard here: at small u a live row's deep nodes
        # overflow to inf, and that must end in QuadratureNonConvergence
        return _refine(inner, cfg, inner_tol, p.w * p.h)[0]

    value, err, nodes_used = tanh_sinh_01(inner_pass, cfg)
    return Approximation(value, err, nodes_used)


# --------------------------------------------------------------------------
# preliminary single-integral route for real alpha > -1
# --------------------------------------------------------------------------

def _geom_tail_series_scaled(alpha: float, w: np.ndarray, tol: float) -> np.ndarray:
    """w^-alpha G(w) = sum_{n>=1} w^n/(n+alpha) by direct series; w < 1.

    The w^alpha factor of G is kept out so the caller's division by
    (1-x)^alpha cancels symbolically (no overflow for alpha > 1 at the
    deepest nodes).
    """
    out = np.zeros_like(w)
    nmax = max(8, int(math.ceil(math.log(tol) / math.log(np.max(w)))) + 2)
    p = w.copy()
    for n in range(1, nmax + 1):
        out += p / (n + alpha)
        p = p * w
    return out


def _bounded_ratio_integral(alpha: float, w: np.ndarray, xcomp: np.ndarray,
                            cfg: QuadConfig, tol: float) -> np.ndarray:
    """H(w) = int_0^w (1 - y^alpha)/(1 - y) dy for w = 1 - xcomp near 1.

    Substituting y = w v gives a bounded integrand on (0, 1) (limit alpha at
    v -> 1), evaluated in one shared tanh-sinh pass across all w.  Both
    1 - y = xcomp + w (1-v) and log y = log w + log v are assembled from
    complements, so no node can produce 0/0.
    """
    log_w = np.log1p(-xcomp)[:, None]
    xcomp, w = xcomp[:, None], w[:, None]

    def F(v, rows=slice(None)):
        log_y = log_w[rows] + v.log_x[None, :]
        one_minus_y = xcomp[rows] + w[rows] * v.eps[None, :]
        num = -np.expm1(alpha * log_y)                # 1 - y^alpha
        return w[rows] * num / one_minus_y

    return _refine(F, cfg, tol)[0]


def integrate_prelim(alpha: float, u: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> Approximation:
    """Preliminary-representation route, real alpha > -1:

        - int_0^1 x^(u-1) G(1-x) / ((1-x)^alpha log x) dx,
        G(w) = int_0^w y^alpha/(1-y) dy = sum_{n>=1} w^(n+alpha)/(n+alpha).

    The value is log z_{alpha-1}(u).  G uses the direct series for
    w <= max(0.6, 1 - 2/alpha) and the decomposition G = -log x - H(w)
    beyond it (H bounded, one nested quadrature level at a tenth of the
    outer tolerance).  -log x dominates H there, so the subtraction is
    benign; nearer w = 1 at large alpha, G ~ w^alpha is far below -log x
    and the subtraction would cancel, so the series runs that far.
    """
    if not alpha > -1:
        raise ValueError("integrate_prelim: requires alpha > -1")
    if not u > 0:
        raise ValueError("integrate_prelim: u must be > 0")
    inner_tol = _ABS_TOL / 10.0
    split = 0.6 if alpha <= 5 else 1.0 - 2.0 / alpha

    def f(nodes):
        eps, log_x = nodes.eps, nodes.log_x            # w = 1 - x
        ratio = np.empty_like(eps)                     # G(w) / w^alpha
        small = eps <= split
        if small.any():
            ratio[small] = _geom_tail_series_scaled(alpha, eps[small], inner_tol)
        big = ~small
        if big.any():
            # w > 0.6 puts x on the left half, where x itself is exact
            H = _bounded_ratio_integral(alpha, eps[big], nodes.x[big], cfg,
                                        inner_tol)
            G = -log_x[big] - H
            ratio[big] = G * np.exp(-alpha * np.log(eps[big]))
        xp = np.exp((u - 1.0) * log_x)
        return -xp * ratio / log_x

    value, err, nodes_used = tanh_sinh_01(f, cfg)
    return Approximation(value, err, nodes_used)


# --------------------------------------------------------------------------
# the elementary integrand at alpha = 1/2, u = 1
# --------------------------------------------------------------------------

def integrate_elementary_half(cfg: QuadConfig = DEFAULT_QUAD) -> Approximation:
    """int_0^1 (1/log x)(1 - atanh(sqrt(1-x))/sqrt(1-x)) dx.

    Equals sum_{n>=1} log t_n(1)/(2n+1): half of the alpha = 1/2
    preliminary integral.  (The exponent normalization is pinned by the
    series oracle in the tests, not assumed.)  The integrand has finite
    endpoint limits: 1/3 at x = 1 and 1/2 at x = 0.
    """
    def f(nodes):
        eps, log_x = nodes.eps, nodes.log_x
        out = np.empty_like(eps)
        near1 = eps < _EDGE_GUARD
        if near1.any():
            # 1 - atanh(sqrt(e))/sqrt(e) = -sum_{m>=1} e^m/(2m+1)
            e = eps[near1]
            nterms = max(8, int(math.ceil(18.0 / -math.log10(_EDGE_GUARD))))
            acc = np.zeros_like(e)
            for m in range(nterms, 0, -1):
                acc = acc * e + 1.0 / (2 * m + 1)
            out[near1] = (acc * e) / (-log_x[near1])
        far = ~near1
        if far.any():
            r = np.sqrt(eps[far])
            # atanh(r) = log1p(r) - log(x)/2 via 1 - r^2 = x
            atanh_r = np.log1p(r) - 0.5 * log_x[far]
            out[far] = (1.0 - atanh_r / r) / log_x[far]
        return out

    value, err, nodes_used = tanh_sinh_01(f, cfg)
    return Approximation(value, err, nodes_used)

