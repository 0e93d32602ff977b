import math
from fractions import Fraction

import numpy as np
import pytest

from zetaprod.closedform import log_z_closed
from zetaprod.exactnum import bernoulli_second
from zetaprod.hurwitz import euler_gamma, log_bendersky
from zetaprod import quad
from zetaprod.quad import (_ABS_TOL, _EPS, QuadConfig, QuadratureNonConvergence,
                           _block_nodes, _bracket_series, _level_nodes,
                           _refine,
                           integrate_double, integrate_elementary_half,
                           integrate_prelim, integrate_single_d, tanh_sinh_01)
from zetaprod.series import EvalParams, log_z_direct
from zetaprod.series import log_tn_sweep

LOG_2PI = math.log(2.0 * math.pi)


class TestEngine:
    def test_polynomial(self):
        v, e, n = tanh_sinh_01(lambda n: n.x * n.x)
        assert abs(v - 1.0 / 3.0) < 1e-14
        assert n > 0

    def test_inverse_sqrt_endpoint_singularity(self):
        v, e, n = tanh_sinh_01(lambda n: np.exp(-0.5 * n.log_x))
        assert abs(v - 2.0) < 1e-13

    def test_log_singularity(self):
        v, e, n = tanh_sinh_01(lambda n: n.log_x)
        assert abs(v + 1.0) < 1e-12

    def test_symmetric_beta(self):
        # int x^(-1/3) (1-x)^(-1/3) = Beta(2/3, 2/3)
        v, e, n = tanh_sinh_01(
            lambda n: np.exp(-(n.log_x + np.log(n.eps)) / 3.0))
        ref = math.gamma(2 / 3) ** 2 / math.gamma(4 / 3)
        assert abs(v - ref) < 1e-12

    def test_nonconvergence_raises_with_partial(self):
        cfg = QuadConfig(level_max=2)
        with pytest.raises(QuadratureNonConvergence) as exc:
            tanh_sinh_01(lambda n: np.cos(50.0 * n.x), cfg)
        assert math.isfinite(exc.value.value)

    def test_non_finite_integrand_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-finite values near x="):
            tanh_sinh_01(lambda n: np.where(n.x > 0.5, np.inf, n.x))

    def test_batch_nonconvergence_has_no_partial_value(self):
        # a batch's rows are pieces of an outer integrand, not an estimate;
        # at level_max 2 the pass ends in the block, at 5 on its live rows
        freqs = np.array([50.0, 60.0])[:, None]
        for level_max in (2, 5):
            with pytest.raises(QuadratureNonConvergence) as exc:
                _refine(lambda n, rows=slice(None): np.cos(freqs[rows] * n.x),
                        QuadConfig(level_max=level_max), 1e-14)
            assert math.isnan(exc.value.value)
            assert exc.value.level == level_max

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_non_finite_sum_stops_at_its_level(self, k):
        # one live row turns inf at a node of level k; no later level
        # could converge, so the pass stops there instead of summing out to
        # level_max.  Levels 0-3 are one call of f, so the inf goes to the
        # first node whose step h is that of level k
        freqs = np.array([50.0, 60.0])
        calls = []

        def f(n, rows=slice(None)):
            live = np.arange(2)[rows]
            calls.append(n.h)
            out = np.cos(freqs[live, None] * n.x)
            at_k = np.flatnonzero(n.h == 2.0 ** -k)
            if len(at_k):
                assert 1 in live
                out[live == 1, at_k[0]] = np.inf
            return out

        with pytest.raises(QuadratureNonConvergence) as exc:
            _refine(f, QuadConfig(), 1e-14)
        # no evaluation after level k: the block, then levels 4..k
        assert len(calls) == (1 if k <= 3 else k - 2)
        assert exc.value.level == k
        assert math.isnan(exc.value.value) and math.isnan(exc.value.err_est)
        assert f"non-finite at level {k} (partial value nan" in str(exc.value)

    def test_finite_batch_runs_to_convergence(self):
        # the same rows without the inf: the early stop never fires, and
        # they need more than the 5 levels the stop test cuts them at
        freqs = np.array([50.0, 60.0])[:, None]
        value, change, nodes = _refine(
            lambda n, rows=slice(None): np.cos(freqs[rows] * n.x),
            QuadConfig(), 1e-14)
        assert change <= 1e-14
        assert np.allclose(value, np.sin(freqs[:, 0]) / freqs[:, 0], rtol=0,
                           atol=1e-13)
        assert nodes > sum(len(_level_nodes(level).x) for level in range(6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(level_max=0)

    def test_cached_nodes_are_read_only(self):
        # every call shares a level's node arrays
        def f(n):
            x = n.x
            x *= 2.0
            return x
        with pytest.raises(ValueError, match="read-only"):
            tanh_sinh_01(f)
        # and every single-d pass shares its bracket coefficients
        assert not _bracket_series(3, 77).flags.writeable

    def test_batch_runs_each_row_like_a_single_integrand(self):
        # x^k for k = 0..4 as one (5, n) batch and as five (n,) integrands
        cfg = QuadConfig()
        powers = np.arange(5)[:, None]
        batch, _, nodes = _refine(
            lambda n, rows=slice(None): n.x ** powers[rows], cfg, _ABS_TOL)
        singles = [_refine(lambda n, k=k: n.x ** k, cfg, _ABS_TOL)
                   for k in range(5)]
        # the batch refines until its slowest row has converged; a row that
        # stops sooner stops at round-off
        assert nodes == max(s[2] for s in singles)
        for k, (value, _, _) in enumerate(singles):
            # numpy's einsum sums a batch row and a single integrand in
            # different loops, which may round them apart in the last bit
            exact = 1.0 / (k + 1)
            assert abs(batch[k] - value) <= 4 * np.spacing(exact)
            assert abs(batch[k] - exact) <= 4 * np.spacing(exact)

    @staticmethod
    def _square_and_cos50(inf_from_level=None):
        """Rows x^2 (at round-off by level 4) and cos(50 x) (past level 5),
        with a log of the original rows each call evaluates.  From
        inf_from_level on, the x^2 row returns inf."""
        calls = []

        def f(n, rows=slice(None)):
            live = np.arange(2)[rows]
            calls.append(live)
            out = np.cos(50.0 * n.x) * np.ones((len(live), 1))
            square = n.x ** 2
            if inf_from_level is not None:
                square = np.where(n.h <= 2.0 ** -inf_from_level, np.inf,
                                  square)
            out[live == 0] = square
            return out

        return f, calls

    def test_stopped_row_is_not_evaluated_at_deeper_levels(self):
        f, calls = self._square_and_cos50()
        value, change, _ = _refine(f, QuadConfig(), 1e-14)
        with_square = [0 in live for live in calls]
        # the x^2 row is in the block and level 4, then in no later call;
        # the cos row runs on alone
        assert with_square == [True, True] + [False] * (len(calls) - 2)
        assert all(1 in live for live in calls) and len(calls) > 3
        assert change <= 1e-14
        assert abs(value[0] - 1.0 / 3.0) <= 4 * np.spacing(1.0 / 3.0)
        assert abs(value[1] - math.sin(50.0) / 50.0) <= 1e-14

    def test_inf_past_a_stopped_row_does_not_fail_the_pass(self):
        # past level 4 the x^2 row would return inf: it has stopped, so the
        # pass never sees it, while a pass that refines every row fails
        f, _ = self._square_and_cos50(inf_from_level=5)
        value, _, _ = _refine(f, QuadConfig(), 1e-14)
        assert abs(value[0] - 1.0 / 3.0) <= 4 * np.spacing(1.0 / 3.0)
        with pytest.raises(QuadratureNonConvergence) as exc:
            _all_rows_refine(f, QuadConfig(), 1e-14)
        assert exc.value.level == 5


def _level_by_level(f, cfg, tol, weight=1.0):
    """Reference pass: one call of f per level on every row, each level's
    new nodes only.  A row stops where _refine's rule stops it and keeps
    the value it stopped at; the tests read the live rows only."""
    S = value = 0.0
    live = np.True_
    change = np.array(math.inf)
    nodes_used = 0
    for level in range(cfg.level_max + 1):
        nodes = _level_nodes(level)
        S = S + np.einsum("...n,n->...", f(nodes), nodes.w)
        nodes_used += len(nodes.x)
        if not np.all(np.isfinite(S[live])):
            raise QuadratureNonConvergence(math.nan, math.nan, level,
                                           non_finite=True)
        new = 2.0 ** -level * S
        step = np.abs(new - value)
        value = np.where(live, new, value)
        if level >= 3:
            change = step * weight
            if np.max(change[live]) <= tol:
                return value, float(np.max(change[live])), nodes_used
            live = live & ((change > tol) | (step > 64 * _EPS * np.abs(new)))
    partial = math.nan if np.ndim(value) else float(value)
    raise QuadratureNonConvergence(partial, float(np.max(change[live])),
                                   cfg.level_max)


def _all_rows_refine(f, cfg, tol, weight=1.0):
    """Reference pass with no per-row stop: every row is refined, block
    included, until the slowest one meets tol, as the double integral's
    inner passes were before their rows stopped on their own."""
    top = min(3, cfg.level_max)
    block, starts = _block_nodes(top)
    running = np.cumsum(np.add.reduceat(f(block) * block.w, starts, axis=-1),
                        axis=-1)
    nodes_used = len(block.x)
    change = math.inf
    for level in range(cfg.level_max + 1):
        if level <= top:
            S = running[..., level]
        else:
            nodes = _level_nodes(level)
            S = S + np.einsum("...n,n->...", f(nodes), nodes.w)
            nodes_used += len(nodes.x)
        value = 2.0 ** -level * S
        if not np.all(np.isfinite(S)):
            raise QuadratureNonConvergence(math.nan, math.nan, level,
                                           non_finite=True)
        if level >= 3:
            change = float(np.max(np.abs(value - prev) * weight))
            if change <= tol:
                return value, change, nodes_used
        prev = value
    partial = math.nan if np.ndim(value) else float(value)
    raise QuadratureNonConvergence(partial, change, cfg.level_max)


def _split_levels(nodes):
    """A node set cut into runs of one level each."""
    cuts = np.flatnonzero(np.diff(nodes.h)) + 1
    return [quad._Nodes(*(arr[a:b] for arr in nodes))
            for a, b in zip([0, *cuts], [*cuts, len(nodes.h)])]


def _close(a, b):
    # a few ulps of the integrands' magnitude, which is about 1 here; the
    # level sums of the block and of the reference may round apart
    return bool(np.all(np.abs(np.asarray(a) - b)
                       <= 4 * np.spacing(np.maximum(1.0, np.abs(b)))))


class TestBlock:
    """Levels 0-3 as one call of f against the level-by-level pass."""

    @staticmethod
    def _peaked(n):
        # 1/(1+100 x^2) needs levels 4 and 5 at the default tolerance
        return 1.0 / (1.0 + 100.0 * n.x ** 2)

    def test_single_integrand(self):
        cfg = QuadConfig()
        value, _, nodes = _refine(self._peaked, cfg, _ABS_TOL)
        ref, _, ref_nodes = _level_by_level(self._peaked, cfg, _ABS_TOL)
        assert nodes == ref_nodes > len(_block_nodes(3).nodes.x)
        assert _close(value, ref)
        assert _close(value, math.atan(10.0) / 10.0)

    def test_weighted_batch(self):
        cfg = QuadConfig()
        weight = np.array([1.0, 1e-3, 1e3])

        calls = []

        def f(n, rows=slice(None)):
            calls.append(np.arange(3)[rows])
            return np.stack([self._peaked(n), np.cos(10.0 * n.x),
                             np.exp(-0.5 * n.log_x) * np.log(n.eps)])[rows]

        value, _, nodes = _refine(f, cfg, _ABS_TOL, weight)
        # a row stops before the pass does
        assert len(calls[-1]) < 3
        ref, _, ref_nodes = _level_by_level(f, cfg, _ABS_TOL, weight)
        assert nodes == ref_nodes
        assert _close(value, ref)

    @pytest.mark.parametrize("level_max", [1, 2, 3])
    @pytest.mark.parametrize("g", [lambda x: x * x, lambda x: np.cos(50.0 * x)],
                             ids=["x^2", "cos(50x)"])
    def test_low_level_max(self, level_max, g):
        # the block stops at level_max: the same raise or value as the
        # level-by-level pass, and no node of a deeper level is evaluated
        cfg = QuadConfig(level_max=level_max)
        steps = []

        def f(n):
            steps.append(np.min(n.h))
            return g(n.x)

        try:
            ref = _level_by_level(f, cfg, 1e-10)
        except QuadratureNonConvergence as exc:
            ref = exc
        steps.clear()
        if isinstance(ref, QuadratureNonConvergence):
            with pytest.raises(QuadratureNonConvergence) as exc:
                _refine(f, cfg, 1e-10)
            assert exc.value.level == ref.level == level_max
            assert _close(exc.value.value, ref.value)
            assert (exc.value.err_est == ref.err_est == math.inf
                    if level_max < 3 else _close(exc.value.err_est,
                                                 ref.err_est))
        else:
            value, _, nodes = _refine(f, cfg, 1e-10)
            assert nodes == ref[2]
            assert _close(value, ref[0])
        assert steps == [2.0 ** -level_max]

    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_block_tables_are_read_only(self, top):
        nodes, starts = _block_nodes(top)
        for arr in (*nodes, starts):
            assert not arr.flags.writeable
        # each node carries its own level's step
        for level, start in enumerate(starts):
            assert nodes.h[start] == 2.0 ** -level
            assert np.array_equal(nodes.x[start:start + len(
                _level_nodes(level).x)], _level_nodes(level).x)


class TestSingleD:
    def test_d0_is_one_over_u(self):
        for u in (0.5, 1.0, 2.0):
            a = integrate_single_d(0, u)
            assert abs(a.value - 1.0 / u) < 1e-12

    def test_d1_u1_is_gamma(self):
        a = integrate_single_d(1, 1.0)
        assert abs(a.value - euler_gamma()) < 1e-12

    def test_d3_u1_glaisher_constant(self):
        ref = -3.0 / 8.0 + 0.25 * LOG_2PI + log_bendersky(1)
        a = integrate_single_d(3, 1.0)
        assert abs(a.value - ref) < 1e-11

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            integrate_single_d(-1, 1.0)
        with pytest.raises(ValueError):
            integrate_single_d(1, 0.0)
        with pytest.raises(ValueError):
            integrate_single_d(1.5, 1.0)

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", range(0, 4))
    def test_closed_form_match(self, d, u):
        # index shift: the single integral with index d+1 gives log z_d
        q = integrate_single_d(d + 1, u)
        c = log_z_closed(d, u)
        assert abs(q.value - c.value) < 1e-8


def bracket_series_exact(d: int, nterms: int) -> list[float]:
    """beta_j summed in exact rationals, each rounded once to a float."""
    coeffs = []
    for j in range(nterms):
        acc = Fraction(0)
        for m in range(1, d + 1):
            n = d + 1 + j - m
            acc += Fraction((-1) ** (n - 1), m) * bernoulli_second(n)
        coeffs.append(float(acc))
    return coeffs


class TestBracketSeries:
    @pytest.mark.parametrize("d", range(1, 12))
    def test_float_sum_matches_exact_sum(self, d):
        ref = bracket_series_exact(d, 77)
        got = _bracket_series(d, 77)
        for j, r in enumerate(ref):
            assert abs(got[j] - r) <= 1e-15 * abs(r), (j, got[j], r)


class TestDouble:
    def test_alpha0_u2(self):
        a = integrate_double(0.0, 2.0)
        assert abs(a.value - 0.5) < 1e-10

    def test_alpha1_u1_gamma(self):
        a = integrate_double(1.0, 1.0)
        assert abs(a.value - euler_gamma()) < 1e-10

    def test_alpha2_u1(self):
        a = integrate_double(2.0, 1.0)
        assert abs(a.value - (-0.5 + 0.5 * LOG_2PI)) < 1e-10

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_chain_equality_with_single(self, d, u):
        dd = integrate_double(float(d), u)
        ss = integrate_single_d(d, u)
        assert abs(dd.value - ss.value) < 1e-6

    def test_alpha_monotone_decreasing_u1(self):
        vals = [integrate_double(a, 1.0).value for a in np.arange(0, 3.01, 0.5)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            integrate_double(-1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_double(1.0, -2.0)

    def test_outer_block_is_one_inner_pass_near_u_045(self):
        # the rows of all four outer block levels share one inner pass; its
        # extreme level-0 rows stop at round-off long before the inner
        # depths where (pq)^(u-1) overflows, so the pass converges here
        alpha, u = 2.4234451881690724, 0.45046872250034004
        d = integrate_double(alpha, u)
        p = integrate_prelim(alpha, u)
        assert d.terms_used == 97
        assert abs(d.value - p.value) <= d.err_est + p.err_est

    def test_small_u_is_never_a_domain_error(self):
        # at small u the inner pass overflows to inf at deep nodes; that is a
        # numeric failure (CLI exit 1), not a ValueError (CLI exit 2)
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            try:
                a = integrate_double(1.0, 0.1)
            except QuadratureNonConvergence:
                a = None
        assert a is None or math.isfinite(a.value)


class TestDoubleMatchesAllRowsPasses:
    """integrate_double against the same integral refined the way it was
    before its inner rows stopped on their own: every inner row until the
    slowest meets tol, and one inner pass per outer level (one pass over
    the whole outer block would overflow at u = 0.45)."""

    @pytest.mark.parametrize("alpha,u", [
        (1.0, 1.0), (3.0, 0.5), (6.0, 2.0), (11.0, 10.0), (31.0, 5.0),
        (2.4234451881690724, 0.45046872250034004)])
    def test_values_within_1e14(self, alpha, u, monkeypatch):
        got = integrate_double(alpha, u).value

        def one_pass_per_level(f, cfg):
            return tanh_sinh_01(
                lambda p: np.concatenate([f(run) for run in _split_levels(p)]),
                cfg)

        monkeypatch.setattr(quad, "_refine", _all_rows_refine)
        monkeypatch.setattr(quad, "tanh_sinh_01", one_pass_per_level)
        ref = integrate_double(alpha, u).value
        assert abs(got - ref) <= 1e-14 * abs(ref)


class TestPrelim:
    def test_alpha0_u1(self):
        a = integrate_prelim(0.0, 1.0)
        assert abs(a.value - 1.0) < 1e-11

    @pytest.mark.parametrize("alpha,u", [(0.5, 1.0), (1.5, 2.0), (0.25, 0.7),
                                         (2.5, 1.3)])
    def test_agrees_with_double(self, alpha, u):
        p = integrate_prelim(alpha, u)
        d = integrate_double(alpha, u)
        assert abs(p.value - d.value) < 1e-10

    def test_agrees_with_direct_series(self):
        # integrand index 3/2 computes log z_{1/2}(2)
        p = integrate_prelim(1.5, 2.0)
        s = log_z_direct(EvalParams(0.5, 2.0))
        assert abs(p.value - s.value) < max(1e-6, p.err_est + s.err_est)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            integrate_prelim(-1.0, 1.0)


class TestElementaryHalf:
    def test_value_against_product_oracle(self):
        # oracle: truncated sum of log t_n / (2n+1) with its analytic-model
        # tail; quadrature and oracle must agree under the 1x normalization
        e = integrate_elementary_half()
        sweep = log_tn_sweep(1.0, 20000)
        ns = np.arange(1, 20001)
        partial = float(np.sum(sweep[1:] / (2.0 * ns + 1.0)))
        assert abs(e.value - partial) < 1e-4

    def test_factor_two_against_prelim(self):
        # the product with exponents 1/(2n+1) is the square root of the
        # alpha = 1/2 product: 2 * elementary = prelim(1/2, 1)
        e = integrate_elementary_half()
        p = integrate_prelim(0.5, 1.0)
        assert abs(2.0 * e.value - p.value) < 1e-10

    def test_integrand_limit_at_one_is_finite(self):
        # the series branch at eps -> 0 tends to 1/3
        from zetaprod.quad import DEFAULT_QUAD
        e = integrate_elementary_half(DEFAULT_QUAD)
        assert math.isfinite(e.value)
        assert e.value > 0


class TestRefinement:
    @pytest.mark.parametrize("make", [
        lambda cfg: integrate_single_d(2, 0.7, cfg),
        lambda cfg: integrate_double(1.5, 0.7, cfg),
        lambda cfg: integrate_prelim(0.5, 1.0, cfg),
        lambda cfg: integrate_elementary_half(cfg),
    ])
    def test_deeper_level_changes_less_than_err_est(self, make):
        a = make(QuadConfig(level_max=8))
        b = make(QuadConfig(level_max=9))
        assert abs(a.value - b.value) <= a.err_est

