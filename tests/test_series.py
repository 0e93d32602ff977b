import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetaprod.hurwitz import digamma, euler_gamma, hurwitz_zeta
from zetaprod.rstirling import row_by_gf
from zetaprod.series import (ALTERNATING_MAX_N, Approximation,
                             DifferenceMethod, EvalParams,
                             finite_bernoulli_identity_sides,
                             functional_eq_residual, inner_diff_exact,
                             resummed_power_partial, log_tn, log_z_direct,
                             s_alpha_truncated)
from zetaprod import series
from zetaprod.series import (_beta_tail, _frullani_sweep, _halfline_nodes,
                             _head_terms, _inner_differences, log_tn_sweep)

ALT = DifferenceMethod.ALTERNATING
FRU = DifferenceMethod.FRULLANI


class TestEvalParams:
    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            EvalParams(0.0, 0.0)

    def test_forbidden_alphas(self):
        EvalParams(-1.0, 1.0).require_product_valid()  # allowed for products
        with pytest.raises(ValueError):
            EvalParams(-2.0, 1.0).require_product_valid()
        with pytest.raises(ValueError):
            EvalParams(-1.0, 1.0).require_s_alpha_valid()
        EvalParams(-0.5, 1.0).require_s_alpha_valid()


class TestApproximation:
    def test_validates_terms_used(self):
        Approximation(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            Approximation(1.0, 0.0, 0)

    def test_validates_err(self):
        with pytest.raises(ValueError):
            Approximation(1.0, -1.0, 1)


class TestLogTn:
    def test_first_factor(self):
        # t_1(1) = 2^1/1^1
        assert abs(log_tn(1, 1.0, ALT) - math.log(2.0)) < 1e-14

    def test_second_factor(self):
        # t_2(1) = 2^2/(1*3)
        assert abs(log_tn(2, 1.0, ALT) - math.log(4.0 / 3.0)) < 1e-14

    def test_n0_inverse(self):
        # t_0(u) = u^-1
        assert log_tn(0, math.e) == pytest.approx(-1.0, abs=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            log_tn(-1, 1.0)
        with pytest.raises(ValueError):
            log_tn(2, 0.0)
        with pytest.raises(ValueError):
            log_tn(ALTERNATING_MAX_N + 1, 1.0, ALT)

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_mode_agreement(self, u):
        for n in range(1, 31):
            a = log_tn(n, u, ALT)
            q = log_tn(n, u, FRU)
            assert abs(a - q) < 1e-8, (n, u, a - q)

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_positive_for_all_orders(self, u):
        # every factor satisfies t_n(u) >= 1 ... log t_n > 0 (n >= 1)
        sweep = log_tn_sweep(u, 200)
        assert np.all(sweep[1:] > 0)

    def test_sweep_matches_pointwise(self):
        sweep = log_tn_sweep(0.7, 50)
        for n in (1, 7, 23, 50):
            assert abs(sweep[n] - log_tn(n, 0.7, FRU)) < 1e-13

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_monotone_tail_window(self, u):
        # |log t_n| * n^u is bounded and slowly varying over n in [50, 500]
        sweep = log_tn_sweep(u, 500)
        ns = np.arange(50, 501)
        scaled = sweep[50:] * ns ** u
        assert float(scaled.max() / scaled.min()) < 2.0


def _dec50(x):
    fr = Fraction(x)
    return Decimal(fr.numerator) / Decimal(fr.denominator)


def literal_inner_diff(n, s, u):
    """D_n(s,u) as one literal 50-digit decimal sum, its powers its own."""
    with localcontext() as ctx:
        ctx.prec = 50
        uu, e = _dec50(u), Decimal(1) - _dec50(s)
        total = Decimal(0)
        for k in range(n + 1):
            term = Decimal(math.comb(n, k)) * (uu + k) ** e
            total += -term if k % 2 == 1 else term
        return float(total)


def literal_log_tn(n, u):
    """log t_n(u) as one literal 50-digit decimal sum, its logs its own."""
    with localcontext() as ctx:
        ctx.prec = 50
        uu = _dec50(u)
        total = Decimal(0)
        for k in range(n + 1):
            term = Decimal(math.comb(n, k)) * (uu + k).ln()
            total += term if k % 2 == 1 else -term
        return float(total)


GRID_U = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

# (s, u, relative bound on every entry n = 0..40); a bound of 0 asks for
# equality.  Each s < 1 puts an entry at n + s - 1 just above 1, the first
# n the quadrature serves.  Near s = -2, -3 and -4, 1/Gamma(s-1) nears a
# zero, hence the wider bound.
INNER_DIFF_CASES = (
    [(-1.0, 1.5, 0.0)]
    + [(s, u, 4e-15) for s, u in [(1.5, 0.05), (2.3, 0.7), (3.0, 10.0),
                                  (0.5, 2.0)]]
    + [(s, u, 4e-15) for s in (0.6, -2.9) for u in GRID_U]
    + [(s, u, 3e-14) for s in (-1.97, -3.03, -3.97) for u in GRID_U])


def literal_inner_diffs(s, u, ns, dps=300):
    """D_n(s,u) for each n in ns as literal sums at dps digits.

    50 digits are too few far below s = 0: at s = -40.5, n = 103, u = 10
    the largest term is 2e81 times |D_n|.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        e = 1 - mpmath.mpf(s)
        f = [mpmath.power(mpmath.mpf(u) + k, e) for k in range(max(ns) + 1)]
        return [float(mpmath.fsum((-1) ** k * math.comb(n, k) * f[k]
                                  for k in range(n + 1))) for n in ns]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInnerDifferencesAtEveryS:
    """One rule serves every real s: the sweep's coefficient stays finite
    far below s = 0, and 1/Gamma(s-1) keeps its accuracy next to the poles
    of Gamma at s = 0 and s = -1."""

    @pytest.mark.parametrize("s,bound", [(-12.7, 1e-14), (-20.5, 1e-14),
                                         (-40.5, 1e-14), (1e-9, 4e-15),
                                         (-1.0 + 1e-6, 4e-15),
                                         (-1.0 - 1e-6, 4e-15)])
    @pytest.mark.parametrize("u", GRID_U)
    def test_swept_entries_against_300_digits(self, s, bound, u):
        n_q = max(2, math.ceil(2.0 - s))
        ns = [n_q, n_q + 10, n_q + 60]
        got = _inner_differences(s, u, ns[-1])[ns]
        want = np.array(literal_inner_diffs(s, u, ns))
        assert np.all(np.abs(got - want) <= bound * np.abs(want)), (got, want)

    @pytest.mark.parametrize("s", [-60.3, -80.3])
    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_exact_head_below_s_minus_60(self, s, u):
        # the head's precision grows with 1-s; a fixed 50 digits is 4.2e-12
        # off at (s, u) = (-60.3, 10) and 0.13 off at (-80.3, 10)
        ns = list(range(math.ceil(2.0 - s)))
        got = _inner_differences(s, u, ns[-1])
        want = np.array(literal_inner_diffs(s, u, ns, dps=400))
        assert np.all(np.abs(got - want) <= 2.2e-16 * np.abs(want)), (s, u)

    @pytest.mark.parametrize("s", [1.0, 1.0 + 1e-7, 1.25, 1.5, 2.0 - 1e-7, 2.0,
                                   2.0 + 1e-7, 2.5, 2.9, 3.0, 4.5, 7.0, 12.5,
                                   20.0])
    @pytest.mark.parametrize("u", GRID_U)
    def test_low_orders_from_the_sweep_against_80_digits(self, s, u):
        # the sweep serves D_0 from s = 2 and D_1 from s = 1 on; at s = 1
        # every D_n past n = 0 is an exact 0
        ns = [0, 1, 2, 3, 10, 60]
        got = _inner_differences(s, u, ns[-1])[ns]
        want = np.array(literal_inner_diffs(s, u, ns, dps=80))
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want)), (got, want)

    @pytest.mark.parametrize("s", [2.0, 2.5, 7.0])
    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_empty_exact_head(self, s, u):
        # n_q = 0: D_0 = u^(1-s) is the sweep's only entry
        got = _inner_differences(s, u, 0)
        assert got.shape == (1,)
        assert abs(got[0] - u ** (1.0 - s)) <= 2e-15 * u ** (1.0 - s)

    @pytest.mark.parametrize("u", GRID_U)
    def test_terminating_power_past_40(self, u):
        # 1-s = 46: exact sums up to n = 46, exact zeros beyond
        got = _inner_differences(-45.0, u, 100)
        want = [float(inner_diff_exact(n, 46, Fraction(u))) for n in range(101)]
        assert got.tolist() == want


class TestSharedAlternatingSums:
    """log_tn(..., ALTERNATING) equals the literal per-n sums bit for bit,
    and so does D_n where it terminates (integer s <= 1).  Elsewhere D_n
    takes every n with n + s - 1 >= 1 from the quadrature sweep, and each
    entry is within a stated relative bound of the literal sum."""

    @pytest.mark.parametrize("s,u,bound", [
        pytest.param(s, u, bound, id=f"{s}-{u}")
        for s, u, bound in INNER_DIFF_CASES])
    def test_inner_differences(self, s, u, bound):
        got = _inner_differences(s, u, ALTERNATING_MAX_N)
        want = np.array([literal_inner_diff(n, s, u)
                         for n in range(ALTERNATING_MAX_N + 1)])
        err = np.abs(got - want)
        assert np.all(err <= bound * np.abs(want)), (s, u, np.argmax(err))

    @pytest.mark.parametrize("u", [0.05, 1.0, 7.3])
    def test_log_tn(self, u):
        got = [log_tn(n, u, ALT) for n in range(1, ALTERNATING_MAX_N + 1)]
        want = [literal_log_tn(n, u) for n in range(1, ALTERNATING_MAX_N + 1)]
        assert got == want


def fraction_alternating_sums(f):
    """sum_k (-1)^k C(n,k) f[k] for every n, exactly, then rounded once."""
    fr = [Fraction(x) for x in f]
    return [float(sum((-1) ** k * math.comb(n, k) * fr[k]
                      for k in range(n + 1))) for n in range(len(f))]


def _decimal_list(seed, exponents):
    """41 random 50-digit decimals, each exponent drawn from exponents."""
    rng = random.Random(seed)
    return [Decimal(rng.choice((-1, 1)) * rng.randrange(10 ** 49, 10 ** 50))
            .scaleb(rng.choice(exponents)) for _ in range(41)]


def _last_digit_list(seed):
    """1 plus a random last (50th) digit: every sum past n = 0 lives there."""
    rng = random.Random(seed)
    return [Decimal(1) + Decimal(rng.randrange(10)).scaleb(-49)
            for _ in range(41)]


ALTERNATING_LISTS = {
    "fine": lambda: _decimal_list(1, range(-60, -40)),
    "mixed": lambda: _decimal_list(2, range(-90, 10)),
    "zeros-tail": lambda: _decimal_list(3, [-49])[:20] + [Decimal(0)] * 21,
    "zeros-head": lambda: ([Decimal(0), Decimal("0E-70"), Decimal("-0")]
                           + _decimal_list(4, [-5])[3:]),
    "huge": lambda: _decimal_list(5, range(1, 30)),         # P = 0
    "integers": lambda: [Decimal(10) ** 60] + [Decimal(k) for k in range(1, 41)],
    "last-digit-6": lambda: _last_digit_list(6),
    "last-digit-7": lambda: _last_digit_list(7),
}


class TestExactAlternatingSums:
    """_alternating_sums is the exact sum over its 50-digit inputs,
    correctly rounded to a float."""

    @pytest.mark.parametrize("name", ALTERNATING_LISTS)
    def test_equals_the_fraction_sum(self, name):
        with localcontext() as ctx:
            ctx.prec = 50
            f = ALTERNATING_LISTS[name]()
            got = series._alternating_sums(f)
        assert got == fraction_alternating_sums(f)

    def test_overflow_is_signed_inf(self):
        f = [Decimal("1E+400"), Decimal("3E+400"), Decimal(0)]
        with localcontext() as ctx:
            ctx.prec = 50
            assert series._alternating_sums(f) == [math.inf, -math.inf, -math.inf]


class TestMedian:
    """series._median is np.median without its numpy.ma import."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9000, 9001])
    def test_equals_np_median(self, n):
        rng = np.random.default_rng(n)
        for a in (rng.standard_normal(n), rng.integers(0, 3, n) * 1.0,
                  np.exp(50 * rng.standard_normal(n))):
            assert series._median(a) == float(np.median(a))

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_nan_window(self, n):
        a = np.arange(n, dtype=float)
        a[n // 2] = np.nan
        assert math.isnan(series._median(a)) and math.isnan(np.median(a))

    def test_log_z_direct_leaves_numpy_ma_unimported(self):
        code = ("import sys\n"
                "from zetaprod.series import (EvalParams, log_z_direct,\n"
                "                             s_alpha_truncated)\n"
                "log_z_direct(EvalParams(0.5, 0.7))\n"
                "s_alpha_truncated(EvalParams(0.5, 0.7, s=2.5), 500)\n"
                "print('numpy.ma' in sys.modules)\n")
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _node_sum_reference(base, c, ns):
    """sum_j c_j base_j^n at 40 digits, from the same float nodes."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b = [mpmath.mpf(float(x)) for x in base]
        cc = [mpmath.mpf(float(x)) for x in c]
        return [mpmath.fsum(cj * bj ** n for bj, cj in zip(b, cc))
                for n in ns]


def _frullani_nodes(u, s, n_lo, n_hi):
    """1-e^-t and the kernel's coefficient, with (1-e^-t)^n_lo folded in."""
    t, w = _halfline_nodes(u, n_hi, s)
    base = -np.expm1(-t)
    return base, np.exp(np.log(w) - u * t + (s - 2.0) * np.log(t)
                        + n_lo * np.log(base))


def loop_frullani_sweep(u, s, n_lo, n_hi):
    """The per-n loop the matrix-product sweep replaced."""
    base, c = _frullani_nodes(u, s, n_lo, n_hi)
    out = np.empty(n_hi - n_lo + 1)
    p = np.ones_like(base)
    for i in range(n_hi - n_lo + 1):
        out[i] = float(np.dot(p, c))
        p *= base
    return out


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestPowerSumKernel:
    """One matrix product of np.power tables forms sum_j c_j base_j^n for a
    whole range of n; n = n_lo + jK + i with K = isqrt(count), so the
    entries around n - n_lo = K are where the two tables hand over."""

    @pytest.mark.parametrize("n_max", [1, 2, 3, 41, 100, 101, 10000, 10001])
    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_log_tn_sweep_against_40_digits(self, u, n_max):
        K = math.isqrt(n_max)
        ns = sorted({n for n in (K - 1, K, K + 1, n_max) if 1 <= n <= n_max})
        want = _node_sum_reference(*_frullani_nodes(u, 1.0, 1, n_max),
                                   [n - 1 for n in ns])
        got = log_tn_sweep(u, n_max)
        for n, w in zip(ns, want):
            assert abs(got[n] - w) <= 2e-15 * abs(w), (n, got[n], w)

    @pytest.mark.parametrize("s,n_lo", [
        (s, n_lo) for s in (0.5, 1.5, 2.3, 3.0) for n_lo in (0, 1, 2, 41)
        if n_lo + s - 1.0 >= 1.0])
    def test_inner_diff_sweep_against_40_digits(self, s, n_lo):
        u, n_hi = 0.7, 500
        K = math.isqrt(n_hi - n_lo + 1)
        offsets = (0, K - 1, K, K + 1, n_hi - n_lo)
        want = _node_sum_reference(*_frullani_nodes(u, s, n_lo, n_hi),
                                   offsets)
        got = _frullani_sweep(u, s, n_lo, n_hi)
        for i, w in zip(offsets, want):
            assert abs(got[i] - w) <= 2e-15 * abs(w), (i, s)

    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_log_tn_sweep_matches_the_loop(self, u):
        got = log_tn_sweep(u, 10000)
        want = loop_frullani_sweep(u, 1.0, 1, 10000)
        assert got[0] == -math.log(u)
        assert _max_rel(got[1:], want) <= 1e-14

    @pytest.mark.parametrize("s,u,n_lo", [
        (s, u, n_lo) for s, u in [(0.5, 0.05), (1.5, 0.7), (2.3, 2.0),
                                  (3.0, 10.0)]
        for n_lo in (0, 1, 2, 41) if n_lo + s - 1.0 >= 1.0])
    def test_inner_diff_sweep_matches_the_loop(self, s, u, n_lo):
        got = _frullani_sweep(u, s, n_lo, 500)
        want = loop_frullani_sweep(u, s, n_lo, 500)
        assert _max_rel(got, want) <= 1e-14


class TestSAlphaTruncated:
    def test_terminating_positive_integer_power(self):
        # 1-s = 1: inner sums vanish for n > 1, so any N >= 2 gives the
        # exact finite value
        a = s_alpha_truncated(EvalParams(0.0, 1.0, s=0.0), 50)
        b = s_alpha_truncated(EvalParams(0.0, 1.0, s=0.0), 2)
        assert a.value == pytest.approx(b.value, abs=1e-14)
        assert a.err_est < 1e-12

    def test_normalization_to_zeta(self):
        # S_0(s, u) approaches (s-1) zeta(s, u); at s = 3, u = 1 the target
        # is 2 zeta(3), reached slowly (terms ~ log n / n^2)
        a = s_alpha_truncated(EvalParams(0.0, 1.0, s=3.0), 400)
        ref = 2.0 * hurwitz_zeta(3.0, 1.0).value
        assert abs(a.value - ref) <= a.err_est * 1.5
        assert abs(a.value - ref) < 2e-2

    def test_functional_equation_point(self):
        # finite value at a fractional shift; cross-checked via the shift
        # identity in TestFunctionalEquation
        a = s_alpha_truncated(EvalParams(0.5, 1.0, s=2.0), 500)
        assert math.isfinite(a.value)
        assert a.err_est < 1e-2

    def test_rejects_forbidden_alpha(self):
        with pytest.raises(ValueError):
            s_alpha_truncated(EvalParams(-1.0, 1.0, s=2.0), 10)

    @pytest.mark.parametrize("s,N", [
        *(pytest.param(s, 100, id=str(s)) for s in (-5.0, -10.0, -20.0, -39.0)),
        (-5.0, 3), (-10.0, 5), (-20.0, 10)])
    def test_terminating_err_est_covers_the_cancellation(self, s, N):
        # at s = -39 the exact terms reach 1.4e52 against a sum of -3.8e16,
        # so the float sum is off by far more than 1e-15 (1 + |value|).
        # Before the sum ends (N < 1-s) err_est adds the terms N+1..1-s; a
        # decay law fitted to [N/10, N] missed them by 3.4e3x at
        # (s, N) = (-10, 5) and 8.9e5x at (-20, 10)
        m = int(1.0 - s)
        exact = sum(inner_diff_exact(n, m, Fraction(1)) / (n + Fraction(3, 2))
                    for n in range(m + 1))
        a = s_alpha_truncated(EvalParams(0.5, 1.0, s=s), N)
        assert abs(a.value - float(exact)) <= a.err_est

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("s", [-0.5, -2.5, -5.0, -10.5, -20.5])
    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_err_est_covers_before_the_peak(self, d, s, u):
        # before |D_n| peaks near n = 1-s the terms still grow; against the
        # full S_d a decay law fitted to [N/10, N] under-reported by 4.1e8x
        # at (d, s, u, N) = (0, -20.5, 0.05, 3)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            uq = Fraction(u)
            U = mpmath.mpf(uq.numerator) / uq.denominator
            row = row_by_gf(d, 1 - uq).coeffs
            full = sum(mpmath.mpf(c.numerator) / c.denominator
                       * (s - k - 1) * mpmath.zeta(s - k, U)
                       for k, c in enumerate(row)) / math.factorial(d)
            for N in (1, 3, 10):
                a = s_alpha_truncated(EvalParams(float(d), u, s=s), N)
                assert abs(mpmath.mpf(a.value) - full) <= a.err_est, N

    @pytest.mark.parametrize("s,entries", [(2.0, 0), (2.5, 0), (3.0, 0),
                                           (1.0, 1), (1.5, 1), (1.9, 1)])
    def test_decimal_serves_only_what_the_sweep_cannot(self, monkeypatch, s,
                                                       entries):
        # the benchmark's box: past D_0 (and from s = 2 on, D_0 too) every
        # D_n comes from the sweep, so at most one Decimal power is taken
        taken = []
        real = series._inner_diff_alternating

        def counting(n_max, s_, u_):
            out = real(n_max, s_, u_)
            taken.append(len(out))
            return out

        monkeypatch.setattr(series, "_inner_diff_alternating", counting)
        for u in (0.05, 1.0, 10.0):
            taken.clear()
            s_alpha_truncated(EvalParams(0.5, u, s=s), 500)
            assert sum(taken) == entries, (s, u, taken)

    def test_s_equal_one_is_exact(self):
        # N = 500 runs past the alternating sums' cap
        for N in (10, 500):
            a = s_alpha_truncated(EvalParams(0.5, 2.0, s=1.0), N)
            assert a.value == pytest.approx(1.0 / 1.5, abs=1e-15)


class TestInnerSumAnnihilation:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
    def test_exact_zero_beyond_power(self, m, u):
        for n in range(m + 1, 21):
            assert inner_diff_exact(n, m, u) == 0

    def test_nonzero_at_power(self):
        assert inner_diff_exact(2, 2, Fraction(1)) == 2  # 1 - 2*4 + 9

    def test_terminating_entries_are_exact_zeros(self):
        # 1-s = 4: D_n(-3, u) = 0 for n >= 5
        got = _inner_differences(-3.0, 0.065, ALTERNATING_MAX_N)
        assert got[5:].tolist() == [0.0] * (ALTERNATING_MAX_N - 4)
        assert got[4] != 0.0


class TestLogZDirect:
    def test_alpha_minus_one_is_one_over_u(self):
        # log z_{-1}(u) = 1/u
        for u in (0.5, 1.0, 3.0):
            a = log_z_direct(EvalParams(-1.0, u))
            assert abs(a.value - 1.0 / u) <= a.err_est

    def test_alpha_zero_is_gamma(self):
        a = log_z_direct(EvalParams(0.0, 1.0))
        assert abs(a.value - euler_gamma()) <= a.err_est

    def test_alpha_one_constant(self):
        ref = -0.5 + 0.5 * math.log(2.0 * math.pi)
        a = log_z_direct(EvalParams(1.0, 1.0))
        assert abs(a.value - ref) <= a.err_est

    def test_rejects_forbidden_alpha(self):
        with pytest.raises(ValueError):
            log_z_direct(EvalParams(-2.0, 1.0))

    def test_alternating_cap(self):
        # the first 40 terms at alpha = 0, u = 1 by the sweep the route
        # sums and by the literal sums
        ns = np.arange(1, ALTERNATING_MAX_N + 1)
        sweep = log_tn_sweep(1.0, ALTERNATING_MAX_N)[1:]
        alt = np.array([log_tn(n, 1.0, ALT) for n in ns])
        assert abs(math.fsum(sweep / (ns + 1.0))
                   - math.fsum(alt / (ns + 1.0))) < 1e-12


class TestExactTail:
    """The whole series: _head_terms(alpha+1) explicit terms plus the
    tail from log t_n(u) = int_0^inf B(u+v, n+1) dv."""

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.5, 10.0, 49.5])
    @pytest.mark.parametrize("u", [0.05, 1.0, 10.0])
    def test_tail_difference_is_the_explicit_block(self, alpha, u):
        # tail after H terms - tail after 2H terms = terms H+1..2H
        a1 = alpha + 1.0
        H = _head_terms(a1)
        t_h, e_h = _beta_tail(u, a1, H + 1)
        t_2h, e_2h = _beta_tail(u, a1, 2 * H + 1)
        logt = log_tn_sweep(u, 2 * H)
        block = math.fsum(logt[H + 1:] / (np.arange(H + 1, 2 * H + 1) + a1))
        assert abs((t_h - t_2h) - block) <= e_h + e_2h

    def test_needs_no_closed_form_machinery(self, monkeypatch):
        from zetaprod import closedform, hurwitz

        def refuse(*args, **kwargs):
            raise AssertionError("the series route called the closed form")

        for mod in (hurwitz, closedform):
            for name, obj in vars(mod).items():
                own = getattr(obj, "__module__", None) == mod.__name__
                if own and callable(obj):
                    monkeypatch.setattr(mod, name, refuse)
        a = log_z_direct(EvalParams(2.0, 0.5))
        assert math.isfinite(a.value) and a.terms_used == 200

    @pytest.mark.parametrize("alpha,H", [(0.0, 200), (24.0, 200), (24.5, 204),
                                         (-30.5, 236), (50.0, 408)])
    def test_head_is_capped_by_N(self, alpha, H):
        assert _head_terms(alpha + 1.0) == H
        p = EvalParams(alpha, 0.7)
        a = log_z_direct(p)
        assert a.terms_used == H
        assert log_z_direct(p, H) == a
        assert log_z_direct(p, 10000, FRU, True) == a
        with pytest.raises(ValueError, match=f"series head is {H} terms"):
            log_z_direct(p, H - 1)

    def test_alternating_method_declines(self):
        # so does the raw partial sum, tightened=False
        for args in ((10000, ALT, True), (10000, FRU, False)):
            with pytest.raises(ValueError, match="only the whole series"):
                log_z_direct(EvalParams(0.0, 1.0), *args)

    @pytest.mark.parametrize("u", [0.05, 0.1, 0.5])
    def test_small_u_within_err_est(self, u):
        # log z_0(u) = log u - digamma(u)
        ref = math.log(u) - digamma(u)
        a = log_z_direct(EvalParams(0.0, u))
        assert abs(a.value - ref) <= a.err_est
        assert a.err_est < 1e-12

    @pytest.mark.parametrize("u", [1e-16, 1e-20, 3e-25])
    def test_tiny_u_is_finite_within_err_est(self, u):
        # the tail's Euler-Maclaurin denominator p - 1 = u + v + m must keep
        # u + v where 1 + u + v rounds to 1
        ref = math.log(u) - digamma(u)
        a = log_z_direct(EvalParams(0.0, u))
        assert math.isfinite(a.value) and math.isfinite(a.err_est)
        assert abs(a.value - ref) <= a.err_est

    @pytest.mark.parametrize("alpha", [0.0, 40.0])
    @pytest.mark.parametrize("u", [2e-25, 1e-30, 1e-300])
    def test_u_below_the_tail_nodes_raises(self, alpha, u):
        # below the exp-sinh rule's smallest node the tail misses Gamma's
        # 1/u peak: 1e-30 summed to 1.5e25 with err_est 1.4e25
        p = EvalParams(alpha, u)
        with pytest.raises(ValueError, match="smallest node"):
            log_z_direct(p)


class TestResummedPowerSum:
    def test_s_equal_one_trivial(self):
        # (k+u+1)^0 terms: only n = 0 contributes, partial sum is 1 = u^0
        for N in (0, 5, 50):
            assert resummed_power_partial(1.0, 2.7, N) == pytest.approx(1.0,
                                                                    abs=1e-15)

    def test_terminating_power(self):
        # s = 0, u = 2: inner sums vanish for n > 1; partial sum hits u
        # exactly from N = 1 on
        assert resummed_power_partial(0.0, 2.0, 1) == pytest.approx(2.0, abs=1e-12)
        assert resummed_power_partial(0.0, 2.0, 40) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("s", [2.0, 2.5, 7.0])
    def test_n0_with_an_empty_exact_head(self, s):
        want = 3.7 ** (1.0 - s)     # D_0(s, 3.7)
        assert abs(resummed_power_partial(s, 2.7, 0) - want) <= 2e-15 * want

    def test_convergence_s3(self):
        # terms decay like log n / n^2: error ~ H_N / N
        p300 = resummed_power_partial(3.0, 1.0, 300)
        p600 = resummed_power_partial(3.0, 1.0, 600)
        assert abs(p600 - 1.0) < abs(p300 - 1.0)
        assert abs(p300 - 1.0) < 2.2e-2

    def test_convergence_s25_u2(self):
        p = resummed_power_partial(2.5, 2.0, 300)
        assert abs(p - 2.0 ** -1.5) < 1e-4

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            resummed_power_partial(2.0, 0.0, 10)


class TestFunctionalEquation:
    def test_terminating_case_is_rounding_level(self):
        r = functional_eq_residual(EvalParams(1.0, 1.0, s=0.0), 10)
        assert abs(r) < 1e-13

    @pytest.mark.parametrize("a,s,u", [(0.5, 2.0, 1.0), (2.0, 1.5, 0.5),
                                       (1.5, 3.0, 2.0)])
    def test_residual_decreases(self, a, s, u):
        r1 = functional_eq_residual(EvalParams(a, u, s=s), 500)
        r2 = functional_eq_residual(EvalParams(a, u, s=s), 1000)
        assert abs(r2) < abs(r1)

    def test_matched_truncation_is_resummation_tail(self):
        # the index-matched residual telescopes to the resummation-partial error:
        # residual = L_N(s, u) - u^(1-s), independent of alpha
        for (a, s, u, N) in ((0.5, 2.0, 1.0, 200), (1.5, 3.0, 2.0, 150)):
            r = functional_eq_residual(EvalParams(a, u, s=s), N)
            lem = resummed_power_partial(s, u, N) - u ** (1.0 - s)
            assert abs(r - lem) < 1e-10

    def test_rejects_nonpositive_integer_alpha(self):
        with pytest.raises(ValueError):
            functional_eq_residual(EvalParams(0.0, 1.0, s=2.0), 10)
        with pytest.raises(ValueError):
            functional_eq_residual(EvalParams(-1.0, 1.0, s=2.0), 10)


class TestFiniteBernoulliIdentity:
    @pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
    @pytest.mark.parametrize("d", range(0, 5))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exact_equality(self, m, d, u):
        lhs, rhs = finite_bernoulli_identity_sides(m, d, u)
        assert lhs == rhs  # exact rational equality, zero tolerance

    def test_d0_is_explicit_bernoulli_formula(self):
        # at d = 0 the right side is B_m(u)/1; check against the polynomial
        from zetaprod.exactnum import bernoulli_poly
        u = Fraction(1, 2)
        lhs, rhs = finite_bernoulli_identity_sides(4, 0, u)
        assert rhs == bernoulli_poly(4)(u)
        assert lhs == rhs

    @given(st.integers(1, 6), st.integers(0, 3),
           st.fractions(min_value="1/12", max_value=6, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_exact_equality_random_rational_u(self, m, d, u):
        lhs, rhs = finite_bernoulli_identity_sides(m, d, u)
        assert lhs == rhs


class TestModeAgreementProperty:
    @given(st.integers(1, 30),
           st.floats(min_value=0.1, max_value=5.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_log_tn_modes_agree(self, n, u):
        a = log_tn(n, u, ALT)
        q = log_tn(n, u, FRU)
        assert abs(a - q) < 1e-8
