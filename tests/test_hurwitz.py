import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetaprod.exactnum import bernoulli_number, bernoulli_poly
from zetaprod import hurwitz
from zetaprod.hurwitz import (agm, digamma, euler_gamma, hurwitz_zeta,
                              hurwitz_zeta_deriv, log_bendersky, log_gamma)

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def gamma_by_limit_oracle(N: int = 200) -> float:
    """Euler's constant from its limit definition, accelerated by the
    classical correction terms (independent of the library's digamma)."""
    h = math.fsum(1.0 / n for n in range(1, N + 1))
    return h - math.log(N) - 1.0 / (2 * N) + 1.0 / (12 * N ** 2) \
        - 1.0 / (120 * N ** 4)


def zeta_by_direct_sum_oracle(s: float, u: float, N: int = 400000) -> float:
    """Direct summation with an integral tail bound; valid for s > 1."""
    head = math.fsum((k + u) ** -s for k in range(N))
    tail = (N + u) ** (1.0 - s) / (s - 1.0)
    return head + tail


class TestHurwitzZetaValues:
    def test_zero_line(self):
        # zeta(0, u) = 1/2 - u
        assert abs(hurwitz_zeta(0.0, 0.3).value - 0.2) < 1e-13

    def test_negative_one(self):
        # zeta(-1) = -B_2/2 = -1/12
        assert abs(hurwitz_zeta(-1.0, 1.0).value + 1.0 / 12.0) < 1e-13

    def test_basel_vs_direct_sum_oracle(self):
        ref = zeta_by_direct_sum_oracle(2.0, 1.0)
        z = hurwitz_zeta(2.0, 1.0)
        assert abs(z.value - ref) < 1e-11
        assert abs(z.value - 1.6449340668482264) < 1e-12  # frozen from oracle

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -1.5)


class TestHurwitzZetaDeriv:
    def test_deriv_at_zero_u1(self):
        # zeta'(0, u) = log Gamma(u) - log(2 pi)/2; at u = 1 this is
        # -log(2 pi)/2 = -0.9189385332046727
        z = hurwitz_zeta_deriv(0.0, 1.0)
        assert abs(z.deriv + HALF_LOG_2PI) < 1e-12

    def test_deriv_at_zero_u_half(self):
        # log Gamma(1/2) = log(pi)/2, so the identity gives -log(2)/2
        z = hurwitz_zeta_deriv(0.0, 0.5)
        assert abs(z.deriv + 0.5 * math.log(2.0)) < 1e-12

    def test_deriv_at_minus_one(self):
        # 1/12 - zeta'(-1) is the log of the Glaisher-Kinkelin constant;
        # frozen from the Euler-Maclaurin oracle, cross-checked against the
        # direct-sum/limit oracles through the product identities elsewhere
        z = hurwitz_zeta_deriv(-1.0, 1.0)
        assert abs((1.0 / 12.0 - z.deriv) - 0.2487544770337843) < 1e-12


class TestLerchIdentity:
    @pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 1.5, 2.0, 3.7])
    def test_deriv_matches_log_gamma_route(self, u):
        rhs = log_gamma(u) - HALF_LOG_2PI
        # a subnormal s must not overflow the derivative of (s)_m
        for s in (0.0, 1e-320, -1e-320):
            lhs = hurwitz_zeta_deriv(s, u).deriv
            assert abs(lhs - rhs) < 1e-10, s


class TestNegativeIntegerValues:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_bernoulli_polynomial_values(self, k, u):
        # -k zeta(1-k, u) = B_k(u)
        z = hurwitz_zeta(1.0 - k, u)
        ref = -float(bernoulli_poly(k)(Fraction(u))) / k
        assert abs(z.value - ref) < 1e-10


class TestShiftRecurrence:
    @pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 2.0])
    @pytest.mark.parametrize("u", [0.3, 1.0, 2.0])
    def test_recurrence(self, s, u):
        lhs = hurwitz_zeta(s, u).value
        rhs = hurwitz_zeta(s, u + 1.0).value + u ** -s
        assert abs(lhs - rhs) < 1e-11


class TestDigamma:
    def test_at_one_vs_limit_oracle(self):
        g = gamma_by_limit_oracle()
        assert abs(digamma(1.0) + g) < 1e-11
        assert abs(euler_gamma() - 0.5772156649015329) < 1e-13  # frozen

    def test_at_half(self):
        g = euler_gamma()
        assert abs(digamma(0.5) - (-2.0 * math.log(2.0) - g)) < 1e-13

    def test_at_third(self):
        g = euler_gamma()
        ref = -math.pi / (2.0 * math.sqrt(3.0)) - 1.5 * math.log(3.0) - g
        assert abs(digamma(1.0 / 3.0) - ref) < 1e-13

    @pytest.mark.parametrize("u", [0.1, 0.7, 3.0])
    def test_shift_by_one(self, u):
        assert abs(digamma(u + 1.0) - digamma(u) - 1.0 / u) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13

    def test_at_five(self):
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(-2.0)


class TestBendersky:
    def test_k0_is_half_log_two_pi(self):
        assert abs(log_bendersky(0) - HALF_LOG_2PI) < 1e-12

    def test_k1_is_log_glaisher(self):
        # combine the harmonic/zeta form with zeta(-1) = -1/12 and the
        # Euler-Maclaurin derivative; frozen oracle value
        assert abs(log_bendersky(1) - 0.2487544770337843) < 1e-12

    def test_k2_is_zeta3_over_4pi2(self):
        z3 = hurwitz_zeta(3.0, 1.0).value
        assert abs(log_bendersky(2) - z3 / (4.0 * math.pi ** 2)) < 1e-12
        assert abs(log_bendersky(2) - 0.0304484570583933) < 1e-12

    def test_zeta_negative_even_vanish(self):
        # zeta(-2k) = 0 makes the harmonic part drop out for even k
        for k in (2, 4):
            zeta_neg = -float(bernoulli_number(k + 1)) / (k + 1)
            assert zeta_neg == 0.0


class TestAGM:
    def test_fixed_point(self):
        assert agm(3.3, 3.3) == pytest.approx(3.3, abs=1e-15)

    def test_symmetry_and_mean_bounds(self):
        v = agm(1.0, 0.5)
        assert v == agm(0.5, 1.0)
        assert 0.5 < v < 1.0

    def test_gamma_third_reconstruction(self):
        # Gamma(1/3) = 2^(7/9) pi^(2/3) / (3^(1/12) AGM(2, sqrt(2+sqrt 3))^(1/3))
        m = agm(2.0, math.sqrt(2.0 + math.sqrt(3.0)))
        rhs = 2.0 ** (7.0 / 9.0) * math.pi ** (2.0 / 3.0) / (
            3.0 ** (1.0 / 12.0) * m ** (1.0 / 3.0))
        assert abs(math.exp(log_gamma(1.0 / 3.0)) - rhs) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            agm(-1.0, 2.0)


class TestRefinement:
    @pytest.mark.parametrize("s,u", [(2.0, 1.0), (0.5, 0.3), (-2.5, 1.7),
                                     (3.7, 2.2), (-7.3, 0.8)])
    def test_larger_head_changes_less_than_err_est(self, s, u, monkeypatch):
        a = hurwitz_zeta(s, u)
        monkeypatch.setattr(hurwitz, "_EM_N", 60)
        b = hurwitz_zeta(s, u)
        assert abs(a.value - b.value) <= a.err_est


class TestOddRising:
    def test_matches_exact_products(self):
        """(s)_m = prod_l (s+l) and its derivative sum_l prod_{i!=l} (s+i),
        each formed in exact rationals, on s = -49, -48.5, ..., 4 and
        m = 1, 3, ..., 2 _EM_J - 1; a zero factor gives a value of 0."""
        for i in range(107):
            s = -49.0 + 0.5 * i
            got = hurwitz._odd_rising(s, hurwitz._EM_J)
            for j, (rf, drf) in enumerate(got):
                factors = [Fraction(s) + l for l in range(2 * j + 1)]
                value = math.prod(factors)
                terms = [math.prod(factors[:l] + factors[l + 1:])
                         for l in range(len(factors))]
                if value == 0:
                    assert rf == 0.0, (s, j)
                else:
                    rel = abs(Fraction(rf) - value) / abs(value)
                    assert rel <= 2e-15, (s, j)
                bound = 4e-15 * sum(abs(t) for t in terms)
                assert abs(Fraction(drf) - sum(terms)) <= bound, (s, j)


def rising_with_deriv(s: float, m: int) -> tuple[float, float]:
    """(s)_m and d/ds (s)_m rebuilt from l = 0 by the product rule."""
    prod, dprod = 1.0, 0.0
    for l in range(m):
        f = s + l
        prod, dprod = prod * f, dprod * f + prod
    return prod, dprod


def em_eval(s: float, u: float, N: int, J: int, want_deriv: bool):
    """One complete Euler-Maclaurin sum at head length N."""
    head = 0.0
    dhead = 0.0
    head_mag = 0.0
    for k in range(N):
        x = k + u
        lx = math.log(x)
        p = x ** (-s)
        head += p
        head_mag += abs(p)
        if want_deriv:
            dhead -= lx * p
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
    scale = p0 / P
    for j in range(1, J + 1):
        rf, drf = rising_with_deriv(s, 2 * j - 1)
        b = float(bernoulli_number(2 * j)) / math.factorial(2 * j)
        term_v = b * rf * scale
        term_d = b * (drf - rf * lP) * scale if want_deriv else 0.0
        mag = max(abs(term_v), abs(term_d))
        if mag > prev_mag:
            trunc = mag
            break
        value += term_v
        if want_deriv:
            deriv += term_d
        prev_mag = mag
        trunc = mag
        scale /= P * P
    rounding = head_mag * hurwitz._EPS * (4.0 + (abs(lP) if want_deriv
                                                 else 0.0))
    return value, deriv, trunc + rounding


def zeta_per_head(s: float, u: float, want_deriv: bool):
    """A complete sum for each candidate head; the smallest err_est wins."""
    best = None
    for N in hurwitz._candidate_heads(s):
        res = em_eval(s, u, N, hurwitz._EM_J, want_deriv)
        if best is None or res[2] < best[2]:
            best = res
    return best


class TestOnePassMatchesPerHead:
    GRID_U = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

    @pytest.mark.parametrize("u", GRID_U)
    def test_bit_identical_to_a_sum_per_head(self, u):
        """The one-pass evaluator equals a separate sum per candidate head.

        s = -49, -48.5, ..., 4 spans every candidate-head regime and the
        zero factors of (s)_m at integer s <= 0.  Once Hurwitz's formula
        serves s << 0 (ROADMAP item 1), this narrows to the s where
        Euler-Maclaurin still answers.
        """
        for i in range(107):
            s = -49.0 + 0.5 * i
            if s == 1.0:
                continue
            z = hurwitz_zeta(s, u)
            zd = hurwitz_zeta_deriv(s, u)
            assert (z.value, z.deriv, z.err_est) == zeta_per_head(s, u, False)
            assert (zd.value, zd.deriv, zd.err_est) == zeta_per_head(s, u, True)


class TestStdlibOnlyImports:
    # the exact and special-function modules need only the standard
    # library, so importing one must not load numpy or the routes
    @pytest.mark.parametrize("module", ["zetaprod.hurwitz", "zetaprod.exactnum",
                                        "zetaprod.rstirling"])
    def test_import_leaves_numpy_unloaded(self, module):
        code = f"import sys, {module}\nassert 'numpy' not in sys.modules\n"
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
