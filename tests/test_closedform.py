import math
from fractions import Fraction

import pytest

from zetaprod.closedform import (D_MAX, log_z_closed, log_z_explicit_u1,
                                 s_d_closed, special_value)
from zetaprod.hurwitz import (digamma, euler_gamma, hurwitz_zeta, log_bendersky,
                              log_gamma)
from zetaprod.series import EvalParams, inner_diff_exact, log_z_direct

LOG_2PI = math.log(2.0 * math.pi)


class TestSDClosed:
    def test_d0_is_zeta_normalization(self):
        # S_0(s, u) = (s-1) zeta(s, u)
        for (s, u) in ((3.0, 1.0), (2.5, 0.7), (-1.5, 2.0)):
            a = s_d_closed(0, s, u)
            ref = (s - 1.0) * hurwitz_zeta(s, u).value
            assert abs(a.value - ref) < 1e-12

    def test_d0_at_zero(self):
        # -zeta(0) = 1/2
        assert s_d_closed(0, 0.0, 1.0).value == pytest.approx(0.5, abs=1e-13)

    def test_pole_offsets_rejected(self):
        for s in (1.0, 2.0, 3.0):
            with pytest.raises(ValueError):
                s_d_closed(2, s, 1.0)
        s_d_closed(2, 4.0, 1.0)  # beyond d+1: fine
        s_d_closed(2, 2.5, 1.0)  # non-integer between poles: fine

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            s_d_closed(1, 0.5, -1.0)

    @pytest.mark.parametrize("d", [D_MAX + 1, 171, 200])
    def test_beyond_d_max_names_the_bound(self, d):
        # 171 and 200 overflowed the float row before the bound
        with pytest.raises(ValueError, match=f"D_MAX = {D_MAX}"):
            s_d_closed(d, 2.5, 1.0)

    def test_d_max_itself_is_evaluated(self):
        a = s_d_closed(D_MAX, 2.5, 1.0)
        assert math.isfinite(a.value) and a.terms_used == D_MAX + 1

    @pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("d", range(0, 5))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_terminating_match_with_exact_sum(self, m, d, u):
        # for s = 1-m the double sum terminates; the closed form must equal
        # the exact rational finite sum
        exact = sum(Fraction(1, n + d + 1) * inner_diff_exact(n, m, u)
                    for n in range(m + 1))
        got = s_d_closed(d, 1.0 - m, float(u))
        assert abs(got.value - float(exact)) < 1e-10


class TestLogZClosed:
    def test_d0_is_log_minus_digamma(self):
        for u in (0.3, 1.0, 2.5):
            a = log_z_closed(0, u)
            assert abs(a.value - (math.log(u) - digamma(u))) < 1e-13

    def test_d1_u1(self):
        a = log_z_closed(1, 1.0)
        assert abs(a.value - (-0.5 + 0.5 * LOG_2PI)) < 1e-12

    def test_d3_u1(self):
        z3 = hurwitz_zeta(3.0, 1.0).value
        ref = -7.0 / 24.0 + LOG_2PI / 6.0 + log_bendersky(1) \
            + 0.5 * z3 / (4.0 * math.pi ** 2)
        a = log_z_closed(3, 1.0)
        assert abs(a.value - ref) < 1e-11

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            log_z_closed(-1, 1.0)
        with pytest.raises(ValueError):
            log_z_closed(1, 0.0)

    @pytest.mark.parametrize("d", [D_MAX + 1, 170, 171, 1000])
    def test_beyond_d_max_names_the_bound(self, d):
        with pytest.raises(ValueError, match=f"D_MAX = {D_MAX}"):
            log_z_closed(d, 1.0)

    def test_d_max_itself_is_evaluated(self):
        a = log_z_closed(D_MAX, 1.0)
        assert math.isfinite(a.value) and a.terms_used == D_MAX + 1


class TestExplicitU1:
    def test_d1_matches_constant(self):
        a = log_z_explicit_u1(1)
        assert abs(a.value - (-0.5 + 0.5 * LOG_2PI)) < 1e-12

    def test_d2_glaisher_form(self):
        ref = -3.0 / 8.0 + 0.25 * LOG_2PI + log_bendersky(1)
        assert abs(log_z_explicit_u1(2).value - ref) < 1e-12

    @pytest.mark.parametrize("d", range(1, 9))
    def test_two_decompositions_agree(self, d):
        # harmonic/Bernoulli route vs regularized-zeta route
        assert abs(log_z_explicit_u1(d).value -
                   log_z_closed(d, 1.0).value) < 1e-10

    def test_rejects_d0(self):
        with pytest.raises(ValueError):
            log_z_explicit_u1(0)


class TestSpecialValues:
    def test_d1_u_half(self):
        v = special_value("d1_u_half")
        assert abs(v.value - (math.log(2.0) + 0.5 * euler_gamma())) < 1e-13
        assert abs(v.value - log_z_closed(1, 0.5).value) < 1e-10

    def test_d1_u_third_agm(self):
        v = special_value("d1_u_third_agm")
        assert abs(v.value - log_z_closed(1, 1.0 / 3.0).value) < 1e-10

    def test_combo_u2(self):
        v = special_value("d0_plus_d1_u2")
        ref = math.log(4.0) + 0.5 * math.log(math.pi) - 1.5
        assert abs(v.value - ref) < 1e-14
        combo = log_z_closed(0, 2.0).value + log_z_closed(1, 2.0).value
        assert abs(v.value - combo) < 1e-10

    @pytest.mark.parametrize("u", [1.0 / 3.0, 0.5, 2.0])
    def test_d1_general_matches_closed(self, u):
        v = special_value("d1_general", u)
        assert abs(v.value - log_z_closed(1, u).value) < 1e-10

    def test_d1_general_at_one_reduces(self):
        v = special_value("d1_general", 1.0)
        assert abs(v.value - (-0.5 + 0.5 * LOG_2PI)) < 1e-13

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            special_value("no_such_tag")
        with pytest.raises(ValueError):
            special_value("d1_u_half", 2.0)  # u only for d1_general


class TestDigammaCancellation:
    @pytest.mark.parametrize("u", [0.5, 2.0, 5.0])
    def test_combination_drops_digamma(self, u):
        lhs = (u - 1.0) * log_z_closed(0, u).value + log_z_closed(1, u).value
        rhs = (u - 0.5) * math.log(u) + 0.5 - u - log_gamma(u) + 0.5 * LOG_2PI
        assert abs(lhs - rhs) < 1e-10


class TestRouteAgreementSeries:
    @pytest.mark.parametrize("u", [1.0 / 3.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("d", range(0, 6))
    def test_closed_vs_direct_extrapolated(self, d, u):
        c = log_z_closed(d, u)
        s = log_z_direct(EvalParams(float(d), u))
        assert abs(c.value - s.value) < max(1e-6, c.err_est + s.err_est)
