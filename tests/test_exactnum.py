import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetaprod.exactnum import (RationalPoly, bernoulli_number, bernoulli_poly,
                               bernoulli_second, binomial, harmonic,
                               stirling1_unsigned)


class TestBinomial:
    def test_empty_product(self):
        assert binomial(0, 0) == 1

    def test_pascal_value(self):
        assert binomial(4, 2) == 6

    def test_out_of_range_is_zero(self):
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 30), st.integers(0, 30))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestBernoulli:
    def test_b0(self):
        assert bernoulli_number(0) == 1

    def test_b1_generating_function_convention(self):
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_b2_from_recurrence_oracle(self):
        # oracle: sum_{j=0}^{k} C(k+1,j) B_j = 0 at k = 2:
        # B_2 = -(C(3,0) B_0 + C(3,1) B_1)/C(3,2) = -(1 - 3/2)/3 = 1/6
        assert bernoulli_number(2) == Fraction(1, 6)

    @pytest.mark.parametrize("k", range(3, 20, 2))
    def test_odd_vanish(self, k):
        assert bernoulli_number(k) == 0

    def test_known_tail(self):
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_matches_the_rational_recurrence(self):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, in Fractions
        want = [Fraction(1)]
        for m in range(1, 131):
            s = sum(math.comb(m + 1, j) * want[j] for j in range(m))
            want.append(-s / (m + 1))
        assert [bernoulli_number(k) for k in range(131)] == want


class TestBernoulliPoly:
    def test_constant(self):
        p = bernoulli_poly(0)
        assert p.coeffs == (Fraction(1),)

    def test_degree_one(self):
        # derived from B_1 = -1/2 via the defining expansion
        assert bernoulli_poly(1).coeffs == (Fraction(-1, 2), Fraction(1))

    def test_degree_two(self):
        assert bernoulli_poly(2).coeffs == (Fraction(1, 6), Fraction(-1),
                                            Fraction(1))

    @pytest.mark.parametrize("k", range(0, 21))
    def test_value_at_one(self, k):
        # B_k(1) = B_k + [k == 1] = (-1)^k B_k
        expected = bernoulli_number(k) + (1 if k == 1 else 0)
        assert bernoulli_poly(k)(Fraction(1)) == expected

    def test_zero_poly_degree(self):
        assert RationalPoly.from_coeffs([]).degree == -1
        assert RationalPoly.from_coeffs([0, 0]).degree == -1


class TestBernoulliSecond:
    def test_first_values(self):
        # y/log(1+y) = 1 + y/2 - y^2/12 + y^3/24 - 19 y^4/720 + 3 y^5/160 - ...
        want = [Fraction(1), Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24),
                Fraction(-19, 720), Fraction(3, 160)]
        assert [bernoulli_second(n) for n in range(6)] == want

    def test_defining_identity(self):
        # (y/log(1+y)) * (log(1+y)/y) = 1, with log(1+y)/y = sum (-y)^k/(k+1)
        for n in range(101):
            s = sum(bernoulli_second(k) * Fraction((-1) ** (n - k), n - k + 1)
                    for k in range(n + 1))
            assert s == (1 if n == 0 else 0), n

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_second(-1)


class TestHarmonic:
    def test_h0_is_zero(self):
        assert harmonic(0) == 0

    def test_h1(self):
        assert harmonic(1) == 1

    def test_h4_direct_sum(self):
        assert harmonic(4) == Fraction(1) + Fraction(1, 2) + Fraction(1, 3) + \
            Fraction(1, 4)
        assert harmonic(4) == Fraction(25, 12)


class TestStirlingFirstKind:
    def test_empty_rising_factorial(self):
        assert stirling1_unsigned(0, 0) == 1

    def test_row3_from_expansion(self):
        # x(x+1)(x+2) = x^3 + 3x^2 + 2x
        assert stirling1_unsigned(3, 1) == 2
        assert stirling1_unsigned(3, 2) == 3
        assert stirling1_unsigned(3, 3) == 1
        assert stirling1_unsigned(3, 0) == 0

    def test_out_of_range(self):
        assert stirling1_unsigned(4, 5) == 0
        assert stirling1_unsigned(4, -1) == 0

    @given(st.integers(0, 20))
    def test_row_sums_to_factorial(self, n):
        # generating polynomial at x = 1 is n!
        assert sum(stirling1_unsigned(n, m) for m in range(n + 1)) == \
            math.factorial(n)
