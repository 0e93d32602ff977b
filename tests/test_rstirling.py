import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetaprod.exactnum import stirling1_unsigned
from zetaprod.rstirling import (entry_by_unsigned_identity, row_by_gf,
                                row_by_recurrence, shift_from_u)

EXACT_SHIFTS = [Fraction(0), Fraction(1), Fraction(-1, 2),
                Fraction(1) - Fraction(1, 3), Fraction(1) - Fraction(1, 2),
                Fraction(1) - 2, Fraction(1) - 5]


class TestRowByGF:
    def test_n0_is_one(self):
        # empty rising factorial: the row is [1] for any shift
        assert row_by_gf(0, Fraction(1, 3)).coeffs == (Fraction(1),)
        assert row_by_gf(0, 0.7).coeffs == (1.0,)

    def test_n1_shift(self):
        # row at shift 1-u for n = 1 is [1-u, 1]
        u = Fraction(1, 2)
        row = row_by_gf(1, shift_from_u(u))
        assert row.coeffs == (Fraction(1, 2), Fraction(1))

    def test_reduces_to_unsigned_stirling_at_zero_shift(self):
        # x(x+1)(x+2) = 2x + 3x^2 + x^3
        row = row_by_gf(3, Fraction(0))
        assert row.coeffs == (0, 2, 3, 1)

    def test_monic(self):
        for n in range(6):
            assert row_by_gf(n, Fraction(7, 3)).coeffs[n] == 1

    def test_float_overflow_stays_in_its_entries(self):
        # r^3 and 3r^2 overflow; the other entries stay the rounded exact row
        r = 1 - 1e200
        row = row_by_gf(3, r).coeffs
        assert row == (-math.inf, math.inf, -3e200, 1.0)
        exact = row_by_gf(3, Fraction(r)).coeffs
        assert [float(exact[k]) for k in (2, 3)] == [row[2], row[3]]


class TestRowByRecurrence:
    def test_base_case(self):
        assert row_by_recurrence(0, Fraction(5)).coeffs == (Fraction(1),)

    def test_n2_zero_shift(self):
        # x(x+1) = x^2 + x
        assert row_by_recurrence(2, Fraction(0)).coeffs == (0, 1, 1)

    def test_n2_half_shift(self):
        # (x+1/2)(x+3/2) = x^2 + 2x + 3/4
        assert row_by_recurrence(2, Fraction(1, 2)).coeffs == \
            (Fraction(3, 4), Fraction(2), Fraction(1))


class TestRouteAgreement:
    @pytest.mark.parametrize("r", EXACT_SHIFTS)
    @pytest.mark.parametrize("n", range(0, 16))
    def test_gf_equals_recurrence_exact(self, n, r):
        assert row_by_gf(n, r).coeffs == row_by_recurrence(n, r).coeffs

    @given(st.integers(0, 12),
           st.fractions(min_value=-4, max_value=4, max_denominator=12))
    def test_gf_equals_recurrence_random_shift(self, n, r):
        assert row_by_gf(n, r).coeffs == row_by_recurrence(n, r).coeffs

    @pytest.mark.parametrize("u", [Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                   Fraction(2), Fraction(5), Fraction(2, 3)])
    @pytest.mark.parametrize("d", range(0, 13))
    def test_unsigned_identity_matches_gf(self, d, u):
        row = row_by_gf(d, shift_from_u(u))
        for k in range(d + 1):
            assert entry_by_unsigned_identity(d, k, u) == row.coeffs[k]

    @pytest.mark.parametrize("r", EXACT_SHIFTS)
    @pytest.mark.parametrize("n", range(0, 13))
    def test_row_sum_is_gf_at_one(self, n, r):
        row = row_by_gf(n, r)
        expected = math.prod((1 + r + j for j in range(n)), start=Fraction(1))
        assert sum(row.coeffs) == expected


class TestUnsignedIdentityEntryPoints:
    def test_monic_leading(self):
        assert entry_by_unsigned_identity(2, 2, 1.0) == 1.0

    def test_d1_k0_reduces_to_shift(self):
        assert entry_by_unsigned_identity(1, 0, Fraction(1, 2)) == \
            Fraction(1, 2)

    def test_u1_reduces_to_unsigned(self):
        assert entry_by_unsigned_identity(3, 1, Fraction(1)) == \
            stirling1_unsigned(3, 1) == 2

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            entry_by_unsigned_identity(3, -1, 1.0)
        with pytest.raises(ValueError):
            entry_by_unsigned_identity(3, 4, 1.0)

    def test_float_mode_close_to_exact(self):
        exact = entry_by_unsigned_identity(6, 2, Fraction(1, 3))
        approx = entry_by_unsigned_identity(6, 2, 1.0 / 3.0)
        assert abs(approx - float(exact)) < 1e-12 * abs(float(exact))
