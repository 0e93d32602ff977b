"""Acceptance suite: one test (or parametrized family) per criterion.

Each check records into the acceptance summary that conftest prints at the
end of the run.  Tolerances are pinned here, not configurable.

Criteria 5 and 6 truncate sums of the inner differences

    D_n(s, u) = sum_k (-1)^k C(n,k) (k+u)^(1-s)

at a finite depth N.  Both truncations telescope exactly, so the tests
assert the truncation term itself rather than a bound on it:

  * Pascal's rule gives D_n(s, u+1) = D_n(s, u) - D_{n+1}(s, u), so the
    partial double sum is  sum_{n<=N} D_n(s, u+1) = u^(1-s) - D_{N+1}(s, u).
  * k C(n,k) = n C(n-1,k-1) gives D_n(s-1, u) = (n+u) D_n(s, u)
    - n D_{n-1}(s, u).  With S_alpha run to N and both S_{alpha-1} sums run
    to N+1, the three-term shift residual is exactly -D_{N+1}(s, u), for
    every alpha.

D_{N+1} is computed here, independently of zetaprod, as the literal
alternating sum in decimal arithmetic, and is pinned to its closed form
where one exists (D_n(2,1) = 1/(n+1), D_n(3,1) = H_{n+1}/(n+1),
D_n(3,2) = (H_{n+2} - 1)/((n+1)(n+2))).
"""

import json
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from zetaprod.closedform import log_z_closed, special_value
from zetaprod.exactnum import bernoulli_poly
from zetaprod import hurwitz
from zetaprod.hurwitz import (agm, digamma, euler_gamma, hurwitz_zeta,
                              hurwitz_zeta_deriv, log_bendersky, log_gamma)
from zetaprod.quad import (integrate_double, integrate_elementary_half,
                           integrate_prelim, integrate_single_d)
from zetaprod.rstirling import (entry_by_unsigned_identity, row_by_gf,
                                row_by_recurrence, shift_from_u)
from zetaprod.series import (EvalParams, finite_bernoulli_identity_sides,
                             functional_eq_residual, inner_diff_exact,
                             resummed_power_partial, log_z_direct)
from zetaprod.series import log_tn_sweep
from zetaprod.cli import (EXIT_IO, EXIT_NUMERIC_FAIL, EXIT_PASS, EXIT_USAGE,
                          derive_constants, golden_path, main, read_golden,
                          write_golden)

LOG_2PI = math.log(2.0 * math.pi)
GRID_U = (0.5, 1.0, 2.0)


# -------------------------------------------------------------- criterion 1

def test_c1_chain_to_e(acceptance_log):
    v = integrate_single_d(0, 1.0).value
    acceptance_log("criterion 1", "log z_-1(1) = 1 via single integral",
                   abs(v - 1.0) < 1e-10, f"got {v!r}")


@pytest.mark.parametrize("d,ref_fn", [
    (0, lambda: euler_gamma()),
    (1, lambda: -0.5 + 0.5 * LOG_2PI),
    (2, lambda: -3.0 / 8.0 + 0.25 * LOG_2PI + log_bendersky(1)),
    (3, lambda: (-7.0 / 24.0 + LOG_2PI / 6.0 + log_bendersky(1)
                 + hurwitz_zeta(3.0, 1.0).value / (8.0 * math.pi ** 2))),
])
def test_c1_named_constants_closed_route(acceptance_log, d, ref_fn):
    got = log_z_closed(d, 1.0).value
    ref = ref_fn()
    acceptance_log("criterion 1", f"log z_{d} closed-form constant",
                   abs(got - ref) < 1e-10, f"|diff| = {abs(got - ref):.3e}")


# -------------------------------------------------------------- criterion 2

def test_c2_half(acceptance_log):
    got = log_z_closed(1, 0.5).value
    ref = math.log(2.0) + 0.5 * euler_gamma()
    acceptance_log("criterion 2", "log z_1(1/2) = log 2 + gamma/2",
                   abs(got - ref) < 1e-10, f"|diff| = {abs(got - ref):.3e}")


def test_c2_combo_u2(acceptance_log):
    got = log_z_closed(0, 2.0).value + log_z_closed(1, 2.0).value
    ref = math.log(4.0) + 0.5 * math.log(math.pi) - 1.5
    acceptance_log("criterion 2", "log z_0(2) + log z_1(2) closed constant",
                   abs(got - ref) < 1e-10, f"|diff| = {abs(got - ref):.3e}")


def test_c2_third_with_agm(acceptance_log):
    got = log_z_closed(1, 1.0 / 3.0).value
    ref = special_value("d1_u_third_agm").value
    acceptance_log("criterion 2", "log z_1(1/3) incl. AGM factor",
                   abs(got - ref) < 1e-8, f"|diff| = {abs(got - ref):.3e}")


# -------------------------------------------------------------- criterion 3

def test_c3_route_agreement_matrix(acceptance_log):
    t0 = time.perf_counter()
    worst = {"single": 0.0, "double": 0.0, "series": 0.0}
    ok = True
    details = []
    for d in range(6):
        for u in GRID_U:
            c = log_z_closed(d, u)
            qs = integrate_single_d(d + 1, u)
            qd = integrate_double(float(d) + 1.0, u)
            sr = log_z_direct(EvalParams(float(d), u), 10000, tightened=True)
            ds_ = abs(c.value - qs.value)
            dd = abs(c.value - qd.value)
            dse = abs(c.value - sr.value)
            worst["single"] = max(worst["single"], ds_)
            worst["double"] = max(worst["double"], dd)
            worst["series"] = max(worst["series"], dse)
            cell_ok = (ds_ < 1e-8 and dd < 1e-6
                       and dse <= max(c.err_est + sr.err_est, 1e-10)
                       and dse < 1e-4)
            if not cell_ok:
                details.append(f"d={d} u={u}: {ds_:.1e}/{dd:.1e}/{dse:.1e}")
            ok = ok and cell_ok
    elapsed = time.perf_counter() - t0
    acceptance_log("criterion 3", "route agreement matrix d=0..5, u=1/2,1,2",
                   ok, "; ".join(details))
    acceptance_log("criterion 3", "runtime budget < 60 s",
                   elapsed < 60.0, f"{elapsed:.1f} s")


# -------------------------------------------------------------- criterion 4

@pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
def test_c4_finite_bernoulli_identity(acceptance_log, u):
    bad = [(m, d) for m in range(1, 9) for d in range(5)
           if (lambda p: p[0] != p[1])(finite_bernoulli_identity_sides(m, d, u))]
    acceptance_log("criterion 4", f"finite Bernoulli identity exact (u={u})",
                   not bad, f"failing (m,d): {bad}")


@pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
def test_c4_rstirling_three_routes(acceptance_log, u):
    ok = True
    for n in range(13):
        r = shift_from_u(u)
        gf = row_by_gf(n, r)
        rec = row_by_recurrence(n, r)
        ok = ok and gf.coeffs == rec.coeffs
        ok = ok and all(entry_by_unsigned_identity(n, k, u) == gf.coeffs[k]
                        for k in range(n + 1))
    acceptance_log("criterion 4", f"r-Stirling gf = recurrence = unsigned (u={u})",
                   ok)


def test_c4_inner_sum_annihilation(acceptance_log):
    ok = all(inner_diff_exact(n, m, u) == 0
             for m in range(1, 9)
             for u in (Fraction(1), Fraction(1, 2), Fraction(2, 3))
             for n in range(m + 1, 21))
    acceptance_log("criterion 4", "inner-sum annihilation for n > m", ok)


# -------------------------------------------------------------- criterion 5

def _harmonic(m):
    return sum(Fraction(1, j) for j in range(1, m + 1))


# D_n(s, u) in closed form at the rational points of criteria 5 and 6
CLOSED_D = {
    (2.0, 1.0): ("1/(n+1)", lambda n: Fraction(1, n + 1)),
    (3.0, 1.0): ("H_(n+1)/(n+1)", lambda n: _harmonic(n + 1) / (n + 1)),
    (3.0, 2.0): ("(H_(n+2)-1)/((n+1)(n+2))",
                 lambda n: (_harmonic(n + 2) - 1) / ((n + 1) * (n + 2))),
}


def truncation_term(acceptance_log, criterion, n, s, u):
    """D_n(s, u) as the literal alternating sum in decimal arithmetic.

    The sum cancels about n*log10(2) digits, so the working precision grows
    with n and leaves some 40 correct digits.  Where CLOSED_D has the point,
    the sum is checked against that exact value as well.
    """
    with localcontext() as ctx:
        ctx.prec = int(0.31 * n) + 40
        e = 1 - Decimal(s)
        total = Decimal(0)
        c = 1                                   # C(n, k)
        for k in range(n + 1):
            term = c * (Decimal(u) + k) ** e
            total += -term if k % 2 else term
            c = c * (n - k) // (k + 1)
        if (s, u) in CLOSED_D:
            name, exact = CLOSED_D[(s, u)]
            fr = exact(n)
            gap = abs(total - Decimal(fr.numerator) / Decimal(fr.denominator))
            acceptance_log(criterion, f"D_{n}({s}, {u}) = {name} exactly",
                           gap <= Decimal("1e-25"), f"|gap| = {gap:.3e}")
        return float(total)


@pytest.mark.parametrize("a,s,u", [(0.5, 2.0, 1.0), (2.0, 1.5, 0.5),
                                   (1.5, 3.0, 2.0)])
def test_c5_residual_small_at_500(acceptance_log, a, s, u):
    N = 500
    r = functional_eq_residual(EvalParams(a, u, s=s), N)
    diff = abs(r + truncation_term(acceptance_log, "criterion 5", N + 1, s, u))
    acceptance_log("criterion 5", f"residual = -D_(N+1)(s,u) to 1e-12 at "
                   f"N={N} (alpha={a}, s={s}, u={u})",
                   diff <= 1e-12, f"|residual + D_(N+1)| = {diff:.3e}")


@pytest.mark.parametrize("a,s,u", [(0.5, 2.0, 1.0), (2.0, 1.5, 0.5),
                                   (1.5, 3.0, 2.0)])
def test_c5_residual_decreases(acceptance_log, a, s, u):
    r1 = functional_eq_residual(EvalParams(a, u, s=s), 500)
    r2 = functional_eq_residual(EvalParams(a, u, s=s), 1000)
    acceptance_log("criterion 5", f"residual decreases when N doubles "
                   f"(alpha={a}, s={s}, u={u})",
                   abs(r2) < abs(r1), f"{abs(r1):.3e} -> {abs(r2):.3e}")


# -------------------------------------------------------------- criterion 6

@pytest.mark.parametrize("s,u", [(3.0, 1.0), (2.5, 2.0)])
def test_c6_double_sum_partial_tolerance(acceptance_log, s, u):
    N = 300
    p = resummed_power_partial(s, u, N)
    law = u ** (1.0 - s) - truncation_term(acceptance_log, "criterion 6",
                                           N + 1, s, u)
    diff = abs(p - law)
    acceptance_log("criterion 6", f"partial = u^(1-s) - D_(N+1)(s,u) to 1e-12 "
                   f"at N={N} (s={s}, u={u})",
                   diff <= 1e-12, f"|diff| = {diff:.3e}")


def test_c6_exact_termination(acceptance_log):
    ok = (abs(resummed_power_partial(0.0, 2.0, 10) - 2.0) < 1e-12
          and abs(resummed_power_partial(-1.0, 1.5, 10) - 1.5 ** 2) < 1e-12
          and abs(resummed_power_partial(1.0, 0.8, 10) - 1.0) < 1e-15)
    acceptance_log("criterion 6", "exact termination for positive-integer "
                   "powers", ok)


# -------------------------------------------------------------- criterion 7

def test_c7_lerch(acceptance_log):
    worst = max(abs(hurwitz_zeta_deriv(0.0, u).deriv
                    - (log_gamma(u) - 0.5 * LOG_2PI))
                for u in (0.25, 0.5, 1.0, 1.5, 2.0, 3.7))
    acceptance_log("criterion 7", "Lerch identity (1e-10)", worst < 1e-10,
                   f"worst {worst:.3e}")


def test_c7_negative_integer_values(acceptance_log):
    worst = max(abs(hurwitz_zeta(1.0 - k, u).value
                    + float(bernoulli_poly(k)(Fraction(u))) / k)
                for k in range(1, 9) for u in (0.5, 1.0, 2.0))
    acceptance_log("criterion 7", "zeta(1-k,u) = -B_k(u)/k (1e-10)",
                   worst < 1e-10, f"worst {worst:.3e}")


def test_c7_shift_recurrence(acceptance_log):
    worst = max(abs(hurwitz_zeta(s, u).value
                    - hurwitz_zeta(s, u + 1.0).value - u ** -s)
                for s in (-3.0, -1.0, 0.5, 2.0) for u in (0.3, 1.0, 2.0))
    acceptance_log("criterion 7", "shift recurrence (1e-11)", worst < 1e-11,
                   f"worst {worst:.3e}")


def test_c7_digamma_shift(acceptance_log):
    worst = max(abs(digamma(u + 1.0) - digamma(u) - 1.0 / u)
                for u in (0.1, 0.7, 3.0))
    acceptance_log("criterion 7", "digamma shift (1e-12)", worst < 1e-12,
                   f"worst {worst:.3e}")


def test_c7_gamma_third_agm(acceptance_log):
    m = agm(2.0, math.sqrt(2.0 + math.sqrt(3.0)))
    rhs = 2.0 ** (7.0 / 9.0) * math.pi ** (2.0 / 3.0) / (
        3.0 ** (1.0 / 12.0) * m ** (1.0 / 3.0))
    diff = abs(math.exp(log_gamma(1.0 / 3.0)) - rhs)
    acceptance_log("criterion 7", "Gamma(1/3) AGM reconstruction (1e-9)",
                   diff < 1e-9, f"|diff| = {diff:.3e}")


def test_c7_em_refinement(acceptance_log, monkeypatch):
    ok = True
    for (s, u) in ((2.0, 1.0), (0.5, 0.3), (-2.5, 1.7)):
        a = hurwitz_zeta(s, u)
        with monkeypatch.context() as m:
            m.setattr(hurwitz, "_EM_N", 60)     # a longer head
            b = hurwitz_zeta(s, u)
        ok = ok and abs(a.value - b.value) <= a.err_est
    acceptance_log("criterion 7", "EM refinement within err_est", ok)


# -------------------------------------------------------------- criterion 8

def test_c8_elementary_integrand(acceptance_log):
    e = integrate_elementary_half().value
    # truncated-product oracle at N = 5000, one Richardson level in N
    sweep = log_tn_sweep(1.0, 5000)
    ns = np.arange(1, 5001)
    terms = sweep[1:] / (2.0 * ns + 1.0)
    p_full = float(np.sum(terms))
    p_half = float(np.sum(terms[:2500]))
    oracle = 2.0 * p_full - p_half  # tail ~ c/N at u = 1
    ok1 = abs(e - oracle) < 1e-4
    acceptance_log("criterion 8", "quadrature = product oracle (1e-4)",
                   ok1, f"|diff| = {abs(e - oracle):.3e}")
    # the factor-2 relation against the alpha = 1/2 route, fixed by the
    # oracle above: E matches sum log t_n/(2n+1), so 2E is the full product
    p = integrate_prelim(0.5, 1.0).value
    ok2 = abs(2.0 * e - p) < 1e-4
    acceptance_log("criterion 8", "2 x elementary = prelim(1/2, 1)",
                   ok2, f"|diff| = {abs(2.0 * e - p):.3e}")


# -------------------------------------------------------------- criterion 9

def test_c9_exit_codes(acceptance_log, capsys, tmp_path):
    ok_pass = main(["eval", "--d", "1", "--route", "all"]) == EXIT_PASS
    ok_usage = main(["eval", "--d", "0", "--u", "0"]) == EXIT_USAGE
    ok_usage2 = main(["crosscheck", "--grid-d", "oops"]) == EXIT_USAGE
    ok_io = main(["constants", "--golden",
                  str(tmp_path / "absent.csv")]) == EXIT_IO
    p = tmp_path / "golden.csv"
    write_golden(str(p))
    p.write_text(p.read_text().replace("0.5772156649015333", "0.58"))
    ok_fail = main(["constants", "--golden", str(p)]) == EXIT_NUMERIC_FAIL
    capsys.readouterr()
    acceptance_log("criterion 9", "exit-code contract 0/1/2/3",
                   ok_pass and ok_usage and ok_usage2 and ok_io and ok_fail)


def test_c9_deterministic_json(acceptance_log, capsys):
    main(["eval", "--d", "1", "--route", "all", "--format", "json"])
    out1 = capsys.readouterr().out
    main(["eval", "--d", "1", "--route", "all", "--format", "json"])
    out2 = capsys.readouterr().out
    acceptance_log("criterion 9", "byte-identical JSON output",
                   out1 == out2 and json.loads(out1)["verdict"] == "pass")


def test_c9_golden_round_trip(acceptance_log):
    golden = {e.name: e.value for e in read_golden(golden_path())}
    derived = derive_constants()
    worst = max(abs(golden[e.name] - e.value) for e in derived)
    acceptance_log("criterion 9", "golden round-trip at 1e-12",
                   len(golden) == len(derived) and worst <= 1e-12,
                   f"worst {worst:.3e}")
