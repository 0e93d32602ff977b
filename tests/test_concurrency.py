"""The library promises unrestricted concurrent use: pure operations plus
the memo tables of exactnum, whose lock is the only one in the package.
Hammer those tables and a few evaluators from several threads and check
the results stay exact."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from zetaprod.exactnum import (bernoulli_number, bernoulli_second, harmonic,
                               stirling1_unsigned)
from zetaprod.hurwitz import hurwitz_zeta_deriv
from zetaprod.quad import integrate_double, integrate_prelim, integrate_single_d
from zetaprod.rstirling import row_by_gf
from zetaprod.series import (DifferenceMethod, EvalParams, log_tn,
                             log_tn_sweep, s_alpha_truncated)


def _worker(seed: int):
    out = []
    for i in range(6):
        k = (seed * 7 + i * 11) % 40
        out.append(bernoulli_number(k))
        out.append(bernoulli_second(k))
        out.append(harmonic(k))
        out.append(stirling1_unsigned(k, k // 2))
        out.append(row_by_gf(k % 12, Fraction(1, 3)).coeffs)
    # decimal powers against the shared base, and decimal logs, each
    # thread in its own localcontext
    out.append(s_alpha_truncated(EvalParams(0.5, 0.7, s=2.5), 60).value)
    out.append(log_tn(40, 0.3, DifferenceMethod.ALTERNATING))
    out.append(hurwitz_zeta_deriv(0.0, 1.0).deriv)
    out.append(integrate_single_d(1, 1.0).value)
    # builds the d = 7 bracket coefficients from the Gregory numbers
    out.append(integrate_single_d(7, 1.0).value)
    # power sums with about 535k multiply-adds in one einsum
    out.append(log_tn_sweep(0.05, 3000).tobytes())
    # (s)_m with a zero factor
    out.append(hurwitz_zeta_deriv(-3.0, 0.5).deriv)
    # each inner pass keeps its own set of live rows
    out.append(integrate_double(1.5, 0.7).value)
    out.append(integrate_prelim(2.5, 0.6).value)
    return out


def test_shared_tables_under_threads():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # switch threads often mid-build
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(_worker, range(16)))
    finally:
        sys.setswitchinterval(interval)
    # same seed class -> identical exact results regardless of interleaving
    for seed in range(16):
        assert results[seed] == _worker(seed)
    # spot exactness of a late-table entry after the stampede
    assert bernoulli_number(38) == Fraction(2929993913841559, 6)
    assert abs(results[0][-7] + 0.5 * math.log(2 * math.pi)) < 1e-12
