"""Calibration of the routes against a 30-digit reference.

The reference is the benchmark's mpmath oracle (bench/oracle.py), loaded
by path and evaluated once per cell, on d = -1..11 and FAR_D out to
|alpha| = 50, x u in {0.05, ..., 10}.  On every cell the closed and series
routes must return (no failure) a value whose err_est covers its true
error (no under-report).  The double integral must return on every cell
with u >= 0.5 and never under-report where it returns; at u <= 0.25 it
overflows.  The truncated S_alpha sums at N = 500 must cover their error
too.  The single and preliminary integrals are held to their reach and a
relative error bound: they return on every cell, but on some their
err_est still falls below the rounding floor of their integrand.
"""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

from zetaprod.cli import ROUTES  # noqa: E402
from zetaprod.series import EvalParams, s_alpha_truncated  # noqa: E402

GRID_D = range(-1, 12)
FAR_D = (15, 23, 32, 38, 47, 50)
GRID_U = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
# half-integer s keeps off S_d's poles s = 1..d+1
S_GRID = [(d, s, u) for d in (0, 2, 5) for s in (0.5, 1.5, 2.5, 3.5)
          for u in (0.05, 0.25, 1.0, 5.0)]


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def oracle():
    return _load_oracle()


@pytest.fixture(scope="module")
def reference(oracle):
    return {(d, u): oracle.log_z(d, u) for d in (*GRID_D, *FAR_D)
            for u in GRID_U}


@pytest.mark.parametrize("route", [r for r in ROUTES
                                   if r.name in ("closed", "series")],
                         ids=lambda r: r.name)
def test_grid_has_no_failure_and_no_under_report(reference, route):
    failures, under, worst_rel = [], [], 0.0
    for (d, u), ref in reference.items():
        if route.declines(float(d)) is not None:
            continue
        try:
            a = route.evaluate(float(d), u)
        except Exception as exc:  # a failure is counted, not raised
            failures.append((d, u, repr(exc)))
            continue
        error = abs(a.value - ref)
        if error > a.err_est:
            under.append((d, u, error, a.err_est))
        worst_rel = max(worst_rel, error / abs(ref))
    assert failures == []
    assert under == []
    if route.name == "series":
        assert worst_rel <= 1e-14


def test_double_returns_from_u_half_and_never_under_reports(reference):
    # its failures at u <= 0.25 are the inner integrand's overflow
    route = next(r for r in ROUTES if r.name == "integral-double")
    missing, under = [], []
    for (d, u), ref in reference.items():
        try:
            a = route.evaluate(float(d), u)
        except Exception as exc:  # a failure is counted, not raised
            if u >= 0.5:
                missing.append((d, u, repr(exc)))
            continue
        error = abs(a.value - ref)
        if error > a.err_est:
            under.append((d, u, error, a.err_est))
    assert missing == []
    assert under == []


# route -> (target d sampled, relative error bound); single stops at its
# verified reach, alpha = 11
REACH = {"integral-single": (GRID_D, 2e-10),
         "integral-prelim": (FAR_D, 1e-13)}


@pytest.mark.parametrize("name", REACH)
def test_integral_returns_within_its_reach(reference, name):
    """No failure and a bounded relative error on every cell.

    Zero under-reports is not asserted: on some cells (single: u = 0.05,
    and alpha >= 6 with u >= 2) the err_est stays below the rounding floor
    of the integrand.
    """
    grid_d, rel_bound = REACH[name]
    route = next(r for r in ROUTES if r.name == name)
    failures, worst_rel = [], 0.0
    for d in grid_d:
        for u in GRID_U:
            try:
                a = route.evaluate(float(d), u)
            except Exception as exc:  # a failure is counted, not raised
                failures.append((d, u, repr(exc)))
                continue
            ref = reference[d, u]
            worst_rel = max(worst_rel, abs(a.value - ref) / abs(ref))
    assert failures == []
    assert worst_rel <= rel_bound


def test_s_alpha_truncated_err_est_covers_its_error(oracle):
    under = []
    for d, s, u in S_GRID:
        a = s_alpha_truncated(EvalParams(float(d), u, s=s), 500)
        error = abs(a.value - oracle.s_d(d, s, u))
        if error > a.err_est:
            under.append((d, s, u, error, a.err_est))
    assert under == []
