"""Calibration of the closed and series routes against a 30-digit reference.

The reference is the benchmark's mpmath oracle (bench/oracle.py), loaded
by path.  On the grid d = -1..10 x u in {0.05, ..., 10} every route asked
must return (no failure) a value whose err_est covers its true error (no
under-report).
"""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

from zetaprod.cli import ROUTES  # noqa: E402

GRID_D = range(-1, 11)
GRID_U = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    oracle = _load_oracle()
    return {(d, u): oracle.log_z(d, u) for d in GRID_D for u in GRID_U}


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
