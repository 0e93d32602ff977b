"""Pins for the benchmark's own parts: the oracle, the decks, the metric list.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import csv
import json
import math
from pathlib import Path

import mpmath
import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = {row["name"]: float(row["value"]) for row in csv.DictReader(
    (ROOT / "src" / "zetaprod" / "data" / "golden.csv").open(encoding="utf-8"))}


def _log_z_by_product(d: int, u: float, n_max: int) -> float:
    """sum_{n<=n_max} log t_n(u) / (n+d+1), log t_n by its literal
    alternating sum at enough digits to survive the cancellation."""
    with mpmath.workdps(n_max // 2 + 40):
        logs = [mpmath.log(k + mpmath.mpf(u)) for k in range(n_max + 1)]
        total = mpmath.mpf(0)
        for n in range(1, n_max + 1):
            log_tn = mpmath.fsum((-1) ** (k + 1) * mpmath.binomial(n, k) * logs[k]
                                 for k in range(n + 1))
            total += log_tn / (n + d + 1)
        return float(total)


def _s_d_by_series(d: int, s: float, u: float, n_max: int) -> float:
    """sum_{n<=n_max} D_n(s,u) / (n+d+1), D_n by its literal alternating sum."""
    with mpmath.workdps(n_max // 2 + 40):
        pows = [(k + mpmath.mpf(u)) ** (1 - mpmath.mpf(s)) for k in range(n_max + 1)]
        total = mpmath.mpf(0)
        for n in range(n_max + 1):
            d_n = mpmath.fsum((-1) ** k * mpmath.binomial(n, k) * pows[k]
                              for k in range(n + 1))
            total += d_n / (n + d + 1)
        return float(total)


def test_log_z0_at_1_is_euler_gamma():
    assert oracle.log_z(0, 1.0) == pytest.approx(GOLDEN["euler_gamma"], abs=1e-15)


def test_log_z1_at_1():
    want = 0.5 * GOLDEN["log_two_pi"] - 0.5
    assert oracle.log_z(1, 1.0) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("u", [0.05, 0.7, 3.0])
def test_log_z_minus1_is_reciprocal(u):
    assert oracle.log_z(-1, u) == 1.0 / u


@pytest.mark.parametrize("d,u", [(2, 6.0), (4, 7.5), (0, 6.5)])
def test_log_z_matches_product_away_from_u1(d, u):
    # at u != 1 and d >= 2 this catches a log(u)/(d+1) term divided by d!
    assert oracle.log_z(d, u) == pytest.approx(_log_z_by_product(d, u, 160),
                                               abs=1e-12)


@pytest.mark.parametrize("d,s,u", [(0, 2.5, 6.0), (3, 1.7, 7.0), (2, 0.4, 6.5)])
def test_s_d_matches_series(d, s, u):
    assert oracle.s_d(d, s, u) == pytest.approx(_s_d_by_series(d, s, u, 160),
                                                abs=1e-11)


def test_constants_match_golden_file():
    consts = oracle.constants()
    assert set(consts) == set(GOLDEN)
    for name, value in consts.items():
        assert value == pytest.approx(GOLDEN[name], rel=1e-12), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_decks_repeat_for_a_seed_and_differ_across_seeds(workload):
    a = workloads.make_deck(workload, 7, 10)
    assert a == workloads.make_deck(workload, 7, 10)
    assert a != workloads.make_deck(workload, 8, 10)
    assert abs(len(a) - workloads.deck_size(workload, 10)) <= 10


def test_route_deck_mix_is_fixed_by_stratification():
    shares = [workloads.input_properties(workloads.make_deck("route_sweep", s, 20))
              for s in range(5)]
    for key in shares[0]:
        vals = [sh[key] for sh in shares]
        assert max(vals) - min(vals) <= 0.02, key
    assert shares[0]["input.int_share"] == pytest.approx(workloads.INT_SHARE, abs=0.01)


def test_fractional_inputs_are_fractional():
    for op in workloads.make_deck("shift_identity", 3, 20):
        int_check, frac_check = op["checks"]
        assert int_check["int"] and not frac_check["int"]
        for p in op["checks"]:
            assert float(p["s"]) != int(p["s"])
        assert float(frac_check["alpha"]) != int(frac_check["alpha"])


def test_metric_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_shift_identity_pass_rule():
    t = run.Tally()
    deck = [{"checks": [{"alpha": 1.5, "s": 2.5, "u": 1.0, "int": False}]}]
    a, u = 1.5, 1.0
    sb, sc, e = 0.3, 0.2, 1e-3
    sa = (sb + (a - u) * sc) / a
    calls = [["series.s_alpha_truncated", v, e, 501, 1.0, None, 0]
             for v in (sa, sb, sc)]
    run.judge_shift(t, deck, [{"calls": calls}], {})
    assert (t.attempted, t.failed, t.returned, t.weak) == (3, 0, 3, 3)
    calls[1][1] += 1.0
    t = run.Tally()
    run.judge_shift(t, deck, [{"calls": calls}], {})
    assert (t.attempted, t.failed) == (3, 3)
    assert math.isclose(sa, calls[0][1])
