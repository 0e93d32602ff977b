import argparse
import csv
import io
import json
import math
import warnings
from fractions import Fraction

import jsonschema
import pytest

from zetaprod import cli
from zetaprod.cli import (ALPHA_MAX, CONSTANTS_SCHEMA_V1, EXIT_IO,
                          EXIT_NUMERIC_FAIL, EXIT_PASS, EXIT_USAGE,
                          REPORT_SCHEMA_V1, ROUTES,
                          build_parser, derive_constants, golden_path, main,
                          read_golden, write_golden)
from zetaprod.closedform import log_z_closed
from zetaprod.hurwitz import euler_gamma
from zetaprod.rstirling import row_by_gf
from zetaprod.quad import QuadratureNonConvergence, integrate_double
from zetaprod.series import log_z_direct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalCommand:
    def test_d1_all_routes_pass(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", "1", "--u", "1",
                           "--route", "all")
        assert code == EXIT_PASS
        assert "verdict: pass" in out
        # closed value is -1/2 + log(2 pi)/2
        assert f"{-0.5 + 0.5 * math.log(2 * math.pi):.12g}"[:12] in out

    def test_series_alpha_minus_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "-1", "--u", "2",
                           "--route", "series")
        assert code == EXIT_PASS
        value = float(out.splitlines()[2].split()[1])
        assert abs(value - 0.5) < 1e-6

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--d", "0", "--u", "0",
                           "--route", "closed")
        assert code == EXIT_USAGE
        assert "u must be > 0" in err

    def test_route_inapplicable_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "0.5",
                           "--route", "integral-single")
        assert code == EXIT_USAGE
        assert "inapplicable" in err

    def test_inapplicable_reported_distinctly_in_all(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--route", "all",
                           "--format", "json")
        assert code == EXIT_PASS
        obj = json.loads(out)
        skipped = {s["route"] for s in obj["skipped"]}
        assert "closed" in skipped and "integral-single" in skipped

    def test_requires_exactly_one_target(self, capsys):
        code, _, err = run(capsys, "eval", "--u", "1")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "eval", "--d", "1", "--alpha", "0.5")
        assert code == EXIT_USAGE

    def test_json_deterministic_and_valid(self, capsys):
        args = ("eval", "--d", "2", "--u", "0.5", "--route", "all",
                "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2  # byte-identical
        obj = json.loads(out1)
        jsonschema.validate(obj, REPORT_SCHEMA_V1)

    def test_json_rejects_unknown_fields(self):
        obj = {"schema_version": 1, "request": {}, "results": [],
               "skipped": [], "deviations": [], "verdict": "pass",
               "extra": 1}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, REPORT_SCHEMA_V1)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", "0", "--route", "all",
                           "--format", "csv")
        assert code == EXIT_PASS
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["route", "value", "err_est", "terms"]
        assert len(rows) >= 5  # header + at least 4 routes

    def test_csv_series_row_holds_plain_floats(self, capsys):
        # numpy 2's repr of np.float64 once leaked into these cells; the
        # series runs its 200-term head
        for d in (0, 2):
            code, out, _ = run(capsys, "eval", "--d", str(d), "--u", "1",
                               "--route", "series", "--format", "csv")
            assert code == EXIT_PASS
            header, row = csv.reader(io.StringIO(out))
            assert header == ["route", "value", "err_est", "terms"]
            route, value, err_est, terms = row
            assert (route, terms) == ("series", "200")
            assert repr(float(value)) == value
            assert repr(float(err_est)) == err_est
            closed = log_z_closed(d, 1.0).value
            assert abs(float(value) - closed) <= float(err_est)
            assert 0.0 < float(err_est) < 1e-12


CLOSED = "closed form needs integer alpha >= 0"
SINGLE = "single integral needs integer alpha in -1..11"
DOUBLE = "double integral needs alpha > -2"
PRELIM = "preliminary integral needs alpha > -2"
EXCL_3 = "alpha = -3.0 is an excluded negative integer"
EXCL_2 = "alpha = -2.0 is an excluded negative integer"

# alpha -> declines() of closed, series, integral-single, -double, -prelim
DECLINES = {
    -3.0: (CLOSED, EXCL_3, EXCL_3, EXCL_3, EXCL_3),
    -2.5: (CLOSED, None, SINGLE, DOUBLE, PRELIM),
    -2.0: (CLOSED, EXCL_2, EXCL_2, EXCL_2, EXCL_2),
    -1.5: (CLOSED, None, SINGLE, None, None),
    -1.0: (CLOSED, None, None, None, None),
    -0.5: (CLOSED, None, SINGLE, None, None),
    0.0: (None, None, None, None, None),
    0.5: (CLOSED, None, SINGLE, None, None),
    1.0: (None, None, None, None, None),
    6.0: (None, None, None, None, None),
    11.0: (None, None, None, None, None),
    12.0: (None, None, SINGLE, None, None),
}


class TestRouteTable:
    def test_names_in_report_order(self):
        assert [r.name for r in ROUTES] == [
            "closed", "series", "integral-single", "integral-double",
            "integral-prelim"]

    def test_declines(self):
        got = {a: tuple(r.declines(a) for r in ROUTES) for a in DECLINES}
        assert got == DECLINES

    def test_route_choices_come_from_the_table(self):
        ap = build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        route = next(a for a in sub.choices["eval"]._actions
                     if a.dest == "route")
        assert list(route.choices) == [r.name for r in ROUTES] + ["all"]

    def test_route_functions_are_looked_up_when_called(self, capsys,
                                                        monkeypatch):
        # tracing replaces the module-level names; the table must see that
        calls = []

        def counting(*args):
            calls.append(args)
            return integrate_double(*args)

        monkeypatch.setattr(cli, "integrate_double", counting)
        code, _, _ = run(capsys, "eval", "--alpha", "0.5", "--u", "1")
        assert code == EXIT_PASS
        assert len(calls) == 1
        assert calls[0][:2] == (1.5, 1.0)  # integrand index alpha + 1


class TestWarnings:
    def test_no_runtime_warning_from_main(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "eval", "--d", "0", "--u", "0.1")
        assert code == EXIT_NUMERIC_FAIL
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        # the failing inner pass has no partial value to report
        assert err.startswith("numeric failure:")
        assert "partial value nan" in err

    def test_library_still_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureNonConvergence):
                integrate_double(1.0, 0.1)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


class TestConstantsCommand:
    def test_plain_has_glaisher_row(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == EXIT_PASS
        assert "glaisher_A" in out
        assert "1.2824271291" in out  # 10 decimal places

    def test_json_valid_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "constants", "--format", "json")
        code2, out2, _ = run(capsys, "constants", "--format", "json")
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2
        jsonschema.validate(json.loads(out1), CONSTANTS_SCHEMA_V1)

    def test_csv_row_count_matches_golden(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "csv")
        assert code == EXIT_PASS
        rows = list(csv.reader(io.StringIO(out)))
        golden = read_golden(golden_path())
        assert len(rows) - 1 == len(golden)

    def test_golden_round_trip_tolerance(self):
        golden = {e.name: e.value for e in read_golden(golden_path())}
        for entry in derive_constants():
            assert abs(golden[entry.name] - entry.value) <= 1e-12

    def test_missing_golden_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "constants", "--golden",
                           str(tmp_path / "nope.csv"))
        assert code == EXIT_IO
        assert "io error" in err

    def test_corrupt_golden_is_io_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("just,garbage\n1,2\n")
        code, _, err = run(capsys, "constants", "--golden", str(p))
        assert code == EXIT_IO
        write_golden(str(p))
        text = p.read_text().replace("0.5772156649015333", "nan")
        p.write_text(text)
        code, _, err = run(capsys, "constants", "--golden", str(p))
        assert code == EXIT_IO
        assert "value must be finite" in err

    def test_wrong_value_is_numeric_fail(self, capsys, tmp_path):
        p = tmp_path / "golden.csv"
        write_golden(str(p))
        text = p.read_text().replace("0.5772156649015333", "0.5772156650")
        p.write_text(text)
        code, out, _ = run(capsys, "constants", "--golden", str(p))
        assert code == EXIT_NUMERIC_FAIL
        assert "FAIL" in out

    def test_regen_round_trips(self, capsys, tmp_path):
        p = tmp_path / "golden.csv"
        code, _, _ = run(capsys, "constants", "--regen", "--golden", str(p))
        assert code == EXIT_PASS
        code, _, _ = run(capsys, "constants", "--golden", str(p))
        assert code == EXIT_PASS


class TestCrosscheckCommand:
    def test_single_cell_closed_is_gamma(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--grid-d", "0",
                           "--grid-u", "1", "--format", "json")
        assert code == EXIT_PASS
        obj = json.loads(out)
        closed = [r for cell in obj["cells"] for r in cell["results"]
                  if r["route"] == "closed"]
        assert abs(closed[0]["value"] - euler_gamma()) < 1e-12

    def test_malformed_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "crosscheck", "--grid-d", "0..x")
        assert code == EXIT_USAGE
        assert "malformed" in err

    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "crosscheck")
        assert code == EXIT_PASS
        assert "18 pass, 0 fail" in out

    def test_csv_has_one_row_per_route_and_cell(self, capsys):
        grid = ("--grid-d", "0..1", "--grid-u", "1,2")
        code, out, _ = run(capsys, "crosscheck", *grid, "--format", "csv")
        assert code == EXIT_PASS
        rows = list(csv.reader(io.StringIO(out)))
        _, js, _ = run(capsys, "crosscheck", *grid, "--format", "json")
        want = [[str(d), repr(cell["request"]["u"]), r["route"],
                 repr(r["value"]), repr(r["err_est"]), str(r["terms"])]
                for d, cell in zip((0, 0, 1, 1), json.loads(js)["cells"])
                for r in cell["results"]]
        assert rows[0] == ["d", "u", "route", "value", "err_est", "terms"]
        assert rows[1:] == want
        assert len(want) == 4 * len(ROUTES)

    @pytest.mark.parametrize("argv,where", [
        (("eval", "--alpha", "0.5", "--u", "0.1"), "alpha=0.5, u=0.1"),
        (("crosscheck", "--grid-d", "0..1", "--grid-u", "1,0.05"),
         "alpha=0.0, u=0.05"),
    ])
    def test_numeric_failure_names_route_and_cell(self, capsys, argv, where):
        # the double integral fails at small u; the message says where
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_NUMERIC_FAIL
        assert out == ""
        assert err.startswith(f"numeric failure: integral-double at {where}: ")

    @pytest.mark.parametrize("argv,where", [
        (("eval", "--d", "0", "--u", "1e-16"), "alpha=0.0, u=1e-16"),
        (("crosscheck", "--grid-d", "0..1", "--grid-u", "1,1e-20"),
         "alpha=0.0, u=1e-20"),
    ])
    def test_route_domain_error_names_route_and_cell(self, capsys, argv,
                                                     where, monkeypatch):
        # a ValueError inside a route, as the route table looks it up
        def failing(p, *args, **kwargs):
            if p.u < 1e-15:
                raise ValueError("u is too small for this route")
            return log_z_direct(p, *args, **kwargs)

        monkeypatch.setattr(cli, "log_z_direct", failing)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: series at {where}: ")

    def test_series_below_its_tail_nodes_names_route_and_cell(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--u", "1e-30",
                             "--route", "series")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: series at alpha=0.5, u=1e-30: ")
        assert "smallest node" in err

    def test_subnormal_u_names_the_tail_floor(self, capsys):
        # the tail's floor is checked before the sweep, whose nodes end at
        # 52/u = inf here
        code, out, err = run(capsys, "eval", "--d", "-1", "--u", "5e-324")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: series at alpha=-1.0, u=5e-324: ")
        assert "below 2.33e-25, the smallest node" in err


class TestNoApplicableRoute:
    def test_excluded_integer_alpha_all_routes(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "-2", "--route", "all")
        assert code == EXIT_USAGE
        assert "no route applies" in err


class TestStirlingCommand:
    def test_exact_half(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "1", "--k", "0",
                           "--u", "0.5", "--exact")
        assert code == EXIT_PASS
        assert out.strip() == "1/2"

    def test_exact_fraction_input(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "1", "--k", "0",
                           "--u", "1/3", "--exact")
        assert code == EXIT_PASS
        assert out.strip() == "2/3"

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "stirling", "--n", "3", "--k", "3",
                           "--u", "1.0")
        assert code == EXIT_PASS
        assert float(out) == 1.0

    def test_bad_k_exit_2(self, capsys):
        code, _, _ = run(capsys, "stirling", "--n", "2", "--k", "5",
                         "--u", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("exact", [(), ("--exact",)])
    def test_zero_denominator_exit_2(self, capsys, exact):
        code, out, err = run(capsys, "stirling", "--n", "1", "--k", "0",
                             "--u", "1/0", *exact)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: u = 1/0 has a zero denominator\n"

    def test_float_overflow_is_a_numeric_failure(self, capsys):
        code, out, err = run(capsys, "stirling", "--n", "3", "--k", "1",
                             "--u", "1e308")
        assert code == EXIT_NUMERIC_FAIL
        assert out == ""
        assert err.startswith("numeric failure: the float row entry is inf")
        assert "--exact" in err

    def test_float_leading_entry_survives_overflow(self, capsys):
        # the row is monic: its x^n entry is exactly 1 whatever r is
        code, out, _ = run(capsys, "stirling", "--n", "3", "--k", "3",
                           "--u", "1e308")
        assert code == EXIT_PASS
        assert out == "1.0\n"


class TestZetaCommand:
    def test_deriv_at_zero(self, capsys):
        # "--s=" keeps argparse from reading -1e-320 as an option
        for s_args in (("--s", "0"), ("--s", "1e-320"), ("--s=-1e-320",)):
            code, out, _ = run(capsys, "zeta", *s_args, "--u", "1", "--deriv")
            assert code == EXIT_PASS, s_args
            assert abs(float(out) + 0.5 * math.log(2 * math.pi)) < 1e-12

    def test_pole_exit_2(self, capsys):
        code, _, err = run(capsys, "zeta", "--s", "1", "--u", "1")
        assert code == EXIT_USAGE
        assert "pole" in err

    def test_value(self, capsys):
        code, out, _ = run(capsys, "zeta", "--s", "2", "--u", "1")
        assert code == EXIT_PASS
        assert abs(float(out) - math.pi ** 2 / 6.0) < 1e-12

    @pytest.mark.parametrize("argv", [
        ("--s", "400", "--u", "1e-3"),
        ("--s", "-400", "--u", "1e300"),
        ("--s", "2", "--u", "1e-320", "--deriv"),
    ])
    def test_overflow_is_a_numeric_failure(self, capsys, argv):
        code, out, err = run(capsys, "zeta", *argv)
        assert code == EXIT_NUMERIC_FAIL
        assert out == ""
        assert err.startswith("numeric failure: ")
        assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["eval", "--d", "1", "--wat"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", [("eval", "--d", "1"),
                                         ("crosscheck",)])
    def test_max_terms_is_not_an_option(self, capsys, command):
        code, out, err = run(capsys, *command, "--max-terms", "10000")
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --max-terms 10000" in err

    @pytest.mark.parametrize("argv, message", [
        (("eval", "--alpha", "inf", "--u", "1"), "alpha must be finite"),
        (("eval", "--alpha", "nan", "--u", "1"), "alpha must be finite"),
        (("eval", "--d", "1", "--u", "inf"), "u must be finite"),
        (("crosscheck", "--grid-d", "1", "--grid-u", "inf"), "malformed --grid-u"),
        (("crosscheck", "--grid-d", "1", "--grid-u", "nan"), "malformed --grid-u"),
        (("zeta", "--s", "0.5", "--u", "inf"), "u must be finite"),
        (("zeta", "--s", "0.5", "--u", "nan"), "u must be finite"),
        (("zeta", "--s", "nan"), "s must be finite"),
        (("zeta", "--s", "inf"), "s must be finite"),
        (("zeta", "--s=-inf", "--deriv"), "s must be finite"),
        (("eval", "--d", "1", "--u", "1", "--tol", "0"), "tol must be > 0"),
        (("crosscheck", "--tol", "0"), "tol must be > 0"),
        (("stirling", "--n", "-1", "--k", "0", "--u", "1"), "n must be >= 0"),
        (("stirling", "--n", "3", "--k", "1", "--u", "inf"),
         "u must be finite"),
        (("zeta", "--s", "2", "--u", "0"), "u must be > 0"),
    ])
    def test_invalid_input_is_a_domain_error(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err


class TestAlphaBound:
    @pytest.mark.parametrize("argv", [
        ("eval", "--alpha", "1e300", "--u", "1"),
        ("eval", "--alpha", "1e3", "--u", "1", "--route", "closed"),
        ("eval", "--d", "1" + "0" * 400, "--u", "1"),
        ("eval", f"--alpha={-ALPHA_MAX - 0.5}", "--route", "series"),
        ("eval", "--d", str(ALPHA_MAX + 1), "--route", "closed"),
        ("crosscheck", "--grid-d", "0..1000000000000"),
        ("crosscheck", f"--grid-d={-ALPHA_MAX - 1},0"),
    ])
    def test_beyond_alpha_max_is_a_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert f"<= {ALPHA_MAX}" in err
        assert "Traceback" not in err

    def test_alpha_max_itself_is_evaluated(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", str(ALPHA_MAX), "--u", "1",
                           "--route", "closed", "--format", "json")
        assert code == EXIT_PASS
        assert json.loads(out)["results"][0]["terms"] == ALPHA_MAX + 1

    def test_closed_form_still_accurate_at_alpha_max(self):
        # u = 10 is the worst of the documented domain's u grid at d = 50
        mpmath = pytest.importorskip("mpmath")
        d, u = ALPHA_MAX, 10.0
        with mpmath.workdps(40):
            U = mpmath.mpf(u)
            total = mpmath.mpf(0)
            for k, c in enumerate(row_by_gf(d, 1 - Fraction(u)).coeffs):
                t_k = (-mpmath.digamma(U) if k == 0 else
                       mpmath.zeta(1 - k, U) - k * mpmath.zeta(1 - k, U, 1))
                total += mpmath.mpf(c.numerator) / c.denominator * t_k
            ref = float(mpmath.log(U) / (d + 1) + total / math.factorial(d))
        assert abs(log_z_closed(d, u).value - ref) <= 1e-7 * abs(ref)
