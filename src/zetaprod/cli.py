"""Command-line front end.

Subcommands:
  eval        evaluate log z_alpha(u) by one route or all applicable routes,
              with pairwise cross-checking and a pass/fail verdict
  constants   print the named-constants table; every value is re-derived at
              startup and compared against the golden file at 1e-12
  crosscheck  run the route-agreement matrix over a (d, u) grid
  stirling    shifted r-Stirling row entries at shift 1-u (exact or float)
  zeta        Hurwitz zeta values and s-derivatives

Exit codes: 0 = pass, 1 = numeric verdict failure, quadrature
non-convergence or float overflow, 2 = usage or domain error, 3 = I/O
error (golden file missing or corrupt).

JSON output is schema-versioned (schema_version = 1), byte-deterministic
(no timestamps or timings in JSON; wall times appear only in plain output),
and rejects unknown fields on validation.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple

from .closedform import D_MAX, log_z_closed
from .hurwitz import (agm, euler_gamma, hurwitz_zeta, hurwitz_zeta_deriv,
                      log_bendersky)
from .quad import (QuadratureNonConvergence, integrate_double,
                   integrate_prelim, integrate_single_d)
from .rstirling import row_by_gf
from .series import Approximation, EvalParams, log_z_direct

__all__ = [
    "main",
    "EvalReport",
    "GoldenEntry",
    "EXIT_PASS",
    "EXIT_NUMERIC_FAIL",
    "EXIT_USAGE",
    "EXIT_IO",
    "REPORT_SCHEMA_V1",
    "CONSTANTS_SCHEMA_V1",
    "ROUTES",
    "ROUTE_CHOICES",
    "ALPHA_MAX",
    "derive_constants",
    "golden_path",
]

EXIT_PASS = 0
EXIT_NUMERIC_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

SCHEMA_VERSION = 1

# Largest |alpha| (and |d| of a crosscheck grid) the CLI accepts.
ALPHA_MAX = D_MAX


class Route(NamedTuple):
    name: str
    declines: Callable[[float], str | None]
    evaluate: Callable[[float, float], Approximation]


def _is_int(alpha: float) -> bool:
    return float(alpha) == int(alpha)


def _excluded(alpha: float) -> str | None:
    return (f"alpha = {alpha} is an excluded negative integer"
            if _is_int(alpha) and alpha <= -2 else None)


# Every route in report order.  declines(alpha) is the reason a route does
# not apply, or None.  evaluate(alpha, u) looks up its module-level route
# function when called, so a name patched at run time is seen.  The series
# sums the whole series, the integrals run on quad.DEFAULT_QUAD.
# Integrand index d gives log z_{d-1}: integrals take alpha + 1.  The single
# integral stops at alpha = 11, the last target measured clean on the grid u;
# from alpha = 12 its err_est under-reports and from about 16 it fails.
ROUTES = (
    Route("closed",
          lambda a: None if _is_int(a) and a >= 0
          else "closed form needs integer alpha >= 0",
          lambda a, u: log_z_closed(int(a), u)),
    Route("series", _excluded,
          lambda a, u: log_z_direct(EvalParams(a, u))),
    Route("integral-single",
          lambda a: _excluded(a) or (
              None if _is_int(a) and -1 <= a <= 11
              else "single integral needs integer alpha in -1..11"),
          lambda a, u: integrate_single_d(int(a) + 1, u)),
    Route("integral-double",
          lambda a: _excluded(a) or (
              None if a > -2 else "double integral needs alpha > -2"),
          lambda a, u: integrate_double(a + 1.0, u)),
    Route("integral-prelim",
          lambda a: _excluded(a) or (
              None if a > -2 else "preliminary integral needs alpha > -2"),
          lambda a, u: integrate_prelim(a + 1.0, u)),
)

ROUTE_CHOICES = tuple(r.name for r in ROUTES) + ("all",)


@dataclass(frozen=True)
class GoldenEntry:
    name: str
    expression: str
    value: float
    source: str  # paper_closed_form | derived_oracle

    def __post_init__(self):
        if self.source not in ("paper_closed_form", "derived_oracle"):
            raise ValueError(f"GoldenEntry: bad source tag {self.source!r}")
        if not math.isfinite(self.value):
            raise ValueError("GoldenEntry: value must be finite")


class RouteResult(NamedTuple):
    route: str
    value: float
    err_est: float
    terms: int
    ms: float


@dataclass
class EvalReport:
    """One evaluation or cross-check: inputs, per-route results, verdict."""

    request: dict
    results: list[RouteResult] = field(default_factory=list)
    skipped: list = field(default_factory=list)   # (route, reason)
    deviations: list = field(default_factory=list)  # (route_a, route_b, absdiff, allowed)
    verdict: str | None = None                     # pass | fail | None

    def finish(self, tol: float) -> None:
        """Fill pairwise deviations; pass iff every |diff| fits within
        max(tol, combined reported error)."""
        self.deviations = [
            (a.route, b.route, abs(a.value - b.value),
             max(tol, a.err_est + b.err_est))
            for a, b in itertools.combinations(self.results, 2)]
        ok = all(diff <= allowed for (_, _, diff, allowed) in self.deviations)
        self.verdict = "pass" if ok else "fail"

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "request": self.request,
            "results": [
                {"route": r.route, "value": r.value, "err_est": r.err_est,
                 "terms": r.terms}
                for r in self.results
            ],
            "skipped": [{"route": r, "reason": why} for (r, why) in self.skipped],
            "deviations": [
                {"a": a, "b": b, "abs_diff": d, "allowed": al}
                for (a, b, d, al) in self.deviations
            ],
            "verdict": self.verdict,
        }


# JSON schemas (draft-07 style), versioned from 1; unknown fields rejected.
_RESULT_SCHEMA = {
    "type": "object",
    "properties": {
        "route": {"type": "string"},
        "value": {"type": "number"},
        "err_est": {"type": "number"},
        "terms": {"type": "integer"},
    },
    "required": ["route", "value", "err_est", "terms"],
    "additionalProperties": False,
}

REPORT_SCHEMA_V1 = {
    "type": "object",
    "properties": {
        "schema_version": {"const": 1},
        "request": {"type": "object"},
        "results": {"type": "array", "items": _RESULT_SCHEMA},
        "skipped": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"route": {"type": "string"},
                               "reason": {"type": "string"}},
                "required": ["route", "reason"],
                "additionalProperties": False,
            },
        },
        "deviations": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"a": {"type": "string"}, "b": {"type": "string"},
                               "abs_diff": {"type": "number"},
                               "allowed": {"type": "number"}},
                "required": ["a", "b", "abs_diff", "allowed"],
                "additionalProperties": False,
            },
        },
        "verdict": {"enum": ["pass", "fail", None]},
    },
    "required": ["schema_version", "request", "results", "skipped",
                 "deviations", "verdict"],
    "additionalProperties": False,
}

CONSTANTS_SCHEMA_V1 = {
    "type": "object",
    "properties": {
        "schema_version": {"const": 1},
        "constants": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "expression": {"type": "string"},
                    "value": {"type": "number"},
                    "source": {"enum": ["paper_closed_form", "derived_oracle"]},
                    "rederived": {"type": "number"},
                    "abs_diff": {"type": "number"},
                    "ok": {"type": "boolean"},
                },
                "required": ["name", "expression", "value", "source",
                             "rederived", "abs_diff", "ok"],
                "additionalProperties": False,
            },
        },
        "verdict": {"enum": ["pass", "fail"]},
    },
    "required": ["schema_version", "constants", "verdict"],
    "additionalProperties": False,
}


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------------
# constants / golden file
# --------------------------------------------------------------------------

def derive_constants() -> list[GoldenEntry]:
    """Re-derive every golden constant through its defining route."""
    g = euler_gamma()
    z3 = hurwitz_zeta(3.0, 1.0).value
    log_a = log_bendersky(1)
    m = agm(2.0, math.sqrt(2.0 + math.sqrt(3.0)))
    g13 = 2.0 ** (7.0 / 9.0) * math.pi ** (2.0 / 3.0) / (
        3.0 ** (1.0 / 12.0) * m ** (1.0 / 3.0))
    return [
        GoldenEntry("euler_gamma", "-digamma(1)", g, "derived_oracle"),
        GoldenEntry("log_two_pi", "log(2*pi)", math.log(2.0 * math.pi),
                    "derived_oracle"),
        GoldenEntry("log_glaisher_A", "1/12 - zeta_deriv(-1)", log_a,
                    "derived_oracle"),
        GoldenEntry("glaisher_A", "exp(1/12 - zeta_deriv(-1))", math.exp(log_a),
                    "derived_oracle"),
        GoldenEntry("zeta3", "zeta(3)", z3, "derived_oracle"),
        GoldenEntry("log_A2", "zeta(3)/(4*pi^2)", z3 / (4.0 * math.pi ** 2),
                    "paper_closed_form"),
        GoldenEntry("gamma_one_third",
                    "2^(7/9)*pi^(2/3) / (3^(1/12)*AGM(2,sqrt(2+sqrt(3)))^(1/3))",
                    g13, "paper_closed_form"),
    ]


def golden_path() -> str:
    return str(resources.files("zetaprod").joinpath("data/golden.csv"))


def write_golden(path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "expression", "value", "source"])
        for e in derive_constants():
            w.writerow([e.name, e.expression, repr(e.value), e.source])


def read_golden(path: str) -> list[GoldenEntry]:
    """Parse the golden CSV; any structural problem raises OSError."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["name", "expression", "value", "source"]:
        raise OSError(f"golden file {path}: bad or missing header")
    out = []
    seen = set()
    for row in rows[1:]:
        if len(row) != 4:
            raise OSError(f"golden file {path}: malformed row {row!r}")
        name, expression, value_s, source = row
        try:
            value = float(value_s)
            entry = GoldenEntry(name, expression, value, source)
        except ValueError as exc:
            raise OSError(f"golden file {path}: {exc}") from exc
        if name in seen:
            raise OSError(f"golden file {path}: duplicate name {name}")
        seen.add(name)
        out.append(entry)
    return out


GOLDEN_TOL = 1e-12


# --------------------------------------------------------------------------
# eval plumbing
# --------------------------------------------------------------------------

def _run_eval(alpha: float, u: float, route: str, tol: float) -> EvalReport:
    report = EvalReport(request={
        "command": "eval", "alpha": alpha, "u": u, "route": route, "tol": tol,
    })
    wanted = [r for r in ROUTES if route in ("all", r.name)]
    for r in wanted:
        why = r.declines(alpha)
        if why is not None:
            if route != "all":
                raise ValueError(f"route {r.name} inapplicable: {why}")
            report.skipped.append((r.name, why))
            continue
        t0 = time.perf_counter()
        try:
            approx = r.evaluate(alpha, u)
        except (QuadratureNonConvergence, ValueError, OverflowError) as exc:
            # a crosscheck runs many routes and cells: say which one failed
            exc.args = (f"{r.name} at alpha={alpha}, u={u}: {exc}",)
            raise
        ms = 1000.0 * (time.perf_counter() - t0)
        report.results.append(RouteResult(r.name, approx.value, approx.err_est,
                                          approx.terms_used, ms))
    if not report.results:
        raise ValueError(f"no route applies to alpha = {alpha}: "
                         + "; ".join(f"{r}: {why}" for r, why in report.skipped))
    report.finish(tol)
    return report


def _render_eval_plain(report: EvalReport, out) -> None:
    req = report.request
    print(f"log z_alpha(u) at alpha={req['alpha']} u={req['u']}", file=out)
    print(f"{'route':<17}{'value':<24}{'err_est':<12}{'terms':<9}ms", file=out)
    for r in report.results:
        print(f"{r.route:<17}{r.value:<24.16g}{r.err_est:<12.3g}{r.terms:<9d}"
              f"{r.ms:.1f}", file=out)
    for (r, why) in report.skipped:
        print(f"{r:<17}skipped: {why}", file=out)
    for (a, b, d, al) in report.deviations:
        print(f"|{a} - {b}| = {d:.3g} (allowed {al:.3g})", file=out)
    print(f"verdict: {report.verdict} (tol {req['tol']:g})", file=out)


def _render_eval_csv(report: EvalReport, out) -> None:
    w = csv.writer(out)
    w.writerow(["route", "value", "err_est", "terms"])
    for r in report.results:
        w.writerow([r.route, repr(r.value), repr(r.err_est), r.terms])


def cmd_eval(args, out) -> int:
    if (args.d is None) == (args.alpha is None):
        raise ValueError("exactly one of --d / --alpha is required")
    alpha = args.alpha if args.d is None else args.d
    if not -math.inf < alpha < math.inf:   # exact for a huge integer --d
        raise ValueError("alpha must be finite")
    if abs(alpha) > ALPHA_MAX:
        raise ValueError(f"alpha must satisfy |alpha| <= {ALPHA_MAX}")
    alpha = float(alpha)
    if not args.u > 0:
        raise ValueError("u must be > 0")
    if not math.isfinite(args.u):
        raise ValueError("u must be finite")
    if not args.tol > 0:
        raise ValueError("tol must be > 0")
    report = _run_eval(alpha, args.u, args.route, args.tol)
    if args.format == "json":
        out.write(_dump_json(report.to_json_obj()))
    elif args.format == "csv":
        _render_eval_csv(report, out)
    else:
        _render_eval_plain(report, out)
    return EXIT_PASS if report.verdict == "pass" else EXIT_NUMERIC_FAIL


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

def cmd_constants(args, out) -> int:
    path = args.golden or golden_path()
    if args.regen:
        write_golden(path)
        print(f"golden file written: {path}", file=out)
        return EXIT_PASS
    golden = read_golden(path)
    derived = {e.name: e for e in derive_constants()}
    if set(derived) != {e.name for e in golden}:
        raise OSError(f"golden file {path}: entry names do not match the "
                      "derivable constants")
    rows = []
    for e in golden:
        re_derived = derived[e.name].value
        diff = abs(re_derived - e.value)
        rows.append({"name": e.name, "expression": e.expression,
                     "value": e.value, "source": e.source,
                     "rederived": re_derived, "abs_diff": diff,
                     "ok": diff <= GOLDEN_TOL})
    ok_all = all(r["ok"] for r in rows)
    if args.format == "json":
        obj = {"schema_version": SCHEMA_VERSION, "constants": rows,
               "verdict": "pass" if ok_all else "fail"}
        out.write(_dump_json(obj))
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["name", "expression", "value", "source"])
        for r in rows:
            w.writerow([r["name"], r["expression"], repr(r["value"]),
                        r["source"]])
    else:
        print(f"{'name':<18}{'value':<24}{'check':<10}expression", file=out)
        for r in rows:
            mark = "ok" if r["ok"] else f"FAIL {r['abs_diff']:.2e}"
            print(f"{r['name']:<18}{r['value']:<24.16g}{mark:<10}"
                  f"{r['expression']}", file=out)
        print(f"verdict: {'pass' if ok_all else 'fail'} "
              f"(round-trip tol {GOLDEN_TOL:g})", file=out)
    return EXIT_PASS if ok_all else EXIT_NUMERIC_FAIL


# --------------------------------------------------------------------------
# crosscheck
# --------------------------------------------------------------------------

def _parse_grid_d(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
        else:
            vals = [int(p) for p in text.split(",") if p != ""]
            lo, hi = min(vals), max(vals)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed --grid-d {text!r}: use e.g. 0..5 or 0,2,4")
    if max(-lo, hi) > ALPHA_MAX:
        raise ValueError(f"--grid-d values must satisfy |d| <= {ALPHA_MAX}")
    return list(range(lo, hi + 1)) if ".." in text else vals


def _parse_grid_u(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p != ""]
        if not vals or any(not 0 < v < math.inf for v in vals):
            raise ValueError
        return vals
    except ValueError:
        raise ValueError(f"malformed --grid-u {text!r}: use e.g. 0.5,1,2")


def cmd_crosscheck(args, out) -> int:
    ds = _parse_grid_d(args.grid_d)
    us = _parse_grid_u(args.grid_u)
    if not args.tol > 0:
        raise ValueError("tol must be > 0")
    cells = [(d, u) for d in ds for u in us]
    reports = [_run_eval(float(d), u, "all", args.tol) for (d, u) in cells]
    failures = sum(r.verdict != "pass" for r in reports)
    if args.format == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "cells": [r.to_json_obj() for r in reports],
            "pass_count": len(reports) - failures,
            "fail_count": failures,
            "verdict": "pass" if failures == 0 else "fail",
        }
        out.write(_dump_json(obj))
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["d", "u", "route", "value", "err_est", "terms"])
        for (d, u), r in zip(cells, reports):
            for x in r.results:
                w.writerow([d, u, x.route, repr(x.value), repr(x.err_est),
                            x.terms])
    else:
        for (d, u), r in zip(cells, reports):
            worst = max((dev[2] for dev in r.deviations), default=0.0)
            print(f"d={d} u={u}: {r.verdict} (worst |diff| {worst:.3g})",
                  file=out)
        print(f"summary: {len(reports) - failures} pass, {failures} fail",
              file=out)
    return EXIT_PASS if failures == 0 else EXIT_NUMERIC_FAIL


# --------------------------------------------------------------------------
# stirling / zeta
# --------------------------------------------------------------------------

def _parse_exact(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)  # exact decimal-string parse
    except ZeroDivisionError:
        raise ValueError(f"u = {text} has a zero denominator") from None


def cmd_stirling(args, out) -> int:
    if args.n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= args.k <= args.n:
        raise ValueError("k must satisfy 0 <= k <= n")
    if args.exact:
        u = _parse_exact(args.u)
        row = row_by_gf(args.n, Fraction(1) - u)
        print(str(row.coeffs[args.k]), file=out)
    else:
        u = float(_parse_exact(args.u)) if ("/" in args.u) else float(args.u)
        if not math.isfinite(u):
            raise ValueError("u must be finite")
        entry = row_by_gf(args.n, 1.0 - u).coeffs[args.k]
        if not math.isfinite(entry):
            raise OverflowError(f"the float row entry is {entry!r}; "
                                "--exact gives it as p/q")
        print(repr(entry), file=out)
    return EXIT_PASS


def cmd_zeta(args, out) -> int:
    if not math.isfinite(args.s):
        raise ValueError("s must be finite")
    if not math.isfinite(args.u):
        raise ValueError("u must be finite")
    if args.s == 1.0:
        raise ValueError("s = 1 is the zeta pole (the regularized value "
                         "there is -digamma(u))")
    if not args.u > 0:
        raise ValueError("u must be > 0")
    if args.deriv:
        z = hurwitz_zeta_deriv(args.s, args.u)
        print(repr(z.deriv), file=out)
    else:
        z = hurwitz_zeta(args.s, args.u)
        print(repr(z.value), file=out)
    return EXIT_PASS


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetaprod",
        description="Cross-validated evaluation of alternating-binomial "
                    "infinite products and their Hurwitz-zeta closed forms.")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate log z_alpha(u) by route(s)")
    pe.add_argument("--d", type=int, default=None,
                    help="integer product shift (target log z_d(u))")
    pe.add_argument("--alpha", type=float, default=None,
                    help="real product shift (target log z_alpha(u))")
    pe.add_argument("--u", type=float, default=1.0)
    pe.add_argument("--route", choices=ROUTE_CHOICES, default="all")
    pe.add_argument("--tol", type=float, default=1e-6,
                    help="pairwise deviation tolerance; a pair passes when "
                         "|diff| <= max(tol, combined err_est)")
    pe.add_argument("--format", choices=("plain", "json", "csv"),
                    default="plain")
    pe.set_defaults(fn=cmd_eval)

    pc = sub.add_parser("constants", help="named constants table + golden check")
    pc.add_argument("--format", choices=("plain", "json", "csv"),
                    default="plain")
    pc.add_argument("--golden", default=None, help="override golden CSV path")
    pc.add_argument("--regen", action="store_true",
                    help="regenerate the golden CSV from the oracles")
    pc.set_defaults(fn=cmd_constants)

    px = sub.add_parser("crosscheck", help="route-agreement matrix")
    px.add_argument("--grid-d", default="0..5")
    px.add_argument("--grid-u", default="0.5,1,2")
    px.add_argument("--tol", type=float, default=1e-6)
    px.add_argument("--format", choices=("plain", "json", "csv"),
                    default="plain")
    px.set_defaults(fn=cmd_crosscheck)

    ps = sub.add_parser("stirling", help="shifted r-Stirling row entry")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--u", type=str, required=True,
                    help="shift parameter; fractions like 1/3 are exact")
    ps.add_argument("--exact", action="store_true",
                    help="exact rational arithmetic, output as p/q")
    ps.set_defaults(fn=cmd_stirling)

    pz = sub.add_parser("zeta", help="Hurwitz zeta value / derivative")
    pz.add_argument("--s", type=float, required=True)
    pz.add_argument("--u", type=float, default=1.0)
    pz.add_argument("--deriv", action="store_true")
    pz.set_defaults(fn=cmd_zeta)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize --help to 0
        return int(exc.code or 0)
    out = sys.stdout
    try:
        # numpy's overflow warnings are route internals: failures raise
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.fn(args, out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (QuadratureNonConvergence, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
