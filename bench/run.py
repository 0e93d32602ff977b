"""zetaprod benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload route_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the generators):

  route_sweep     points (alpha, u) through every route `eval --route all`
                  applies, each route called on its own
  shift_identity  S_alpha truncated at N = 500: against S_d for integer d,
                  through the three-term shift identity for fractional alpha
  cli_oneshot     `python -m zetaprod.cli eval ... --format json` and
                  `constants --format json`, one process per op

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
half the deck untraced, the same half again with spans at the package's
module boundaries, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

A call fails when it raises, returns a non-finite value, misses its mpmath
reference by more than max(1e-6, err_est), or (fractional alpha) agrees
with no other route within max(1e-6, err_a + err_b); a CLI process fails
when it exits non-zero, prints JSON that fails its schema, or prints a
failing value.  Failures are measured, not filtered: `failed` counts them.
`correct` is false only when the program breaks its own contract: an
undocumented exception type, a non-finite value returned as a result, a
traceback, or CLI output that is not schema-valid JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

PASS_FLOOR = 1e-6       # pass: |value - ref| <= max(PASS_FLOOR, err_est)
WEAK_ERR = 1e-4         # 100 x the CLI's default --tol
CONST_TOL = 1e-12       # the CLI's own golden round-trip tolerance
SETUP_SAMPLES = 21
IMPORT_SAMPLES = 5
PROCESS_TIMEOUT_S = 60      # one set-up, import probe or CLI process
DOCUMENTED_ERRORS = ("QuadratureNonConvergence", "ValueError")

E2E = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("pass_share", "share", "higher"),
    ("err_cover_share", "share", "higher"),
    ("weak_share", "share", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

CALLED = ("closedform.log_z_closed", "series.log_z_direct",
          "quad.integrate_single_d", "quad.integrate_double",
          "quad.integrate_prelim", "series.s_alpha_truncated",
          "closedform.s_d_closed")
CLI_CMDS = ("cli.eval", "cli.constants")
SPAN_CALLS = ("series.log_tn_sweep", "quad.tanh_sinh_01",
              "hurwitz.hurwitz_zeta_deriv", "hurwitz.hurwitz_zeta",
              "hurwitz.digamma", "rstirling.row_by_gf",
              "exactnum.bernoulli_poly")
SPAN_SELF = SPAN_CALLS + CALLED + ("cli.main",)
IMPORTS = ("numpy", "zetaprod", "zetaprod.exactnum", "zetaprod.rstirling",
           "zetaprod.hurwitz", "zetaprod.series", "zetaprod.closedform",
           "zetaprod.quad", "zetaprod.cli")

PER_LAYER = (
    [(f"{f}.ms_p50", "ms", "lower") for f in CALLED]
    + [(f"{f}.{k}", "count", "lower") for f in CALLED + CLI_CMDS
       for k in ("calls", "fail")]
    + [("quad.nodes", "count", "lower"),
       ("quad.integrate_double.overflow_warnings", "count", "lower")]
    + [(f"{f}.calls", "count", "lower") for f in SPAN_CALLS]
    + [(f"{f}.self_ms", "ms", "lower") for f in SPAN_SELF]
    + [(f"import.{m}.ms", "ms", "lower") for m in IMPORTS]
    + [("trace.overhead_ms", "ms", "lower")]
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(args: list[str], stdin: str | None = None,
           timeout: float = PROCESS_TIMEOUT_S):
    """Run one child to its end; a child that outlives `timeout` is killed
    and the run ends without a result."""
    try:
        return subprocess.run([sys.executable, *args], input=stdin,
                              capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {args[:3]} did not finish within {timeout:.0f} s")


def _deck_timeout(seconds: float) -> float:
    """Room for the deck at a sixth of the rate it is sized for."""
    return 30.0 + 6.0 * seconds


def _worker(args: list[str], stdin: str | None = None,
            timeout: float = PROCESS_TIMEOUT_S) -> dict:
    proc = _child([str(WORKER), *args], stdin, timeout)
    if proc.returncode != 0:
        sys.exit(f"bench: worker {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


# --------------------------------------------------------------------------
# judging outputs
# --------------------------------------------------------------------------

class Tally:
    """Outcome counts; every count repeats exactly for a fixed deck."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.with_ref = self.covered = self.returned = self.weak = 0
        self.broken: list[str] = []
        self.fn = defaultdict(lambda: {"calls": 0, "fail": 0, "ms": [],
                                       "warnings": 0, "nodes": 0})
        self.errors = defaultdict(Counter)

    def value(self, v: float, err: float, ref: float | None = None) -> bool:
        """Count one returned value; True unless it misses its reference."""
        self.returned += 1
        self.weak += err > WEAK_ERR
        if ref is None:
            return True
        self.with_ref += 1
        self.covered += abs(v - ref) <= err
        return abs(v - ref) <= max(PASS_FLOOR, err)

    def outcome(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.fn[name]["fail"] += not ok

    def usable(self, call: list) -> bool:
        """Book one in-process call; True when it returned a finite value."""
        name, v, err, terms, ms, exc, n_warn = call
        f = self.fn[name]
        f["calls"] += 1
        f["ms"].append(ms)
        f["warnings"] += n_warn
        if exc is not None:
            self.errors[name][exc] += 1
            if exc not in DOCUMENTED_ERRORS:
                self.broken.append(f"{name} raised {exc}")
            return False
        if not (math.isfinite(v) and math.isfinite(err) and err >= 0):
            self.broken.append(f"{name} returned {v!r} with err_est {err!r}")
            return False
        if name.startswith("quad."):
            f["nodes"] += terms
        return True


def _agree(a: list, b: list) -> bool:
    return abs(a[1] - b[1]) <= max(PASS_FLOOR, a[2] + b[2])


def judge_route(t: Tally, deck, ops, refs) -> None:
    for p, op in zip(deck, ops):
        calls = op["calls"]
        ok = [t.usable(c) for c in calls]
        if p["int"]:
            ref = refs[(int(p["alpha"]), p["u"])]
            ok = [u and t.value(c[1], c[2], ref) for c, u in zip(calls, ok)]
        else:   # no reference: a value passes when another route agrees
            vals = [c for c, u in zip(calls, ok) if u]
            for c in vals:
                t.value(c[1], c[2])
            ok = [u and any(o is not c and _agree(c, o) for o in vals)
                  for c, u in zip(calls, ok)]
        for c, passed in zip(calls, ok):
            t.outcome(c[0], passed)


def judge_shift(t: Tally, deck, ops, refs) -> None:
    for op_in, op in zip(deck, ops):
        calls = iter(op["calls"])
        for p in op_in["checks"]:
            checked = [next(calls) for _ in range(2 if p["int"] else 3)]
            _judge_check(t, p, checked, refs)


def _judge_check(t: Tally, p, calls, refs) -> None:
    ok = [t.usable(c) for c in calls]
    if p["int"]:
        ref = refs[(int(p["alpha"]), p["s"], p["u"])]
        ok = [u and t.value(c[1], c[2], ref) for c, u in zip(calls, ok)]
    elif all(ok):
        for c in calls:
            t.value(c[1], c[2])
        a, u = p["alpha"], p["u"]
        (_, sa, ea, *_), (_, sb, eb, *_), (_, sc, ec, *_) = calls
        residual = a * sa - sb - (a - u) * sc
        allowed = abs(a) * ea + eb + abs(a - u) * ec
        ok = [abs(residual) <= max(PASS_FLOOR, allowed)] * 3
    else:   # one call declined: the identity cannot vouch for the others
        for c, u in zip(calls, ok):
            if u:
                t.value(c[1], c[2])
        ok = [False] * 3
    for c, passed in zip(calls, ok):
        t.outcome(c[0], passed)


def judge_cli(t: Tally, deck, ops, refs) -> None:
    import jsonschema
    from zetaprod.cli import CONSTANTS_SCHEMA_V1, REPORT_SCHEMA_V1
    for p, op in zip(deck, ops):
        name = f"cli.{p['cmd']}"
        t.fn[name]["calls"] += 1
        code, out, err = op["code"], op["stdout"], op["stderr"]
        ok = code == 0
        if code not in (0, 1) or "Traceback" in err:
            t.broken.append(f"{name} exit {code}: {err.strip()[-300:]}")
        if code != 0:   # keyed by the CLI's message prefix, e.g. "numeric failure"
            last = err.strip().splitlines()[-1] if err.strip() else ""
            t.errors[name][last.split(":")[0] or f"exit {code}"] += 1
        if out.strip():
            schema = REPORT_SCHEMA_V1 if p["cmd"] == "eval" else CONSTANTS_SCHEMA_V1
            try:
                obj = json.loads(out)
                jsonschema.validate(obj, schema)
            except (ValueError, jsonschema.ValidationError) as exc:
                t.broken.append(f"{name}: bad JSON output ({exc})"[:300])
                t.outcome(name, False)
                continue
            if p["cmd"] == "eval":
                ref = refs[(int(p["alpha"]), p["u"])]
                for r in obj["results"]:
                    ok = t.value(r["value"], r["err_est"], ref) and ok
            else:
                for r in obj["constants"]:
                    want = refs["constants"][r["name"]]
                    ok = ok and abs(r["value"] - want) <= CONST_TOL * max(1.0, abs(want))
        else:
            ok = False
        t.outcome(name, ok)


def references(workload: str, deck) -> dict:
    import oracle
    from workloads import points
    refs = {}
    for p in points(deck):
        if not p["int"]:
            continue
        d = int(p["alpha"])
        if workload == "shift_identity":
            refs[(d, p["s"], p["u"])] = oracle.s_d(d, p["s"], p["u"])
        else:
            refs[(d, p["u"])] = oracle.log_z(d, p["u"])
    if workload == "cli_oneshot":
        refs["constants"] = oracle.constants()
    return refs


JUDGE = {"route_sweep": judge_route, "shift_identity": judge_shift,
         "cli_oneshot": judge_cli}


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def _cli_argv(p: dict) -> list[str]:
    if p["cmd"] == "constants":
        return ["constants", "--format", "json"]
    return ["eval", "--d", str(int(p["alpha"])), "--u", repr(p["u"]),
            "--format", "json"]


def run_cli(deck, spans_path: Path | None = None) -> dict:
    """One process per op, each started when the previous one has exited."""
    ops, spans = [], []
    start = time.perf_counter()
    for p in deck:
        if spans_path is None:
            argv = ["-m", "zetaprod.cli", *_cli_argv(p)]
        else:
            argv = [str(WORKER), "cli", str(spans_path), "--", *_cli_argv(p)]
        t0 = time.perf_counter()
        proc = _child(argv)
        ms = 1000.0 * (time.perf_counter() - t0)
        ops.append({"ms": ms, "code": proc.returncode, "stdout": proc.stdout,
                    "stderr": proc.stderr})
        if spans_path is not None:
            base = len(spans)
            spans += [[n, s, e, parent + base if parent >= 0 else -1]
                      for n, s, e, parent in json.loads(spans_path.read_text())]
    elapsed = time.perf_counter() - start
    if spans_path is not None:
        spans_path.write_text(json.dumps(spans))
    return {"elapsed_s": elapsed, "ops": ops}


def setup_samples(workload: str, n: int) -> list[float]:
    return [_worker(["setup", workload])["setup_s"] for _ in range(n)]


def import_times() -> dict[str, float]:
    """Median over fresh processes of each module's import time (ms):
    cumulative for numpy, self time for the package's own modules."""
    from tracing import parse_importtime
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = _child(["-X", "importtime", "-c", "import zetaprod.cli"])
        if proc.returncode != 0:
            sys.exit(f"bench: import probe failed:\n{proc.stderr}")
        times = parse_importtime(proc.stderr)
        for m in IMPORTS:   # a module the CLI no longer imports reads 0
            self_ms, cum_ms = times.get(m, (0.0, 0.0))
            samples[m].append(cum_ms if m == "numpy" else self_ms)
    return {m: statistics.median(v) for m, v in samples.items()}


def execute(workload: str, deck, seconds: float, traced: bool,
            spans_path: Path):
    """Returns (setup samples, untraced run, traced run or None).

    The machine's speed drifts over seconds, so half the set-up samples are
    taken before the timed run and half after it."""
    setups = setup_samples(workload, SETUP_SAMPLES // 2)
    if workload == "cli_oneshot":
        run = run_cli(deck)
        traced_run = run_cli(deck, spans_path) if traced else None
    else:
        res = _worker(["run", workload] + ([str(spans_path)] if traced else []),
                      json.dumps(deck), _deck_timeout(seconds))
        run, traced_run = res["run"], res.get("traced")
        setups.append(res["setup_s"])
    setups += setup_samples(workload, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    return setups, run, traced_run


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(t: Tally, setups, run) -> dict[str, float]:
    ms = [op["ms"] for op in run["ops"]]
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": _p90(ms),
        "ops_per_s": len(ms) / run["elapsed_s"],
        "pass_share": 1.0 - t.failed / t.attempted,
        "err_cover_share": t.covered / t.with_ref if t.with_ref else 1.0,
        "weak_share": t.weak / t.returned if t.returned else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(t: Tally, run, traced, spans, imports) -> dict[str, float]:
    from tracing import self_times
    out = {}
    for f in CALLED:
        ms = t.fn[f]["ms"]
        out[f"{f}.ms_p50"] = statistics.median(ms) if ms else 0.0
    for f in CALLED + CLI_CMDS:
        out[f"{f}.calls"] = t.fn[f]["calls"]
        out[f"{f}.fail"] = t.fn[f]["fail"]
    out["quad.nodes"] = sum(r["nodes"] for f, r in t.fn.items() if f.startswith("quad."))
    out["quad.integrate_double.overflow_warnings"] = t.fn["quad.integrate_double"]["warnings"]
    agg = self_times(spans)
    n_ops = len(traced["ops"])
    for f in SPAN_CALLS:
        out[f"{f}.calls"] = agg.get(f, (0, 0.0))[0]
    for f in SPAN_SELF:
        out[f"{f}.self_ms"] = 1000.0 * agg.get(f, (0, 0.0))[1] / n_ops
    for m in IMPORTS:
        out[f"import.{m}.ms"] = imports[m]
    out["trace.overhead_ms"] = (statistics.median(op["ms"] for op in traced["ops"])
                                - statistics.median(op["ms"] for op in run["ops"]))
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS, input_properties, make_deck
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zetaprod" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))

    traced = args.trace == 1
    deck = make_deck(args.workload, args.seed,
                     args.seconds / 2 if traced else args.seconds)
    spans_path = OUT / f"{args.workload}-{args.seed}-spans.json"
    if traced:
        OUT.mkdir(exist_ok=True)
    setups, run, traced_run = execute(args.workload, deck, args.seconds, traced,
                                      spans_path)

    refs = references(args.workload, deck)
    tally = Tally()
    JUDGE[args.workload](tally, deck, run["ops"], refs)
    if traced:
        # outputs of the traced pass are checked too; only contract breaks count
        shadow = Tally()
        JUDGE[args.workload](shadow, deck, traced_run["ops"], refs)
        tally.broken += shadow.broken
        spans = json.loads(spans_path.read_text())
        metrics = per_layer(tally, run, traced_run, spans, import_times())
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = end_to_end(tally, setups, run)
        units = {n: u for n, u, _ in E2E}

    print(f"workload {args.workload}, seed {args.seed}: {len(deck)} ops, "
          f"closed loop, 1 client{', traced' if traced else ''}")
    print("inputs: " + json.dumps(input_properties(deck)))
    print("errors: " + json.dumps({k: dict(v) for k, v in sorted(tally.errors.items())}))
    print(f"calls: {tally.attempted} attempted, {tally.failed} failed; "
          f"err_est covers {tally.covered}/{tally.with_ref}; "
          f"weak {tally.weak}/{tally.returned}")
    for msg in tally.broken[:20]:
        print(f"contract break: {msg}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not tally.broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
