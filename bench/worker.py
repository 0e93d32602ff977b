"""Child process that runs the system under test; it never imports mpmath.

    worker.py setup WORKLOAD          time import + warm-up, print {"setup_s"}
    worker.py run WORKLOAD [SPANS]    read a deck (JSON) on stdin, time its
                                      ops, print the raw results as JSON; with
                                      SPANS, run the deck again traced and
                                      write the spans there
    worker.py cli SPANS -- ARGS...    one traced `zetaprod.cli` process

Keeping the program in its own process leaves the mpmath reference out of
set-up time and peak memory.  run.py starts it with the checkout's src/ on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

SHIFT_N = 500     # the depth the acceptance suite's shift-identity checks use


def _call(tracer, name, fn, *args):
    """One public call: [name, value, err_est, terms, ms, error type, warnings]."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            a = tracer.call(name, fn, *args) if tracer else fn(*args)
        except Exception as exc:   # a failed call is a measured outcome
            ms = 1000.0 * (time.perf_counter() - t0)
            return [name, None, None, None, ms, type(exc).__name__, len(caught)]
        ms = 1000.0 * (time.perf_counter() - t0)
    return [name, a.value, a.err_est, a.terms_used, ms, None, len(caught)]


class RouteSweep:
    """Every route `eval --route all` applies at (alpha, u), same arguments."""

    WARMUP = ({"alpha": 2.0, "u": 1.0, "int": True},
              {"alpha": 0.5, "u": 0.1, "int": False})   # fills every quad level

    def __init__(self):
        from zetaprod.closedform import log_z_closed
        from zetaprod.quad import (QuadConfig, integrate_double,
                                   integrate_prelim, integrate_single_d)
        from zetaprod.series import DifferenceMethod, EvalParams, log_z_direct
        self.closed, self.direct = log_z_closed, log_z_direct
        self.single, self.double = integrate_single_d, integrate_double
        self.prelim, self.params = integrate_prelim, EvalParams
        self.frullani, self.qcfg = DifferenceMethod.FRULLANI, QuadConfig()

    def warm(self):
        for p in self.WARMUP:
            self.op(p)

    def direct_tightened(self, alpha, u):
        return self.direct(self.params(alpha, u), 10000, self.frullani, True)

    def op(self, p, tracer=None):
        a, u = p["alpha"], p["u"]
        calls = []
        if p["int"] and a >= 0:
            calls.append(_call(tracer, "closedform.log_z_closed", self.closed,
                               int(a), u))
        calls.append(_call(tracer, "series.log_z_direct", self.direct_tightened,
                           a, u))
        if p["int"]:
            calls.append(_call(tracer, "quad.integrate_single_d", self.single,
                               int(a) + 1, u, self.qcfg))
        calls.append(_call(tracer, "quad.integrate_double", self.double,
                           a + 1.0, u, self.qcfg))
        calls.append(_call(tracer, "quad.integrate_prelim", self.prelim,
                           a + 1.0, u, self.qcfg))
        return calls


class ShiftIdentity:
    """S_alpha truncated at N against S_d, or the three-term shift identity."""

    def __init__(self):
        from zetaprod.closedform import s_d_closed
        from zetaprod.series import EvalParams, s_alpha_truncated
        self.closed, self.trunc, self.params = (
            s_d_closed, s_alpha_truncated, EvalParams)

    def warm(self):
        self.trunc(self.params(1.5, 1.0, s=1.5), 50)
        self.closed(1, 1.5, 1.0)

    def op(self, p, tracer=None):
        return [c for check in p["checks"] for c in self.check(check, tracer)]

    def check(self, p, tracer):
        a, s, u, n = p["alpha"], p["s"], p["u"], SHIFT_N
        P, name = self.params, "series.s_alpha_truncated"
        if p["int"]:
            return [_call(tracer, name, self.trunc, P(a, u, s=s), n),
                    _call(tracer, "closedform.s_d_closed", self.closed,
                          int(a), s, u)]
        # index-matched as in series.functional_eq_residual
        return [_call(tracer, name, self.trunc, P(a, u, s=s), n),
                _call(tracer, name, self.trunc, P(a - 1.0, u, s=s - 1.0), n + 1),
                _call(tracer, name, self.trunc, P(a - 1.0, u, s=s), n + 1)]


def _set_up(workload: str):
    """Import and warm up; returns (runner or None, seconds taken)."""
    t0 = time.perf_counter()
    if workload == "cli_oneshot":
        import zetaprod.cli  # noqa: F401  (what each CLI process pays)
        return None, time.perf_counter() - t0
    runner = RouteSweep() if workload == "route_sweep" else ShiftIdentity()
    runner.warm()
    return runner, time.perf_counter() - t0


def _run_deck(runner, deck, tracer=None):
    """Closed loop, one client: each op starts when the previous one ends."""
    ops = []
    start = time.perf_counter()
    for p in deck:
        t0 = time.perf_counter()
        calls = tracer.call("op", runner.op, p, tracer) if tracer else runner.op(p)
        ops.append({"ms": 1000.0 * (time.perf_counter() - t0), "calls": calls})
    return {"elapsed_s": time.perf_counter() - start, "ops": ops}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        from tracing import BOUNDARY, CLI_ROUTES, Tracer
        spans, cli_args = argv[1], argv[3:]
        tracer = Tracer()
        import zetaprod.cli as cli
        tracer.install(BOUNDARY + CLI_ROUTES)
        code = tracer.call("cli.main", cli.main, cli_args)
        sys.stdout.flush()
        tracer.dump(spans)
        return code
    workload = argv[1]
    if mode == "setup":
        _, setup_s = _set_up(workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    deck = json.load(sys.stdin)
    runner, setup_s = _set_up(workload)
    result = {"setup_s": setup_s, "run": _run_deck(runner, deck)}
    if len(argv) > 2:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        result["traced"] = _run_deck(runner, deck, tracer)
        tracer.dump(argv[2])
    json.dump(result, sys.stdout, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
