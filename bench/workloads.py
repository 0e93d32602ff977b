"""Seeded input decks for the three workloads, and their input properties.

route_sweep is stratified rather than drawn independently: u comes from a
Latin hypercube over log u, integer d cycles evenly through its range, and
fractional alpha is jittered inside equal-width strata.  Two seeds therefore
give different points with almost the same mix of fast, slow and failing
cases.  shift_identity and cli_oneshot make too few calls a run for that:
their points are a fixed design, and the seed sets the order in which
they run (see shift_ops and cli_ops).

A deck has a fixed number of ops, sized from the run length at the nominal
rate of the seed commit (cli_oneshot rounds it to whole rows of its design);
the counts a run reports (calls, failures, nodes,
warnings) then repeat exactly for a fixed seed and run length.
"""

from __future__ import annotations

import math
import random

U_LO, U_HI = 0.05, 10.0          # documented domain of u
D_LO, D_HI = -1, 8               # integer targets of route_sweep / cli_oneshot
ALPHA_LO, ALPHA_HI = -1.0, 8.0   # fractional alpha in (ALPHA_LO, ALPHA_HI]
INT_SHARE = 0.6

# shift_identity: u over the same documented domain; s over the span of the
# acceptance suite's shift-identity points (s = 1.5, 2, 3); fractional alpha
# over d's range 0..5 widened by a half each side, which holds the suite's
# alpha = 0.5, 1.5, 2
SHIFT_D_HI = 5
SHIFT_S_LO, SHIFT_S_HI = 1.5, 3.0
SHIFT_ALPHA_LO, SHIFT_ALPHA_HI = 0.5, 5.5

# cli_oneshot: one `constants` op per block of this many.  An assumed mix:
# nothing in the project records how often each command is run.
CONSTANTS_EVERY = 5

# ops per second of run length, measured at the seed commit (2-core Xeon)
NOMINAL_RATE = {"route_sweep": 24.0, "shift_identity": 1.7, "cli_oneshot": 3.5}

WORKLOADS = tuple(NOMINAL_RATE)


def deck_size(workload: str, seconds: float) -> int:
    return max(3, round(NOMINAL_RATE[workload] * seconds))


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One jittered point per equal stratum of [lo, hi], in random order."""
    pts = [lo + (hi - lo) * (i + rng.uniform(0.05, 0.95)) / n for i in range(n)]
    rng.shuffle(pts)
    return pts


def _log_u(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [math.exp(x) for x in _stratified(rng, n, math.log(lo), math.log(hi))]


def _fractional(x: float) -> float:
    """Nudge x off an integer (the stratum jitter makes this rare)."""
    return x + 1e-3 if float(x) == int(x) else x


def _balanced_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    span = hi - lo + 1
    vals = [lo + i % span for i in range(n)]
    rng.shuffle(vals)
    return vals


def route_points(rng: random.Random, n: int) -> list[dict]:
    n_int = round(INT_SHARE * n)
    us = _log_u(rng, n, U_LO, U_HI)
    alphas = ([float(d) for d in _balanced_ints(rng, n_int, D_LO, D_HI)]
              + [_fractional(a) for a in
                 _stratified(rng, n - n_int, ALPHA_LO, ALPHA_HI)])
    pts = [{"alpha": a, "u": u, "int": i < n_int}
           for i, (a, u) in enumerate(zip(alphas, us))]
    rng.shuffle(pts)
    return pts


def _halton(n: int) -> list[tuple[float, float, float]]:
    """The first n points of the Halton sequence in [0, 1)^3 (bases 2, 3, 5)."""
    def radical_inverse(i: int, base: int) -> float:
        x, f = 0.0, 1.0 / base
        while i:
            x, i = x + f * (i % base), i // base
            f /= base
        return x
    return [tuple(radical_inverse(i, b) for b in (2, 3, 5)) for i in range(1, n + 1)]


def _scale(x: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * x


def shift_ops(rng: random.Random, n: int) -> list[dict]:
    """Each op is one integer-d check and one fractional-alpha check.

    Pairing them keeps the checks half and half while giving each op one
    latency mode: as separate ops, the median latency would sit on the gap
    between the one-call and the three-call checks and jump with the seed.

    Like cli_oneshot, the ops are a fixed design and the seed sets only
    their order.  Op k pairs the integer check at point k of a Halton
    sequence over (d or alpha, s, log u) with the fractional check at its
    mirror image in (s, log u).  Whether err_est covers the error, and
    whether it exceeds 1e-4, turns on where (s, u) falls against a curved
    boundary; with about 170 calls a run, drawing fresh points moved
    weak_share by a third and err_cover_share by a tenth from seed to seed,
    and pairing the checks by seed moved the median latency with it.
    """
    log_u = math.log(U_LO), math.log(U_HI)
    design = _halton(n)
    ints = [{"alpha": float(min(SHIFT_D_HI, int(x * (SHIFT_D_HI + 1)))),
             "s": _fractional(_scale(y, SHIFT_S_LO, SHIFT_S_HI)),
             "u": math.exp(_scale(z, *log_u)), "int": True} for x, y, z in design]
    fracs = [{"alpha": _fractional(_scale(x, SHIFT_ALPHA_LO, SHIFT_ALPHA_HI)),
              "s": _fractional(_scale(1.0 - y, SHIFT_S_LO, SHIFT_S_HI)),
              "u": math.exp(_scale(1.0 - z, *log_u)), "int": False}
             for x, y, z in design]
    ops = [{"checks": [i, f]} for i, f in zip(ints, fracs)]
    rng.shuffle(ops)
    return ops


def cli_ops(rng: random.Random, n: int) -> list[dict]:
    """`eval` at integer points of route_sweep's distribution, with one
    `constants` op in every CONSTANTS_EVERY.

    The points are a fixed design and the seed sets only their order and
    where the `constants` ops fall: stratum k of log u (at its centre)
    pairs with d = D_LO + k mod 10, so every d meets every band of u.  A
    process aborts its whole report when one route fails, which leaves only
    a few values with err_est > 1e-4 per run; jittered points would make
    that count, and so weak_share, swing by a third from seed to seed.
    """
    span = D_HI - D_LO + 1
    n_eval = span * max(1, round(n * (CONSTANTS_EVERY - 1) / CONSTANTS_EVERY / span))
    lo, width = math.log(U_LO), math.log(U_HI / U_LO)
    ops = [{"cmd": "eval", "alpha": float(D_LO + k % span),
            "u": math.exp(lo + width * (k + 0.5) / n_eval), "int": True}
           for k in range(n_eval)]
    rng.shuffle(ops)
    out = []
    for i in range(0, n_eval, CONSTANTS_EVERY - 1):
        block = ops[i:i + CONSTANTS_EVERY - 1]
        block.insert(rng.randrange(len(block) + 1), {"cmd": "constants"})
        out += block
    return out


def make_deck(workload: str, seed: int, seconds: float) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    n = deck_size(workload, seconds)
    if workload == "route_sweep":
        return route_points(rng, n)
    if workload == "shift_identity":
        return shift_ops(rng, n)
    return cli_ops(rng, n)


def points(deck: list[dict]) -> list[dict]:
    """The evaluation points of a deck (a shift_identity op holds two)."""
    return [p for op in deck for p in op.get("checks", [op]) if "u" in p]


def input_properties(deck: list[dict]) -> dict[str, float]:
    """Shares of the input properties the known failure paths depend on.

    u <= 0.25 is the double integral's overflow path; target d >= 6 the
    single integral's non-convergence path.
    """
    pts = points(deck)
    n = len(pts) or 1
    ints = [op for op in pts if op["int"]]
    return {
        "input.int_share": len(ints) / n,
        "input.frac_share": (len(pts) - len(ints)) / n,
        "input.u_le_0.25_share": sum(op["u"] <= 0.25 for op in pts) / n,
        "input.target_d_ge_6_share": sum(op["alpha"] >= 6 for op in ints) / n,
    }
