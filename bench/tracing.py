"""Spans at the package's module boundaries, self times, import times.

The traced run replaces module-global names with wrappers that record a
span around each call.  A module calls these names through its own globals,
so wrapping `zetaprod.closedform.hurwitz_zeta` sees every call closedform
makes into hurwitz and nothing else.  Spans are kept in memory and written
out when the run ends; a span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import time
from collections import defaultdict

# (module whose global is wrapped, global name, span name)
BOUNDARY = (
    ("zetaprod.series", "log_tn_sweep", "series.log_tn_sweep"),
    ("zetaprod.quad", "tanh_sinh_01", "quad.tanh_sinh_01"),
    ("zetaprod.closedform", "hurwitz_zeta_deriv", "hurwitz.hurwitz_zeta_deriv"),
    ("zetaprod.closedform", "hurwitz_zeta", "hurwitz.hurwitz_zeta"),
    ("zetaprod.closedform", "digamma", "hurwitz.digamma"),
    ("zetaprod.closedform", "row_by_gf", "rstirling.row_by_gf"),
    ("zetaprod.closedform", "bernoulli_poly", "exactnum.bernoulli_poly"),
)

# the route functions as the CLI calls them, for traced CLI processes
CLI_ROUTES = (
    ("zetaprod.cli", "log_z_closed", "closedform.log_z_closed"),
    ("zetaprod.cli", "log_z_direct", "series.log_z_direct"),
    ("zetaprod.cli", "integrate_single_d", "quad.integrate_single_d"),
    ("zetaprod.cli", "integrate_double", "quad.integrate_double"),
    ("zetaprod.cli", "integrate_prelim", "quad.integrate_prelim"),
)


class Tracer:
    """Records spans as [name, start, end, parent index] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self, boundary=BOUNDARY) -> None:
        for mod_name, attr, span_name in boundary:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)

            @functools.wraps(original)
            def traced(*args, _fn=original, _name=span_name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(mod, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time in seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - child[i]
    return {k: (v[0], v[1]) for k, v in out.items()}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, tuple[float, float]]:
    """`-X importtime` output -> module -> (self ms, cumulative ms)."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(4)] = (int(m.group(1)) / 1000.0, int(m.group(2)) / 1000.0)
    return out
