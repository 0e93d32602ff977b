"""The calls the benchmark (bench/) makes into the package.

The benchmark's files are loaded by path, as test_calibration.py loads the
oracle, and each of their entry points into zetaprod is run once: a change
that breaks one fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

from zetaprod import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return {name: _load(name) for name in ("worker", "tracing", "run")}


@pytest.mark.parametrize("runner,op", [
    ("RouteSweep", {"alpha": 3.0, "u": 0.7, "int": True}),
    ("ShiftIdentity", {"checks": [
        {"alpha": 2.0, "s": 2.5, "u": 0.7, "int": True},
        {"alpha": 1.5, "s": 2.5, "u": 0.7, "int": False}]}),
])
def test_worker_calls_raise_only_documented_errors(bench, runner, op):
    r = getattr(bench["worker"], runner)()
    r.warm()
    calls = r.op(op)
    tally = bench["run"].Tally()
    usable = [tally.usable(c) for c in calls]
    assert tally.broken == []
    assert all(usable)


def test_traced_names_resolve(bench):
    tracing = bench["tracing"]
    for mod_name, attr, _span in tracing.BOUNDARY + tracing.CLI_ROUTES:
        assert callable(getattr(importlib.import_module(mod_name), attr))


def test_every_traced_span_records_a_call(bench, monkeypatch):
    # a route that stops calling a traced name would leave that layer's
    # metrics at 0 without failing the benchmark
    tracing, worker = bench["tracing"], bench["worker"]
    for mod_name, attr, _span in tracing.BOUNDARY:
        mod = importlib.import_module(mod_name)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after
    tracer = tracing.Tracer()
    tracer.install()
    worker.RouteSweep().op({"alpha": 2.0, "u": 0.7, "int": True})
    worker.ShiftIdentity().op({"checks": [
        {"alpha": 2.0, "s": 2.5, "u": 0.7, "int": True}]})
    recorded = set(tracing.self_times(tracer.spans))
    assert {span for _mod, _attr, span in tracing.BOUNDARY} - recorded == set()


@pytest.mark.parametrize("op,schema", [
    ({"cmd": "eval", "alpha": 2.0, "u": 1.0}, cli.REPORT_SCHEMA_V1),
    ({"cmd": "constants"}, cli.CONSTANTS_SCHEMA_V1),
])
def test_cli_argv_runs(bench, capsys, op, schema):
    code = cli.main(bench["run"]._cli_argv(op))
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    jsonschema.validate(json.loads(out), schema)
