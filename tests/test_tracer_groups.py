"""The benchmark's traced run wraps library functions by module and name.

A rename in the library would otherwise only surface when the benchmark
runs with tracing on, so every traced name is checked here.  The tracer is
read from its file and executed in a fresh namespace: nothing is imported
from the benchmark's directory and nothing is written there.  The traced
run's coverage self-check is repeated on miniature inputs of each workload,
so a code path that stops calling a function the benchmark expects to see
busy fails here and not only in a traced benchmark run.
"""

import contextlib
import importlib
import io
import sys
import types
from pathlib import Path

import pytest

import loopsl2
import loopsl2.checks
import loopsl2.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_functions_exist():
    groups = load_tracer().GROUPS
    assert groups
    missing = []
    for group, (modname, names) in groups.items():
        module = importlib.import_module(f"loopsl2.{modname}")
        missing += [f"{group}: loopsl2.{modname}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def _cli(argv, stdin=""):
    out, saved, sys.stdin = io.StringIO(), sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert loopsl2.cli.main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _sweep():
    assert loopsl2.checks.oracle_equivalence_failures(
        max_word_len=1, idx_lo=0, idx_hi=0, max_layer=1, exp_lo=0, exp_hi=0) == []


def _scan():
    rows = loopsl2.conjecture_scan(2, 2, 2, 0, 2, 2)
    assert [r.forward_contained for r in rows] == [True]


def _division():
    q = loopsl2.theta_divisibility((-1, 0, 2, 3))
    assert not q.is_zero()
    a = loopsl2.make_sym(4, [((1, 0, 0, -1), 2), ((0, 0, 0, 0), -1)])
    b = loopsl2.make_sym(4, [((2, 1, 0, 0), 3)])
    assert loopsl2.divide_exact(loopsl2.sym_mul(a, b), b) == a


def _cli_requests():
    element = '{"terms": [{"exps": [0, 1], "coeff": "1"}]}'
    _cli(["act", "--word", "e:0 f:1 h:2"], element)
    _cli(["theta"], element)
    _cli(["singular", "--chi", "0,1"])
    _cli(["classify-hom", "--n", "2", "--zeta", "3,2"])
    _cli(["exp-dims", "--roots", "1,-1", "--dmin", "-2", "--dmax", "2"])


# miniature inputs of the benchmark's workloads, called through module
# attributes as the workloads call them, so the tracer's wrappers are hit
MINIATURES = {"oracle-sweep": _sweep, "window-scan": _scan,
              "exact-division": _division, "cli-requests": _cli_requests}


def test_miniatures_cover_every_workload():
    assert set(MINIATURES) == set(load_tracer().COVERAGE)


@pytest.mark.parametrize("workload", sorted(MINIATURES))
def test_traced_run_covers_workload(workload):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        MINIATURES[workload]()
    finally:
        tracer.uninstall()
    assert tracer.uncovered(workload) == []
