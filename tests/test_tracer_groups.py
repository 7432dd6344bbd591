"""The benchmark's traced run wraps library functions by module and name.

A rename in the library would otherwise only surface when the benchmark
runs with tracing on, so every traced name is checked here.  The tracer is
read from its file and executed in a fresh namespace: nothing is imported
from the benchmark's directory and nothing is written there.
"""

import importlib
import types
from pathlib import Path

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
