"""Import hygiene of the library, by an AST scan of src/loopsl2.

Every imported name must be used in its module (the package __init__ only
re-exports, so it is exempt from that part), and no module may reach into
another module's private names, neither by importing them nor through a
module alias.  Every top-level function and class of the library must be
referred to somewhere in src, tests or perfbench outside its own
definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "loopsl2"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "loopsl2"


def scan(source: str, check_unused: bool = True) -> list:
    """Problems found in one module's source, as readable strings."""
    tree = ast.parse(source)
    imported = {}       # bound name -> line
    module_aliases = set()
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
                if alias.name.split(".")[0] == "loopsl2":
                    module_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                imported[bound] = node.lineno
                if _own_module(node):
                    if node.module is None:     # from . import sibling
                        module_aliases.add(bound)
                    elif _private(alias.name):
                        problems.append(f"line {node.lineno}: imports private "
                                        f"{alias.name} from {node.module}")
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in module_aliases and _private(node.attr):
            problems.append(f"line {node.lineno}: reaches into "
                            f"{node.value.id}.{node.attr}")
    if check_unused:
        problems += [f"line {line}: {name} imported but never used"
                     for name, line in sorted(imported.items(), key=lambda kv: kv[1])
                     if name not in used]
    return problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports(path):
    problems = scan(path.read_text(encoding="utf-8"),
                    check_unused=path.name != "__init__.py")
    assert problems == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["line 1: os imported but never used"]),
    ("from .singular import _rows\n_rows\n",
     ["line 1: imports private _rows from singular"]),
    ("from . import loopmod as lm\nlm._push\n",
     ["line 2: reaches into lm._push"]),
    ("from . import loopmod as lm\nlm.act_e\nlm.__name__\n", []),
    ("from __future__ import annotations\nfrom .terms import Terms\nx: Terms\n", []),
])
def test_scan_finds_each_kind(source, expected):
    assert scan(source) == expected


def _names_in(node) -> set:
    """Names a piece of code refers to: identifiers, attribute and imported
    names, and string constants that are identifiers (the tracer's GROUPS
    and __all__ name functions that way)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def unreferenced(library: dict, others: list) -> list:
    """``module.name`` of each top-level function or class in the library
    sources (module name -> source) that no statement other than its own
    definition refers to, in the library or in the other sources."""
    defined, used = [], set()
    for module, source in library.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if own is not None:
                defined.append((module, own))
            used |= _names_in(stmt) - {own}
    for source in others:
        used |= _names_in(ast.parse(source))
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_definition_referenced():
    library = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    others = [p.read_text(encoding="utf-8")
              for folder in ("tests", "perfbench")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unreferenced(library, others) == []


@pytest.mark.parametrize("library, others, expected", [
    ({"a": "def f(): pass\ndef g(): return f()\n"}, [], ["a.g"]),
    ({"a": "def f(): return f()\n"}, [], ["a.f"]),
    ({"a": "class C: pass\n"}, ["from a import C\n"], []),
    ({"a": "def f(): pass\n"}, ["import a\na.f\n"], []),
    ({"a": "def f(): pass\n"}, ["GROUPS = {'g': ('a', ('f',))}\n"], []),
    ({"a": "def f(): pass\n"}, ["'f is named in a sentence'\n"], ["a.f"]),
])
def test_unreferenced_finds_each_kind(library, others, expected):
    assert unreferenced(library, others) == expected
