"""Reachability census: every module of ``src/repro`` has a reader.

Roots are the entry points — ``repro.__main__``, ``repro.cli``, every
``repro.experiments.exp_*`` module, and every dotted ``repro.<name>``
that appears as text in ``benchmarks/e2e/*.py`` (text, not the AST:
the harness also imports inside ``python -c`` strings).  Edges are the
``import`` / ``from ... import`` statements of each reached module,
function-local ones included.  ``from pkg import name`` goes to
``pkg.name`` when that is a module, else to the submodule
``pkg/__init__.py`` re-exports ``name`` from; a package's own re-export
lines are never followed wholesale.  Importing ``a.b.c`` also reaches
``a`` and ``a.b``.  A module nothing reaches fails the suite.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _index() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


MODULES = _index()


@cache
def _tree(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(encoding="utf-8"))


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imports(node: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import anywhere under ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            found.extend((alias.name, None) for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            found.extend((sub.module, alias.name) for alias in sub.names)
    return found


def _targets(module: str, name: str | None, seen: set) -> set[str]:
    """The modules that importing ``name`` from ``module`` reaches."""
    parts = module.split(".")
    reached = {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()
    if name is None or module not in MODULES or (module, name) in seen:
        return reached
    seen.add((module, name))
    if f"{module}.{name}" in MODULES:
        return reached | {f"{module}.{name}"}
    if not _is_package(module):
        return reached
    for stmt in _tree(module).body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if (alias.asname or alias.name) == name:
                    reached |= _targets(stmt.module, alias.name, seen)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name:
            # Defined in the package itself: follow what its body uses.
            for source, imported in _imports(stmt):
                reached |= _targets(source, imported, seen)
            for used in {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}:
                reached |= _targets(module, used, seen)
    return reached


def reached_modules() -> set[str]:
    roots = {"repro.__main__", "repro.cli"}
    roots |= {m for m in MODULES if m.startswith("repro.experiments.exp_")}
    for path in (ROOT / "benchmarks" / "e2e").glob("*.py"):
        for dotted in re.findall(r"\brepro(?:\.\w+)+", path.read_text(encoding="utf-8")):
            module, _, name = dotted.rpartition(".")
            roots |= _targets(dotted, None, set()) | _targets(module, name, set())
    reached, todo = set(), sorted(roots & MODULES.keys())
    while todo:
        current = todo.pop()
        if current in reached:
            continue
        reached.add(current)
        if not _is_package(current):
            for module, name in _imports(_tree(current)):
                todo.extend(_targets(module, name, set()) - reached)
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(
        name for name in MODULES.keys() - reached_modules() if not _is_package(name)
    )
    report = "\n".join(
        f"  {name} ({len(MODULES[name].read_text(encoding='utf-8').splitlines())} lines)"
        for name in unreached
    )
    assert not unreached, f"modules no entry point reaches:\n{report}"
