"""Examples and docs name only symbols the package has.

Every ``import repro...`` / ``from repro... import X`` in
``examples/*.py`` and in the ``python`` code blocks of ``README.md`` and
``docs/*.md`` must resolve, so deleting a public name cannot leave a
recipe behind that fails on first paste.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _sources() -> list[tuple[str, str]]:
    sources = [
        (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = _BLOCK.findall(path.read_text(encoding="utf-8"))
        name = path.relative_to(ROOT)
        sources.extend((f"{name} block {i}", code) for i, code in enumerate(blocks, 1))
    return sources


SOURCES = _sources()


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("where,code", SOURCES, ids=[where for where, _ in SOURCES])
def test_every_repro_import_resolves(where, code):
    missing = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        missing.extend(
            f"{module}:{name}" if name else module
            for module, name in pairs
            if module.split(".")[0] == "repro" and not _resolves(module, name)
        )
    assert not missing, f"{where} imports missing names: {missing}"
