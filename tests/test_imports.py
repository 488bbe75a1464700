"""No module of the package imports a name at module level that it never uses.

A name the benchmark's traced run looks up in a module (``perfbench/run.py``'s
``PATCHES``) counts as used there: the module keeps it importable for the
tracer to wrap.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "telegraphsim"


def _traced_names(monkeypatch) -> set[tuple[str, str]]:
    """(module, name) of every ``telegraphsim.<module>:<name>`` the traced run patches."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    out = set()
    for target, *_ in (*run.PATCHES, *run.COUNTED_CALLS):
        module, attr = target.split(":")
        out.add((module.rpartition(".")[2], attr.split(".")[0]))
    return out


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_module_level_imports(monkeypatch):
    allowed = _traced_names(monkeypatch)
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.name}: {name}"
        for path in modules
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, name) not in allowed
    ]
    assert unused == []
