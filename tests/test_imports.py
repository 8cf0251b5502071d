"""Every name a module of ``src/eurkit`` imports is used in that module.

The one exception is a name on a ``# noqa: F401`` line that the traced
benchmark run (``benchmarks/tracing.py``) replaces on that module through its
``PATCHES`` table.  Those imports are to go with ``PATCHES`` (ROADMAP item 1),
and the exception lists exactly what is left of them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "eurkit").glob("*.py") if p.name != "__init__.py")


def patched_names():
    """(module, attribute) pairs of ``PATCHES``, read from its source, so the
    benchmark is not imported."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "PATCHES"]
    return {(entry.elts[0].attr, entry.elts[1].value) for entry in table.elts}


def unused_imports(path):
    """(line, name, whether the line carries ``# noqa: F401``) of each name
    that ``path`` imports and never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                imported.append((node.lineno, name, "# noqa: F401" in lines[node.end_lineno - 1]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [entry for entry in imported if entry[1] not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_patched_by_the_tracer(path):
    patched = patched_names()
    module = path.stem
    unexplained = [
        f"{path.name}:{line} {name}"
        for line, name, noqa in unused_imports(path)
        if not (noqa and (module, name) in patched)
    ]
    assert unexplained == []


def test_the_tracer_keeps_only_these_imports():
    # what ROADMAP item 1 deletes once the library records its own spans
    kept = {(path.stem, name) for path in MODULES for _, name, _ in unused_imports(path)}
    assert kept == {
        ("entropy", "as_density_matrix"),
        ("family", "entropy_sum"),
        ("family", "scb_bound"),
        ("family", "lmf_bound"),
        ("family", "rpz_bound"),
    }
