"""The traced benchmark run (benchmarks/tracing.py) splits composite calls
by replacing eurkit functions through their module attributes, listed in
its PATCHES table.  A refactor that drops or renames one of those names
breaks ``--trace 1``; this test makes it fail here as well.  The tracer
module is only imported, never used to patch anything.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_patched_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    assert tracing.PATCHES
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.PATCHES if not callable(getattr(module, attr, None))]
    assert missing == []
