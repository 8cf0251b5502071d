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


def test_every_layer_span_is_recorded(monkeypatch):
    # run.py reads layers[span] for every LAYER_TIMINGS span, so a patched
    # name that the library stops calling breaks --trace 1 with a KeyError.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import run
    import tracing

    import eurkit.bounds
    import eurkit.family
    from eurkit import builtin_state

    layer_spans = {name.rsplit(".", 1)[0] for name in run.LAYER_TIMINGS}
    expected = layer_spans & {name for _, _, name in tracing.PATCHES}
    assert len(expected) == 11
    tracer = tracing.Tracer()
    with tracer.instrument():
        eurkit.bounds.bound_report(eurkit.family.build_family(0.3), builtin_state("mixed"))
        eurkit.family.sweep([0.0, 0.5])
    assert expected - {span[0] for span in tracer.spans} == set()
