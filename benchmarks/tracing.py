"""Spans recorded around calls into eurkit, from outside the library.

A span is (name, start_ns, end_ns, parent, instance): ``parent`` is the
index of the enclosing span (-1 at the root) and ``instance`` is the id of
the workload instance that was running.  Spans stay in memory and are
written as JSON when the run ends.

``instrument`` replaces the module attributes that eurkit's composite
calls look up at call time (``bound_report`` calls ``scb_bound`` through
``eurkit.bounds``, ``sweep`` calls it through ``eurkit.family``, ...) with
traced wrappers, so every composite is split into the public calls it is
made of and each layer gets its own self time.  The library source is not
touched; the originals are put back when the context exits.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter_ns

import eurkit.bounds
import eurkit.entropy
import eurkit.family
import eurkit.linalg
import eurkit.tomography

# (module, attribute, span name): every name through which a composite
# reaches a public call of another layer.
PATCHES = (
    (eurkit.family, "build_family", "family.build_family"),
    (eurkit.family, "entropy_sum", "entropy.entropy_sum"),
    (eurkit.family, "scb_bound", "bounds.scb_bound"),
    (eurkit.family, "lmf_bound", "bounds.lmf_bound"),
    (eurkit.family, "rpz_bound", "bounds.rpz_bound"),
    (eurkit.bounds, "entropy_sum", "entropy.entropy_sum"),
    (eurkit.bounds, "von_neumann_entropy", "entropy.von_neumann_entropy"),
    (eurkit.bounds, "overlap_c", "linalg.overlap_c"),
    (eurkit.bounds, "scb_bound", "bounds.scb_bound"),
    (eurkit.bounds, "lmf_bound", "bounds.lmf_bound"),
    (eurkit.bounds, "lmf_bound_best_ordering", "bounds.lmf_bound_best_ordering"),
    (eurkit.bounds, "rpz_bound", "bounds.rpz_bound"),
    (eurkit.bounds, "mu_bound", "bounds.mu_bound"),
    (eurkit.entropy, "born_probabilities", "linalg.born_probabilities"),
    (eurkit.entropy, "as_density_matrix", "linalg.as_density_matrix"),
    (eurkit.linalg, "as_density_matrix", "linalg.as_density_matrix"),
    (eurkit.tomography, "as_density_matrix", "linalg.as_density_matrix"),
    (eurkit.tomography, "von_neumann_entropy", "entropy.von_neumann_entropy"),
)

FIELDS = ("name", "start_ns", "end_ns", "parent", "instance")


class NullTracer:
    """Tracing off: ``wrap`` hands back the function itself, so untraced
    passes run exactly the calls a user would make."""

    instance = -1

    def wrap(self, name, fn):
        return fn

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.instance])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter_ns())

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter_ns())

    @contextlib.contextmanager
    def instrument(self):
        """Route the library's internal cross-layer calls through spans."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        try:
            for (module, attr, fn), (_, _, name) in zip(originals, PATCHES):
                setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def durations_ns(self) -> tuple[list[int], list[int]]:
        """Inclusive and self duration of every span, in span order.

        Self time is the span's duration minus the time its direct
        children cover (children never overlap: calls are sequential).
        """
        total = [end - start for _, start, end, _, _ in self.spans]
        child = [0] * len(self.spans)
        for span, dur in zip(self.spans, total):
            if span[3] >= 0:
                child[span[3]] += dur
        return total, [t - c for t, c in zip(total, child)]

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, summed and median inclusive/self time."""
        total, self_ns = self.durations_ns()
        by_name: dict[str, tuple[list[int], list[int]]] = {}
        for span, t, s in zip(self.spans, total, self_ns):
            incl, excl = by_name.setdefault(span[0], ([], []))
            incl.append(t)
            excl.append(s)
        return {
            name: {
                "calls": len(incl),
                "total_s": sum(incl) / 1e9,
                "self_s": sum(excl) / 1e9,
                "median_us": statistics.median(incl) / 1e3,
                "median_self_us": statistics.median(excl) / 1e3,
            }
            for name, (incl, excl) in sorted(by_name.items())
        }

    def as_json(self) -> dict:
        return {"fields": list(FIELDS), "spans": self.spans, "layers": self.layers()}
