"""Layer spans for expocolor, recorded from outside the package.

:func:`install` rebinds the public functions at each layer boundary, in
every ``expocolor`` module that holds them, to wrappers that record a
span: ``[name, start, end, parent, busy]``.  ``parent`` is the index of
the enclosing span (-1 for a root) and ``busy`` the time the function
itself was running; it equals ``end - start`` except for generators,
whose spans only count the time spent producing items.  Spans stay in
memory and are written once, when the traced call ends.

A layer's self time is its busy time minus the busy time of its child
spans, so the self times of all spans under ``cli.main`` add up to the
inclusive time of ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (module, qualified attribute, span name); the span name is
# ``<layer>.<function>`` with the layer named after its module.
_VERIFY_SUITES = {
    "verify_chord_step_identity": "chord_step",
    "verify_label_congruences": "label_congruence",
    "verify_label_invariance": "label_invariance",
    "verify_little_path_bound": "little_path",
    "verify_proper_coloring_k3": "proper_k3",
    "verify_proper_ck": "proper_ck",
    "verify_hitting_set": "hitting_set",
    "verify_baseline": "baseline",
    "verify_end_to_end": "end_to_end",
}
_FUNCTIONS = {
    "cli": ("main",),
    "winding": ("OddCycleCtx.make",),
    "coloring": (
        "color_vertex",
        "color_vertex_ck",
        "color_in_kh",
        "find_even_cycle",
        "CycleCache.find_even",
        "CycleCache.loads",
        "CycleCache.dumps",
    ),
    "expo": ("is_isolated", "restrict", "neighbors", "build_exponential"),
    "graphs": (
        "load_graph",
        "odd_cycle_in",
        "odd_cycles",
        "bipartition",
        "chromatic_number_exact",
    ),
}
TARGETS: tuple[tuple[str, str, str], ...] = tuple(
    (f"expocolor.{layer}", attr, f"{layer}.{attr}")
    for layer, attrs in _FUNCTIONS.items()
    for attr in attrs
) + tuple(
    ("expocolor.verify", fn, f"verify.{suite}") for fn, suite in _VERIFY_SUITES.items()
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a root span measured by the caller (e.g. the import)."""
        self.spans.append([name, start, end, -1, end - start])

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = len(spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
                spans.append(span)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(idx)
                        t = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span[4] += clock() - t
                            stack.pop()
                        yield item
                finally:
                    inner.close()
                    span[2] = clock()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = span[2] - span[1]
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def _observe_find_even(counts, args, result) -> None:
    cache = args[0]
    if result is None:
        counts["cache.misses"] += 1
        return
    counts["cache.hits"] += 1
    counts["cache.scan_depth_sum"] += next(
        i for i, (cyc, _) in enumerate(cache.entries) if cyc is result[0]
    )


def _observe_verdict(counts, args, result) -> None:
    counts["coloring.color_vertex.entries"] += len(args[0])
    counts[f"branch.{result.branch.value}"] += 1


def _observe_verdict_ck(counts, args, result) -> None:
    counts[f"branch.{result.branch.value}"] += 1


def _observe_report(suite: str):
    def observe(counts, args, result) -> None:
        counts[f"verify.{suite}.checked"] += result.checked
        if "draws" in result.details:
            counts[f"verify.{suite}.draws"] += result.details["draws"]
            counts[f"verify.{suite}.samples"] += result.params["samples"]

    return observe


_OBSERVERS = {
    "coloring.CycleCache.find_even": _observe_find_even,
    "coloring.color_vertex": _observe_verdict,
    "coloring.color_vertex_ck": _observe_verdict_ck,
} | {f"verify.{suite}": _observe_report(suite) for suite in _VERIFY_SUITES.values()}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the span names of those that do not.

    A module-level function is rebound in every loaded ``expocolor``
    module whose namespace holds it, so calls through ``from x import f``
    names are traced too, and so are the values of module-level dicts
    such as the CLI's dispatch table.  Methods are replaced on their
    class.
    """
    missing = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "expocolor"]
    for module_name, attr, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
        if raw is None:
            missing.append(span_name)
            continue
        observe = _OBSERVERS.get(span_name)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, leaf, type(raw)(tracer.wrap(span_name, raw.__func__, observe)))
        elif path:
            setattr(owner, leaf, tracer.wrap(span_name, raw, observe))
        else:
            wrapped = tracer.wrap(span_name, raw, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, wrapped)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is raw:
                                value[key] = wrapped
    return missing


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, self seconds and inclusive (busy) seconds."""
    child_busy = [0.0] * len(spans)
    for name, start, end, parent, busy in spans:
        if parent >= 0:
            child_busy[parent] += busy
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, busy) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += busy - child_busy[i]
        agg["incl_s"] += busy
    return out
