"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.installed()`` rebinds every public function defined in the layer
modules (``single_disk``, ``geometry``, ``exact``, ``solver``) to a wrapper
that records a span, in every ``diskcover`` module that holds a reference to
it, and restores the originals on exit.  Functions are found by inspection,
so a public name that a later change deletes or adds needs no edit here.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.  Counters are read from each call's arguments and
result at the same boundaries; a counter whose inputs have changed shape is
skipped and named in ``Tracer.counter_errors``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("single_disk", "geometry", "exact", "solver")
PACKAGE = "diskcover"


def _points_in(a, r):
    return {"points_in": len(a["pts"])}


def _exact_stats(a, r):
    # k=1 delegates to the single-disk sweep, whose "combos" are placements
    if a["k"] < 2:
        return {}
    s = r.stats
    return {
        "combos": s.combos_evaluated,
        "generated": s.candidates_generated,
        "kept": s.candidates_after_dedup,
    }


def _solve_branches(a, r):
    return {
        "iterations": len(r.traces),
        "greedy_wins": sum(1 for t in r.traces if t.chose_greedy),
    }


# (layer, function) -> (counter, count only where the layer is entered).
# Exact and single-disk functions may call each other within their layer, so
# they count at the entry span only; the others are leaves or are counted
# once per call.
COUNTERS = {
    ("single_disk", "best_disk_sweep"): (_points_in, True),
    ("single_disk", "best_disk_grid"): (_points_in, True),
    ("geometry", "candidate_disks"): (lambda a, r: {"candidates": len(r)}, False),
    ("geometry", "coverage_bits_many"): (
        lambda a, r: {"coverage_tests": len(a["disks"]) * len(a["pts"])}, False),
    ("geometry", "coverage"): (lambda a, r: {"coverage_tests": len(a["pts"])}, False),
    ("exact", "most_points"): (_exact_stats, True),
    ("exact", "most_points_excluding"): (_exact_stats, True),
    ("solver", "neighbor_points"): (lambda a, r: {"neighborhood_pts": len(r)}, False),
    ("solver", "solve"): (_solve_branches, False),
}


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    parent: int  # index of the enclosing span, -1 for an op's top call
    op: int
    start: float
    end: float = 0.0
    counts: dict | None = None


def layer_functions() -> dict[int, tuple[str, str, object]]:
    """id(function) -> (layer, name, function) for every public layer function."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[id(obj)] = (layer, name, obj)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counter_errors: set[str] = set()
        self._open: list[int] = []
        self._op = -1

    def begin_op(self) -> None:
        self._op += 1

    @property
    def ops(self) -> int:
        return self._op + 1

    def _wrap(self, layer: str, name: str, fn):
        counter, entry_only = COUNTERS.get((layer, name), (None, False))
        sig = inspect.signature(fn)
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            span = Span(layer, name, parent, self._op, 0.0)
            spans.append(span)
            open_.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            entry = parent < 0 or spans[parent].layer != layer
            if counter is not None and (entry or not entry_only):
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self.counter_errors.add(f"{layer}.{name}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the layer functions to tracing wrappers for the duration."""
        originals = layer_functions()
        wrappers = {key: self._wrap(layer, name, fn) for key, (layer, name, fn) in originals.items()}
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][2]:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer, op_seconds: float) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``tracer.ops`` traced ops.

    ``op_seconds`` is the wall time of those ops, timed around each call.
    """
    spans = tracer.spans
    ops = max(tracer.ops, 1)
    own = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    name_s: dict[tuple[str, str], float] = {}
    counts: dict[str, float] = {}
    for s, t in zip(spans, own):
        self_s[s.layer] += t
        name_s[s.layer, s.name] = name_s.get((s.layer, s.name), 0.0) + t
        if s.parent < 0 or spans[s.parent].layer != s.layer:
            calls[s.layer] += 1
        for key, value in (s.counts or {}).items():
            counts[key] = counts.get(key, 0) + value

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def named(name):
        return name_s.get(name, 0.0)

    coverage_s = named(("geometry", "coverage")) + named(("geometry", "coverage_bits_many"))
    return {
        "single_disk.self_ms": 1e3 * self_s["single_disk"] / ops,
        "single_disk.calls": calls["single_disk"] / ops,
        "single_disk.points_in": c("points_in") / ops,
        "single_disk.share": ratio(self_s["single_disk"], op_seconds),
        "exact.self_ms": 1e3 * self_s["exact"] / ops,
        "exact.calls": calls["exact"] / ops,
        "exact.combos": c("combos") / ops,
        "exact.combos_per_s": ratio(c("combos"), self_s["exact"]),
        "exact.dedup_keep_frac": ratio(c("kept"), c("generated")),
        "geometry.self_ms": 1e3 * self_s["geometry"] / ops,
        "geometry.candidates_ms": 1e3 * named(("geometry", "candidate_disks")) / ops,
        "geometry.candidates": c("candidates") / ops,
        "geometry.coverage_ms": 1e3 * coverage_s / ops,
        "geometry.coverage_tests": c("coverage_tests") / ops,
        "geometry.coverage_tests_per_s": ratio(c("coverage_tests"), coverage_s),
        "solver.self_ms": 1e3 * self_s["solver"] / ops,
        "solver.neighbor_ms": 1e3 * named(("solver", "neighbor_points")) / ops,
        "solver.neighborhood_pts": c("neighborhood_pts") / ops,
        "solver.greedy_win_frac": ratio(c("greedy_wins"), c("iterations")),
        "trace.attributed_frac": ratio(sum(self_s.values()), op_seconds),
    }
