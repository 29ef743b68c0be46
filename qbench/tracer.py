"""Spans and counters recorded from outside the library.

`install` wraps the public functions of the library modules, plus
`FusionRing.product`, `FusionRing.elements` and
`GroupPresentationInput.check`, and rebinds every module attribute that
held the original, so calls made through module globals are seen too.
Wrappers cost one flag test while tracing is off.

Each call opens a frame on a stack; when it returns, its self time is its
duration minus the durations of the calls made inside it.  Every call
except `FusionRing.product` is kept as a span (name, start, end, parent,
self); product calls are far too many to keep one by one, so each span
carries the number and total time of the product calls made directly
inside it instead.
"""

from __future__ import annotations

import inspect
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

MODULES = ("ring", "catalog", "central", "subgroups", "automorph", "serialize", "cli")

# Span name -> per-layer metric prefix; spans not listed report under their
# own name in the span dump only.
LAYER_OF = {
    "ring.FusionRing.product": "ring.product",
    "ring.FusionRing.elements": "ring.explore",
    "ring.validate_ring": "ring.validate_ring",
    "ring.check_subobject": "ring.subobject",
    "ring.generated_subobject": "ring.subobject",
    "central.merge_closure": "central.merge_closure",
    "central.sigma_cosets": "central.sigma_cosets",
    "central.is_central_subobject": "central.is_central_subobject",
    "central.enumerate_central_subobjects": "central.central_lattice",
    "central.identify_group": "central.identify_group",
    "central.chain_oracle": "central.chain_oracle",
    "automorph.automorphisms": "automorph.search",
    "automorph.verify_automorphism": "automorph.verify",
    "subgroups.validate_restriction": "subgroups.validate_restriction",
    "subgroups.grouplikes": "subgroups.grouplikes",
}
for _name in ("canonical_json", "merge_graph_dot", "partition_table"):
    LAYER_OF[f"serialize.{_name}"] = "serialize"


def layer_of(span_name: str) -> str:
    if span_name.startswith("catalog."):
        return "catalog.build"
    return LAYER_OF.get(span_name, span_name)


class Tracer:
    """Span stack, kept spans and per-layer aggregates for one process."""

    def __init__(self):
        self.enabled = False
        self._next_id = 1
        self.stack: list[list] = []
        self.reset()

    def reset(self):
        """Start a new phase: drop the aggregates, spans and product keys."""
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()      # layer -> calls
        self.self_s: Counter = Counter()     # layer -> self seconds
        self.counters: Counter = Counter()   # derived counters, by metric name
        self.maxima: Counter = Counter()
        self._seen = weakref.WeakKeyDictionary()  # ring -> {(a, b)}

    def take(self) -> dict:
        """The current phase as plain data; starts a new phase."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "counters": dict(self.counters), "maxima": dict(self.maxima),
               "spans": self.spans}
        self.reset()
        return out

    # ------------------------------------------------------------- frames

    def _open(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0, 0, 0.0, Counter()]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame, keep=True):
        end = perf_counter()
        self.stack.pop()
        sid, name, start, child_s, prod_calls, prod_s, children = frame
        dur = end - start
        self_t = dur - child_s
        layer = layer_of(name)
        self.calls[layer] += 1
        self.self_s[layer] += self_t
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
            parent[6][name] += 1
        if keep:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end,
                               self_t, prod_calls, prod_s))
        elif parent is not None:
            parent[4] += 1
            parent[5] += dur
        return children

    @contextmanager
    def span(self, name):
        """A benchmark-level span (one question)."""
        frame = self._open(name) if self.enabled else None
        try:
            yield
        finally:
            if frame is not None:
                self._close(frame)

    # ------------------------------------------------------------ wrappers

    def wrap(self, name, fn, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                children = tracer._close(frame)
            if after is not None:
                after(tracer, result, args, kwargs, children)
            return result

        return traced

    def wrap_product(self, fn):
        tracer = self

        @wraps(fn)
        def traced(ring, a, b):
            if not tracer.enabled:
                return fn(ring, a, b)
            frame = tracer._open("ring.FusionRing.product")
            try:
                return fn(ring, a, b)
            finally:
                tracer._close(frame, keep=False)
                seen = tracer._seen.get(ring)
                if seen is None:
                    seen = tracer._seen[ring] = set()
                if (a, b) not in seen:
                    seen.add((a, b))
                    tracer.counters["ring.product.distinct_pairs"] += 1

        return traced


# ---------------------------------------------------- derived counters


def _elements_after(tr, result, args, kwargs, children):
    tr.maxima["ring.explore.labels"] = max(tr.maxima["ring.explore.labels"], len(result))


def _explored_pairs(metric):
    def after(tr, result, args, kwargs, children):
        tr.counters[metric] += len(result.explored) ** 2
    return after


def _block_pairs(tr, result, args, kwargs, children):
    tr.counters["central.is_central_subobject.block_pairs"] += len(result.partition.blocks) ** 2


def _lattice_size(tr, result, args, kwargs, children):
    # one centrality test per lattice member
    tr.counters["central.central_lattice.size"] += children["central.is_central_subobject"]


def _found(tr, result, args, kwargs, children):
    tr.counters["automorph.search.found"] += len(result)


def install(package) -> Tracer:
    """Wrap the library in place; returns the (disabled) tracer."""
    tracer = Tracer()
    ring_mod = package.ring
    elements = ring_mod.FusionRing.elements

    def validate_after(tr, result, args, kwargs, children):
        ring = args[0]
        depth = args[1] if len(args) > 1 else kwargs.get("depth", 6)
        n = len(elements(ring, None if ring.is_explicit else depth))
        tr.counters["ring.validate_ring.triples"] += n ** 3

    after = {
        "ring.validate_ring": validate_after,
        "central.merge_closure": _explored_pairs("central.merge_closure.pairs"),
        "central.is_central_subobject": _block_pairs,
        "central.enumerate_central_subobjects": _lattice_size,
        "automorph.automorphisms": _found,
    }
    replaced = {}
    modules = []
    for short in MODULES:
        mod = sys.modules.get(f"{package.__name__}.{short}")
        if mod is None:
            continue
        modules.append(mod)
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr == "_main")):
                name = f"{short}.{attr}"
                replaced[obj] = tracer.wrap(name, obj, after.get(name))
    # rebind every alias, including `from .x import f` copies and the package
    for mod in [package] + [m for n, m in sys.modules.items()
                            if n.startswith(package.__name__ + ".")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    fr_cls = ring_mod.FusionRing
    fr_cls.product = tracer.wrap_product(fr_cls.product)
    fr_cls.elements = tracer.wrap("ring.FusionRing.elements", elements, _elements_after)
    gpi = package.catalog.GroupPresentationInput
    gpi.check = tracer.wrap("catalog.GroupPresentationInput.check", gpi.check)
    return tracer


def merge_phase(into: dict, other: dict):
    """Add one phase's aggregates (e.g. from a CLI child) to another."""
    for key in ("calls", "self_s", "counters"):
        bucket = into.setdefault(key, {})
        for k, v in other.get(key, {}).items():
            bucket[k] = bucket.get(k, 0) + v
    maxima = into.setdefault("maxima", {})
    for k, v in other.get("maxima", {}).items():
        maxima[k] = max(maxima.get(k, 0), v)
    into.setdefault("spans", []).extend(other.get("spans", []))
    for k, v in other.get("samples", {}).items():
        into.setdefault("samples", {}).setdefault(k, []).extend(v)
