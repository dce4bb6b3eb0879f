"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps public functions of ``flagorbits`` from outside, in the
worker's own process only: it replaces every binding of a target function
in every loaded ``flagorbits`` module (``signature``, for one, is bound in
both ``invariants`` and ``orbits``), and patches the target methods on
their classes.  No source file changes, and the untraced run imports none
of this.  The wrapping happens as each library module finishes loading,
from an import hook, so a traced round imports the same modules at the
same moments as an untraced one: ``flagorbits.oracle``, with numpy and
scipy, still loads inside the first ``oracle`` verb.

Each wrapped call records one span (metric, id, parent id, start, end,
whether a span of the same metric encloses it, and one size figure) in a
flat integer array.  Two hot functions whose metrics are counts only,
``rank_js`` and ``dominates``, get a bare call counter instead of a span.
The worker writes the array out when its round ends; ``layer_metrics``
folds it into the per-layer figures.
"""

from __future__ import annotations

import array
import sys
from time import perf_counter_ns

FIELDS = 7  # metric, id, parent, start_ns, end_ns, nested, size

# (metric, module, attribute) for module-level functions
FUNCTIONS = [
    ("linalg.rank", "flagorbits.linalg", "integer_rank"),
    ("flags.parse", "flagorbits.flags", "parse_flag_literal"),
    ("flags.complete", "flagorbits.flags", "complete_to_invertible"),
    ("invariants.signature", "flagorbits.invariants", "signature"),
    ("invariants.verify", "flagorbits.invariants", "verify_family_invariance"),
    ("normalforms.generate", "flagorbits.normalforms", "case0_normal_forms"),
    ("normalforms.generate", "flagorbits.normalforms", "case3prime_normal_forms"),
    ("normalforms.generate", "flagorbits.normalforms", "pattern_candidates"),
    ("normalforms.reduce", "flagorbits.normalforms", "reduce_flag"),
    ("normalforms.lookup", "flagorbits.normalforms", "reduce_by_catalog"),
    ("orbits.catalog", "flagorbits.orbits", "enumerate_orbits"),
    ("orbits.dimension", "flagorbits.orbits", "orbit_dimension"),
    ("orbits.closed", "flagorbits.orbits", "is_closed_flag"),
    ("orbits.hasse", "flagorbits.orbits", "hasse_candidate"),
    ("orbits.emit", "flagorbits.orbits", "catalog_to_text"),
    ("orbits.emit", "flagorbits.orbits", "emit_dot"),
    ("oracle.enumerate", "flagorbits.oracle", "enumerate_flag_array"),
    ("oracle.canonicalize", "flagorbits.oracle", "canonicalize_batch"),
    ("oracle.partition", "flagorbits.oracle", "orbit_partition_from_arrays"),
    ("oracle.rank_batch", "flagorbits.oracle", "rank_batch"),
    ("oracle.cross_validate", "flagorbits.oracle", "cross_validate"),
    ("cli", "flagorbits.cli", "main"),
]

# (metric, module, class, method); from_matrix is a staticmethod
METHODS = [
    ("linalg.rank", "flagorbits.linalg", "Matrix", "rank"),
    ("linalg.inverse", "flagorbits.linalg", "Matrix", "inverse"),
    ("flags.from_matrix", "flagorbits.flags", "Flag", "from_matrix"),
    ("normalforms.realize", "flagorbits.normalforms", "NFCase0", "realize"),
    ("normalforms.realize", "flagorbits.normalforms", "NFChain", "realize"),
    ("normalforms.realize", "flagorbits.normalforms", "NFPattern", "realize"),
]

# (metric, module, attribute) counted without a span
COUNTED = [
    ("invariants.rank_js", "flagorbits.invariants", "rank_js"),
    ("invariants.dominates", "flagorbits.invariants", "dominates"),
]

MODULES = ["flagorbits", "flagorbits.linalg", "flagorbits.flags",
           "flagorbits.invariants", "flagorbits.normalforms",
           "flagorbits.orbits", "flagorbits.oracle", "flagorbits.cli"]


def _size(metric, args, result, probes):
    """The size figure a span records: candidates generated, rows
    canonicalized, orbits in a built catalog, flags partitioned."""
    if metric == "normalforms.generate":
        return len(result)
    if metric == "oracle.canonicalize":
        return int(args[0].shape[0])
    if metric == "orbits.catalog":
        return len(result.entries)
    if metric == "oracle.partition":
        probes.append({"q": result.q, "nn": list(result.nn.parts),
                       "mm": list(result.mm.parts), "size": result.size,
                       "class_sizes": result.class_sizes()})
        return result.size
    return 0


class _WrapOnLoad:
    """Meta-path finder that calls ``on_load(name)`` when a library module
    has finished executing.  It finds the module's spec with the finders
    after it and wraps that loader's ``exec_module``."""

    def __init__(self, on_load):
        self.on_load = on_load

    def find_spec(self, name, path, target=None):
        if name not in MODULES:
            return None
        for finder in sys.meta_path[sys.meta_path.index(self) + 1:]:
            find = getattr(finder, "find_spec", None)
            spec = find(name, path, target) if find else None
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.on_load(name)

        spec.loader.exec_module = exec_and_wrap
        return spec


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array.array("q")
        self.counts: dict[str, int] = {}
        self.probes: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._next = 0

    def _metric_id(self, metric):
        if metric not in self.names:
            self.names.append(metric)
            self._depth.append(0)
        return self.names.index(metric)

    def _span(self, metric, fn):
        mid = self._metric_id(metric)
        rec = self

        def traced(*args, **kwargs):
            stack, depth = rec._stack, rec._depth
            sid = rec._next
            rec._next += 1
            parent = stack[-1] if stack else -1
            nested = 1 if depth[mid] else 0
            stack.append(sid)
            depth[mid] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                depth[mid] -= 1
                rec.spans.extend((mid, sid, parent, start, end, nested, 0))
                raise
            end = perf_counter_ns()
            stack.pop()
            depth[mid] -= 1
            size = _size(metric, args, result, rec.probes)
            rec.spans.extend((mid, sid, parent, start, end, nested, size))
            return result

        return traced

    def _counter(self, metric, fn):
        counts = self.counts
        counts[metric] = 0

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap the targets of each library module as it finishes loading.
        Call it before the library is imported."""
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._loaded: set[str] = set()
        sys.meta_path.insert(0, _WrapOnLoad(self._on_load))
        return self

    def _on_load(self, name):
        """``name`` has run to its end: wrap its targets, then replace
        every binding of a wrapped original in every loaded module."""
        self._loaded.add(name)
        home = sys.modules[name]
        for metric, mod, attr in FUNCTIONS + COUNTED:
            if mod != name:
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._wrapped[id(orig)] = (
                self._counter if (metric, mod, attr) in COUNTED
                else self._span)(metric, orig)
        for metric, mod, cls_name, attr in METHODS:
            if mod != name:
                continue
            cls = getattr(home, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._span(metric, raw.__func__)))
            else:
                setattr(cls, attr, self._span(metric, raw))
        for loaded in self._loaded:
            module = sys.modules[loaded]
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self, path):
        with open(path, "wb") as fh:
            self.spans.tofile(fh)


# per-layer metrics: (name, unit, better).  Seconds are inclusive time of
# the outermost spans of a metric, except the self times of reduce_flag,
# orbit_partition_from_arrays and cli.main (span time minus the time their
# child spans cover).
LAYER_METRICS = [
    ("linalg.rank_s", "s", "lower"),
    ("linalg.rank_calls", "count", "lower"),
    ("linalg.inverse_s", "s", "lower"),
    ("flags.parse_s", "s", "lower"),
    ("flags.from_matrix_s", "s", "lower"),
    ("flags.complete_s", "s", "lower"),
    ("invariants.signature_s", "s", "lower"),
    ("invariants.signature_calls", "count", "lower"),
    ("invariants.rank_js_calls", "count", "lower"),
    ("invariants.verify_s", "s", "lower"),
    ("invariants.dominates_calls", "count", "lower"),
    ("normalforms.generate_s", "s", "lower"),
    ("normalforms.candidates", "count", "lower"),
    ("normalforms.kept_ratio", "ratio", "higher"),
    ("normalforms.realize_s", "s", "lower"),
    ("normalforms.realize_calls", "count", "lower"),
    ("normalforms.reduce_s", "s", "lower"),
    ("normalforms.lookup_s", "s", "lower"),
    ("orbits.catalog_s", "s", "lower"),
    ("orbits.catalog_builds", "count", "lower"),
    ("orbits.dimension_s", "s", "lower"),
    ("orbits.dimension_calls", "count", "lower"),
    ("orbits.closed_s", "s", "lower"),
    ("orbits.hasse_s", "s", "lower"),
    ("orbits.hasse_calls", "count", "lower"),
    ("orbits.emit_s", "s", "lower"),
    ("oracle.enumerate_s", "s", "lower"),
    ("oracle.canonicalize_s", "s", "lower"),
    ("oracle.canonicalize_rows", "count", "lower"),
    ("oracle.partition_s", "s", "lower"),
    ("oracle.rank_batch_s", "s", "lower"),
    ("oracle.cross_validate_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

def layer_metrics(names, spans, counts) -> dict:
    """Per-layer figures of one traced round (all but the overhead).

    A span is written when it ends, so its children precede it in the
    array and their covered time is complete when it is reached.  An
    ``enumerate_orbits`` span with no child span was a cache hit; one
    with children built a catalog.
    """
    k = len(names)
    incl, self_ns, calls, size = [0] * k, [0] * k, [0] * k, [0] * k
    covered: dict[int, int] = {}
    catalog = names.index("orbits.catalog") if "orbits.catalog" in names else -1
    builds = build_ns = kept = 0
    for i in range(0, len(spans), FIELDS):
        mid, sid, parent, start, end, nested, sz = spans[i:i + FIELDS]
        dur = end - start
        inner = covered.pop(sid, None)
        own = dur - (inner or 0)
        if own < 0:
            raise ValueError(f"negative self time in a {names[mid]} span")
        self_ns[mid] += own
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + dur
        calls[mid] += 1
        if not nested:
            incl[mid] += dur
            size[mid] += sz
            if mid == catalog and inner is not None:
                builds += 1
                build_ns += dur
                kept += sz

    def get(table, metric):
        return table[names.index(metric)] if metric in names else 0

    def secs(table, metric):
        return get(table, metric) / 1e9

    candidates = get(size, "normalforms.generate")
    return {
        "linalg.rank_s": secs(incl, "linalg.rank"),
        "linalg.rank_calls": get(calls, "linalg.rank"),
        "linalg.inverse_s": secs(incl, "linalg.inverse"),
        "flags.parse_s": secs(incl, "flags.parse"),
        "flags.from_matrix_s": secs(incl, "flags.from_matrix"),
        "flags.complete_s": secs(incl, "flags.complete"),
        "invariants.signature_s": secs(incl, "invariants.signature"),
        "invariants.signature_calls": get(calls, "invariants.signature"),
        "invariants.rank_js_calls": counts.get("invariants.rank_js", 0),
        "invariants.verify_s": secs(incl, "invariants.verify"),
        "invariants.dominates_calls": counts.get("invariants.dominates", 0),
        "normalforms.generate_s": secs(incl, "normalforms.generate"),
        "normalforms.candidates": candidates,
        "normalforms.kept_ratio": kept / candidates if candidates else 0.0,
        "normalforms.realize_s": secs(incl, "normalforms.realize"),
        "normalforms.realize_calls": get(calls, "normalforms.realize"),
        "normalforms.reduce_s": secs(self_ns, "normalforms.reduce"),
        "normalforms.lookup_s": secs(incl, "normalforms.lookup"),
        "orbits.catalog_s": build_ns / 1e9,
        "orbits.catalog_builds": builds,
        "orbits.dimension_s": secs(incl, "orbits.dimension"),
        "orbits.dimension_calls": get(calls, "orbits.dimension"),
        "orbits.closed_s": secs(incl, "orbits.closed"),
        "orbits.hasse_s": secs(incl, "orbits.hasse"),
        "orbits.hasse_calls": get(calls, "orbits.hasse"),
        "orbits.emit_s": secs(incl, "orbits.emit"),
        "oracle.enumerate_s": secs(incl, "oracle.enumerate"),
        "oracle.canonicalize_s": secs(incl, "oracle.canonicalize"),
        "oracle.canonicalize_rows": get(size, "oracle.canonicalize"),
        "oracle.partition_s": secs(self_ns, "oracle.partition"),
        "oracle.rank_batch_s": secs(incl, "oracle.rank_batch"),
        "oracle.cross_validate_s": secs(incl, "oracle.cross_validate"),
        "cli.self_s": secs(self_ns, "cli"),
    }
