"""Spans around genstruct's layers, recorded from outside the package.

The tracer rebinds public functions of the ``genstruct`` modules to timed
wrappers. Because ``classes``, ``forcing`` and ``analysis`` bind some of
them with ``from ... import``, every module attribute that holds the same
function object is rebound, and `Tracer.install` fails if one is missed.
Requirement factories are wrapped so that the requirements they return
have timed ``satisfied`` and ``extend`` callables; names stay unchanged.

Spans live in memory as parallel arrays: name, start, end, parent span
and item. A span's self time is its duration minus the durations of its
direct children; the calls are nested on one thread, so children lie
inside their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import Counter


class TraceError(RuntimeError):
    pass


# (module, function, span name). A span name groups several functions.
SPANS = (
    ("structures", "enumerate_embeddings", "structures.search"),
    ("structures", "enumerate_embeddings_extending", "structures.search"),
    ("structures", "find_isomorphism", "structures.search"),
    ("structures", "canonical_key", "structures.canonical_key"),
    ("structures", "_is_partial_embedding", "structures.partial_embedding"),
    ("structures", "induced_substructure", "structures.induced_substructure"),
    ("structures", "validate_structure", "structures.validate_structure"),
    ("structures", "to_json_dict", "structures.json"),
    ("structures", "from_json_dict", "structures.json"),
    ("classes", "membership", "classes.membership"),
    ("classes", "amalgamate", "classes.amalgamate"),
    ("classes", "enumerate_members", "classes.enumerate_members"),
    ("classes", "chain_of", "classes.chain_of"),
    ("classes", "check_property", "classes.check_property"),
    ("forcing", "meet", "forcing.meet"),
    ("forcing", "stronger", "forcing.stronger"),
    ("forcing", "generic_build", "forcing.generic_build"),
    ("autorder", "orbit_straddles", "autorder.orbit_straddles"),
    ("autorder", "build_automorphic_order", "autorder.build"),
    ("analysis", "extension_property_report", "analysis.report"),
    ("analysis", "universality_check", "analysis.report"),
    ("analysis", "one_point_homogeneity", "analysis.report"),
    ("analysis", "interval_density_check", "analysis.report"),
    ("cli", "default_schedule", "cli.schedule"),
    ("cli", "main", "cli.main"),
)

# (module, factory, span prefix): the returned requirement's callables
# become spans "<prefix>.satisfied" and "<prefix>.extend".
FACTORIES = (
    ("forcing", "point_requirement", "forcing"),
    ("forcing", "between_requirement", "forcing"),
    ("forcing", "connectivity_requirement", "forcing"),
    ("forcing", "extension_requirement", "forcing"),
    ("autorder", "aut_point_requirement", "autorder"),
    ("autorder", "aut_between_requirement", "autorder"),
    ("autorder", "aut_dom_requirement", "autorder"),
    ("autorder", "aut_range_requirement", "autorder"),
    ("autorder", "orbit_requirement", "autorder"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.current_item = -1
        self.active = False
        self.counts: Counter = Counter()
        self._member_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A callable that runs `fn` inside a span named `name`."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def wrap_factory(self, prefix: str, factory):
        sat, ext = prefix + ".satisfied", prefix + ".extend"

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            req = factory(*args, **kwargs)
            return dataclasses.replace(
                req, satisfied=self.wrap(sat, req.satisfied), extend=self.wrap(ext, req.extend)
            )

        return traced_factory

    # --- counters taken at the span boundaries -----------------------------

    def _search_result(self, args, kwargs, result) -> None:
        found = len(result) if isinstance(result, list) else int(result is not None)
        self.counts["structures.search.hits"] += found > 0
        self.counts["structures.search.results"] += found

    def _member_request(self, signature):
        def on_result(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
            self.counts["classes.enumerate_members.repeats"] += key in self._member_keys
            self._member_keys.add(key)
        return on_result

    def _meet_result(self, args, kwargs, result) -> None:
        p = args[0] if args else kwargs["p"]
        self.counts["forcing.meet.grew"] += result is not p and result != p

    def _report_result(self, args, kwargs, result) -> None:
        self.counts["analysis.items"] += len(result.items)

    # --- installation ----------------------------------------------------------

    def install(self) -> int:
        """Rebind every traced function in every genstruct module that binds
        it; returns the number of bindings patched."""
        import genstruct.cli  # loads every genstruct module, so none is patched late

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "genstruct" or n.startswith("genstruct.")]
        hooks = {
            "structures.search": self._search_result,
            "forcing.meet": self._meet_result,
            "analysis.report": self._report_result,
        }
        plan = []
        for mod, attr, span in SPANS:
            fn = getattr(sys.modules["genstruct." + mod], attr)
            hook = hooks.get(span)
            if span == "classes.enumerate_members":
                hook = self._member_request(inspect.signature(fn))
            plan.append((f"{mod}.{attr}", fn, self.wrap(span, fn, hook)))
        for mod, attr, prefix in FACTORIES:
            fn = getattr(sys.modules["genstruct." + mod], attr)
            plan.append((f"{mod}.{attr}", fn, self.wrap_factory(prefix, fn)))

        patched = 0
        for label, original, replacement in plan:
            bindings = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is original]
            if not bindings:
                raise TraceError(f"{label} is bound nowhere")
            for m, k in bindings:
                setattr(m, k, replacement)
            patched += len(bindings)
            left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items() if v is original]
            if left:
                raise TraceError(f"{label} still unpatched in {left}")
        return patched

    # --- aggregation -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, wall_s and self_s; plus the counters."""
        return summarize(self.names, self.name, self.start, self.end, self.parent, self.counts)


def summarize(names, name, start, end, parent, counts) -> dict:
    """Calls, wall_s and self_s per span name, from spans given as parallel
    sequences in start order (so a parent precedes its children), plus the
    counters, the searches made inside verifier reports, and the summed
    wall time of root spans."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    report = names.index("analysis.report") if "analysis.report" in names else -1
    search = names.index("structures.search") if "structures.search" in names else -1
    under_report = bytearray(n)
    spans: dict[str, dict] = {}
    searches_in_reports = 0
    root_wall = 0.0
    for i in range(n):
        p = parent[i]
        if p >= 0:
            under_report[i] = name[p] == report or under_report[p]
        else:
            root_wall += end[i] - start[i]
        if name[i] == search and under_report[i]:
            searches_in_reports += 1
        row = spans.setdefault(names[name[i]], {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += end[i] - start[i]
        row["self_s"] += end[i] - start[i] - child[i]
    out = dict(counts)
    out["analysis.searches"] = searches_in_reports
    return {"spans": spans, "counts": out, "root_wall_s": root_wall, "span_count": n}
