"""Spans and counts recorded from outside the library.

`Tracer.install(lib)` wraps each public function listed in `SPANS` and puts
the wrapper into every `hyperramsey` module namespace that holds the function
(modules import each other's functions by name, so patching only the defining
module would miss most calls).  A span is `[name, start, end, parent, op, work]`:
the parent is the index of the enclosing span, `op` the operation id the
workload set, `work` the counters read from the return value (or None).
Spans stay in memory until the run writes them out.

Colour lookup is called about a million times per certify pass, too often for
a span each; `COUNTED` functions are only counted, and their cost per call
comes from an untraced probe instead.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _search_stats(cert) -> dict:
    return {"nodes": cert.stats.get("nodes", 0), "prunes": cert.stats.get("prunes", 0)}


def _outcome(report) -> dict:
    return {f"outcome.{report.outcome}": 1}


# "<layer>.<function>" -> what to read from its return value (None: nothing)
SPANS = {
    "search.longest_mono_ell_path": lambda r: _search_stats(r[1]),
    "search.find_mono_copy": _search_stats,
    "search.find_mono_clique": None,
    "search.independence_number": lambda r: _search_stats(r[1]),
    "search.find_transitive_subtournament": _search_stats,
    "exact.free_coloring_exists": lambda r: {"nodes": r[2]["nodes"], "prunes": r[2]["prunes"]},
    "exact.directed_ramsey_exact": lambda r: {"nodes": r.stats["nodes"], "prunes": r.stats["prunes"]},
    "exact.tau_exact": lambda r: {"nodes": r.stats["nodes"], "prunes": r.stats["prunes"]},
    "chains.clique_partition": None,
    "chains.build_path_system": None,
    "chains.assemble_chains": None,
    "chains.validate_chain": None,
    "engines.loose_witness_engine": _outcome,
    "engines.tight_witness_engine": _outcome,
    "table.ramsey_rows": None,
    "table.tau_rows": None,
    "table.dramsey_rows": None,
    "table.freeness_rows": None,
}

# counted only: "<layer>.<function>" -> (owner attribute path inside the layer)
COUNTED = {
    "core.is_red": ("TwoColoring", "is_red"),
    "core.colex_rank": (None, "colex_rank"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self.active = True
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, lib) -> None:
        for name, work_of in SPANS.items():
            layer, fn_name = name.split(".")
            orig = getattr(getattr(lib, layer), fn_name)
            self._replace_everywhere(orig, self._span_wrapper(name, orig, work_of))
        for name, (owner, attr) in COUNTED.items():
            layer = getattr(lib, name.split(".")[0])
            if owner is None:
                orig = getattr(layer, attr)
                self._replace_everywhere(orig, self._count_wrapper(name, orig))
            else:
                cls = getattr(layer, owner)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._count_wrapper(name, orig))
                self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hyperramsey" and not mod_name.startswith("hyperramsey."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _span_wrapper(self, name, fn, work_of):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work_of is not None:
                span[5] = work_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- control ------------------------------------------------------------

    @contextmanager
    def paused(self):
        """Calls made inside (correctness checks) record nothing."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        self.counts.clear()
        return out


def summarize(spans: list[list], indices) -> dict[str, dict]:
    """Per function over the spans at `indices`: calls, busy time, self time
    (span minus its direct children) and the summed result counters."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for i in indices:
        name, start, end, _, _, work = spans[i]
        agg = out.setdefault(name, defaultdict(float))
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        for key, value in (work or {}).items():
            agg[key] += value
    return out
