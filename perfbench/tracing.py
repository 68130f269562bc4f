"""Spans and counters around polyrew's public layer functions.

The benchmark wraps each function named in ``LAYERS`` and replaces every
binding of it in every loaded polyrew module, so calls through a name
imported with ``from .x import f`` are seen too.  Spans are kept in memory as
``(name, start, end, parent, op id)`` tuples; self time is a span's duration
minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: span name -> (defining module, function, counter name, count of one call)
LAYERS = {
    "diagram.exchange_closure": (
        "polyrew.diagram", "exchange_closure_with_ids", "members",
        lambda args, result: len(result)),
    "diagram.canonical_form": (
        "polyrew.diagram", "canonical_form", None, None),
    "rewrite.find_matches": (
        "polyrew.rewrite", "find_matches", "matches",
        lambda args, result: len(result)),
    "rewrite.normalize": (
        "polyrew.rewrite", "normalize", "steps",
        lambda args, result: len(result[1].steps)),
    "rewrite.validate_trace": (
        "polyrew.rewrite", "validate_trace", None, None),
    "critical.enumerate": (
        "polyrew.critical", "enumerate_critical_branchings", "branchings",
        lambda args, result: len(result)),
    "critical.critical_pairs_on": (
        "polyrew.critical", "critical_pairs_on", "accepted",
        lambda args, result: 1 if result else 0),
    "critical.check_local_confluence": (
        "polyrew.critical", "check_local_confluence", None, None),
    "coherence.structural_normal_form": (
        "polyrew.coherence", "structural_normal_form", None, None),
    "coherence.braid_of_trace": (
        "polyrew.coherence", "braid_of_trace", None, None),
    "braid.garside_nf": (
        "polyrew.braid", "garside_nf", "letters",
        lambda args, result: len(args[0].letters)),
    "termination.check_decrease": (
        "polyrew.termination", "check_decrease", None, None),
    "cli.main": ("polyrew.cli", "main", None, None),
}


class Tracer:
    """Installs the wrappers and accumulates spans and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.output_bytes = 0
        diagram = importlib.import_module("polyrew.diagram")
        self._cache_start = diagram.canonical_form_with_ids.cache_info()
        self._cache_fn = diagram.canonical_form_with_ids
        for name, (module, attr, counter, count) in LAYERS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, counter and f"{name}.{counter}", count)
            bound = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "polyrew" and not mod_name.startswith("polyrew."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {module}.{attr} found")

    def _wrap(self, name, fn, counter, count):
        spans, stack, counts, now = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter:
                counts[counter] += count(args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per layer: calls, self time, and the layer's own counters."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, _op in spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for name, (_m, _a, counter, _c) in LAYERS.items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = max(self_s[name], 0.0)
            if counter:
                out[f"{name}.{counter}"] = self.counts[f"{name}.{counter}"]
        info = self._cache_fn.cache_info()
        hits = info.hits - self._cache_start.hits
        misses = info.misses - self._cache_start.misses
        out["diagram.canonical_form.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        pairs = out.pop("critical.critical_pairs_on.accepted")
        out["critical.critical_pairs_on.accept_ratio"] = (
            pairs / calls["critical.critical_pairs_on"]
            if calls["critical.critical_pairs_on"] else 0.0
        )
        out["cli.main.output_bytes"] = self.output_bytes
        return out
