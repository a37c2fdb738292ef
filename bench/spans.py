"""Span tracing of hermlat's library layers, installed from outside the package.

`install()` replaces every public function of `hermlat.forms`,
`hermlat.lattice`, `hermlat.charvec` and `hermlat.roots` (and the method
`GramMatrix.determinant`) with a wrapper that records one span per call,
in every `hermlat.*` module namespace that holds the function.  Calls made
through `charvec.enumerate_coset` or `roots.enumerate_short` therefore land
in the same span name as calls made inside `lattice`.

`inner` and `norm` stay unwrapped: `root_system` calls them O(roots^2)
times and wrapping them would distort every span above them.

A span is `[name, start, end, parent, pairs]`: perf_counter seconds, the
index of the enclosing span (-1 at top level), and the number of +/- pairs
when the call returned an `EnumerationResult` (else -1).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Dict, Iterable, List

LAYERS = ("forms", "lattice", "charvec", "roots")
UNWRAPPED = frozenset({"lattice.inner", "lattice.norm"})


class Tracer:
    """Collects spans in memory; one tracer per process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                pairs = getattr(result, "pairs", None)
                if isinstance(pairs, tuple):
                    span[4] = len(pairs)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layer functions of the already imported hermlat modules."""
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"hermlat.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrapped[id(obj)] = self.wrap(name, obj)
        modules = [m for k, m in sys.modules.items() if k == "hermlat" or k.startswith("hermlat.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        gm = sys.modules["hermlat.lattice"].GramMatrix
        gm.determinant = self.wrap("lattice.determinant", gm.determinant)


def summarize(span_lists: Iterable[List[list]]) -> Dict[str, dict]:
    """Per span name, over several processes' span lists: calls, total
    (inclusive) seconds, self seconds and pairs.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.
    """
    out: Dict[str, dict] = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, pairs) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "pairs": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            if pairs >= 0:
                s["pairs"] += pairs
    return out
