"""Spans and counters placed around rxc's public functions.

The tracer wraps layer entry points by their public names: every module
attribute of the loaded ``rxc`` modules that *is* the named function is
replaced, so calls made through ``from .nfa import compile_regex``
style imports are seen too.  Spans (name, start, end, parent) are kept
in memory; a layer's self time is its spans' duration minus the part
covered by their child spans.  ``Nfa.step`` and ``Nfa.feasible`` are
counted, not spanned.  A name that no longer exists is recorded as
missing, and its metric is reported without a value.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from time import perf_counter

# (span name, module, public function names)
SPANS = [
    ("rex.parse", "rxc.rex", ("parse",)),
    ("nfa.compile", "rxc.nfa", ("compile_regex",)),
    ("nfa.match", "rxc.nfa", ("matches",)),
    ("solver.search", "rxc.solver", ("solve", "enumerate_grids", "count_grids", "is_unique")),
    ("solver.width", "rxc.solver", ("decide_unbounded_width",)),
    ("reductions.sat_reduce", "rxc.reductions.satpipe", ("sat_reduce",)),
    ("reductions.binarize", "rxc.reductions.binary", ("binarize_expr",)),
    ("reductions.tableau", "rxc.reductions.tableau", ("row_expression", "column_expression")),
    ("turing.simulate", "rxc.turing", ("simulate",)),
    ("puzzle.dump", "rxc.puzzle", ("dump_puzzle",)),
    ("puzzle.parse", "rxc.puzzle", ("parse_puzzle",)),
]

# Per-layer metrics, in BENCHMARK.json order: (metric, unit, source).
LAYER_METRICS = [
    ("rex.parse_ms", "ms", "rex.parse"),
    ("nfa.compile_ms", "ms", "nfa.compile"),
    ("nfa.prepare_ms", "ms", "nfa.prepare"),
    ("nfa.match_ms", "ms", "nfa.match"),
    ("nfa.states", "count", "states"),
    ("nfa.eps_edges", "count", "eps_edges"),
    ("nfa.labeled_edges", "count", "labeled_edges"),
    ("nfa.step_calls", "count", "step_calls"),
    ("nfa.feasible_calls", "count", "feasible_calls"),
    ("solver.search_ms", "ms", "solver.search"),
    ("solver.width_ms", "ms", "solver.width"),
    ("reductions.sat_reduce_ms", "ms", "reductions.sat_reduce"),
    ("reductions.binarize_ms", "ms", "reductions.binarize"),
    ("reductions.tableau_ms", "ms", "reductions.tableau"),
    ("turing.simulate_ms", "ms", "turing.simulate"),
    ("puzzle.dump_ms", "ms", "puzzle.dump"),
    ("puzzle.parse_ms", "ms", "puzzle.parse"),
]

# Attributes read from each flat automaton a top-level compile returns.
SIZE_ATTRS = {"states": "state_count", "eps_edges": "epsilon_edges",
              "labeled_edges": "labeled_edges"}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(("step_calls", "feasible_calls", *SIZE_ATTRS), 0)
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._compile_depth = 0

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        for k in self.counts:
            self.counts[k] = 0

    def _enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def _exit(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i]) * 1e3
        return out

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def _compile_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter("nfa.compile")
            tracer._compile_depth += 1
            try:
                auto = fn(*args, **kwargs)
            finally:
                tracer._compile_depth -= 1
                tracer._exit()
            if tracer._compile_depth == 0:
                tracer._count_sizes(auto)
            return auto

        return wrapper

    def _count_sizes(self, auto) -> None:
        children = getattr(auto, "children", None)
        if children is not None:
            for c in children:
                self._count_sizes(c)
            return
        for key, attr in SIZE_ATTRS.items():
            value = getattr(auto, attr, None)
            if value is None:
                self.missing.add(key)
            else:
                self.counts[key] += value if isinstance(value, int) else len(value)

    def _counter_wrapper(self, key, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _prepare_wrapper(self, fn):
        tracer = self
        seen = weakref.WeakSet()

        @functools.wraps(fn)
        def wrapper(auto, *args, **kwargs):
            if not tracer.active or auto in seen:
                return fn(auto, *args, **kwargs)
            seen.add(auto)
            tracer._enter("nfa.prepare")
            try:
                return fn(auto, *args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Replace the public entry points by their wrappers."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "rxc" or n.startswith("rxc."))]
        for name, module_name, attrs in SPANS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                if name == "nfa.compile":
                    wrapper = self._compile_wrapper(fn)
                else:
                    wrapper = self._span_wrapper(name, fn)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        nfa_class = getattr(importlib.import_module("rxc.nfa"), "Nfa", None)
        methods = [("step", "step_calls", self._counter_wrapper),
                   ("feasible", "feasible_calls", self._counter_wrapper),
                   ("start_set", "nfa.prepare", None)]
        for attr, key, make in methods:
            fn = getattr(nfa_class, attr, None) if nfa_class is not None else None
            if fn is None:
                self.missing.add(key)
                continue
            wrapper = make(key, fn) if make else self._prepare_wrapper(fn)
            self._undo.append((nfa_class, attr, fn))
            setattr(nfa_class, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def layer_values(self) -> dict[str, float | None]:
        """Per-layer metric values for the spans and counts recorded so far."""
        times = self.self_ms()
        out: dict[str, float | None] = {}
        for metric, unit, source in LAYER_METRICS:
            if source in self.missing:
                out[metric] = None
            elif unit == "count":
                out[metric] = self.counts[source]
            else:
                out[metric] = times.get(source, 0.0)
        return out
