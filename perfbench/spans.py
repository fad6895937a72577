"""Span recording around cliffdepth's public layer functions.

The benchmark never edits the package: it replaces the functions each
layer exposes with timing wrappers, from the outside, for the duration of
a traced operation.  A name bound elsewhere with ``from .x import f`` is a
second reference to the same function, so every module attribute of the
package that *is* the original gets patched, not just the defining one;
otherwise calls through that binding would silently escape the span.

A span records its layer, the operation id it belongs to, the phase
(``setup``, ``call`` or ``check``), start and end, its parent span and its
self time: duration minus the time covered by its child spans.  Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np


def _edges(args, kwargs, out) -> int:
    return sum(len(cl) for cl in out)


def _circuit_gates(args, kwargs, out) -> int:
    return len(args[1].gates)


def _built_gates(args, kwargs, out) -> int:
    return len(args[0].gates)


@dataclass(frozen=True)
class Hook:
    """One function or method to wrap, and the layer its time goes to.

    ``count`` returns the unit of work a call did (edges colored, gates
    simulated); without it the work of a call is the call itself.
    ``by_arg`` appends the first argument to the layer name (the table
    family of a fill).  ``optional`` hooks name private helpers that a
    refactor may remove; their metrics then read zero and the run says so
    on stderr.
    """

    module: str
    attr: str
    layer: str
    owner: str | None = None  # class name for a method
    count: Callable | None = None
    by_arg: bool = False
    optional: bool = False


# Hooks active around every traced operation.
OP_HOOKS = (
    Hook("cliffdepth.patterns", "bipartite_edge_color", "patterns.edge_color", count=_edges),
    Hook("cliffdepth.patterns", "halve_weights", "patterns.halve"),
    Hook("cliffdepth.rectangles", "rectangle_parts", "rectangles.parts"),
    Hook("cliffdepth.cz", "synth_cz", "cz"),
    Hook("cliffdepth.cnot", "synth_linear", "cnot"),
    Hook("cliffdepth.cnot", "remove_hadamards", "cnot.remove_hadamards"),
    Hook("cliffdepth.gf2", "lu_decompose", "gf2.lu"),
    Hook("cliffdepth.gf2", "mat_mul", "gf2.mat_mul"),
    Hook("cliffdepth.gf2", "solve_right", "gf2.solve"),
    Hook("cliffdepth.gf2", "mat_inverse", "gf2.solve"),
    Hook("cliffdepth.gf2", "rank_and_pivots", "gf2.rank"),
    Hook("cliffdepth.circuit", "two_qubit_depth", "circuit.depth", owner="Circuit"),
    Hook("cliffdepth.circuit", "__init__", "circuit.build", owner="Circuit", count=_built_gates),
    Hook("cliffdepth.clifford", "decompose_tableau", "clifford.decompose"),
    Hook("cliffdepth.clifford", "synth_clifford", "clifford"),
    Hook("cliffdepth.clifford", "apply", "clifford.tableau_run", owner="CliffordTableau",
         count=_circuit_gates),
    Hook("cliffdepth.verify", "linear_action", "verify.linear_action"),
    Hook("cliffdepth.bounds", "validate_all", "bounds.validate"),
    Hook("cliffdepth.bounds", "crossover_scan", "bounds.crossover"),
)

# get_table is only a fill the first time; during synthesis it is a cached
# lookup, so it is wrapped only while the tables are being filled.
SETUP_HOOKS = (
    Hook("cliffdepth.bounds", "get_table", "bounds.fill", by_arg=True),
)

# Not a span: marks the CNOT block stage so that the candidate circuits it
# builds can be counted (cnot.candidates_kept_ratio).
BLOCK_HOOK = Hook("cliffdepth.cnot", "_block_add_gates", "cnot.block", optional=True)


@dataclass
class Tracer:
    """In-memory span store for one benchmark process."""

    spans: list = field(default_factory=list)
    op: int = -1
    phase: str = ""
    blocks: int = 0
    candidates: int = 0
    _stack: list = field(default_factory=list)
    _block_circuits: int | None = None

    def enter(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0, layer, parent]
        self.spans.append(None)
        self._stack.append(frame)
        frame.append(perf_counter())
        return frame

    def exit(self, frame: list, count: int = 1) -> None:
        end = perf_counter()
        self._stack.pop()
        idx, covered, layer, parent, start = frame
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[idx] = (self.op, self.phase, layer, start, end, dur - covered, parent, count)

    def root(self, op: int, phase: str, fn: Callable, *args):
        """Run fn as the root span of one phase of operation op."""
        self.op, self.phase = op, phase
        frame = self.enter("op." + phase)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, hook: Hook) -> Callable:
        layer, count, by_arg = hook.layer, hook.count, hook.by_arg
        is_build = layer == "circuit.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(f"{layer}.{args[0]}" if by_arg else layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame, count(args, kwargs, out) if count else 1)
            if is_build and self._block_circuits is not None:
                self._block_circuits += 1
            return out

        return wrapper

    def _block_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._block_circuits
            self._block_circuits = 0
            try:
                return fn(*args, **kwargs)
            finally:
                if np.asarray(args[2]).any():
                    self.blocks += 1
                    # a block always builds at least the gate list it returns
                    self.candidates += max(1, self._block_circuits)
                self._block_circuits = outer

        return wrapper

    def patch(self, hooks, with_block: bool = False) -> "Patch":
        replacements = []
        for hook in hooks:
            replacements += self._bindings(hook, self._span_wrapper)
        if with_block:
            replacements += self._bindings(BLOCK_HOOK, lambda fn, h: self._block_wrapper(fn))
        return Patch(replacements)

    def _bindings(self, hook: Hook, make: Callable) -> list:
        mod = sys.modules.get(hook.module)
        holder = getattr(mod, hook.owner, None) if hook.owner else mod
        orig = holder.__dict__.get(hook.attr) if holder is not None else None
        if orig is None:
            if not hook.optional:
                raise RuntimeError(f"trace hook {hook.module}.{hook.attr} not found")
            print(f"trace: optional hook {hook.module}.{hook.attr} is missing; "
                  f"its metrics read 0", file=sys.stderr)
            return []
        wrapper = make(orig, hook)
        if hook.owner:
            return [(holder, hook.attr, orig, wrapper)]
        # every module-level binding of the same function object
        out = []
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "cliffdepth" or name.startswith("cliffdepth.")):
                continue
            for attr, val in list(vars(m).items()):
                if val is orig:
                    out.append((m, attr, orig, wrapper))
        return out

    # -- aggregation -------------------------------------------------------

    def layer_totals(self, phases=("call", "check")) -> dict[str, dict[str, float]]:
        """Per layer: summed self time, call count and work count."""
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            if sp is None or sp[1] not in phases:
                continue
            agg = out.setdefault(sp[2], {"self_s": 0.0, "calls": 0, "count": 0})
            agg["self_s"] += sp[5]
            agg["calls"] += 1
            agg["count"] += sp[7]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                if sp is None:
                    continue
                op, phase, layer, start, end, self_s, parent, count = sp
                f.write(json.dumps({
                    "op": op, "phase": phase, "layer": layer, "start": start,
                    "end": end, "self_s": self_s, "parent": parent, "count": count,
                }) + "\n")


class Patch:
    """Context manager that installs wrappers and restores the originals."""

    def __init__(self, replacements: list):
        self.replacements = replacements

    def __enter__(self) -> "Patch":
        for holder, attr, _orig, wrapper in self.replacements:
            setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, orig, _wrapper in self.replacements:
            setattr(holder, attr, orig)
