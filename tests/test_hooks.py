"""The benchmark's hooks name functions that exist in the package, and its
gate counters read what they count.

``perfbench/spans.py`` wraps package functions by module and attribute
name and counts gates through ``Circuit.gates``; a rename would otherwise
surface only when the benchmark runs.  The file is loaded by path and
left as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_resolves_to_a_package_attribute(monkeypatch):
    spans = _load_spans(monkeypatch)
    hooks = [*spans.OP_HOOKS, *spans.SETUP_HOOKS, spans.BLOCK_HOOK]
    assert hooks
    for hook in hooks:
        holder = importlib.import_module(hook.module)
        if hook.owner:
            holder = getattr(holder, hook.owner)
        name = ".".join(filter(None, (hook.module, hook.owner, hook.attr)))
        assert hook.attr in vars(holder), name


def test_gate_counters_count_a_synthesized_circuit(monkeypatch):
    """The circuit.build and clifford.tableau_run counters read a circuit's gate count."""
    from cliffdepth import clifford

    spans = _load_spans(monkeypatch)
    t = clifford.random_tableau(np.random.default_rng(3), 12)
    tracer = spans.Tracer()
    with tracer.patch(spans.OP_HOOKS):
        c = tracer.root(0, "call", clifford.synth_clifford, t)
        assert tracer.root(0, "check", clifford.tableau_of_circuit, c) == t
    totals = tracer.layer_totals()
    assert totals["circuit.build"]["calls"] == 1
    assert totals["circuit.build"]["count"] == len(c) > 0
    assert totals["clifford.tableau_run"]["count"] == len(c)
    assert spans._built_gates((c,), {}, None) == spans._circuit_gates((t, c), {}, None) == len(c)
