"""The benchmark's hooks name functions that exist in the package.

``perfbench/spans.py`` wraps package functions by module and attribute
name; a rename would otherwise surface only when the benchmark runs.
The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
