"""The package's public surface: every exported name resolves, and the
small dunder methods and defaults no other test reaches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliffdepth
from cliffdepth import BitMatrix, Circuit, Permutation, synth_m01


def test_every_exported_name_resolves():
    assert len(set(cliffdepth.__all__)) == len(cliffdepth.__all__)
    missing = [name for name in cliffdepth.__all__ if not hasattr(cliffdepth, name)]
    assert missing == []


def test_star_import():
    code = "from cliffdepth import *\nassert callable(synth_cz) and callable(active_backend)\n"
    src = str(Path(cliffdepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_reprs_hash_and_default_register():
    assert repr(Circuit(3)) == "Circuit(n=3, gates=0)"
    assert repr(BitMatrix.zeros(2, 5)) == "BitMatrix(2x5)"
    assert repr(Permutation([1, 0, 2])) == "Permutation([1, 0, 2])"
    with pytest.raises(TypeError, match="BitMatrix is not hashable"):
        hash(BitMatrix.zeros(1, 1))
    # without n, the register runs to the largest label
    assert synth_m01([0, 5], [2], BitMatrix.from_dense([[1], [1]])).n == 6
