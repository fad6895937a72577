"""Golden outputs: fixed-seed circuits and colorings stay byte-identical.

Each test pins the SHA-256 of a fixed-seed output. The hashes were
recorded with the dict-based Kempe-chain coloring, the loop-based weight
halving and the dense-matmul ``random_invertible`` that preceded the
bitmask coloring, the vectorized halving and the packed product, before
any of them was written. A speed-up of any layer on these paths must
reproduce them exactly: the same gates, in the same order.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from cliffdepth import bounds
from cliffdepth.circuit import Circuit, to_text
from cliffdepth.clifford import (
    decompose_tableau, random_clifford_circuit, random_tableau, synth_clifford,
    tableau_of_circuit,
)
from cliffdepth.cnot import EXACT, REORDER, synth_linear
from cliffdepth.cz import CzSpec, synth_cz
from cliffdepth.gf2 import BitMatrix, random_invertible
from cliffdepth.patterns import synth_m01
from bounds_ref import reference_tables
from patterns_ref import edge_color_classes


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# synth_cz picks the two-step branch at n = 64 and n = 100 (coloring at the
# inner sizes); the forced one-step case covers the remaining branch.
@pytest.mark.parametrize("n, seed, strategy, digest", [
    (64, 11, "auto", "a48126e7d49756852ac979d85aba4c24daf77a314942e938c13f69d2d969b0ce"),
    (100, 12, "auto", "95a1ead73f2a0a36aa5635e7245a3dc7cba35bbb088e115b4f04efb762bbc6cc"),
    (64, 13, "onestep", "7bc50d122f01d36a0ca87384ff97b196b7881fdf8dff7b5510b9bda4ed42dc01"),
])
def test_synth_cz_golden(n, seed, strategy, digest):
    spec = CzSpec.random(np.random.default_rng(seed), n)
    assert sha(to_text(synth_cz(spec, strategy=strategy))) == digest


def sparse_spec(seed: int, n: int, density: float) -> CzSpec:
    u = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1).astype(np.uint8)
    return CzSpec(n, u | u.T)


# Recorded before the round-robin became index arrays and the two-step's
# correction stage one rectangle schedule. n = 39 and 41 are the first
# two-step sizes, with uneven quarters (10/10/10/9 and 11/10/10/10); the
# 0.05-density pattern at n = 64 leaves 12 of the top node's 16 tree sets
# empty; two-step is forced at its smallest sizes and coloring past its range.
@pytest.mark.parametrize("n, seed, density, strategy, digest", [
    (39, 15, None, "auto", "cb959ca8e027ab96b649dbfb0a68144a5317ee719e4213e2feb623f1c0af9e00"),
    (41, 16, None, "auto", "59c1583b469fab06a718f5b5b4ea6ae1bdfaf25f95533dc87cb9a63d9c94c3f4"),
    (77, 17, None, "auto", "5b91c5f6f5f77ed2c37466f5d724432c9245038e85ed20331f33e208bb65864b"),
    (64, 18, 0.05, "auto", "a3060729da5234d2936a4f607e35350f3622d03307bd8088358b06f9162ec9e5"),
    (4, 19, None, "twostep", "ee6ce5de834aeae195701a336e06c869d66a0bbddf2c79bfd66608efd3571e9d"),
    (5, 20, None, "twostep", "4d12d77dd3895093c65c4788b59089bf7807a65dd5f849ef1d2ac9e1595f7bb4"),
    (39, 21, None, "coloring", "c3a2cd7585bce008e1cca81ce57d9cb6519333aa20e950762ee312c8e6e41d52"),
])
def test_synth_cz_golden_branches(n, seed, density, strategy, digest):
    spec = (CzSpec.random(np.random.default_rng(seed), n) if density is None
            else sparse_spec(seed, n, density))
    assert sha(to_text(synth_cz(spec, strategy=strategy))) == digest


@pytest.mark.parametrize("mode, digest", [
    (EXACT, "419e21e806ac811376588eafd3fa75873c1fc1e3216803d01257b3964b7582b6"),
    (REORDER, "fc0eea126ea16cd23d519f75c89ec788226d0487ef62be3d3eae16694cc38f89"),
])
def test_synth_linear_golden(mode, digest):
    r = random_invertible(np.random.default_rng(21), 64)
    assert sha(r.to_text()) == (
        "0e1a01c5d15c3495e1db42ed880dfa148a0927a3364e581744cf8f8a713ae6c9")
    assert sha(to_text(synth_linear(r, mode))) == digest


# The benchmark's sizes (cz_dense, cnot_dense): recorded before the
# coloring loop and gate builders lost their per-edge overhead.
def test_synth_cz_golden_n256():
    spec = CzSpec.random(np.random.default_rng(14), 256)
    assert sha(to_text(synth_cz(spec))) == (
        "d281110b2b7ef10f8d73891c17ec9ab0bc73509171bd28815ac50d8d1d1cb8d8")


# Re-recorded when blocks in the CZ form came to be emitted as CNOTs, with
# their H gates pushed through: the same qubit pairs, in the same order,
# so the depths (331 exact, 325 reorder) are unchanged.
@pytest.mark.parametrize("mode, digest", [
    (EXACT, "0cb20cf7927d6e9ad5c782a202e5196cd56d98c15c2dc5bb4b4ec24d0311db6c"),
    (REORDER, "61781a8d2f7005b706b4920ac117177bae52520a4dde932d3ce8f136ecdb76da"),
])
def test_synth_linear_golden_n256(mode, digest):
    r = random_invertible(np.random.default_rng(22), 256)
    assert sha(r.to_text()) == (
        "a9cf1a526803559d9aa7bd8062186d102b7f9e2d3dfd0d9ed2d125b850d95582")
    assert sha(to_text(synth_linear(r, mode))) == digest


# Odd sizes, recorded before the triangular recursion took k = 4 as a base
# case and before small blocks skipped the halving: their leaves of k = 5,
# 6 and 7 sit beside 4-qubit triangles.
@pytest.mark.parametrize("n, seed, matrix, exact, reorder", [
    (37, 23, "d7ad0abcd742e99678cf6e0e581298d0bfc2cebcb5e41fe540f9e165f855c1ba",
     "69ccdbb473379cd5e247e30f45b442279cecd0040df7f7e292cc4faac0b869d6",
     "ab3d43af80bc3076381ad7814c704f72825e25849af95486ddf9c7335e75355a"),
    (100, 24, "773b5712c969643bfe21149aabbb90d21d2269b87f812f2ee9d0170d3255f977",
     "06e32e4377bc9c7dfb6dbe5e17434c0666f5a19086c064435caaf845ad502fa0",
     "1a153814a08bf3a01b063807ef2140e111ce297b5b08275c32a31fa58cdea2ca"),
    (129, 25, "26b2cfa8f88ddd80478f59273509ee1f56bf5804a6406daef999e91489e6001c",
     "d4657703e2698d8ae510c0d4d155ea6f0ebf4e7ee4eaf3ff8907c4551c1aeb06",
     "0f4c47a917b20d85b95035e3832e0156a3fb88771ee6de3fff61e56a6f6e1be7"),
])
def test_synth_linear_golden_odd_sizes(n, seed, matrix, exact, reorder):
    r = random_invertible(np.random.default_rng(seed), n)
    assert sha(r.to_text()) == matrix
    assert sha(to_text(synth_linear(r, EXACT))) == exact
    assert sha(to_text(synth_linear(r, REORDER))) == reorder


# Recorded before m01_gates took a halving instead of a pattern.  The
# random 40x57 block halves into 24x37 and 16x20 rectangles, the 3x17 block
# into one 3x7 rectangle: every one has trees of different depths.
@pytest.mark.parametrize("seed, k, m, pattern, digest", [
    (61, 40, 57, "96509904c7f7a7fa6d15d874d236b17afc2d5b3c208d5ea5c241a01faa540ddc",
     "0f2a9b67b030d2b97780ff2902befc554ec38b485da9f7e901798c9781546a85"),
    (62, 3, 17, "94cc4f0866beb08d187023965039cb996a5f15d9d98a4eed8b2fb47994075255",
     "580d4dce19d6534190379635b9c848177ab9d5782f3acbe822135be3c7934ef1"),
])
def test_synth_m01_golden(seed, k, m, pattern, digest):
    rng = np.random.default_rng(seed)
    p = BitMatrix.from_dense((rng.random((k, m)) < 0.5).astype(np.uint8))
    assert sha(p.to_text()) == pattern
    assert sha(to_text(synth_m01(list(range(k)), list(range(k, k + m)), p))) == digest


def test_synth_clifford_golden():
    t = random_tableau(np.random.default_rng(31), 32)
    assert sha(to_text(synth_clifford(t))) == (
        "64fd216730ded625a8eac22ca11005871e601b00fcbbd9e5f0dbed5675b4a922")


def test_synth_clifford_golden_n77():
    t = random_tableau(np.random.default_rng(32), 77)
    assert sha(to_text(synth_clifford(t))) == (
        "8adc628dd777424bc74299271d68352827848d926002a53082639eb0ee2e32a0")


def layers_digest(layers) -> str:
    """SHA-256 over every CliffordLayers field: name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for f in dataclasses.fields(layers):
        v = getattr(layers, f.name)
        if isinstance(v, BitMatrix):
            data = v.to_text().encode()
        else:
            arr = v if isinstance(v, np.ndarray) else v.bits
            data = f"{arr.dtype}{arr.shape}".encode() + arr.tobytes()
        h.update(f.name.encode() + data)
    return h.hexdigest()


def _deep_tableau(seed: int, n: int):
    """Tableau of ten random_clifford_circuits in a row (100n gates)."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(10):
        gates += random_clifford_circuit(rng, n).gates
    return tableau_of_circuit(Circuit(n, gates))


# Recorded with the dense-array decomposition that preceded the int-row
# peel.  C (the x-part of the bottom rows) is rank-deficient at n = 5, 13,
# 64 and 65, H pairs cancel at n = 5, 64 and 65, and C has full rank at
# n = 1 and in the 100n-gate tableau.
@pytest.mark.parametrize("n, deep, digest", [
    (1, False, "bbe4f676a97393e6d9c103215b854e3a822bd10c3c97a329122f348d0ac8ecb2"),
    (5, False, "54e4a4c39423389cf95d828567781ea3922c335992c496083493497f71600ce8"),
    (13, False, "8bdb125b12c5477c4d702a262f4ac65ee5e1533d66eb7896262983028d6194a4"),
    (64, False, "81a6af0b8fdaef21b6dae79f10f69bb9b5d9b106c40c89572cfdc70bc73def3c"),
    (65, False, "e40267026ac9f452fa2a03123a4588679d738d93513fe14ed473f717ed562b31"),
    (64, True, "29e4c5c605765e737534a4b3f51bd509b5daaa001972e7f3b6a2150e460c489b"),
])
def test_decompose_tableau_golden(n, deep, digest):
    if deep:
        t = _deep_tableau(77, n)
    else:
        t = random_tableau(np.random.default_rng(50 + n), n)
    assert layers_digest(decompose_tableau(t)) == digest


# 2n crosses the 64-bit word boundary between n = 31 and n = 33; the
# hashes were recorded with the packed-word simulator.
@pytest.mark.parametrize("n, digest", [
    (1, "e30d2485705825dcd5ce0de71e0df226300d1d407b90bb38db796df414d46d48"),
    (31, "e7d84c05dd1c0690c0334f4f00cc0054be9676cc0acf234a6efe843c81f137dd"),
    (32, "fdbff61482a892c645aef5a468c50023993081a074df009696d7691ef1ab5f57"),
    (33, "f0cd5b14e5adbfb3a8be9722f24c5c2f01ceea4f2b54173f9fb456ae3236141e"),
    (65, "7215a28367b81b467dc506279168bb8e405066f59fc1939634d622b126ba1578"),
])
def test_tableau_of_circuit_golden(n, digest):
    c = random_clifford_circuit(np.random.default_rng(1000 + n), n)
    assert sha(tableau_of_circuit(c).to_text()) == digest


def test_edge_color_classes_golden():
    """Color classes, in order, of 300 random patterns from 1x1 to 40x40."""
    rng = np.random.default_rng(41)
    h = hashlib.sha256()
    for _ in range(300):
        k, m = (int(v) for v in rng.integers(1, 41, size=2))
        density = float(rng.random())
        bits = (rng.random((k, m)) < density).astype(np.uint8)
        h.update(repr(edge_color_classes(BitMatrix.from_dense(bits))).encode())
    assert h.hexdigest() == (
        "715a712daa313a89e7e38687057ebbefb09271515905f76de12799c0629b956a")


@pytest.mark.parametrize("family, digest", [
    (bounds.CZ, "657e11f0bb4be7e23debbe36fe3976fa5cf4a21164807d1386b2ef647099508f"),
    (bounds.CZ_BASIC, "d5d847fd4522126e2d80fc3f24b8a13782f6485166fa80edca6dd9625f5d8552"),
    (bounds.CNOT, "f040dc9c08584eda7939ac24daa154670c392bb7b8b65ca3a6d6b6944c5b0600"),
    (bounds.CNOT_FIRST, "6fa51c52d99bff24ed063cbceefb51e38b0f7fa3c612e39c2a34ab3318767493"),
    (bounds.CLIFFORD, "8fd4dac3cdfb90eaeeec8fe5d2b23525d1fee6e49cc868bb648830b9b580eb69"),
])
def test_depth_table_golden(family, digest):
    """Each depth table over 0..N_MAX, as little-endian int64 bytes.

    Recorded from the per-backend fills that preceded the single shared
    branch expression.
    """
    t = np.asarray(bounds.get_table(family)[:bounds.N_MAX + 1], dtype="<i8")
    assert hashlib.sha256(t.tobytes()).hexdigest() == digest


def test_cz_auto_choice_by_size():
    """The automatic CZ branch: coloring on 4..38, two-step from 39 on.

    One-step is never the argmin; it runs only when forced
    (``synth_cz(spec, strategy="onestep")``, the cz-basic construction).
    The whole range is read off the reference fill's argmin.
    """
    argmin = reference_tables(bounds.N_MAX)["cz-argmin"]
    assert len(argmin) == bounds.N_MAX + 1
    assert (argmin[4:39] == bounds.BRANCHES.index(bounds.COLORING)).all()
    assert (argmin[39:] == bounds.BRANCHES.index(bounds.TWOSTEP)).all()
    # the package's rule: a recursive branch wins where d_CZ[n] < (n - 1) | 1
    sizes = np.arange(4, bounds.N_MAX + 1)
    assert np.array_equal(bounds.get_table(bounds.CZ)[4:] < (sizes - 1) | 1, sizes >= 39)
    for n in (4, 38, 39, 40, 1000, bounds.N_MAX):
        assert bounds.cz_choice(n) == (bounds.COLORING if n <= 38 else bounds.TWOSTEP)
