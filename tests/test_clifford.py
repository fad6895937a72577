import importlib.util
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from cliffdepth import bounds, gf2, verify
from cliffdepth import clifford as clifford_mod
from cliffdepth.circuit import H, Circuit, cnot, cz, h, p, x, z
from cliffdepth.clifford import (
    CliffordTableau,
    decompose_tableau,
    random_clifford_circuit,
    random_tableau,
    synth_clifford,
    tableau_of_circuit,
)
from cliffdepth.cnot import synth_linear
from cliffdepth.cz import CzSpec, synth_cz
from cliffdepth.gf2 import BitMatrix
from cliffdepth.verify import tableaux_equal

from clifford_ref import (apply_aaronson_gottesman, decompose_tableau_two_pass, layers_key,
                          recompose_layers, tableau_product)
from sv_oracle import tableau_matches_unitary


def test_identity_tableau():
    t = CliffordTableau.identity(4)
    assert t.is_symplectic()
    assert t == tableau_of_circuit(Circuit(4))


def test_single_gate_tableaus_match_unitaries():
    for mk in (h(0), p(0), x(0), z(0)):
        c = Circuit(1, [mk])
        assert tableau_matches_unitary(tableau_of_circuit(c), c)
    for mk in (cnot(0, 1), cnot(1, 0), cz(0, 1)):
        c = Circuit(2, [mk])
        assert tableau_matches_unitary(tableau_of_circuit(c), c)


def test_random_circuit_tableaus_match_unitaries():
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        c = random_clifford_circuit(rng, n)
        assert tableau_matches_unitary(tableau_of_circuit(c), c)


def test_cz_rule_matches_h_cnot_h():
    """CZ(a, b) acts on any tableau as H(b) CNOT(a, b) H(b)."""
    rng = np.random.default_rng(46)
    for n in (2, 3, 31, 33, 64, 70):
        t = random_tableau(rng, n)
        for _ in range(20):
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            direct, emulated = t.copy(), t.copy()
            direct.apply(Circuit(n, [cz(a, b)]))
            emulated.apply(Circuit(n, [h(b), cnot(a, b), h(b)]))
            assert direct == emulated
            t = direct


def _run_both(t: CliffordTableau, c: Circuit) -> None:
    """c applied to copies of t by the simulator and by the sign-bit reference agree."""
    got, want = t.copy(), t.copy()
    got.apply(c)
    apply_aaronson_gottesman(want, c)
    assert (got.X, got.Z, got.ph) == (want.X, want.Z, want.ph)


def test_apply_matches_aaronson_gottesman(monkeypatch):
    """The i^e X^x Z^z simulator gives the sign-bit rules' columns and signs:
    random circuits on random start tableaux (signs included), a synthesized
    layered Clifford circuit at n = 64 and a CZ circuit at n = 100."""
    rng = np.random.default_rng(49)
    for i in range(320):
        n = 1 + i % 8
        t = random_tableau(rng, n)
        t.ph ^= _random_signs(rng, n)
        _run_both(t, random_clifford_circuit(rng, n))
    layered = _load_workloads(monkeypatch).layered_tableau(np.random.default_rng(50), 64)
    cz_spec = CzSpec.random(np.random.default_rng(51), 100)
    for c in (synth_clifford(layered), synth_cz(cz_spec)):
        _run_both(CliffordTableau.identity(c.n), c)
        _run_both(random_tableau(rng, c.n), c)
    _run_both(CliffordTableau.identity(3), Circuit(3))


def test_apply_splits_at_any_gate():
    """c2 applied to the tableau of c1 (nonzero start signs) is the tableau of
    c1 then c2, and matches the unitary at n <= 4."""
    rng = np.random.default_rng(52)
    for i in range(60):
        n = 1 + i % 6
        c1, c2 = random_clifford_circuit(rng, n), random_clifford_circuit(rng, n)
        t = tableau_of_circuit(c1)
        t.apply(c2)
        both = Circuit(n, c1.gates + c2.gates)
        assert t == tableau_of_circuit(both)
        if n <= 4:
            assert tableau_matches_unitary(t, both)


def test_copy_is_independent():
    t = random_tableau(np.random.default_rng(47), 5)
    before = t.to_text()
    u = t.copy()
    u.apply(Circuit(5, [h(0), cnot(0, 1), cz(2, 3), p(4), x(1), z(2)]))
    assert t.to_text() == before
    assert u != t


def test_text_roundtrip():
    rng = np.random.default_rng(41)
    for n in (1, 3, 7, 20):
        t = random_tableau(rng, n)
        assert CliffordTableau.from_text(t.to_text()) == t


@pytest.mark.parametrize("n", [1, 4, 32, 33])
def test_text_roundtrip_zero_edge_columns(n):
    """Text row r is tableau row r, character j its bit j, then the phase row,
    through zero first and last columns (the bits need not be symplectic)."""
    rng = np.random.default_rng(n)
    s = rng.integers(0, 2, size=(2 * n, 2 * n), dtype=np.uint8)
    ph = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    s[:, [0, -1]] = 0
    ph[[0, -1]] = 0
    t = CliffordTableau.from_dense(s, ph)
    text = t.to_text()
    bits = ["".join(map(str, r)) for r in np.vstack([s, ph]).tolist()]
    assert text.splitlines() == [str(n)] + bits
    assert CliffordTableau.from_text(text) == t


def test_tableau_product_is_composition():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a = random_clifford_circuit(rng, n)
        b = random_clifford_circuit(rng, n)
        combined = Circuit(n, a.gates + b.gates)
        prod = tableau_product(tableau_of_circuit(a), tableau_of_circuit(b))
        assert prod == tableau_of_circuit(combined)


def _random_signs(rng: np.random.Generator, n: int) -> int:
    return sum(int(b) << r for r, b in enumerate(rng.integers(0, 2, size=2 * n)))


def test_decompose_recompose_exact():
    # each tableau also with a random sign flip: the X/Z masks reach every
    # sign pattern
    rng = np.random.default_rng(43)
    flips = np.random.default_rng(48)
    sizes = chain((int(rng.integers(1, 13)) for _ in range(80)), (13, 31, 32, 33, 64))
    for n in sizes:
        t = random_tableau(rng, n)
        for flip in (0, _random_signs(flips, n)):
            t.ph ^= flip
            layers = decompose_tableau(t)
            back = tableau_of_circuit(recompose_layers(layers))
            assert tableaux_equal(back, t)


def test_decompose_and_synth_never_simulate(monkeypatch):
    """The decomposition shares no code with the tableau simulator (the oracle)
    and builds no circuit; synthesis uses neither the simulator nor the
    linear oracle."""
    rng = np.random.default_rng(49)
    tableaux = [random_tableau(rng, n) for n in (1, 5, 33, 64)]

    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__} method called")

    with monkeypatch.context() as m:
        m.setattr(CliffordTableau, "apply", refuse)
        m.setattr(Circuit, "__init__", refuse)
        layers = [decompose_tableau(t) for t in tableaux]
    with monkeypatch.context() as m:
        m.setattr(CliffordTableau, "apply", refuse)
        m.setattr(verify, "linear_action", refuse)
        circuits = [synth_clifford(t) for t in tableaux]
    for t, lay, c in zip(tableaux, layers, circuits):
        assert tableaux_equal(tableau_of_circuit(recompose_layers(lay)), t)
        assert tableaux_equal(tableau_of_circuit(c), t)


def test_decompose_reads_the_rows_once(monkeypatch):
    """The peels read the tableau's rows through one transpose."""
    calls = []
    rows = CliffordTableau.rows

    def counted(self):
        calls.append(self)
        return rows(self)

    monkeypatch.setattr(CliffordTableau, "rows", counted)
    rng = np.random.default_rng(52)
    for n in (1, 6, 40):
        t = random_tableau(rng, n)
        calls.clear()
        layers = decompose_tableau(t)
        assert calls == [t]
        assert tableaux_equal(tableau_of_circuit(recompose_layers(layers)), t)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    """perfbench/workloads.py as a module, for its dense layered tableaux."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _rank_c(t: CliffordTableau) -> int:
    """Rank of C, the x-part of the bottom rows."""
    n = t.n
    return gf2.rank_and_pivots(BitMatrix(n, n, [v & (1 << n) - 1 for v in t.rows()[n:]]))[0]


@pytest.mark.parametrize("case", ["full rank", "rank-deficient", "zero"])
def test_decompose_runs_one_elimination(monkeypatch, case):
    """One Gauss-Jordan elimination of [C | D | I], in two phases whose pivots
    total n, finds E2, X2^{-1} and Theta: no rank search, inverse or solve, on
    C of full rank, of lower rank and zero."""
    layered = _load_workloads(monkeypatch).layered_tableau
    linear = synth_linear(gf2.random_invertible(np.random.default_rng(55), 40))
    tableaux = {
        "full rank": [layered(np.random.default_rng(7), 6), layered(np.random.default_rng(0), 16),
                      tableau_of_circuit(Circuit(40, [h(q) for q in range(40)]))],
        "rank-deficient": [random_tableau(np.random.default_rng(53), n) for n in (2, 6, 40)],
        "zero": [CliffordTableau.identity(1), CliffordTableau.identity(6),
                 tableau_of_circuit(linear)],
    }[case]
    ranks = [_rank_c(t) for t in tableaux]
    if case == "full rank":
        assert ranks == [t.n for t in tableaux]
    elif case == "zero":
        assert ranks == [0, 0, 0]
    else:
        assert all(0 < r < t.n for t, r in zip(tableaux, ranks))

    def refuse(*args):
        raise AssertionError("second elimination")

    for name in ("rank_and_pivots", "mat_inverse", "solve_right"):
        orig = getattr(gf2, name)
        for mod in (gf2, clifford_mod):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, refuse)
    calls = []
    eliminate = clifford_mod.gauss_jordan

    def counted(rows, cols, start=0):
        out = eliminate(rows, cols, start)
        calls.append((start, len(out[1])))
        return out

    monkeypatch.setattr(clifford_mod, "gauss_jordan", counted)
    for t, rank in zip(tableaux, ranks):
        calls.clear()
        layers = decompose_tableau(t)
        assert calls == [(0, rank), (rank, t.n - rank)]
        assert tableaux_equal(tableau_of_circuit(recompose_layers(layers)), t)


def _symplectic_matrices(n: int) -> np.ndarray:
    """Every 2n x 2n 0/1 matrix s with s Omega s^T = Omega (n <= 2)."""
    k = 2 * n
    bits = np.arange(1 << k * k)[:, None] >> np.arange(k * k) & 1
    s = bits.reshape(-1, k, k)
    omega = np.roll(np.eye(k, dtype=np.int64), n, axis=1)
    keep = ((s @ omega @ s.transpose(0, 2, 1)) % 2 == omega).all(axis=(1, 2))
    return s[keep].astype(np.uint8)


def test_decompose_matches_two_pass_reference(monkeypatch):
    """The one elimination gives the layers of the two-elimination path: on every
    symplectic matrix at n = 1 (all four sign patterns) and n = 2 (a random
    pattern and its complement), and on seeded layered and random tableaux at
    n = 64 and 128."""
    rng = np.random.default_rng(56)
    cases = []
    for n in (1, 2):
        mats = _symplectic_matrices(n)
        assert len(mats) == (6, 720)[n - 1]
        for s in mats:
            pats = range(4) if n == 1 else [v := int(rng.integers(0, 16)), v ^ 15]
            cases += [CliffordTableau.from_dense(s, np.array([v >> r & 1 for r in range(2 * n)]))
                      for v in pats]
    layered = _load_workloads(monkeypatch).layered_tableau
    cases += [f(np.random.default_rng(seed), n) for n in (64, 128) for seed in (3, 4)
              for f in (layered, random_tableau)]
    for t in cases:
        assert layers_key(decompose_tableau(t)) == layers_key(decompose_tableau_two_pass(t))


def test_synth_clifford_exact_small():
    rng = np.random.default_rng(44)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        t = random_tableau(rng, n)
        c = synth_clifford(t)
        assert tableaux_equal(tableau_of_circuit(c), t)


def test_synth_clifford_unitary_check():
    rng = np.random.default_rng(45)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        t = random_tableau(rng, n)
        c = synth_clifford(t)
        assert tableau_matches_unitary(t, c)


def test_synth_clifford_depth_bound():
    rng = np.random.default_rng(46)
    for n in (43, 64, 96):
        for _ in range(2):
            t = random_tableau(rng, n)
            c = synth_clifford(t)
            assert tableaux_equal(tableau_of_circuit(c), t)
            assert c.two_qubit_depth() <= bounds.CLIFFORD_BOUND.value(n)


def test_tableaux_equal_size_mismatch():
    with pytest.raises(ValueError):
        tableaux_equal(CliffordTableau.identity(2), CliffordTableau.identity(3))


def test_non_symplectic_rejected():
    t = CliffordTableau.identity(2)
    d, ph = t.to_dense()
    d[0] ^= d[1]
    d[0, 0] = d[0, 0]  # keep dtype
    bad = d.copy()
    bad[0] = 0
    t2 = CliffordTableau.from_dense(bad, ph)
    assert not t2.is_symplectic()
    with pytest.raises(ValueError):
        decompose_tableau(t2)
    # one flipped bit, against s Omega s^T == Omega in integer arithmetic
    rng = np.random.default_rng(51)
    for n in (1, 2, 5, 31, 33, 40):
        omega = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        for _ in range(10):
            d, ph = random_tableau(rng, n).to_dense()
            d[rng.integers(0, 2 * n), rng.integers(0, 2 * n)] ^= 1
            t2 = CliffordTableau.from_dense(d, ph)
            want = np.array_equal((d @ omega @ d.T) % 2, omega)
            assert t2.is_symplectic() == want
            if not want:
                with pytest.raises(ValueError):
                    decompose_tableau(t2)


def test_peel_checks_accept_exactly_the_symplectic_tableaux():
    """The peels' own checks stand in for s Omega s^T == Omega: on random dense
    matrices, and on random tableaux with one or two bits flipped, decompose_tableau
    accepts exactly what is_symplectic accepts, and every rejection is the one
    ValueError (no AssertionError, no singular-matrix message)."""
    rng = np.random.default_rng(54)
    accepted = 0
    for _ in range(600):
        n = int(rng.integers(1, 9))
        if rng.integers(0, 2):
            d = rng.integers(0, 2, size=(2 * n, 2 * n), dtype=np.uint8)
        else:
            d, _ = random_tableau(rng, n).to_dense()
            for _ in range(int(rng.integers(1, 3))):
                d[rng.integers(0, 2 * n), rng.integers(0, 2 * n)] ^= 1
        t = CliffordTableau.from_dense(d, rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        if t.is_symplectic():
            layers = decompose_tableau(t)
            assert tableaux_equal(tableau_of_circuit(recompose_layers(layers)), t)
            accepted += 1
        else:
            with pytest.raises(ValueError) as err:
                decompose_tableau(t)
            assert err.type is ValueError and str(err.value) == "tableau is not symplectic"
    assert 20 <= accepted <= 300


def _adversarial_tableaux(n: int) -> dict[str, CliffordTableau]:
    """Structured tableaux that stress the decomposition's stages at size n."""
    all_h = [h(q) for q in range(n)]
    all_cz = [cz(i, j) for i in range(n) for j in range(i + 1, n)]
    linear = synth_linear(gf2.random_invertible(np.random.default_rng(n), n))
    circuits = {
        "identity": Circuit(n),
        "H on every qubit": Circuit(n, all_h),  # C = I, so E2 is empty and H1 every qubit
        "P on every qubit": Circuit(n, [p(q) for q in range(n)]),
        "all H, then the all-ones CZ pattern": Circuit(n, all_h + all_cz),
        "the all-ones CZ pattern, then all H": Circuit(n, all_cz + all_h),
        "CNOT only": linear,
    }
    return {name: tableau_of_circuit(c) for name, c in circuits.items()}


@pytest.mark.parametrize("n", [39, 43, 64])
def test_adversarial_tableaux_verify_within_table(n):
    bound = int(bounds.get_table(bounds.CLIFFORD)[n])
    for name, t in _adversarial_tableaux(n).items():
        c = synth_clifford(t)
        assert tableau_of_circuit(c) == t, name
        assert c.two_qubit_depth() <= bound, name


@pytest.mark.parametrize("call, message", [
    (lambda: CliffordTableau.identity(3).apply(Circuit(2, [h(0)])), "qubit counts differ"),
    *((lambda shape=shape, k=k: CliffordTableau.from_dense(np.eye(*shape, dtype=np.uint8),
                                                           np.zeros(k, dtype=np.uint8)),
       re.escape(f"expected a (2n, 2n) matrix and 2n phases, got shapes {shape} and ({k},)"))
      for shape, k in [((4, 6), 4), ((3, 3), 3), ((6, 4), 6), ((4, 4), 3)]),
])
def test_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("s, phases", [
    (np.eye(2, dtype=np.uint8), [2, 3]),
    (np.eye(2, dtype=np.uint8), [-1, 0]),
    (2 * np.eye(2, dtype=np.uint8), [0, 0]),
])
def test_from_dense_refuses_entries_other_than_0_and_1(s, phases):
    """A sign of 2 or 3 is not read as its parity, and 2 * I is not the zero tableau."""
    with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
        CliffordTableau.from_dense(s, phases)


def test_synth_clifford_hadamards_are_the_two_layers(monkeypatch):
    """The CX stage emits only CNOTs, so the circuit's H gates are those of the
    decomposition's two Hadamard layers: on the benchmark's dense layered
    tableau at n = 256, some CX blocks take the CZ form."""
    t = _load_workloads(monkeypatch).layered_tableau(np.random.default_rng(3), 256)
    layers = decompose_tableau(t)
    c = synth_clifford(t)
    assert int((c.array[:, 0] == H).sum()) == layers.h_mask1.sum() + layers.h_mask2.sum()
    assert tableau_of_circuit(c) == t
