"""End-to-end acceptance checks: depth guarantees, bound validation over the
full table range, worked-example depths, and bulk randomized properties."""

import numpy as np
import pytest

from cliffdepth import bounds, circuit
from cliffdepth.circuit import Circuit, cz as cz_gate, from_text, to_text
from cliffdepth.clifford import (
    CliffordTableau,
    random_clifford_circuit,
    random_tableau,
    synth_clifford,
    tableau_of_circuit,
)
from cliffdepth.cnot import EXACT, REORDER, remove_hadamards, synth_linear, synth_triangular
from cliffdepth.cz import CzSpec, synth_cz, synth_cz_coloring
from cliffdepth.gf2 import BitMatrix, random_invertible, random_matrix
from cliffdepth.patterns import halve_weights, synth_m01
from cliffdepth.rectangles import synth_rectangle, tree_layers
from cliffdepth.verify import cz_pattern_phases, linear_action, phase_oracle, tableaux_equal
from cnot_ref import reference_tri_gates
from patterns_ref import edge_color_classes


def ceil_log2(k):
    return max(0, (k - 1).bit_length())


# -- 1: rectangle depth and phases ------------------------------------------

def test_rectangle_depth_all_sizes():
    for k in range(2, 65):
        for m in range(2, 65):
            a = list(range(k))
            b = list(range(k, k + m))
            d = synth_rectangle(a, b).two_qubit_depth()
            assert d <= 2 * max(ceil_log2(k), ceil_log2(m)), (k, m, d)


def test_rectangle_4x5_depth_6():
    assert synth_rectangle(list(range(4)), list(range(4, 9))).two_qubit_depth() == 6


def test_rectangle_phases_exhaustive_small():
    for k in range(1, 11):
        for m in range(1, 12 - k + 1):
            n = k + m
            a = list(range(k))
            b = list(range(k, n))
            circ = synth_rectangle(a, b, n)
            labels = np.arange(1 << n, dtype=np.uint32)
            pa = np.zeros(labels.shape, dtype=np.uint8)
            for q in a:
                pa ^= ((labels >> np.uint32(q)) & np.uint32(1)).astype(np.uint8)
            pb = np.zeros(labels.shape, dtype=np.uint8)
            for q in b:
                pb ^= ((labels >> np.uint32(q)) & np.uint32(1)).astype(np.uint8)
            assert np.array_equal(phase_oracle(circ), pa & pb)


# -- 2: arbitrary bipartite patterns ----------------------------------------

@pytest.mark.parametrize("size", [4, 8, 16, 32, 64])
def test_m01_depth_and_equivalence_bulk(size):
    rng = np.random.default_rng(1000 + size)
    k = m = size
    a = list(range(k))
    b = list(range(k, k + m))
    bound = max(m // 2, k // 2) + 2 * max(ceil_log2(k), ceil_log2(m))
    for _ in range(500):
        p = random_matrix(rng, k, m)
        circ = synth_m01(a, b, p, k + m)
        assert circ.two_qubit_depth() <= bound
        bits = p.to_dense()
        direct = Circuit(
            k + m,
            [cz_gate(a[i], b[j]) for i in range(k) for j in range(m) if bits[i, j]],
        )
        assert tableau_of_circuit(circ) == tableau_of_circuit(direct)


# -- 3: CZ synthesis bound and closed form ----------------------------------

def test_cz_closed_form_zero_violations_full_range():
    rep = bounds.validate_closed_form(bounds.CZ)
    assert rep["violation_count"] == 0
    rep = bounds.validate_closed_form(bounds.CZ_BASIC)
    assert rep["violation_count"] == 0


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_cz_all_ones_depth_and_tableau(n):
    spec = CzSpec.all_ones(n)
    circ = synth_cz(spec)
    assert circ.two_qubit_depth() <= bounds.cz_depth_recursion(n)
    direct = Circuit(n, [cz_gate(i, j) for (i, j) in spec.pairs()])
    assert tableaux_equal(tableau_of_circuit(circ), tableau_of_circuit(direct))


# -- 4: coloring tightness on the complete pattern --------------------------

def test_complete_cz_coloring_exact_depth():
    for n in range(2, 101):
        d = synth_cz_coloring(CzSpec.all_ones(n)).two_qubit_depth()
        assert d == (n - 1 if n % 2 == 0 else n)


# -- 5: linear reversible synthesis -----------------------------------------

@pytest.mark.parametrize("n", [70, 100, 128, 256, 512])
def test_cnot_random_depth_under_closed_form(n):
    rng = np.random.default_rng(2000 + n)
    m = random_invertible(rng, n)
    exact = synth_linear(m, EXACT)
    assert linear_action(exact) == m
    assert exact.two_qubit_depth() <= bounds.CNOT_EXACT_BOUND.value(n)
    reorder = synth_linear(m, REORDER)
    assert reorder.two_qubit_depth() <= bounds.CNOT_REORDER_BOUND.value(n) + 6
    act = linear_action(reorder).to_dense()
    md = m.to_dense()
    for i in range(n):
        assert np.array_equal(act[i], md[int(reorder.perm.map[i])])


def test_cnot_table_check_full_range():
    rep = bounds.validate_closed_form(bounds.CNOT)
    assert rep["violation_count"] == 0


def test_reorder_bound_is_exact_minus_6():
    for n in (70, 128, 999, 65536):
        assert (
            bounds.CNOT_REORDER_BOUND.value(n)
            == bounds.CNOT_EXACT_BOUND.value(n) - 6
        )


def test_crossover_scan_returns_70():
    assert bounds.crossover_scan()["cnot_crossover"] == 70


def test_prior_art_internal_crossover_spec_value():
    # Expected value for the point where 4n/3 + 8*log2(n) first beats 2n.
    # The measured values are 85 for the floored ceil-log form and 75 for
    # the continuous form (12*log2(75) = 74.75 < 75); 76 matches neither,
    # so this records the discrepancy rather than hiding it.
    scan = bounds.crossover_scan()
    assert scan["prior_internal_asymptotic"] == 76


def test_prior_art_internal_crossover_measured_values():
    scan = bounds.crossover_scan()
    assert scan["prior_internal_rounded"] == 85
    assert scan["prior_internal_asymptotic"] == 75


# -- 6: worked 14x14 example -------------------------------------------------

def test_block_example_depth_6():
    """The 14x14 example's all-ones block takes the CZ form: its H-literal
    circuit, with the Hadamards removed, is synth_triangular's at depth 6."""
    u = np.eye(14, dtype=np.uint8)
    u[:7, 7:] = 1
    m = BitMatrix.from_dense(u)
    tri = synth_triangular(m)
    assert tri.two_qubit_depth() == 6
    out = []
    reference_tri_gates(list(range(14)), m.ints, out)
    literal = Circuit(14, circuit.join(out))
    assert {"H", "CZ"} <= {g.kind for g in literal.gates}
    stripped = remove_hadamards(literal)
    assert all(g.kind == "CNOT" for g in stripped.gates)
    assert stripped.two_qubit_depth() == 6
    assert stripped.gates == tri.gates
    assert linear_action(stripped) == m
    assert linear_action(tri) == m


# -- 7: Clifford synthesis ---------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_clifford_recompose_and_depth(n):
    rng = np.random.default_rng(3000 + n)
    t = random_tableau(rng, n)
    circ = synth_clifford(t)
    assert tableaux_equal(tableau_of_circuit(circ), t)
    if n >= 43:
        assert circ.two_qubit_depth() <= bounds.CLIFFORD_BOUND.value(n)


def test_clifford_composed_bound_full_range():
    rep = bounds.validate_closed_form(bounds.CLIFFORD)
    assert rep["violation_count"] == 0


# -- 8: bulk randomized property suites -------------------------------------

def test_property_symplectic_preservation_1000():
    rng = np.random.default_rng(81)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        t = tableau_of_circuit(random_clifford_circuit(rng, n))
        assert t.is_symplectic()


def test_property_parity_tree_depth_1000():
    rng = np.random.default_rng(82)
    for _ in range(1000):
        k = int(rng.integers(1, 65))
        s = [int(q) for q in rng.permutation(100)[:k]]
        assert len(tree_layers(s)) == ceil_log2(k)


def test_property_halving_postconditions_1000():
    rng = np.random.default_rng(83)
    for _ in range(1000):
        k = int(rng.integers(1, 20))
        m = int(rng.integers(1, 20))
        p = random_matrix(rng, k, m)
        hr = halve_weights(p)
        red = hr.reduced.to_dense()
        assert red.sum(axis=1).max(initial=0) <= m // 2
        assert red.sum(axis=0).max(initial=0) <= k // 2
        recon = red.copy()
        for i in hr.row_flips:
            recon[i] ^= 1
        for j in hr.col_flips:
            recon[:, j] ^= 1
        assert np.array_equal(recon, p.to_dense())


def test_property_edge_coloring_matchings_1000():
    rng = np.random.default_rng(84)
    for _ in range(1000):
        k = int(rng.integers(1, 20))
        m = int(rng.integers(1, 20))
        p = random_matrix(rng, k, m)
        classes = edge_color_classes(p)
        bits = p.to_dense()
        delta = int(
            max(bits.sum(axis=1).max(initial=0), bits.sum(axis=0).max(initial=0))
        )
        assert len(classes) <= delta
        covered = 0
        for cl in classes:
            rows = [i for (i, _) in cl]
            cols = [j for (_, j) in cl]
            assert len(rows) == len(set(rows))
            assert len(cols) == len(set(cols))
            covered += len(cl)
        assert covered == bits.sum()


def test_synthesis_never_packs_dense_blocks(monkeypatch):
    """The CZ recursion and the CNOT blocks cut their patterns out of int rows:
    no synthesizer packs a dense array into a BitMatrix, a CzSpec's included."""
    rng = np.random.default_rng(302)
    spec = CzSpec.random(rng, 100)
    m = random_invertible(rng, 128)
    t = random_tableau(rng, 64)

    def refuse(*args):
        raise AssertionError("BitMatrix.from_dense called")

    with monkeypatch.context() as patch:
        patch.setattr(BitMatrix, "from_dense", refuse)
        cz_circuits = [synth_cz(spec, strategy=s) for s in ("auto", "onestep", "twostep")]
        cz_circuits.append(synth_cz_coloring(spec))
        linear = synth_linear(m, EXACT)
        cliff = synth_clifford(t)
    direct = Circuit(spec.n, [cz_gate(i, j) for i, j in spec.pairs()])
    for c in cz_circuits:
        assert tableaux_equal(tableau_of_circuit(c), tableau_of_circuit(direct))
    assert linear_action(linear) == m
    assert tableaux_equal(tableau_of_circuit(cliff), t)


def test_text_formats_build_no_dense_array_or_gate_tuple(monkeypatch):
    """.mat and .tab text goes to and from int rows, and .circ text to and from
    the gate array: no dense 0/1 array and no Gate tuple is made on the way."""
    rng = np.random.default_rng(303)
    m = random_matrix(rng, 9, 70)
    t = random_tableau(rng, 33)
    circuits = [random_clifford_circuit(rng, 8),
                synth_linear(random_invertible(rng, 12), REORDER)]
    assert circuits[1].perm is not None

    def refuse(*args):
        raise AssertionError("a dense array or a Gate tuple was built")

    texts = [m.to_text(), t.to_text()] + [to_text(c) for c in circuits]
    with monkeypatch.context() as patch:
        for owner in (BitMatrix, CliffordTableau):
            patch.setattr(owner, "from_dense", refuse)
            patch.setattr(owner, "to_dense", refuse)
        patch.setattr(circuit, "gate_array", refuse)
        patch.setattr(circuit, "Gate", refuse)
        back = [BitMatrix.from_text(texts[0]), CliffordTableau.from_text(texts[1])]
        back += [from_text(text) for text in texts[2:]]
        assert [back[0].to_text(), back[1].to_text()] + [to_text(c) for c in back[2:]] == texts
    assert back[:2] == [m, t]
    for c, b in zip(circuits, back[2:]):
        assert b == c and b.perm == c.perm
