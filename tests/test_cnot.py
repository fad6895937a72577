import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffdepth import bounds
from cliffdepth.circuit import Circuit, cnot, h
from cliffdepth.cnot import (
    EXACT,
    REORDER,
    _block_add_gates,
    remove_hadamards,
    synth_linear,
    synth_triangular,
)
from cliffdepth.gf2 import BitMatrix, random_invertible
from cliffdepth.patterns import M01Pattern, bipartite_edge_color, m01_gates
from cliffdepth.verify import linear_action

blocks = st.integers(1, 24).flatmap(
    lambda k: st.integers(1, 24).flatmap(
        lambda m: arrays(np.uint8, (k, m), elements=st.integers(0, 1))
    )
)


def direct_gates(a, b, c):
    classes = bipartite_edge_color(M01Pattern.from_dense(c))
    return [cnot(b[j], a[i]) for cl in classes for (i, j) in cl]


@settings(max_examples=300, deadline=None)
@given(blocks)
def test_direct_block_depth_is_max_degree(c):
    k, m = c.shape
    a, b = list(range(k)), list(range(k, k + m))
    delta = int(max(c.sum(axis=0).max(), c.sum(axis=1).max()))
    assert Circuit(k + m, direct_gates(a, b, c)).two_qubit_depth() == delta


def test_block_add_keeps_measured_shallower_candidate():
    # reference: build and measure both stagings, ties to the direct form
    rng = np.random.default_rng(5)
    kept = set()
    for _ in range(300):
        k, m = (int(v) for v in rng.integers(1, 25, size=2))
        c = (rng.random((k, m)) < rng.random()).astype(np.uint8)
        a, b = list(range(k)), list(range(k, k + m))
        if not c.any():
            assert _block_add_gates(a, b, c) == []
            continue
        direct = direct_gates(a, b, c)
        via_cz = [h(q) for q in a] + m01_gates(a, b, M01Pattern.from_dense(c)) + [h(q) for q in a]
        d_direct = Circuit(k + m, direct).two_qubit_depth()
        d_via = Circuit(k + m, via_cz).two_qubit_depth()
        kept.add("direct" if d_direct <= d_via else "via_cz")
        assert _block_add_gates(a, b, c) == (direct if d_direct <= d_via else via_cz)
    assert kept == {"direct", "via_cz"}


def random_unitriangular(rng, n):
    u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    np.fill_diagonal(u, 1)
    return BitMatrix.from_dense(u)


def test_triangular_rejects_bad_input():
    with pytest.raises(ValueError):
        synth_triangular(BitMatrix.zeros(3, 3))
    full = BitMatrix.from_dense(np.ones((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        synth_triangular(full)
    with pytest.raises(ValueError):
        synth_triangular(BitMatrix.zeros(2, 3))


def test_triangular_action_small_exhaustive():
    # all 8 upper-unitriangular 3x3 matrices, plus both 2x2 and the 1x1
    for n in (1, 2, 3):
        count = n * (n - 1) // 2
        for mask in range(1 << count):
            u = np.eye(n, dtype=np.uint8)
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    u[i, j] = (mask >> k) & 1
                    k += 1
            m = BitMatrix.from_dense(u)
            c = synth_triangular(m)
            assert linear_action(c) == m
            assert c.two_qubit_depth() <= 2 or n > 3


def test_triangular_action_random():
    rng = np.random.default_rng(30)
    table = bounds.get_table(bounds.CNOT, 200)
    for _ in range(60):
        n = int(rng.integers(1, 24))
        m = random_unitriangular(rng, n)
        c = synth_triangular(m)
        assert linear_action(c) == m
        if n >= 2:
            assert c.two_qubit_depth() <= table[n]


def test_remove_hadamards_preserves_action_count_depth():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        m = random_unitriangular(rng, n)
        c = synth_triangular(m)
        stripped = remove_hadamards(c)
        assert all(g.kind == "CNOT" for g in stripped.gates)
        assert linear_action(stripped) == m
        assert stripped.count_two_qubit() == c.count_two_qubit()
        assert stripped.two_qubit_depth() == c.two_qubit_depth()


def test_synth_linear_exact():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(1, 36))
        m = random_invertible(rng, n)
        c = synth_linear(m, EXACT)
        assert c.perm is None
        assert linear_action(c) == m


def test_synth_linear_reorder():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 36))
        m = random_invertible(rng, n)
        c = synth_linear(m, REORDER)
        r = linear_action(c).to_dense()
        md = m.to_dense()
        for i in range(n):
            assert np.array_equal(r[i], md[int(c.perm.map[i])])
        assert remove_hadamards(c).perm == c.perm


def test_reorder_never_deeper_than_exact():
    rng = np.random.default_rng(34)
    for n in (8, 16, 30, 47):
        m = random_invertible(rng, n)
        de = synth_linear(m, EXACT).two_qubit_depth()
        dr = synth_linear(m, REORDER).two_qubit_depth()
        assert dr <= de <= dr + 6


def test_synth_linear_depth_under_formula():
    rng = np.random.default_rng(35)
    for n in (70, 128, 256):
        m = random_invertible(rng, n)
        c = synth_linear(m, EXACT)
        assert linear_action(c) == m
        bound = bounds.CNOT_EXACT_BOUND.value(n)
        assert c.two_qubit_depth() <= bound


def test_synth_linear_mode_validation():
    with pytest.raises(ValueError):
        synth_linear(BitMatrix.identity(3), "fast")
    with pytest.raises(ValueError):
        synth_linear(BitMatrix.zeros(2, 3))


def test_singular_input_raises():
    from cliffdepth.gf2 import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        synth_linear(BitMatrix.zeros(4, 4))


def test_worked_example_depth_6():
    # identity with an all-ones 7x7 block in the top-right corner
    u = np.eye(14, dtype=np.uint8)
    u[:7, 7:] = 1
    m = BitMatrix.from_dense(u)
    tri = synth_triangular(m)
    assert linear_action(tri) == m
    assert tri.two_qubit_depth() == 6
    assert remove_hadamards(tri).two_qubit_depth() == 6
    assert synth_linear(m, EXACT).two_qubit_depth() == 6
