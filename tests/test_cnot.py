import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffdepth import bounds
from cliffdepth.circuit import Circuit, Gate, cnot, gate_list, h, join
from cliffdepth.clifford import random_tableau, synth_clifford, tableau_of_circuit
from cliffdepth.cnot import (
    EXACT,
    REORDER,
    _block_add_gates,
    _tri_gates,
    remove_hadamards,
    synth_linear,
    synth_triangular,
)
from cliffdepth.gf2 import BitMatrix, random_invertible
from cliffdepth.patterns import _halving_sides, halve_weights, m01_gates
from cliffdepth.rectangles import rectangle_gates, rectangle_pairs
from cliffdepth.verify import linear_action
from cnot_ref import reference_block_add_gates, reference_linear, reference_tri_gates
from patterns_ref import edge_color_classes

blocks = st.integers(1, 24).flatmap(
    lambda k: st.integers(1, 24).flatmap(
        lambda m: arrays(np.uint8, (k, m), elements=st.integers(0, 1))
    )
)


def direct_gates(a, b, c):
    classes = edge_color_classes(BitMatrix.from_dense(c))
    return [cnot(b[j], a[i]) for cl in classes for (i, j) in cl]


@settings(max_examples=300, deadline=None)
@given(blocks)
def test_direct_block_depth_is_max_degree(c):
    k, m = c.shape
    a, b = list(range(k)), list(range(k, k + m))
    delta = int(max(c.sum(axis=0).max(), c.sum(axis=1).max()))
    assert Circuit(k + m, direct_gates(a, b, c)).two_qubit_depth() == delta


def reference_block_add(a, b, c):
    """The rule the block choice keeps: build and measure both stagings, ties to direct.

    Returns the kept gates, the direct depth and the CZ form's measured depth.
    """
    n = max(a + b) + 1
    direct = direct_gates(a, b, c)
    hs = [h(q) for q in a]
    via_cz = hs + gate_list(m01_gates(a, b, halve_weights(BitMatrix.from_dense(c)))) + hs
    d_direct = Circuit(n, direct).two_qubit_depth()
    d_via = Circuit(n, via_cz).two_qubit_depth()
    return (direct if d_direct <= d_via else via_cz), d_direct, d_via


def cz_form_bounds(a, b, c):
    """(LB, UB) on the CZ form's depth from the rectangle finish times and reduced degrees."""
    hr = halve_weights(BitMatrix.from_dense(c))
    rects = [rectangle_pairs([a[i] for i in s], [b[j] for j in u]) for s, u in _halving_sides(hr)]
    rect, reduced = gate_list(rectangle_gates(rects)), hr.reduced
    free = dict.fromkeys(a + b, 0)
    for g in rect:
        if g.kind in ("CZ", "CNOT"):
            free[g.a] = free[g.b] = max(free[g.a], free[g.b]) + 1
    red = reduced.to_dense()
    deg = dict(zip(a + b, red.sum(axis=1).tolist() + red.sum(axis=0).tolist()))
    top = max(free.values())
    return max(top, *(free[q] + deg[q] for q in a + b)), top + max(deg.values())


def _blocks(rng):
    """Square and (h, k - h) blocks at densities 0.1, 0.5, 0.9 and all ones,
    single rows and columns, random rectangles near density 0.6 (where the
    choice is most often left to a measurement) and at any density."""
    for k in range(2, 41):
        for shape in ((k, k), ((k + 1) // 2, k // 2)):
            for density in (0.1, 0.5, 0.9, 1.0):
                yield rng.random(shape) < density
    for m in range(1, 41):
        for density in (0.5, 1.0):
            yield rng.random((1, m)) < density
            yield rng.random((m, 1)) < density
    for _ in range(400):
        yield rng.random(rng.integers(1, 33, size=2)) < rng.uniform(0.45, 0.75)
    for _ in range(300):
        yield rng.random(rng.integers(1, 25, size=2)) < rng.random()


def _counting(counts, key, fn, when=lambda *args: True):
    def wrapper(*args, **kwargs):
        counts[key] += bool(when(*args))
        return fn(*args, **kwargs)
    return wrapper


def test_block_add_keeps_measured_shallower_candidate(monkeypatch):
    """The bounds settle a block exactly as building and measuring both would,
    coloring one pattern; only between the bounds is the CZ form measured.
    The block's gates are the kept staging's, with a CZ form's Hadamards
    removed."""
    import cliffdepth.cnot as cnot_mod
    import cliffdepth.patterns as patterns_mod

    colored = {"direct": 0, "reduced": 0}
    monkeypatch.setattr(cnot_mod, "bipartite_edge_color",
                        _counting(colored, "direct", cnot_mod.bipartite_edge_color))
    monkeypatch.setattr(patterns_mod, "cz_layers",
                        _counting(colored, "reduced", patterns_mod.cz_layers))
    branches = set()
    for bits in _blocks(np.random.default_rng(77)):
        c = bits.astype(np.uint8)
        k, m = c.shape
        a, b = list(range(3, 3 + k)), list(range(3 + k, 3 + k + m))
        if not c.any():
            assert gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c))) == []
            continue
        want, d_direct, d_via = reference_block_add(a, b, c)
        lower, upper = cz_form_bounds(a, b, c)
        assert lower <= d_via <= upper, (c.shape, lower, d_via, upper)
        # before the reset: the reference colors through the counted cnot_mod names
        assert gate_list(reference_block_add_gates(a, b, BitMatrix.from_dense(c))) == want
        colored.update(direct=0, reduced=0)
        got = gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c)))
        assert got == reference_remove_hadamards(want)
        if d_direct <= lower:
            branches.add("direct")
            assert colored == {"direct": 1, "reduced": 0}
        elif d_direct > upper:
            branches.add("cz")
            assert colored == {"direct": 0, "reduced": 1}
        else:
            branches.add("measured " + ("direct" if d_direct <= d_via else "cz"))
            assert colored == {"direct": int(d_direct <= d_via), "reduced": 1}
    assert branches == {"direct", "cz", "measured direct", "measured cz"}


def _odd_blocks(rng):
    """k x (k - 1) blocks for odd k: all ones and at densities 0.5 and 0.9."""
    for k in (3, 5, 7, 9, 15, 17, 31, 33):
        yield np.ones((k, k - 1))
        for density in (0.5, 0.9):
            yield rng.random((k, k - 1)) < density


@pytest.mark.parametrize("k, d_direct, lower, upper, form", [
    (8, 8, 6, 6, "cz"),      # d = 8 > UB = 6
    (4, 4, 4, 4, "direct"),  # d = D: the tie goes to the direct form
])
def test_block_add_all_ones_blocks(k, d_direct, lower, upper, form):
    c = np.ones((k, k), dtype=np.uint8)
    a, b = list(range(k)), list(range(k, 2 * k))
    want, d, d_via = reference_block_add(a, b, c)
    assert (d, cz_form_bounds(a, b, c)) == (d_direct, (lower, upper))
    assert lower <= d_via <= upper
    assert (want == direct_gates(a, b, c)) == (form == "direct")
    assert gate_list(reference_block_add_gates(a, b, BitMatrix.from_dense(c))) == want
    got = gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c)))
    assert got == reference_remove_hadamards(want)


def test_block_add_odd_blocks():
    """Odd k x (k - 1) blocks settle as building and measuring both would,
    some on each form."""
    forms = set()
    for bits in _odd_blocks(np.random.default_rng(59)):
        c = bits.astype(np.uint8)
        k, m = c.shape
        a, b = list(range(1, 1 + k)), list(range(1 + k, 1 + k + m))
        want, _, d_via = reference_block_add(a, b, c)
        lower, upper = cz_form_bounds(a, b, c)
        assert lower <= d_via <= upper
        assert gate_list(reference_block_add_gates(a, b, BitMatrix.from_dense(c))) == want
        got = gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c)))
        assert got == reference_remove_hadamards(want)
        forms.add("direct" if want == direct_gates(a, b, c) else "cz")
    assert forms == {"direct", "cz"}


def test_block_add_matching_is_not_halved(monkeypatch):
    """A block of max degree 1 is a matching, which no CZ form beats: its
    direct gates come back without a halving."""
    import cliffdepth.cnot as cnot_mod
    import cliffdepth.patterns as patterns_mod

    def refuse(p):
        raise AssertionError("halve_weights called")

    for mod in (cnot_mod, patterns_mod):
        monkeypatch.setattr(mod, "halve_weights", refuse)
    a, b = [0, 1, 2], [3, 4, 5, 6]
    for ones in ([(0, 2), (1, 0), (2, 3)], [(1, 2)]):
        c = np.zeros((3, 4), dtype=np.uint8)
        c[tuple(zip(*ones))] = 1
        want = direct_gates(a, b, c)
        assert len(want) == len(ones)
        assert gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c))) == want


def test_small_blocks_never_lose_to_the_cz_form():
    """Every nonempty pattern of at most 4 rows and 4 columns has d <= LB, so
    the direct form wins or ties: why such blocks are not halved."""
    for k in range(1, 5):
        for m in range(1, 5):
            a, b = list(range(k)), list(range(k, k + m))
            bits = np.arange(k * m)
            for mask in range(1, 1 << (k * m)):
                c = ((mask >> bits) & 1).astype(np.uint8).reshape(k, m)
                d = max(c.sum(axis=0).max(), c.sum(axis=1).max())
                assert d <= cz_form_bounds(a, b, c)[0], c


def _degree_two_blocks(rng):
    """Random blocks up to 24 x 24 of max degree at most 2: ones added in a
    random order while their row and column hold fewer than two."""
    for _ in range(300):
        k, m = (int(v) for v in rng.integers(1, 25, size=2))
        c = np.zeros((k, m), dtype=np.uint8)
        for pos in rng.permutation(k * m)[:int(rng.integers(1, 2 * max(k, m) + 1))]:
            i, j = divmod(int(pos), m)
            if c[i].sum() < 2 and c[:, j].sum() < 2:
                c[i, j] = 1
        yield c


def test_block_add_degree_two_is_direct_without_halving(monkeypatch):
    """Blocks of max degree at most 2 keep what building and measuring both
    stagings keeps, the direct form, and are not halved."""
    import cliffdepth.cnot as cnot_mod

    cases = []
    for c in _degree_two_blocks(np.random.default_rng(83)):
        k, m = c.shape
        a, b = list(range(2, 2 + k)), list(range(2 + k, 2 + k + m))
        want, d_direct, _ = reference_block_add(a, b, c)
        assert want == direct_gates(a, b, c) and d_direct <= 2
        cases.append((a, b, c, want))
    assert {max(c.shape) > 4 and c.sum(axis=1).max() == 2 for *_, c, _ in cases} == {True, False}

    def refuse(p):
        raise AssertionError("halve_weights called")

    monkeypatch.setattr(cnot_mod, "halve_weights", refuse)
    for a, b, c, want in cases:
        assert gate_list(_block_add_gates(a, b, BitMatrix.from_dense(c))) == want


def _unitriangular_rows(k):
    """The int rows of every upper unitriangular k x k matrix."""
    for mask in range(1 << k * (k - 1) // 2):
        u = np.eye(k, dtype=np.uint8)
        u[np.triu_indices(k, 1)] = (mask >> np.arange(k * (k - 1) // 2)) & 1
        yield mask, BitMatrix.from_dense(u).ints


def test_tri_gates_base4_matches_the_recursion():
    """The cached base case gives the gates of halving into a 2x2 block and two
    k = 2 triangles, on all 64 upper unitriangular 4x4 matrices, and the
    recursion's gates on every 2x2 and 3x3 one, on non-consecutive qubits."""
    qubits = [1, 4, 5, 9]
    for mask, r in _unitriangular_rows(4):
        got, want = [], []
        _tri_gates(qubits, r, got)
        reference_tri_gates(qubits, r, want)
        assert gate_list(join(got)) == gate_list(join(want)), mask
    for k in (2, 3):
        for mask, r in _unitriangular_rows(k):
            got, want = [], []
            _tri_gates(qubits[:k], r, got)
            reference_tri_gates(qubits[:k], r, want)
            assert gate_list(join(got)) == gate_list(join(want)), (k, mask)


def test_synth_linear_builds_no_block_candidates(monkeypatch):
    """Choosing a block's staging builds no Circuit and colors one pattern;
    synth_linear and synth_clifford each build only the Circuit they return."""
    import cliffdepth.cnot as cnot_mod
    import cliffdepth.patterns as patterns_mod

    for k in (2, 3, 4):  # fill the small-triangle table, whichever tests ran before
        for _, r in _unitriangular_rows(k):
            _tri_gates(list(range(k)), r, [])
    counts = {"circuits": 0, "colorings": 0, "blocks": 0}
    monkeypatch.setattr(Circuit, "__init__", _counting(counts, "circuits", Circuit.__init__))
    for mod in (cnot_mod, patterns_mod):
        monkeypatch.setattr(mod, "bipartite_edge_color",
                            _counting(counts, "colorings", patterns_mod.bipartite_edge_color))
    monkeypatch.setattr(cnot_mod, "_block_add_gates",
                        _counting(counts, "blocks", cnot_mod._block_add_gates,
                                  when=lambda a, b, c: any(c.ints)))
    m = random_invertible(np.random.default_rng(128), 128)
    c = synth_linear(m, EXACT)
    # the 4-qubit triangles' 2x2 blocks are a base case, not blocks
    assert counts["blocks"] == 61
    assert counts["colorings"] <= counts["blocks"]
    assert counts["circuits"] == 1
    t = random_tableau(np.random.default_rng(129), 64)
    counts.update(circuits=0, blocks=0)
    cliff = synth_clifford(t)
    assert counts["blocks"] == 30
    assert counts["circuits"] == 1
    monkeypatch.undo()
    assert linear_action(c) == m
    assert tableau_of_circuit(cliff) == t


def test_synth_linear_halves_each_block_once(monkeypatch):
    """Each block of more than 4 rows or columns and max degree at least 3 is
    halved once, whichever staging it returns; no other block is halved."""
    import cliffdepth.cnot as cnot_mod
    import cliffdepth.patterns as patterns_mod

    counts = {"halvings": 0, "blocks": 0, "probed": 0, "cz form": 0}
    block_add = cnot_mod._block_add_gates

    def counted_block(a, b, c):
        dense = c.to_dense()
        degree = max(dense.sum(axis=0).max(), dense.sum(axis=1).max())
        counts["blocks"] += bool(degree)
        counts["probed"] += bool(degree >= 3 and max(c.rows, c.cols) > 4)
        gates = block_add(a, b, c)
        reference = gate_list(reference_block_add_gates(a, b, c))
        assert gate_list(gates) == reference_remove_hadamards(reference)
        counts["cz form"] += any(g.kind == "CZ" for g in reference)
        return gates

    for mod in (cnot_mod, patterns_mod):
        monkeypatch.setattr(mod, "halve_weights",
                            _counting(counts, "halvings", patterns_mod.halve_weights))
    monkeypatch.setattr(cnot_mod, "_block_add_gates", counted_block)
    m = random_invertible(np.random.default_rng(301), 256)
    c = synth_linear(m, EXACT)
    assert counts["cz form"] > 0 and 0 < counts["probed"] < counts["blocks"]
    assert counts["halvings"] == counts["probed"]
    monkeypatch.undo()
    assert linear_action(c) == m


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
    table = bounds.get_table(bounds.CNOT)
    for _ in range(60):
        n = int(rng.integers(1, 24))
        m = random_unitriangular(rng, n)
        c = synth_triangular(m)
        assert linear_action(c) == m
        if n >= 2:
            assert c.two_qubit_depth() <= table[n]


def _dense_block_triangular(rng, n):
    """An upper unitriangular matrix whose top block C is dense: the top-left
    half is the identity, so C is the top-right half, at density 0.9 to 1."""
    h = (n + 1) // 2
    u = random_unitriangular(rng, n).to_dense()
    u[:h, :h] = np.eye(h, dtype=np.uint8)
    u[:h, h:] = rng.random((h, n - h)) < rng.uniform(0.9, 1.0)
    return BitMatrix.from_dense(u)


def test_remove_hadamards_preserves_action_count_depth():
    """On H-literal triangular circuits, whose CZ-form blocks hold their H
    gates on A, the rewrite keeps the action, two-qubit count and depth."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(24, 49))
        m = _dense_block_triangular(rng, n)
        out = []
        reference_tri_gates(list(range(n)), m.ints, out)
        c = Circuit(n, join(out))
        assert {"H", "CZ"} <= {g.kind for g in c.gates}
        stripped = remove_hadamards(c)
        assert all(g.kind == "CNOT" for g in stripped.gates)
        assert linear_action(stripped) == m
        assert stripped.count_two_qubit() == c.count_two_qubit()
        assert stripped.two_qubit_depth() == c.two_qubit_depth()


def reference_remove_hadamards(gates):
    """The H-parity rewrite gate by gate: the CNOT gates, or the first error's message."""
    par = {}
    out = []
    for g in gates:
        pa, pb = par.get(g.a, 0), par.get(g.b, 0)
        if g.kind == "H":
            par[g.a] = 1 - pa
        elif g.kind == "CNOT" and pa == pb:
            out.append(cnot(g.b, g.a) if pa else g)
        elif g.kind == "CNOT":
            return "CNOT with one conjugated end has no rewrite"
        elif g.kind == "CZ" and pa != pb:
            out.append(cnot(g.b, g.a) if pa else cnot(g.a, g.b))
        elif g.kind == "CZ":
            return "CZ needs exactly one conjugated end"
        else:
            return f"cannot remove H around {g.kind} gate"
    return "unmatched H gates remain" if any(par.values()) else out


def test_remove_hadamards_matches_gate_by_gate_rewrite():
    """On random H/CNOT/CZ/P circuits, the rewrite or its first error is the
    gate-by-gate one; every error occurs, and rewrites with and without a CZ."""
    rng = np.random.default_rng(35)
    seen = set()
    for _ in range(3000):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(int(rng.integers(0, 9))):
            kind = rng.choice(["H", "H", "CNOT", "CZ", "P"], p=[0.3, 0.2, 0.2, 0.25, 0.05])
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate(kind, a, b) if kind in ("CNOT", "CZ") else Gate(kind, a))
        want = reference_remove_hadamards(gates)
        c = Circuit(n, gates)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                remove_hadamards(c)
            seen.add(want)
        else:
            assert remove_hadamards(c).gates == want
            seen.add("with CZ" if any(g.kind == "CZ" for g in gates) else "without CZ")
    assert len(seen) == 6, seen


@pytest.mark.parametrize("mode", [EXACT, REORDER])
@pytest.mark.parametrize("n, seed", [(256, 22), (100, 1)])
def test_synth_linear_is_the_reference_without_hadamards(n, seed, mode):
    """synth_linear gives, gate for gate, the circuit of H-literal blocks with
    its Hadamards removed, and the same perm."""
    r = random_invertible(np.random.default_rng(seed), n)
    ref = reference_linear(r, mode)
    assert {"CZ", "H"} <= {g.kind for g in ref.gates}  # some block took the CZ form
    want = remove_hadamards(ref)
    c = synth_linear(r, mode)
    assert np.array_equal(c.array, want.array)
    assert c.perm == want.perm


def test_synth_linear_emits_only_cnots():
    """Blocks in the CZ form come out as CNOTs too: no H or CZ gate is emitted."""
    m = random_invertible(np.random.default_rng(1), 100)
    for mode in (EXACT, REORDER):
        assert {g.kind for g in synth_linear(m, mode).gates} == {"CNOT"}


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


def _adversarial_matrices(n: int) -> dict[str, BitMatrix]:
    """Structured invertible matrices that stress the CNOT recursion's blocks at size n."""
    rng = np.random.default_rng(n)
    h = (n + 1) // 2
    eye = np.eye(n, dtype=np.uint8)
    upper = np.triu(np.ones((n, n), dtype=np.uint8))
    above, below = eye.copy(), eye.copy()
    above[:h, h:] = 1
    below[h:, :h] = 1
    blocks = np.zeros((n, n), dtype=np.uint8)
    blocks[:h, :h] = random_invertible(rng, h).to_dense()
    blocks[h:, h:] = random_invertible(rng, n - h).to_dense()
    dense = {
        "identity": eye,
        "random permutation": eye[rng.permutation(n)],
        "reversal": eye[::-1],
        "all-ones upper unitriangular": upper,
        "all-ones lower unitriangular": upper.T,
        "all-ones block above the diagonal": above,
        "all-ones block below the diagonal": below,
        "block-diagonal": blocks,
    }
    return {name: BitMatrix.from_dense(d) for name, d in dense.items()}


@pytest.mark.parametrize("n", [39, 40, 64, 77, 130])
def test_adversarial_matrices_verify_within_table(n):
    exact_bound = int(bounds.construction_depth(bounds.CNOT)[n])
    reorder_bound = 2 * bounds.cnot_depth_recursion(n)
    for name, m in _adversarial_matrices(n).items():
        c = synth_linear(m, EXACT)
        assert c.perm is None, name
        assert linear_action(c) == m, name
        assert c.two_qubit_depth() <= exact_bound, name
        c = synth_linear(m, REORDER)
        # row i of the circuit's action is row perm.map[i] of m
        assert linear_action(c) == BitMatrix(n, n, [m.ints[int(p)] for p in c.perm.map]), name
        assert c.two_qubit_depth() <= reorder_bound, name
