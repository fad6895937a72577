import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdepth.circuit import (
    TWO_QUBIT,
    Circuit,
    Gate,
    asap_finish,
    cnot,
    compose,
    cz,
    from_text,
    gate_list,
    h,
    invert,
    p,
    to_qasm2,
    to_text,
    x,
    z,
)
from cliffdepth.clifford import (random_clifford_circuit, random_tableau, synth_clifford,
                                 tableau_of_circuit)
from cliffdepth.cnot import EXACT, REORDER, _block_add_gates, synth_linear
from cliffdepth.cz import CzSpec, synth_cz
from cliffdepth.gf2 import BitMatrix, Permutation, random_invertible
from cliffdepth.patterns import cz_layers
from cliffdepth.verify import NotLinearError, linear_action, phase_oracle


def random_circuit(rng, n, g):
    gates = []
    for _ in range(g):
        kind = rng.integers(0, 6)
        a = int(rng.integers(0, n))
        if kind < 2 and n > 1:
            b = int(rng.integers(0, n - 1))
            b += b >= a
            gates.append(cz(a, b) if kind == 0 else cnot(a, b))
        else:
            gates.append([h, p, x, z][int(kind) % 4](a))
    return Circuit(n, gates)


def test_cz_canonical_order():
    assert cz(5, 2) == cz(2, 5)
    assert cz(2, 5).a == 2


def test_cz_rejects_equal():
    with pytest.raises(ValueError):
        cz(3, 3)
    with pytest.raises(ValueError):
        cnot(1, 1)


def test_depth_counts_only_two_qubit_gates():
    c = Circuit(3, [h(0), cz(0, 1), p(1), cnot(1, 2), x(2)])
    assert c.two_qubit_depth() == 2
    assert c.count_two_qubit() == 2


def test_depth_parallel_layers():
    c = Circuit(4, [cz(0, 1), cz(2, 3), cnot(0, 2), cnot(1, 3)])
    assert c.two_qubit_depth() == 2


def test_depth_asap_reordering():
    # gate on fresh qubits slides past a busy pair
    c = Circuit(4, [cz(0, 1), cz(0, 1), cz(2, 3)])
    assert c.two_qubit_depth() == 2


def test_empty_circuit():
    c = Circuit(2)
    assert len(c) == 0
    assert c.two_qubit_depth() == 0


def test_text_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(50):
        c = random_circuit(rng, int(rng.integers(1, 9)), int(rng.integers(0, 40)))
        assert from_text(to_text(c)) == c


def test_text_roundtrip_with_perm():
    c = Circuit(3, [cnot(0, 1)], perm=Permutation([2, 0, 1]))
    back = from_text(to_text(c))
    assert back.perm == c.perm
    assert back.gates == c.gates


def test_equality_compares_the_perm():
    """Circuits with the same gates but different perms realize different maps."""
    assert Circuit(2, perm=Permutation([1, 0])) != Circuit(2)
    assert Circuit(2) != Circuit(2, perm=Permutation([1, 0]))
    assert Circuit(2, perm=Permutation([1, 0])) != Circuit(2, perm=Permutation([0, 1]))
    assert Circuit(2, [cnot(0, 1)], perm=Permutation([1, 0])) == Circuit(
        2, [cnot(0, 1)], perm=Permutation([1, 0]))


def test_a_cz_has_one_array_form():
    """A CZ given with descending ends, as a Gate or as an array row, is held as
    cz orders it, so the circuit equals its cz() form and round-trips as text;
    the caller's array is not changed."""
    want = Circuit(3, [cz(1, 0), cnot(2, 0), h(1), cz(0, 2)])
    arr = np.array([[0, 1, 0], [1, 2, 0], [2, 1, -1], [0, 2, 0]], dtype=np.int64)
    for c in (Circuit(3, [Gate("CZ", 1, 0), cnot(2, 0), h(1), Gate("CZ", 2, 0)]),
              Circuit(3, arr)):
        assert c == want
        assert from_text(to_text(c)) == c
    assert arr[:, 1].tolist() == [1, 2, 1, 2]
    assert Circuit(3, want.array).array is want.array  # no copy when every CZ ascends


def test_perm_of_another_length_is_refused():
    """A perm must cover the n qubits, as from_text requires of the file."""
    with pytest.raises(ValueError, match="perm of 2 qubits"):
        Circuit(3, perm=Permutation([1, 0]))
    with pytest.raises(ValueError, match="^line 2: perm is not a permutation of the 3 qubits"):
        from_text("qubits 3\nperm 1 0\n")


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("3\nCZ 0 1")
    with pytest.raises(ValueError):
        from_text("qubits 2\nRX 0")


def test_qasm_output():
    q = to_qasm2(Circuit(2, [h(0), cnot(0, 1), p(1), cz(0, 1)]))
    assert q.startswith("OPENQASM 2.0;")
    assert "qreg q[2];" in q
    assert "cx q[0],q[1];" in q
    assert "s q[1];" in q
    assert "cz q[0],q[1];" in q


def test_qasm_refuses_a_permutation():
    # QASM has no way to state the relabeling, so the gates alone would
    # realize the matrix only up to an unstated qubit order.
    c = synth_linear(random_invertible(np.random.default_rng(3), 6), REORDER)
    assert c.perm is not None
    with pytest.raises(ValueError, match="permutation"):
        to_qasm2(c)
    assert to_qasm2(Circuit(c.n, c.array)).startswith("OPENQASM 2.0;")


@pytest.mark.parametrize("op", ["compose_first", "compose_second", "invert"])
def test_compose_and_invert_refuse_a_permutation(op):
    # The result would drop the relabeling, and with it the map the circuit realizes.
    c = synth_linear(random_invertible(np.random.default_rng(3), 6), REORDER)
    assert c.perm is not None
    plain = Circuit(6)
    call = {"compose_first": lambda: compose(c, plain),
            "compose_second": lambda: compose(plain, c),
            "invert": lambda: invert(c)}[op]
    with pytest.raises(ValueError, match="permutation"):
        call()
    unpermuted = Circuit(6, c.array)
    assert len(compose(plain, unpermuted)) == len(invert(unpermuted)) == len(c)


def test_from_text_builds_the_gate_array():
    """CZ ends are sorted as ``cz`` sorts them, and a one-qubit gate has b = -1."""
    c = from_text("qubits 4\nCZ 3 1\nCNOT 3 1\nH 2\nP 0\nX 3\nZ 1\n")
    assert c.array.dtype == np.int64
    assert c.array.tolist() == [[0, 1, 3], [1, 3, 1], [2, 2, -1], [3, 0, -1], [4, 3, -1],
                                [5, 1, -1]]
    assert c == Circuit(4, [cz(3, 1), cnot(3, 1), h(2), p(0), x(3), z(1)])
    for n in (0, 3):
        empty = from_text(f"qubits {n}\n")
        assert (empty.n, empty.array.shape) == (n, (0, 3))


def test_text_roundtrip_of_synthesized_circuits():
    """from_text(to_text(c)) == c for synthesized CZ, CNOT (exact and perm) and
    Clifford circuits, perm included."""
    rng = np.random.default_rng(23)
    r = random_invertible(rng, 20)
    for c in (synth_cz(CzSpec.random(rng, 20)), synth_linear(r, EXACT),
              synth_linear(r, REORDER), synth_clifford(random_tableau(rng, 12))):
        back = from_text(to_text(c))
        assert back == c and back.perm == c.perm


def test_compose_and_invert_cancel():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, 30)
        t = tableau_of_circuit(compose(c, invert(c)))
        ident = tableau_of_circuit(Circuit(n))
        assert t == ident


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Circuit(2), Circuit(3))


_GATE = st.sampled_from(["CZ", "CNOT", "H", "P", "X", "Z"])


@st.composite
def circuits(draw, max_n=6, max_g=25):
    n = draw(st.integers(2, max_n))
    g = draw(st.integers(0, max_g))
    gates = []
    for _ in range(g):
        kind = draw(_GATE)
        a = draw(st.integers(0, n - 1))
        if kind in ("CZ", "CNOT"):
            b = draw(st.integers(0, n - 2))
            b += b >= a
            gates.append(cz(a, b) if kind == "CZ" else cnot(a, b))
        else:
            gates.append({"H": h, "P": p, "X": x, "Z": z}[kind](a))
    return Circuit(n, gates)


@settings(max_examples=1000, deadline=None)
@given(circuits())
def test_every_circuit_tableau_is_symplectic(c):
    assert tableau_of_circuit(c).is_symplectic()


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_depth_never_exceeds_gate_count(c):
    d = c.two_qubit_depth()
    assert 0 <= d <= c.count_two_qubit()


def reference_depth(c):
    """ASAP schedule length: each two-qubit gate starts when both its qubits are free."""
    free = [0] * c.n
    for g in c.gates:
        if g.kind in ("CZ", "CNOT"):
            start = max(free[g.a], free[g.b])
            free[g.a] = free[g.b] = start + 1
    return max(free, default=0)


def test_depth_matches_reference_asap():
    rng = np.random.default_rng(12)
    assert Circuit(0).two_qubit_depth() == reference_depth(Circuit(0)) == 0
    assert Circuit(3).two_qubit_depth() == 0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        c = random_circuit(rng, n, int(rng.integers(0, 120)))
        assert c.two_qubit_depth() == reference_depth(c)


@pytest.mark.parametrize("kinds", ["two-qubit", "mixed", "empty"])
def test_asap_finish_matches_reference_depth_from_a_list_or_a_dict(kinds):
    """asap_finish reads an all-two-qubit array's qubit columns as they are and
    masks them when a one-qubit gate is present; d may be a list or a dict."""
    rng = np.random.default_rng(38)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        gates = random_circuit(rng, n, int(rng.integers(0, 120))).gates
        two = [g for g in gates if g.kind in TWO_QUBIT]
        c = Circuit(n, {"two-qubit": two + [cnot(n - 1, 0)],
                        "mixed": gates + [h(0), cz(0, n - 1)],
                        "empty": []}[kinds])
        assert (c.array[:, 0] < 2).all() == (kinds != "mixed")
        d, e = [0] * n, dict.fromkeys(range(n), 0)
        asap_finish(c.array, d)
        asap_finish(c.array, e)
        assert list(e.values()) == d
        assert max(d) == c.two_qubit_depth() == reference_depth(c)


@pytest.mark.parametrize("gate", [
    cnot(0, -2),
    Gate("CZ", 1, -1),
    Gate("CZ", -1, 1),
    cnot(0, 3),
    cnot(3, 0),
    Gate("CZ", 1, 7),
    h(-1),
    h(3),
], ids=str)
def test_gate_qubits_out_of_range_rejected(gate):
    with pytest.raises(ValueError, match=r"out of range for 3 qubits"):
        Circuit(3, [h(0), cz(0, 1), gate, cnot(2, 1)])


def test_out_of_range_error_names_first_bad_gate():
    with pytest.raises(ValueError, match=r"Gate\(kind='CNOT', a=0, b=-2\) out of range"):
        Circuit(3, [h(2), cnot(0, -2), cnot(0, 5)])
    Circuit(3, [h(2), cnot(0, 1), z(1), cz(1, 2)])  # in range: accepted


def test_gate_builders_make_plain_gates():
    """cz, cnot, cz_layers and the direct-form block build true Gates."""
    g = cz(5, 2)
    assert g == Gate("CZ", 2, 5) and (g.kind, g.a, g.b) == ("CZ", 2, 5)
    assert cz(2, 5) == g
    g = cnot(5, 2)
    assert g == Gate("CNOT", 5, 2) and (g.kind, g.a, g.b) == ("CNOT", 5, 2)
    for bad in (cz, cnot):
        with pytest.raises(ValueError):
            bad(3, 3)
    # rows on the high qubits, so cz_layers must swap every pair's ends
    bits = np.ones((3, 2), dtype=np.uint8)
    layers = gate_list(cz_layers([7, 8, 9], [1, 2], BitMatrix.from_dense(bits)))
    assert sorted(layers) == [Gate("CZ", b, a) for b in (1, 2) for a in (7, 8, 9)]
    # a single edge per row and column: depth 1, so the direct form
    direct = gate_list(_block_add_gates([0, 1], [4, 5],
                                        BitMatrix.from_dense(np.eye(2, dtype=np.uint8))))
    assert direct == [Gate("CNOT", 4, 0), Gate("CNOT", 5, 1)]
    for g in [cz(1, 0), cnot(0, 1), *layers, *direct]:
        assert type(g) is Gate
        assert g.b == g[2] and g.a == g[1] and g.kind == g[0]


def test_unknown_gate_kind_rejected():
    with pytest.raises(ValueError, match=r"unknown kind 'FOO'"):
        Circuit(3, [h(0), Gate("FOO", 1, 2)])
    with pytest.raises(ValueError, match=r"gate 1 has unknown kind code 6"):
        Circuit(3, np.array([[2, 0, -1], [6, 1, 2]]))


def test_two_qubit_gate_with_equal_ends_rejected():
    with pytest.raises(ValueError, match=r"Gate\(kind='CZ', a=2, b=2\) needs two distinct qubits"):
        Circuit(3, [cz(0, 1), Gate("CZ", 2, 2)])
    with pytest.raises(ValueError, match=r"Gate\(kind='CNOT', a=1, b=1\) needs two distinct"):
        Circuit(3, np.array([[1, 1, 1]]))


def test_one_qubit_gate_with_second_qubit_rejected():
    with pytest.raises(ValueError, match=r"Gate\(kind='H', a=1, b=7\) is a one-qubit gate"):
        Circuit(3, [Gate("H", 1, 7)])
    with pytest.raises(ValueError, match=r"Gate\(kind='Z', a=0, b=2\) is a one-qubit gate"):
        Circuit(3, np.array([[5, 0, 2]]))


def test_negative_qubit_count_rejected():
    for gates in ((), np.zeros((0, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"negative qubit count -1"):
            Circuit(-1, gates)
    assert len(Circuit(0)) == 0


def test_from_text_reports_a_bad_gate_by_its_line():
    """The gate array's own check rejects a parsed gate, and the error names its line."""
    for text, msg in [
        ("qubits 2\nH 0\n\nCZ 5 0\n", r"^line 4: gate Gate\(kind='CZ', a=0, b=5\) out of range"),
        ("qubits 3\nperm 0 2 1\nCNOT 2 2\n", r"^line 3: gate Gate\(kind='CNOT', a=2, b=2\) needs two"),
        ("qubits 2\nH -1\n", r"^line 2: gate Gate\(kind='H', a=-1, b=-1\) out of range"),
        ("\nqubits -2\n", r"^line 2: negative qubit count -2"),
    ]:
        with pytest.raises(ValueError, match=msg):
            from_text(text)


def test_gate_array_shape_and_type_rejected():
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64),
                np.zeros((1, 3), dtype=np.float64)):
        with pytest.raises(ValueError, match=r"a gate array is \(G, 3\) ints"):
            Circuit(3, bad)


def test_gates_view_round_trip():
    """Circuit(n, c.gates) holds the same array, and the text form round-trips."""
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 17, 40):
        c = random_clifford_circuit(rng, n)
        back = Circuit(n, c.gates)
        assert back.array.dtype == c.array.dtype == np.int64
        assert np.array_equal(back.array, c.array)
        assert to_text(back) == to_text(c)
        assert from_text(to_text(c)) == c


def test_checks_never_build_the_gates_view(monkeypatch):
    """Depth, the tableau and linear oracles, counting and text output read the array."""
    rng = np.random.default_rng(22)
    r = random_invertible(rng, 24)
    spec = CzSpec.random(rng, 10)
    cz_out = synth_cz(spec)
    linear = [synth_linear(r, EXACT), synth_linear(r, REORDER)]
    clifford_out = synth_clifford(random_tableau(rng, 16))

    def refuse(self):
        raise AssertionError("the gates view was built")

    monkeypatch.setattr(Circuit, "gates", property(refuse))
    for c in [cz_out, *linear, clifford_out]:
        assert 0 < c.two_qubit_depth() <= c.count_two_qubit() <= len(c)
        tableau_of_circuit(c)
        assert to_text(c).count("\n") == len(c) + 1 + (c.perm is not None)
    assert linear_action(linear[0]) == r
    linear_action(linear[1])
    for c in (cz_out, clifford_out):
        with pytest.raises(NotLinearError):
            linear_action(c)
    phase_oracle(cz_out)
