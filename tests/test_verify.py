import numpy as np
import pytest

from cliffdepth.circuit import Circuit, cnot, cz, h, p, x, z
from cliffdepth.gf2 import BitMatrix
from cliffdepth.verify import (
    NotLinearError,
    cz_pattern_phases,
    linear_action,
    phase_oracle,
    tableaux_equal,
)


def test_linear_action_single_cnot():
    m = linear_action(Circuit(2, [cnot(0, 1)])).to_dense()
    assert np.array_equal(m, [[1, 0], [1, 1]])


def test_linear_action_composition_order():
    a = Circuit(3, [cnot(0, 1)])
    b = Circuit(3, [cnot(1, 2)])
    from cliffdepth.circuit import compose
    from cliffdepth.gf2 import mat_mul

    lhs = linear_action(compose(a, b))
    rhs = mat_mul(linear_action(b), linear_action(a))
    assert lhs == rhs


def test_linear_action_h_conjugated_forms():
    # H b; CZ a b; H b  ==  CNOT a->b
    c = Circuit(2, [h(1), cz(0, 1), h(1)])
    assert linear_action(c) == linear_action(Circuit(2, [cnot(0, 1)]))
    # H both ends flips a CNOT
    c = Circuit(2, [h(0), h(1), cnot(0, 1), h(0), h(1)])
    assert linear_action(c) == linear_action(Circuit(2, [cnot(1, 0)]))


def test_linear_action_rejects_nonlinear():
    with pytest.raises(ValueError):
        linear_action(Circuit(2, [cz(0, 1)]))
    with pytest.raises(ValueError):
        linear_action(Circuit(2, [h(0), cnot(0, 1)]))
    with pytest.raises(ValueError):
        linear_action(Circuit(1, [h(0)]))
    with pytest.raises(ValueError):
        linear_action(Circuit(1, [p(0)]))


def test_linear_action_reads_circuits_outside_the_replayed_form():
    """Cancelling runs spliced into a synthesized circuit leave its matrix unchanged.

    A run left short by one P, X or Z gate adds a conjugated Pauli or its
    square root, which is never a linear map; a lone CZ inside an H frame
    is a CNOT, so it is not checked that way.
    """
    from cliffdepth.cnot import synth_triangular

    rng = np.random.default_rng(41)
    for n in (2, 5, 13, 30):
        u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        np.fill_diagonal(u, 1)
        want = BitMatrix.from_dense(u)
        gates = synth_triangular(want).gates
        assert linear_action(Circuit(n, gates)) == want
        for _ in range(10):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            pair = [[cz(i, j)] * 2, [p(i)] * 4, [x(i)] * 2, [z(i)] * 2][int(rng.integers(4))]
            at = int(rng.integers(len(gates) + 1))
            spliced = gates[:at] + pair + gates[at:]
            assert linear_action(Circuit(n, spliced)) == want
            if pair[0].kind != "CZ":
                with pytest.raises(NotLinearError):
                    linear_action(Circuit(n, gates[:at] + pair[1:] + gates[at:]))


def replay(n, pairs):
    """R of CNOTs on (control, target) pairs, gate by gate on the rows of a 0/1 identity."""
    r = np.eye(n, dtype=np.uint8)
    for a, b in pairs:
        r[b] ^= r[a]
    return r


def test_linear_action_of_cnot_circuits_matches_a_per_gate_replay():
    rng = np.random.default_rng(38)
    for n in (1, 2, 3, 7, 16, 40):
        for _ in range(5):
            pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                     for _ in range(int(rng.integers(0, 300))) if n > 1]
            c = Circuit(n, [cnot(a, b) for a, b in pairs])
            assert np.array_equal(linear_action(c).to_dense(), replay(n, pairs))


def test_linear_action_of_cnots_then_other_gates_reads_the_tableau():
    """Other gates only at the end, the last row among them, take the tableau path.

    One such gate alone is never linear; a cancelling run leaves the CNOTs'
    matrix, and an H frame around a CZ adds a CNOT.
    """
    rng = np.random.default_rng(39)
    for n in (2, 5, 13):
        for _ in range(6):
            pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                     for _ in range(int(rng.integers(0, 60)))]
            body = [cnot(a, b) for a, b in pairs]
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            for last in (cz(i, j), h(i), p(i), x(i), z(i)):
                with pytest.raises(NotLinearError):
                    linear_action(Circuit(n, body + [last]))
            want = replay(n, pairs)
            for tail in ([z(i)] * 2, [x(i)] * 2, [p(i)] * 4, [cz(i, j)] * 2, [h(i)] * 2):
                c = Circuit(n, body + tail)
                assert np.array_equal(linear_action(c).to_dense(), want)
            c = Circuit(n, body + [h(j), cz(i, j), h(j)])
            assert np.array_equal(linear_action(c).to_dense(), replay(n, pairs + [(i, j)]))


def test_phase_oracle_single_cz():
    ph = phase_oracle(Circuit(2, [cz(0, 1)]))
    assert list(ph) == [0, 0, 0, 1]


def test_phase_oracle_z_and_x():
    # X 0; Z 0; X 0 flips which labels pick up the Z phase
    ph = phase_oracle(Circuit(1, [x(0), z(0), x(0)]))
    assert list(ph) == [1, 0]


def test_phase_oracle_compute_uncompute():
    c = Circuit(3, [cnot(0, 1), cz(1, 2), cnot(0, 1)])
    ph = phase_oracle(c)
    labels = np.arange(8)
    expect = (((labels >> 0) ^ (labels >> 1)) & (labels >> 2) & 1).astype(np.uint8)
    assert np.array_equal(ph, expect)


def test_phase_oracle_rejects_permuting_circuit():
    with pytest.raises(ValueError):
        phase_oracle(Circuit(2, [cnot(0, 1)]))


def test_phase_oracle_size_limit():
    with pytest.raises(ValueError):
        phase_oracle(Circuit(13))


def test_cz_pattern_phases_matches_direct_circuit():
    rng = np.random.default_rng(50)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        bits = u | u.T
        gates = [cz(i, j) for i in range(n) for j in range(i + 1, n) if bits[i, j]]
        assert np.array_equal(
            phase_oracle(Circuit(n, gates)), cz_pattern_phases(bits)
        )


def test_tableaux_equal():
    from cliffdepth.clifford import CliffordTableau, tableau_of_circuit

    a = tableau_of_circuit(Circuit(2, [h(0)]))
    b = tableau_of_circuit(Circuit(2, [h(0)]))
    assert tableaux_equal(a, b)
    c = tableau_of_circuit(Circuit(2, [h(1)]))
    assert not tableaux_equal(a, c)
    with pytest.raises(ValueError):
        tableaux_equal(a, CliffordTableau.identity(3))


@pytest.mark.parametrize("n", [13, 64, 256])
def test_oracles_reject_one_extra_gate_at_synthesis_scale(n):
    """Above phase_oracle's limit, each family's oracle rejects a synthesized
    circuit with one gate appended."""
    from cliffdepth.cli import _cz_tableau
    from cliffdepth.clifford import random_tableau, synth_clifford, tableau_of_circuit
    from cliffdepth.cnot import EXACT, synth_linear
    from cliffdepth.cz import CzSpec, synth_cz
    from cliffdepth.gf2 import random_invertible

    rng = np.random.default_rng(70 + n)
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))

    spec = CzSpec.random(rng, n)
    c = synth_cz(spec)
    want = _cz_tableau(spec)
    assert tableaux_equal(tableau_of_circuit(c), want)
    assert not tableaux_equal(tableau_of_circuit(Circuit(n, c.gates + [cz(a, b)])), want)

    r = random_invertible(rng, n)
    c = synth_linear(r, EXACT)
    assert linear_action(c) == r
    assert linear_action(Circuit(n, c.gates + [cnot(a, b)])) != r

    t = random_tableau(rng, n)
    c = synth_clifford(t)
    assert tableaux_equal(tableau_of_circuit(c), t)
    for extra in (x(a), z(b)):
        assert not tableaux_equal(tableau_of_circuit(Circuit(n, c.gates + [extra])), t)
