import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdepth.circuit import Circuit, asap_finish, cz, gate_list
from cliffdepth.rectangles import (
    check_qubit_set,
    parity_tree,
    rectangle_finish,
    rectangle_gates,
    rectangle_pairs,
    rectangle_parts,
    synth_rectangle,
    tree_layers,
)
from cliffdepth.verify import linear_action, phase_oracle


def ceil_log2(k):
    return max(0, (k - 1).bit_length())


def test_check_qubit_set():
    with pytest.raises(ValueError):
        check_qubit_set([])
    with pytest.raises(ValueError):
        check_qubit_set([1, 2, 1])
    check_qubit_set([3, 0, 7])


qubit_sets = st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True)


@settings(max_examples=1000, deadline=None)
@given(qubit_sets)
def test_parity_tree_depth_and_action(s):
    layers = tree_layers(s)
    assert len(layers) == ceil_log2(len(s))
    circ, rep = parity_tree(s)
    assert rep == s[-1]
    assert circ.two_qubit_depth() == len(layers)
    r = linear_action(circ).to_dense()
    # representative row accumulates exactly the parities of s
    expect = np.zeros(circ.n, dtype=np.uint8)
    expect[list(s)] = 1
    assert np.array_equal(r[rep], expect)


@settings(max_examples=300, deadline=None)
@given(qubit_sets)
def test_tree_layers_are_disjoint(s):
    for layer in tree_layers(s):
        flat = [q for pair in layer for q in pair]
        assert len(flat) == len(set(flat))
        assert set(flat) <= set(s)


def test_rectangle_single_pair():
    trees, middle = rectangle_pairs([4], [7])
    assert trees == [] and len(middle) == 1
    assert gate_list(rectangle_parts([4], [7])) == [cz(4, 7)]
    assert synth_rectangle([4], [7]).two_qubit_depth() == 1


def rectangle_phase_reference(a, b, n):
    labels = np.arange(1 << n, dtype=np.uint32)
    pa = np.zeros(labels.shape, dtype=np.uint8)
    for q in a:
        pa ^= ((labels >> np.uint32(q)) & np.uint32(1)).astype(np.uint8)
    pb = np.zeros(labels.shape, dtype=np.uint8)
    for q in b:
        pb ^= ((labels >> np.uint32(q)) & np.uint32(1)).astype(np.uint8)
    return pa & pb


def test_rectangle_phases_exhaustive():
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(2, 10))
        qubits = list(rng.permutation(n))
        k = int(rng.integers(1, n))
        m = int(rng.integers(1, n - k + 1))
        a = [int(q) for q in qubits[:k]]
        b = [int(q) for q in qubits[k:k + m]]
        circ = synth_rectangle(a, b, n)
        assert np.array_equal(phase_oracle(circ), rectangle_phase_reference(a, b, n))


def test_rectangle_depth_bound():
    rng = np.random.default_rng(13)
    for _ in range(150):
        k = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        a = list(range(k))
        b = list(range(k, k + m))
        circ = synth_rectangle(a, b)
        bound = 2 * max(ceil_log2(k), ceil_log2(m))
        assert circ.two_qubit_depth() <= max(1, bound)


def test_rectangle_4x5_depth_exactly_6():
    circ = synth_rectangle(list(range(4)), list(range(4, 9)))
    assert circ.two_qubit_depth() == 6


def test_rectangle_finish_matches_asap_for_every_shape():
    """The per-shape finish times equal asap_finish, from zero, over the gates
    of a rectangle on random disjoint, relabelled qubit lists, position by
    position, for every shape up to 40 x 40: the times depend only on the
    shape, which is what caching them per shape rests on."""
    rng = np.random.default_rng(17)
    for k in range(1, 41):
        for m in range(1, 41):
            qubits = [int(q) for q in rng.permutation(k + m + 7)]
            a, b = qubits[:k], qubits[k:k + m]
            want = dict.fromkeys(a + b, 0)
            asap_finish(rectangle_gates([rectangle_pairs(a, b)]), want)
            assert rectangle_finish(k, m) == tuple(want[q] for q in a + b), (k, m)


def test_rectangle_overlap_rejected():
    with pytest.raises(ValueError):
        rectangle_parts([0, 1], [1, 2])


def test_rectangle_trees_are_pure_cnot_and_uncomputed():
    a, b = list(range(5)), list(range(5, 12))
    trees, middle = rectangle_pairs(a, b)
    gates = gate_list(rectangle_parts(a, b))
    t = len(trees)
    assert len(gates) == 2 * t + len(middle)
    tree_gates, uncompute = gates[:t], gates[len(gates) - t:]
    assert all(g.kind == "CNOT" for g in tree_gates + uncompute)
    assert all(g.kind == "CZ" for g in gates[t:len(gates) - t])
    assert uncompute == tree_gates[::-1]
    n = 12
    tree_circ = Circuit(n, tree_gates + uncompute)
    from cliffdepth.gf2 import BitMatrix

    assert linear_action(tree_circ) == BitMatrix.identity(n)
