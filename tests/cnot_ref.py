"""Reference CNOT synthesis for the CNOT tests (test helper).

``reference_block_add_gates`` is ``cnot._block_add_gates`` as it was
while a block's CZ form was returned literally, Hadamards on A around the
rectangles and colored CZ layers, kept unchanged.
``reference_tri_gates`` is ``cnot._tri_gates`` as it was before the
recursion took k = 4 as a base case: a 4-qubit triangle is halved into a
2x2 block and two k = 2 triangles.  ``reference_linear`` is
``synth_linear`` built from these two, with the lower factor's
Hadamards stripped before it is transposed, as it was then.

``cnot._tri_gates`` must give the same gates as ``reference_tri_gates``
wherever no block takes the CZ form, and ``synth_linear`` the gates of
``remove_hadamards(reference_linear(...))``, in the same order.
"""

from operator import add

import numpy as np

from cliffdepth.circuit import CNOT, EMPTY, H, Circuit, asap_finish, gate_block, join
from cliffdepth.cnot import _BASE3, REORDER, _direct_gates, _transpose_trick, remove_hadamards
from cliffdepth.gf2 import BitMatrix, back_substitute, lu_decompose, perm_to_transposition_layers
from cliffdepth.patterns import _halving_sides, cz_layers, halve_weights, halving_finish
from cliffdepth.patterns import max_col_degree
from cliffdepth.rectangles import rectangle_gates, rectangle_pairs


def reference_block_add_gates(a: list[int], b: list[int], p: BitMatrix) -> np.ndarray:
    """x_A += C x_B for the block C = p: the direct CNOTs, or the CZ form
    conjugated by literal H gates on A, chosen as ``cnot._block_add_gates``
    chooses."""
    if not any(p.ints):
        return EMPTY
    d_direct = max(*(v.bit_count() for v in p.ints), max_col_degree(p))
    if d_direct <= 2 or (p.rows <= 4 and p.cols <= 4):
        return _direct_gates(a, b, p)
    hr = halve_weights(p)
    t = halving_finish(hr)
    deg = [v.bit_count() for v in hr.reduced.ints + hr.cols]
    top = max(t)
    layers = None
    if d_direct > max(top, *map(add, t, deg)):
        layers = cz_layers(a, b, hr.reduced)
        if d_direct <= top + max(deg):  # between the bounds: measure
            finish = dict(zip(a + b, t))
            asap_finish(layers, finish)
            if d_direct <= max(finish.values()):
                layers = None
    if layers is None:
        return _direct_gates(a, b, p)
    hs = gate_block(H, a)
    rects = [rectangle_pairs([a[i] for i in s], [b[j] for j in u]) for s, u in _halving_sides(hr)]
    return np.concatenate([hs, rectangle_gates(rects), layers, hs])


def reference_tri_gates(qubits: list[int], r: list[int], out: list) -> None:
    k = len(qubits)
    if k <= 1:
        return
    if k == 2:
        if r[0] >> 1 & 1:
            out.append([(CNOT, qubits[1], qubits[0])])
        return
    if k == 3:
        key = (r[0] >> 1 & 1, r[0] >> 2 & 1, r[1] >> 2 & 1)
        if key != (0, 0, 0):
            out.append([(CNOT, qubits[c], qubits[t]) for (c, t) in _BASE3[key]])
        return
    h_ = (k + 1) // 2
    a, b = qubits[:h_], qubits[h_:]
    top = [v & ((1 << h_) - 1) for v in r[:h_]]
    c = back_substitute(top, [v >> h_ for v in r[:h_]])
    out.append(reference_block_add_gates(a, b, BitMatrix(h_, k - h_, c)))
    reference_tri_gates(a, top, out)
    reference_tri_gates(b, [v >> h_ for v in r[h_:]], out)


def reference_linear(r: BitMatrix, mode: str) -> Circuit:
    """synth_linear(r, mode) with H-literal blocks in the upper factor; the lower
    factor's transpose is stripped of them, then reversed with ends swapped."""
    n = r.rows
    perm, low, up = lu_decompose(r)
    out: list = []
    reference_tri_gates(list(range(n)), up.ints, out)
    lower: list = []
    reference_tri_gates(list(range(n)), low.transpose().ints, lower)
    out.append(_transpose_trick(remove_hadamards(Circuit(n, join(lower))).array))
    if mode == REORDER:
        return Circuit(n, join(out), perm=perm)
    swaps = [pair for layer in perm_to_transposition_layers(perm) for pair in layer]
    if swaps:  # each swap (i, j) is CNOT(i, j), CNOT(j, i), CNOT(i, j)
        out.append([(CNOT, c, t) for i, j in swaps for c, t in ((i, j), (j, i), (i, j))])
    return Circuit(n, join(out))
