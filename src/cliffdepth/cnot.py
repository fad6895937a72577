"""Depth-optimized synthesis of CNOT (linear reversible) circuits.

Convention: ``CNOT c t`` maps x_t ^= x_c, so a CNOT circuit acts on the
state labels as x -> R x for an invertible 0/1 matrix R.  Triangular
matrices are synthesized by a halving recursion.  A triangle of at most
4 qubits takes gates cached per matrix: the 3 x 3 ones from a depth-2
table, the others from one run of the halving step.  A general
invertible matrix is split as permutation * lower * upper via LU
decomposition.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

import numpy as np

from .circuit import CNOT, EMPTY, H, KINDS, Circuit, asap_finish, gate_block, join
from .gf2 import BitMatrix, Permutation, back_substitute, lu_decompose, perm_to_transposition_layers
from .patterns import bipartite_edge_color, halve_weights, halving_finish, m01_gates, max_col_degree


# depth-2 realizations of the 8 upper unitriangular 3x3 matrices, keyed by
# (R01, R02, R12); gate order is application order, product is last*...*first
_BASE3 = {
    (0, 0, 0): [],
    (1, 0, 0): [(1, 0)],
    (0, 1, 0): [(2, 0)],
    (0, 0, 1): [(2, 1)],
    (1, 1, 0): [(1, 0), (2, 0)],
    (1, 0, 1): [(1, 0), (2, 1)],
    (0, 1, 1): [(2, 0), (2, 1)],
    (1, 1, 1): [(2, 1), (1, 0)],
}


def _direct_gates(a: list[int], b: list[int], p: BitMatrix, delta: int | None = None) -> np.ndarray:
    """x_A += C x_B for the block C = p, one matching of CNOTs per color class of C
    (delta: C's max degree, when counted)."""
    i, j = bipartite_edge_color(p, _delta=delta)
    return gate_block(CNOT, np.asarray(b)[j], np.asarray(a)[i])


def _block_add_gates(a: list[int], b: list[int], p: BitMatrix) -> np.ndarray:
    """The CNOT gate array realizing x_A += C x_B, for the block C = p, in the
    shallower of two stagings.

    Either schedule the commuting CNOTs (control in B, target in A)
    directly via edge coloring, or take a CZ-pattern circuit for C
    conjugated by Hadamards on A, rewritten gate by gate as CNOTs.  The
    second is asymptotically shallower but loses on small or sparse
    blocks; ties go to the direct form.  The direct form is one matching
    per color class, so its depth is d, the max degree of C.  Some blocks
    take it without a halving: at d <= 2 no CZ form is shallower, since a
    depth-1 circuit pairs each qubit with at most one other, and on a
    block of at most 4 rows and 4 columns d <= LB below holds for every
    pattern.  Otherwise the CZ form is the halving rectangles, finishing
    position q at t[q] (T = max t), then the reduced pattern's color
    classes, so its depth D satisfies
    LB = max(T, max_q t[q] + deg(q)) <= D <= T + Delta = UB, with deg and
    Delta taken in the reduced pattern (class c is a matching, so it ends
    by T + c + 1).  If d <= LB the direct form is returned and the reduced
    pattern is never colored; if d > UB the CZ form is, and C is never
    colored.  Only in between is D measured, by asap_finish over the whole
    CZ form (ASAP is sequential, so it continues from t over the layers).
    t comes from the rectangles' shapes; their pairs are built, by
    m01_gates, only for a CZ form that is returned or measured.
    """
    if not any(p.ints):
        return EMPTY
    d_direct = max(*(v.bit_count() for v in p.ints), max_col_degree(p))
    if d_direct <= 2 or (p.rows <= 4 and p.cols <= 4):
        return _direct_gates(a, b, p, d_direct)
    hr = halve_weights(p)
    t = halving_finish(hr)
    deg = [v.bit_count() for v in hr.reduced.ints + hr.cols]
    top = max(t)
    if d_direct <= max(top, *map(add, t, deg)):
        return _direct_gates(a, b, p, d_direct)
    g = m01_gates(a, b, hr)
    if d_direct <= top + max(deg):  # between the bounds: measure
        finish = dict.fromkeys(a + b, 0)
        asap_finish(g, finish)
        if d_direct <= max(finish.values()):
            return _direct_gates(a, b, p, d_direct)
    # H on A around the CZ form, pushed through it: every gate becomes a CNOT,
    # with its ends swapped when its first end is in A (a tree CNOT inside A
    # flips, CZ(a, b) becomes CNOT(b, a), a CNOT inside B stays)
    flip = np.isin(g[:, 1], a)
    g[flip, 1:] = g[flip, :0:-1]
    g[:, 0] = CNOT
    return g


def _tri_gates(qubits: list[int], r: list[int], out: list) -> None:
    """Append the gate blocks for the upper unitriangular matrix with int rows r
    on these qubits to out; a triangle of at most 4 qubits appends one list of rows."""
    if len(qubits) > 4:
        _halving_step(qubits, r, out)
    elif pairs := _small_tri(tuple(r)):
        out.append([(CNOT, qubits[c], qubits[t]) for c, t in pairs])


def _halving_step(qubits: list[int], r: list[int], out: list) -> None:
    """Append x_A += C x_B, the block C that clears R's top-right block, then the halves."""
    k = len(qubits)
    h_ = (k + 1) // 2
    a, b = qubits[:h_], qubits[h_:]
    top = [v & ((1 << h_) - 1) for v in r[:h_]]
    # the top-left block is unitriangular, so the block C with top C = R[:h, h:] is unique
    c = back_substitute(top, [v >> h_ for v in r[:h_]])
    out.append(_block_add_gates(a, b, BitMatrix(h_, k - h_, c)))
    _tri_gates(a, top, out)
    _tri_gates(b, [v >> h_ for v in r[h_:]], out)


@lru_cache(maxsize=None)
def _small_tri(r: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(control, target) positions of the gates for the upper unitriangular matrix
    with int rows r of at most 4 qubits: _BASE3's at k = 3, shallower than the
    halving step, else the halving step's on qubits 0..k-1."""
    if len(r) == 3:
        return tuple(_BASE3[r[0] >> 1 & 1, r[0] >> 2 & 1, r[1] >> 2 & 1])
    out: list = []
    if len(r) > 1:
        _halving_step(list(range(len(r))), r, out)
    return tuple((c, t) for _, c, t in join(out).tolist())


def synth_triangular(r: BitMatrix) -> Circuit:
    """CNOT circuit for an upper-triangular invertible matrix."""
    if r.rows != r.cols:
        raise ValueError("matrix must be square")
    if any(v & ((2 << i) - 1) != 1 << i for i, v in enumerate(r.ints)):
        raise ValueError("matrix must be upper triangular with unit diagonal")
    out: list = []
    _tri_gates(list(range(r.rows)), r.ints, out)
    return Circuit(r.rows, join(out))


def remove_hadamards(c: Circuit) -> Circuit:
    """Strip H gates by propagating them through CNOT/CZ.

    Tracks an H parity per qubit.  A CNOT with both ends conjugated flips
    control and target; a CZ with exactly one end conjugated becomes a
    CNOT controlled on the bare end.  Other combinations (and any other
    single-qubit gate) have no CNOT-only rewrite and raise ValueError.
    All H parities must cancel by the end of the circuit.  The output
    keeps the input's ``perm``.
    """
    parity = [0] * c.n  # H gates so far on each qubit, mod 2
    gates = []
    for kind, a, b in c.array.tolist():
        if kind == H:
            parity[a] ^= 1
        elif kind >= 2:
            raise ValueError(f"cannot remove H around {KINDS[kind]} gate")
        # a CNOT needs both ends or neither conjugated, a CZ exactly one
        elif (parity[a] == parity[b]) != (kind == CNOT):
            raise ValueError("CNOT with one conjugated end has no rewrite" if kind == CNOT
                             else "CZ needs exactly one conjugated end")
        else:
            # a CNOT with both ends conjugated flips, and a CZ becomes a CNOT
            # controlled on its bare end: a gate flips exactly when a is conjugated
            gates.append((CNOT, b, a) if parity[a] else (CNOT, a, b))
    if any(parity):
        raise ValueError("unmatched H gates remain")
    return Circuit(c.n, np.array(gates, dtype=np.int64).reshape(-1, 3), perm=c.perm)


EXACT = "exact"
REORDER = "reorder"


def _transpose_trick(gates: np.ndarray) -> np.ndarray:
    """Reverse the order of CNOT gates and swap control/target: realizes the transpose."""
    return gates[::-1, [0, 2, 1]]


def _linear_gates(r: BitMatrix, mode: str, out: list) -> Permutation | None:
    """Append the gate blocks of synth_linear(r, mode) to out; return the perm its
    circuit reports."""
    n = r.rows
    perm, low, up = lu_decompose(r)
    _tri_gates(list(range(n)), up.ints, out)
    # lower factor: synthesize the transpose (upper triangular), then
    # reverse it with controls and targets swapped
    lower: list = []
    _tri_gates(list(range(n)), low.transpose().ints, lower)
    out.append(_transpose_trick(join(lower)))
    if mode == REORDER:
        return perm
    swaps = [pair for layer in perm_to_transposition_layers(perm) for pair in layer]
    if swaps:  # each swap (i, j) is CNOT(i, j), CNOT(j, i), CNOT(i, j)
        out.append([(CNOT, c, t) for i, j in swaps for c, t in ((i, j), (j, i), (i, j))])
    return None


def synth_linear(r: BitMatrix, mode: str = EXACT) -> Circuit:
    """CNOT circuit for an invertible matrix, exactly or up to reordering.

    In ``reorder`` mode the trailing qubit permutation is reported via the
    circuit's ``perm`` attribute instead of being synthesized: the circuit
    action r satisfies r[i, :] == M[perm[i], :].  Exact mode appends the
    permutation as at most two layers of disjoint swaps (depth <= 6).
    """
    if mode not in (EXACT, REORDER):
        raise ValueError(f"unknown mode {mode!r}")
    if r.rows != r.cols:
        raise ValueError("matrix must be square")
    out: list = []
    perm = _linear_gates(r, mode, out)
    return Circuit(r.rows, join(out), perm=perm)
