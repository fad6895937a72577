"""Depth-optimized synthesis of CNOT (linear reversible) circuits.

Convention: ``CNOT c t`` maps x_t ^= x_c, so a CNOT circuit acts on the
state labels as x -> R x for an invertible 0/1 matrix R.  Triangular
matrices are synthesized by a halving recursion; a general invertible
matrix is split as permutation * lower * upper via LU decomposition.
"""

from __future__ import annotations

from .circuit import Circuit, Gate, _gate, asap_finish, cnot, h
from .gf2 import BitMatrix, Permutation, back_substitute, lu_decompose, perm_to_transposition_layers
from .patterns import M01Pattern, bipartite_edge_color, cz_layers, halve_weights
from .patterns import halving_rectangles
from .rectangles import rectangle_finish, rectangle_gates


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


def _block_add_gates(a: list[int], b: list[int], p: M01Pattern) -> list[Gate]:
    """Gates realizing x_A += C x_B, for the block C = p, in the shallower of two stagings.

    Either schedule the commuting CNOTs (control in B, target in A)
    directly via edge coloring, or conjugate a CZ-pattern circuit for C by
    Hadamards on A and strip them again.  The second is asymptotically
    shallower but loses on small or sparse blocks; ties go to the direct
    form.  The direct form is one matching per color class, so its depth
    is d, the max degree of C.  The CZ form is the halving rectangles,
    finishing qubit q at t[q] (T = max t), then the reduced pattern's
    color classes, so its depth D satisfies
    LB = max(T, max_q t[q] + deg(q)) <= D <= T + Delta = UB, with deg and
    Delta taken in the reduced pattern (class c is a matching, so it ends
    by T + c + 1).  If d <= LB the direct form is returned and the reduced
    pattern is never colored; if d > UB the CZ form is, and C is never
    colored.  Only in between is D measured, by continuing the rectangles'
    schedule over the colored layers.  C is halved once: t[q] and a
    returned CZ form's rectangle gates come from the same rectangle pairs,
    and the gates are built only for a returned CZ form.
    """
    if not any(p.rows):
        return []
    d_direct = max(*(v.bit_count() for v in p.rows), *p.col_degrees())
    hr = halve_weights(p)
    rects = halving_rectangles(a, b, hr)
    t = [0] * (max(max(a), max(b)) + 1)
    rectangle_finish(rects, t)
    reduced = hr.reduced
    deg = [v.bit_count() for v in reduced.rows + hr.cols]
    top = max(t)
    layers = None
    if d_direct > max(top, *(t[q] + d for q, d in zip(a + b, deg))):
        layers = cz_layers(a, b, reduced)
        if d_direct <= top + max(deg):  # between the bounds: measure
            asap_finish(layers, t)
            if d_direct <= max(t):
                layers = None
    if layers is None:
        # a and b are disjoint, so cnot's distinct-qubit check cannot fire
        return [_gate(("CNOT", b[j], a[i])) for cl in bipartite_edge_color(p) for i, j in cl]
    return [h(q) for q in a] + rectangle_gates(rects) + layers + [h(q) for q in a]


def _tri_gates(qubits: list[int], r: list[int]) -> list[Gate]:
    """Gates for the upper unitriangular matrix with int rows r on these qubits."""
    k = len(qubits)
    if k <= 1:
        return []
    if k == 2:
        return [cnot(qubits[1], qubits[0])] if r[0] >> 1 & 1 else []
    if k == 3:
        key = (r[0] >> 1 & 1, r[0] >> 2 & 1, r[1] >> 2 & 1)
        return [cnot(qubits[c], qubits[t]) for (c, t) in _BASE3[key]]
    h_ = (k + 1) // 2
    a, b = qubits[:h_], qubits[h_:]
    top = [v & ((1 << h_) - 1) for v in r[:h_]]
    # the top-left block is unitriangular, so the block C with top C = R[:h, h:] is unique
    c = back_substitute(top, [v >> h_ for v in r[:h_]])
    gates = _block_add_gates(a, b, M01Pattern(h_, k - h_, c))
    gates += _tri_gates(a, top)
    gates += _tri_gates(b, [v >> h_ for v in r[h_:]])
    return gates


def synth_triangular(r: BitMatrix) -> Circuit:
    """Circuit over {CNOT, CZ, H} for an upper-triangular invertible matrix.

    Block-add stages that route through a CZ pattern keep their literal
    Hadamard-conjugated form; run the result through remove_hadamards for
    a CNOT-only circuit of identical two-qubit count and depth.
    """
    if r.rows != r.cols:
        raise ValueError("matrix must be square")
    if any(v & ((2 << i) - 1) != 1 << i for i, v in enumerate(r.ints)):
        raise ValueError("matrix must be upper triangular with unit diagonal")
    return Circuit(r.rows, _tri_gates(list(range(r.rows)), r.ints))


def _strip_hadamards(gates: list[Gate], n: int) -> list[Gate]:
    """The gates of remove_hadamards, for a gate list on n qubits."""
    par = [0] * n
    out: list[Gate] = []
    for g in gates:
        kind, a, b = g
        if kind == "H":
            par[a] ^= 1
        elif kind == "CNOT":
            pa, pb = par[a], par[b]
            if pa and pb:
                out.append(cnot(b, a))
            elif not pa and not pb:
                out.append(g)
            else:
                raise ValueError("CNOT with one conjugated end has no rewrite")
        elif kind == "CZ":
            pa, pb = par[a], par[b]
            if pa ^ pb:
                out.append(cnot(b, a) if pa else cnot(a, b))
            else:
                raise ValueError("CZ needs exactly one conjugated end")
        else:
            raise ValueError(f"cannot remove H around {kind} gate")
    if any(par):
        raise ValueError("unmatched H gates remain")
    return out


def remove_hadamards(c: Circuit) -> Circuit:
    """Strip H gates by propagating them through CNOT/CZ.

    Tracks an H parity per qubit.  A CNOT with both ends conjugated flips
    control and target; a CZ with exactly one end conjugated becomes a
    CNOT controlled on the bare end.  Other combinations (and any other
    single-qubit gate) have no CNOT-only rewrite and raise ValueError.
    All H parities must cancel by the end of the circuit.  The output
    keeps the input's ``perm``.
    """
    return Circuit(c.n, _strip_hadamards(c.gates, c.n), perm=c.perm)


EXACT = "exact"
REORDER = "reorder"


def _transpose_trick(gates: list[Gate]) -> list[Gate]:
    """Reverse order and swap control/target: realizes the transpose."""
    return [_gate(("CNOT", b, a)) for _, a, b in reversed(gates)]


def _linear_gates(r: BitMatrix, mode: str) -> tuple[list[Gate], Permutation | None]:
    """The gates of synth_linear(r, mode), and the perm its circuit reports."""
    n = r.rows
    perm, low, up = lu_decompose(r)
    gates = _tri_gates(list(range(n)), up.ints)
    # lower factor: synthesize the transpose (upper triangular), strip its
    # H-conjugated stages, then reverse with controls and targets flipped
    l_gates = _strip_hadamards(_tri_gates(list(range(n)), low.transpose().ints), n)
    gates += _transpose_trick(l_gates)
    if mode == REORDER:
        return gates, perm
    for layer in perm_to_transposition_layers(perm):
        for (i, j) in layer:
            gates += [cnot(i, j), cnot(j, i), cnot(i, j)]
    return gates, None


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
    gates, perm = _linear_gates(r, mode)
    return Circuit(r.rows, gates, perm=perm)
