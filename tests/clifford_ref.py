"""Reference code for the Clifford tests: a literal recomposition of the
layers and a row-wise tableau product (test helper).

Both build their result gate by gate or Pauli by Pauli, so they share no
code with the signed peel in ``cliffdepth.clifford.decompose_tableau``.
"""

import numpy as np

from cliffdepth.circuit import Circuit, Gate, cnot, cz as cz_gate, h, p, x as x_gate, z as z_gate
from cliffdepth.clifford import CliffordLayers, CliffordTableau


# i-exponent of the single-qubit product P1 * P2, encoding I=(0,0), X=(1,0),
# Z=(0,1), Y=(1,1)
_PHASE = {
    ((1, 0), (0, 1)): 3, ((0, 1), (1, 0)): 1,
    ((1, 0), (1, 1)): 1, ((1, 1), (1, 0)): 3,
    ((0, 1), (1, 1)): 3, ((1, 1), (0, 1)): 1,
}


def _pauli_mul(p1, p2):
    x1, z1, e1 = p1
    x2, z2, e2 = p2
    e = e1 + e2
    for q in range(len(x1)):
        e += _PHASE.get(((int(x1[q]), int(z1[q])), (int(x2[q]), int(z2[q]))), 0)
    return x1 ^ x2, z1 ^ z2, e % 4


def tableau_product(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of (circuit of a, then circuit of b), computed row-wise.

    Each row of a is a Pauli; its image under b is the phase-tracked
    product of b's generator images selected by the row's bits.
    """
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    n = a.n
    sa, pa = a.to_dense()
    sb, pb = b.to_dense()
    out = np.empty_like(sa)
    out_ph = np.empty(2 * n, dtype=np.uint8)
    rows = [(sb[r, :n], sb[r, n:], 2 * int(pb[r])) for r in range(2 * n)]
    zero = np.zeros(n, dtype=np.uint8)
    for r in range(2 * n):
        acc = (zero, zero, 0)
        for q in range(n):
            xq, zq = int(sa[r, q]), int(sa[r, n + q])
            if xq and zq:
                tmp = _pauli_mul(rows[q], rows[n + q])
                tmp = (tmp[0], tmp[1], (tmp[2] + 1) % 4)  # Y = i X Z
                acc = _pauli_mul(acc, tmp)
            elif xq:
                acc = _pauli_mul(acc, rows[q])
            elif zq:
                acc = _pauli_mul(acc, rows[n + q])
        e = (acc[2] + 2 * int(pa[r])) % 4
        if e % 2:
            raise ValueError("non-Hermitian row product; invalid tableau")
        out[r, :n] = acc[0]
        out[r, n:] = acc[1]
        out_ph[r] = e // 2
    return CliffordTableau.from_dense(out, out_ph)


def _gauss_cnot_gates(r: np.ndarray) -> list[Gate]:
    """Unoptimized CNOT list for basis action x -> r x (reference only)."""
    m = r.copy()
    n = m.shape[0]
    ops: list[tuple[int, int]] = []
    for j in range(n):
        if not m[j, j]:
            piv = next(i for i in range(j + 1, n) if m[i, j])
            m[j] ^= m[piv]
            ops.append((piv, j))
        for i in range(n):
            if i != j and m[i, j]:
                m[i] ^= m[j]
                ops.append((j, i))
    return [cnot(cc, tt) for (cc, tt) in reversed(ops)]


def recompose_layers(layers: CliffordLayers) -> Circuit:
    """Literal (depth-unoptimized) circuit for the layer sequence."""
    n = layers.cx.rows
    gates: list[Gate] = []
    gates += [x_gate(q) for q in np.nonzero(layers.x_mask)[0]]
    gates += [z_gate(q) for q in np.nonzero(layers.z_mask)[0]]
    gates += [p(q) for q in np.nonzero(layers.p1_mask)[0]]
    gates += _gauss_cnot_gates(layers.cx.to_dense())
    gates += [cz_gate(i, j) for (i, j) in layers.cz1.pairs()]
    gates += [h(q) for q in np.nonzero(layers.h_mask1)[0]]
    gates += [cz_gate(i, j) for (i, j) in layers.cz2.pairs()]
    gates += [h(q) for q in np.nonzero(layers.h_mask2)[0]]
    gates += [p(q) for q in np.nonzero(layers.p2_mask)[0]]
    return Circuit(n, gates)
