"""Reference code for the Clifford tests: a literal recomposition of the
layers, a row-wise tableau product, the two-elimination decomposition and
the sign-bit tableau simulator (test helper).

The first two build their result gate by gate or Pauli by Pauli, so they
share no code with the signed peel in ``cliffdepth.clifford.decompose_tableau``.
The third is the decomposition as it stood before one elimination replaced
its rank search, inverse and Theta product, kept as a pin on the layers.
The fourth is ``CliffordTableau.apply`` as it stood before it carried signs
in the i^e X^x Z^z form: it updates the sign bit on every gate.
"""

import dataclasses
from functools import reduce

import numpy as np

from cliffdepth.circuit import (CNOT, CZ, H, P, X, Z, Circuit, Gate, cnot, cz as cz_gate, h, p,
                               x as x_gate, z as z_gate)
from cliffdepth.clifford import CliffordLayers, CliffordTableau, _peel_cz, _peel_h, _peel_p
from cliffdepth.cz import CzSpec
from cliffdepth.gf2 import BitMatrix, SingularMatrixError, mat_inverse, mat_mul, rank_and_pivots


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


def apply_aaronson_gottesman(self: CliffordTableau, c: Circuit) -> None:
    """Append the circuit's gates to the tableau, in place, updating the sign
    bit on every gate (the rules of Aaronson and Gottesman,
    arXiv:quant-ph/0406196)."""
    if c.n != self.n:
        raise ValueError("qubit counts differ")
    xs, zs, ph = self.X, self.Z, self.ph
    for kind, a, b in zip(*c.array.T.tolist()):
        if kind == CNOT:
            ph ^= xs[a] & zs[b] & ~(xs[b] ^ zs[a])
            xs[b] ^= xs[a]
            zs[a] ^= zs[b]
        elif kind == CZ:
            ph ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
            zs[a] ^= xs[b]
            zs[b] ^= xs[a]
        elif kind == H:
            ph ^= xs[a] & zs[a]
            xs[a], zs[a] = zs[a], xs[a]
        elif kind == P:
            ph ^= xs[a] & zs[a]
            zs[a] ^= xs[a]
        elif kind == X:
            ph ^= zs[a]
        else:  # Z
            ph ^= xs[a]
    self.ph = ph


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


def decompose_tableau_two_pass(t: CliffordTableau) -> CliffordLayers:
    """The layers by rank_and_pivots for E2, then mat_inverse for X2^{-1},
    then Theta = X2^{-1} Z2 as one more product, peeling all 2n rows."""
    rows = t.rows()
    n = t.n
    full = (1 << n) - 1
    x = [v & full for v in rows]
    z = [v >> n for v in rows]
    e = [2 * (t.ph >> r & 1) + (a & b).bit_count() for r, (a, b) in enumerate(zip(x, z))]

    c, d = x[n:], z[n:]
    _, pivots = rank_and_pivots(BitMatrix(n, n, c))
    e2 = full ^ sum(1 << q for q in pivots)
    x2 = [u & ~e2 | v & e2 for u, v in zip(c, d)]
    z2 = [v & ~e2 | u & e2 for u, v in zip(c, d)]
    try:
        r_cx = mat_inverse(BitMatrix(n, n, x2))
    except SingularMatrixError:
        raise ValueError("tableau is not symplectic") from None
    theta = mat_mul(r_cx, BitMatrix(n, n, z2)).ints
    d2 = sum(v & 1 << q for q, v in enumerate(theta))
    gamma2 = [v & ~(1 << q) for q, v in enumerate(theta)]
    cancel = sum(1 << q for q in range(n) if e2 >> q & 1 and not theta[q])
    e1, e2 = full ^ cancel, e2 ^ cancel

    _peel_p(x, z, e, d2)
    _peel_h(x, z, e, e2)
    _peel_cz(x, z, e, gamma2)
    _peel_h(x, z, e, e1)
    if any(x[n:]) or z[n:] != x2:
        raise ValueError("tableau is not symplectic")
    k = BitMatrix(n, n, x2)
    k_t = k.transpose()
    q1 = mat_mul(k_t, BitMatrix(n, n, z[:n])).ints
    d1 = reduce(int.__xor__, (v for j, v in enumerate(r_cx.ints) if q1[j] >> j & 1), 0)
    kdk = mat_mul(BitMatrix(n, n, [v & d1 for v in k_t.ints]), k)
    gamma1 = [u ^ v for u, v in zip(q1, kdk.ints)]

    _peel_cz(x, z, e, gamma1)
    x = mat_mul(BitMatrix(2 * n, n, x), k_t).ints
    z = mat_mul(BitMatrix(2 * n, n, z), r_cx).ints
    _peel_p(x, z, e, d1)
    if any(u | v << n != 1 << r for r, (u, v) in enumerate(zip(x, z))):
        raise ValueError("tableau is not symplectic")
    try:
        cz1, cz2 = (CzSpec.from_bitmatrix(BitMatrix(n, n, g)) for g in (gamma1, gamma2))
    except ValueError:
        raise ValueError("tableau is not symplectic") from None
    masks = BitMatrix(4, n, [d1, e1, e2, d2]).to_dense()
    signs = np.array([v >> 1 & 1 for v in e], dtype=np.uint8)
    return CliffordLayers(x_mask=signs[n:], z_mask=signs[:n], p1_mask=masks[0], cx=r_cx,
                          cz1=cz1, cz2=cz2, h_mask1=masks[1], h_mask2=masks[2],
                          p2_mask=masks[3])


def layers_key(layers: CliffordLayers) -> tuple:
    """Every field of the layers as comparable data: int rows, or dtype, shape and bytes."""
    out = []
    for f in dataclasses.fields(layers):
        v = getattr(layers, f.name)
        if isinstance(v, CzSpec):
            v = v.mat
        if isinstance(v, BitMatrix):
            out.append((f.name, v.rows, v.cols, tuple(v.ints)))
        else:
            out.append((f.name, v.dtype.str, v.shape, v.tobytes()))
    return tuple(out)
