"""Stabilizer tableaux and layered synthesis of full Clifford operators.

A Clifford operator is represented by its conjugation tableau: row r < n
is the image of X_r, row n + r the image of Z_r, each a Pauli written as
2n bits (x-part, then z-part) plus a sign bit.  On the bit level a
circuit acts on row vectors (x|z) by right multiplication with a binary
symplectic matrix, which is what the decomposition below manipulates.

Every tableau factors as the layer sequence

    -X-Z-P-CX-CZ-H-CZ-H-P-

where the CX stage is a CNOT circuit, the CZ stages are pure CZ patterns
and the remaining stages are single-qubit masks.  Synthesis plugs the
depth-optimized CZ/CNOT synthesizers into these layers and folds the
leading parity trees of the first CZ stage into the CX stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, cnot, cz as cz_gate, h, p, x as x_gate, z as z_gate
from .cnot import EXACT, synth_linear
from .cz import CzSpec, synth_cz
from .gf2 import (
    BitMatrix, _ints_to_words, _pack, _unpack, _words_to_ints, mat_inverse, mat_mul,
    rank_and_pivots, solve_right,
)


class CliffordTableau:
    """Conjugation tableau stored as bit columns, one Python int per qubit.

    Bit r of ``X[q]`` (``Z[q]``) is the x (z) bit of qubit q in tableau
    row r, for the 2n rows; bit r of ``ph`` is the sign of row r.  A gate
    updates every row at once with a few int operations (the rules of
    Aaronson and Gottesman, arXiv:quant-ph/0406196).
    """

    __slots__ = ("n", "X", "Z", "ph")

    def __init__(self, n: int, X: list[int], Z: list[int], ph: int):
        self.n = n
        self.X = X
        self.Z = Z
        self.ph = ph

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(n, [1 << q for q in range(n)], [1 << (n + q) for q in range(n)], 0)

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(self.n, list(self.X), list(self.Z), self.ph)

    def apply(self, c: Circuit) -> None:
        """Append the circuit's gates to the tableau, in place."""
        if c.n != self.n:
            raise ValueError("qubit counts differ")
        X, Z, ph = self.X, self.Z, self.ph
        for kind, a, b in c.gates:
            if kind == "CNOT":
                ph ^= X[a] & Z[b] & ~(X[b] ^ Z[a])
                X[b] ^= X[a]
                Z[a] ^= Z[b]
            elif kind == "CZ":
                ph ^= X[a] & X[b] & (Z[a] ^ Z[b])
                Z[a] ^= X[b]
                Z[b] ^= X[a]
            elif kind == "H":
                ph ^= X[a] & Z[a]
                X[a], Z[a] = Z[a], X[a]
            elif kind == "P":
                ph ^= X[a] & Z[a]
                Z[a] ^= X[a]
            elif kind == "X":
                ph ^= Z[a]
            else:  # Z
                ph ^= X[a]
        self.ph = ph

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordTableau)
            and self.n == other.n
            and self.X == other.X
            and self.Z == other.Z
            and self.ph == other.ph
        )

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(2n, 2n) symplectic matrix (rows act as (x|z)) and sign bits."""
        n = self.n
        cols = _unpack(_ints_to_words(self.X + self.Z + [self.ph], 2 * n), 2 * n)
        return np.ascontiguousarray(cols[:-1].T), cols[-1]

    @classmethod
    def from_dense(cls, s: np.ndarray, phases: np.ndarray) -> "CliffordTableau":
        n = s.shape[0] // 2
        cols = _words_to_ints(_pack(np.vstack([s.T, np.asarray(phases, dtype=np.uint8)])))
        return cls(n, cols[:n], cols[n: 2 * n], cols[2 * n])

    def is_symplectic(self) -> bool:
        s, _ = self.to_dense()
        n = self.n
        omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        omega[:n, n:] = np.eye(n, dtype=np.uint8)
        omega[n:, :n] = np.eye(n, dtype=np.uint8)
        sm = BitMatrix.from_dense(s)
        prod = mat_mul(mat_mul(sm, BitMatrix.from_dense(omega)), sm.transpose())
        return np.array_equal(prod.to_dense(), omega)

    def to_text(self) -> str:
        s, phases = self.to_dense()
        lines = [str(self.n)]
        lines += ["".join(str(int(b)) for b in row) for row in s]
        lines.append("".join(str(int(b)) for b in phases))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CliffordTableau":
        """Parse n, 2n rows of 2n bits and a phase row of 2n bits.

        Blank lines are skipped; malformed input raises ValueError naming
        its line.
        """
        lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty tableau file")
        no, head = lines[0]
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"line {no}: expected the qubit count, got {head!r}") from None
        if n < 1:
            raise ValueError(f"line {no}: qubit count must be positive")
        if len(lines) != 2 * n + 2:
            raise ValueError("tableau file must hold 2n bit rows plus a phase row")
        for no, ln in lines[1:]:
            if len(ln) != 2 * n or set(ln) - {"0", "1"}:
                raise ValueError(f"line {no}: expected {2 * n} bits, got {ln!r}")
        s = np.array([[int(c) for c in ln] for _, ln in lines[1:-1]], dtype=np.uint8)
        phases = np.array([int(c) for c in lines[-1][1]], dtype=np.uint8)
        return cls.from_dense(s, phases)


def tableau_of_circuit(c: Circuit) -> CliffordTableau:
    t = CliffordTableau.identity(c.n)
    t.apply(c)
    return t


_GATE_KINDS = ("H", "P", "CNOT", "CZ", "X", "Z")


def random_tableau(rng: np.random.Generator, n: int) -> CliffordTableau:
    """Tableau of a random 10n-gate circuit (coverage, not uniformity)."""
    return tableau_of_circuit(random_clifford_circuit(rng, n))


def random_clifford_circuit(rng: np.random.Generator, n: int) -> Circuit:
    gates: list[Gate] = []
    for _ in range(10 * n):
        kind = _GATE_KINDS[rng.integers(0, len(_GATE_KINDS))]
        if kind in ("CNOT", "CZ") and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cnot(int(a), int(b)) if kind == "CNOT" else cz_gate(int(a), int(b)))
        else:
            gates.append(Gate(kind if kind not in ("CNOT", "CZ") else "H", int(rng.integers(0, n))))
    return Circuit(n, gates)


# ---------------------------------------------------------------------------
# Pauli row products (for the tableau homomorphism property)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# layered decomposition
# ---------------------------------------------------------------------------

@dataclass
class CliffordLayers:
    """Layer data for the fixed order -X-Z-P-CX-CZ-H-CZ-H-P-."""

    x_mask: np.ndarray
    z_mask: np.ndarray
    p1_mask: np.ndarray
    cx: BitMatrix          # basis action x -> cx @ x
    cz1: CzSpec
    cz2: CzSpec
    h_mask1: np.ndarray
    h_mask2: np.ndarray
    p2_mask: np.ndarray


def _dense_inv(m: np.ndarray) -> np.ndarray:
    return mat_inverse(BitMatrix.from_dense(m)).to_dense()


def _dense_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mat_mul(BitMatrix.from_dense(a), BitMatrix.from_dense(b)).to_dense()


def decompose_tableau(t: CliffordTableau) -> CliffordLayers:
    """Factor a tableau into the nine layers.

    Working on the bottom rows (C|D) (images of the Z generators): pick
    the Hadamard set E2 so that mixing columns of C and D along E2 gives
    an invertible matrix X2; the quotient Theta = X2^{-1} Z2 is symmetric
    and supplies the second CZ pattern and final P mask.  Peeling those
    layers off the right of the full symplectic matrix leaves a CNOT
    stage times an upper-unipotent factor, which the first CZ/P layers
    absorb.  Signs are matched last with leading X/Z masks.
    """
    if not t.is_symplectic():
        raise ValueError("tableau is not symplectic")
    n = t.n
    s, _ = t.to_dense()
    c = s[n:, :n]
    d = s[n:, n:]

    _, pivots = rank_and_pivots(BitMatrix.from_dense(c))
    e2 = np.ones(n, dtype=bool)
    e2[list(pivots)] = False

    x2 = c.copy()
    x2[:, e2] = d[:, e2]
    z2 = d.copy()
    z2[:, e2] = c[:, e2]
    theta = solve_right(BitMatrix.from_dense(x2), BitMatrix.from_dense(z2)).to_dense()

    # clear the diagonal on E2 by retracting those Hadamards; the rank-one
    # update keeps theta = X2^{-1} Z2 for the retracted column mix
    while True:
        bad = np.nonzero(e2 & (theta.diagonal() == 1))[0]
        if bad.size == 0:
            break
        q = int(bad[0])
        u = theta[:, q].copy()
        u[q] ^= 1
        theta ^= np.outer(u, u)
        e2[q] = False

    d2 = np.zeros(n, dtype=np.uint8)
    d2[~e2] = theta.diagonal()[~e2]
    gamma2 = theta.copy()
    np.fill_diagonal(gamma2, 0)
    assert np.array_equal(gamma2, gamma2.T)

    e1 = np.ones(n, dtype=bool)
    # adjacent H pairs around a CZ stage that ignores the qubit cancel
    cancel = e1 & e2 & (gamma2.sum(axis=0) == 0) & (gamma2.sum(axis=1) == 0) & (d2 == 0)
    e1[cancel] = False
    e2[cancel] = False

    # peel P2, H2, CZ2, H1 off the bottom rows; what remains must be (0|K)
    xb = c.copy()
    zb = (c * d2[None, :]) ^ d
    xb[:, e2], zb[:, e2] = zb[:, e2].copy(), xb[:, e2].copy()
    zb = _dense_mul(xb, gamma2) ^ zb
    xb[:, e1], zb[:, e1] = zb[:, e1].copy(), xb[:, e1].copy()
    if xb.any():
        raise ValueError("decomposition failed: residual x-part")
    k = zb
    r_cx = _dense_inv(k)          # basis matrix of the CX stage

    # residual upper-unipotent factor -> first CZ pattern and P mask
    m = r_cx.T                    # x-part row action of the CX stage
    v = _layer_matrix_h(e1, n)
    v = _dense_mul(v, _layer_matrix_t(gamma2))
    v = _dense_mul(v, _layer_matrix_h(e2, n))
    v = _dense_mul(v, _layer_matrix_t(np.diag(d2)))
    s_tilde = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    s_tilde[:n, :n] = m
    s_tilde[n:, n:] = k           # M^{-T}
    s_tilde = _dense_mul(s_tilde, v)
    delta = _dense_mul(s, _dense_inv(s_tilde))
    w = delta[:n, n:]
    if delta[n:, :n].any() or not (
        np.array_equal(delta[:n, :n], np.eye(n, dtype=np.uint8))
        and np.array_equal(delta[n:, n:], np.eye(n, dtype=np.uint8))
        and np.array_equal(w, w.T)
    ):
        raise ValueError("decomposition failed: residual is not upper unipotent")
    q1 = _dense_mul(_dense_mul(k.T, w), k)
    # a P mask d1 before the CX stage contributes K^T diag(d1) K to the
    # unipotent factor; pick d1 to hit q1's diagonal and let the first CZ
    # pattern absorb the off-diagonal remainder
    d1 = solve_right(
        BitMatrix.from_dense(k.T), BitMatrix.from_dense(q1.diagonal().reshape(n, 1))
    ).to_dense().reshape(n)
    gamma1 = q1 ^ _dense_mul(_dense_mul(k.T, np.diag(d1)), k)
    assert not gamma1.diagonal().any()
    assert np.array_equal(gamma1, gamma1.T)

    layers = CliffordLayers(
        x_mask=np.zeros(n, dtype=np.uint8),
        z_mask=np.zeros(n, dtype=np.uint8),
        p1_mask=d1.astype(np.uint8),
        cx=BitMatrix.from_dense(r_cx),
        cz1=CzSpec(n, gamma1),
        cz2=CzSpec(n, gamma2),
        h_mask1=e1.astype(np.uint8),
        h_mask2=e2.astype(np.uint8),
        p2_mask=d2,
    )
    # leading X/Z masks flip row signs linearly; match them against the
    # sign-free recomposition
    t0 = tableau_of_circuit(recompose_layers(layers))
    delta_ph = _unpack(_ints_to_words([t.ph ^ t0.ph], 2 * n), 2 * n)[0]
    layers.z_mask = delta_ph[:n].astype(np.uint8)
    layers.x_mask = delta_ph[n:].astype(np.uint8)
    return layers


def _layer_matrix_t(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    out = np.eye(2 * n, dtype=np.uint8)
    out[:n, n:] = q
    return out


def _layer_matrix_h(mask: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    keep = np.diag((~mask.astype(bool)).astype(np.uint8))
    swap = np.diag(mask.astype(np.uint8))
    out[:n, :n] = keep
    out[n:, n:] = keep
    out[:n, n:] = swap
    out[n:, :n] = swap
    return out


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


def synth_clifford(t: CliffordTableau) -> Circuit:
    """Depth-optimized circuit with exactly the given tableau.

    The first CZ stage opens with parity-tree CNOTs; those fold into the
    CX stage (CNOT circuits compose as linear maps), which is what the
    merge saving in the depth table accounts for.
    """
    layers = decompose_tableau(t)
    n = t.n
    cz1_circ = synth_cz(layers.cz1)
    split = 0
    while split < len(cz1_circ.gates) and cz1_circ.gates[split].kind == "CNOT":
        split += 1
    prefix, rest = cz1_circ.gates[:split], cz1_circ.gates[split:]
    from .verify import linear_action

    r_comb = mat_mul(linear_action(Circuit(n, prefix)), layers.cx)

    gates: list[Gate] = []
    gates += [x_gate(q) for q in np.nonzero(layers.x_mask)[0]]
    gates += [z_gate(q) for q in np.nonzero(layers.z_mask)[0]]
    gates += [p(q) for q in np.nonzero(layers.p1_mask)[0]]
    gates += synth_linear(r_comb, EXACT).gates
    gates += rest
    gates += [h(q) for q in np.nonzero(layers.h_mask1)[0]]
    gates += synth_cz(layers.cz2).gates
    gates += [h(q) for q in np.nonzero(layers.h_mask2)[0]]
    gates += [p(q) for q in np.nonzero(layers.p2_mask)[0]]
    return Circuit(n, gates)
