"""Stabilizer tableaux and layered synthesis of full Clifford operators.

A Clifford operator is represented by its conjugation tableau: row r < n
is the image of X_r, row n + r the image of Z_r, each a Pauli written as
2n bits (x-part, then z-part) plus a sign bit.  On the bit level a
circuit acts on row vectors (x|z) by right multiplication with a binary
symplectic matrix, which is what the decomposition below manipulates.
Simulating a circuit carries each row's sign as the exponent e of
i^e X^x Z^z (Y = iXZ) and converts it back to a sign bit at the end.

Every tableau factors as the layer sequence

    -X-Z-P-CX-CZ-H-CZ-H-P-

where the CX stage is a CNOT circuit, the CZ stages are pure CZ patterns
and the remaining stages are single-qubit masks.  The decomposition finds
the layers by peeling them off all 2n rows, signs included, so the signs
left at the end are the X/Z masks; it never simulates a circuit.
Synthesis plugs the depth-optimized CZ/CNOT synthesizers into these
layers and folds the leading parity trees of the first CZ stage into the
CX stage; it replays those CNOTs on int rows itself, so it shares no
code with the linear oracle in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuit import CNOT, CZ, H, P, X, Z, Circuit, gate_block, join
from .cnot import EXACT, _linear_gates
from .cz import CzSpec, _synth_gates
from .gf2 import (BitMatrix, gauss_jordan, int_fields, mat_mul, numbered_lines, parse_bit_rows,
                  set_bits)


class CliffordTableau:
    """Conjugation tableau stored as bit columns, one Python int per qubit.

    Bit r of ``X[q]`` (``Z[q]``) is the x (z) bit of qubit q in tableau
    row r, for the 2n rows; bit r of ``ph`` is the sign of row r.  A gate
    updates every row at once with a few int operations.  ``apply`` runs
    the gates on rows written i^e X^x Z^z (Dehaene and De Moor, PRA 68,
    042318, 2003), where CNOT changes no sign and CZ flips it with one
    AND; it converts to and from the stored sign bits once per call.
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
        """Append the circuit's gates to the tableau, in place.

        While the gates run, row r is carried as i^e X^x Z^z (Y = iXZ), its
        exponent e held as bit r of two ints e0, e1.  A stored sign bit s
        means e = 2s + |x & z| mod 4, converted once on entry and once on
        exit.  In this form CNOT changes no e and CZ, H, X and Z flip only
        e1; P adds the x bit to e.  Gates are dispatched per run of one
        kind.
        """
        if c.n != self.n:
            raise ValueError("qubit counts differ")
        xs, zs = self.X, self.Z
        e0, e1 = _y_count(xs, zs)
        e1 ^= self.ph
        kinds, qa, qb = c.array.T
        starts = np.flatnonzero(np.diff(kinds, prepend=-1))
        qa, qb = qa.tolist(), qb.tolist()
        for kind, lo, hi in zip(kinds[starts].tolist(), starts.tolist(),
                                [*starts[1:].tolist(), len(kinds)]):
            if kind == CNOT:  # X_a -> X_a X_b, Z_b -> Z_a Z_b
                for a, b in zip(qa[lo:hi], qb[lo:hi]):
                    xs[b] ^= xs[a]
                    zs[a] ^= zs[b]
            elif kind == CZ:  # X_a X_b -> X_a Z_b X_b Z_a = -X_a X_b Z_a Z_b
                for a, b in zip(qa[lo:hi], qb[lo:hi]):
                    xa, xb = xs[a], xs[b]
                    e1 ^= xa & xb
                    zs[a] ^= xb
                    zs[b] ^= xa
            elif kind == H:  # XZ -> ZX = -XZ
                for a in qa[lo:hi]:
                    xa, za = xs[a], zs[a]
                    e1 ^= xa & za
                    xs[a], zs[a] = za, xa
            elif kind == P:  # X -> iXZ
                for a in qa[lo:hi]:
                    xa = xs[a]
                    e1 ^= e0 & xa
                    e0 ^= xa
                    zs[a] ^= xa
            elif kind == X:  # Z -> -Z
                for a in qa[lo:hi]:
                    e1 ^= zs[a]
            else:  # Z: X -> -X
                for a in qa[lo:hi]:
                    e1 ^= xs[a]
        c0, c1 = _y_count(xs, zs)
        assert e0 == c0  # conjugation keeps every row Hermitian
        self.ph = e1 ^ c1

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
        cols = BitMatrix(2 * n + 1, 2 * n, self.X + self.Z + [self.ph]).to_dense()
        return np.ascontiguousarray(cols[:-1].T), cols[-1]

    @classmethod
    def from_dense(cls, s: np.ndarray, phases: np.ndarray) -> "CliffordTableau":
        """Inverse of ``to_dense``: a (2n, 2n) 0/1 matrix and 2n sign bits."""
        s, phases = np.asarray(s), np.asarray(phases)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or phases.shape != s.shape[:1]:
            raise ValueError(f"expected a (2n, 2n) matrix and 2n phases, got shapes "
                             f"{s.shape} and {phases.shape}")
        n = s.shape[0] // 2
        cols = BitMatrix.from_dense(np.vstack([s.T, phases])).ints
        return cls(n, cols[:n], cols[n: 2 * n], cols[2 * n])

    def rows(self) -> list[int]:
        """The 2n tableau rows as ints: bits 0..n-1 the x-part, n..2n-1 the z-part."""
        return BitMatrix(2 * self.n, 2 * self.n, self.X + self.Z).transpose().ints

    def is_symplectic(self) -> bool:
        # s Omega s^T must be Omega; s Omega is s with its x and z halves
        # swapped, and the columns X + Z are the rows of s^T
        n = self.n
        swapped = [v >> n | (v & (1 << n) - 1) << n for v in self.rows()]
        prod = mat_mul(BitMatrix(2 * n, 2 * n, swapped), BitMatrix(2 * n, 2 * n, self.X + self.Z))
        return prod.ints == [1 << (r + n) % (2 * n) for r in range(2 * n)]

    def to_text(self) -> str:
        w = 2 * self.n
        rows = self.rows() + [self.ph]
        return f"{self.n}\n" + "".join(format(v, f"0{w}b")[::-1] + "\n" for v in rows)

    @classmethod
    def from_text(cls, text: str) -> "CliffordTableau":
        """Parse n, 2n rows of 2n bits and a sign row; an error names its line."""
        lines = numbered_lines(text)
        if not lines:
            raise ValueError("empty tableau file")
        no, head = lines[0]
        (n,) = int_fields(no, head.split(), 1)
        if n < 1:
            raise ValueError(f"line {no}: qubit count must be positive")
        if len(lines) != 2 * n + 2:
            raise ValueError("tableau file must hold 2n bit rows plus a phase row")
        rows = parse_bit_rows(lines[1:], 2 * n)
        cols = BitMatrix(2 * n, 2 * n, rows[:-1]).transpose().ints
        return cls(n, cols[:n], cols[n:], rows[-1])


def _y_count(xs: list[int], zs: list[int]) -> tuple[int, int]:
    """Bit-planes (c0, c1) of |x & z| mod 4 per row: the number of Y factors."""
    c0 = c1 = 0
    for u, v in zip(xs, zs):
        y = u & v
        c1 ^= c0 & y
        c0 ^= y
    return c0, c1


def tableau_of_circuit(c: Circuit) -> CliffordTableau:
    """Tableau of the circuit's gates applied to the identity.

    The circuit's ``perm`` (the output qubit reordering that synthesis up
    to reordering reports) is not applied: this is the tableau of the gates
    only.
    """
    t = CliffordTableau.identity(c.n)
    t.apply(c)
    return t


_GATE_KINDS = (H, P, CNOT, CZ, X, Z)  # random_clifford_circuit's draw order


def random_tableau(rng: np.random.Generator, n: int) -> CliffordTableau:
    """Tableau of a random 10n-gate circuit (coverage, not uniformity)."""
    return tableau_of_circuit(random_clifford_circuit(rng, n))


def random_clifford_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """10n gates of uniformly drawn kinds on uniformly drawn qubits; a two-qubit
    kind on one qubit becomes an H."""
    rows = []
    for _ in range(10 * n):
        kind = _GATE_KINDS[rng.integers(0, len(_GATE_KINDS))]
        if kind in (CNOT, CZ) and n >= 2:
            rows.append((kind, *rng.choice(n, size=2, replace=False)))
        else:
            rows.append((H if kind in (CNOT, CZ) else kind, rng.integers(0, n), -1))
    return Circuit(n, np.array(rows, dtype=np.int64).reshape(-1, 3))


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


def decompose_tableau(t: CliffordTableau) -> CliffordLayers:
    """Factor a tableau into the nine layers.

    Working on the bottom rows (C|D) (images of the Z generators): pick
    the Hadamard set E2 so that mixing columns of C and D along E2 gives
    an invertible matrix X2; the quotient Theta = X2^{-1} Z2 is symmetric
    and supplies the second CZ pattern and final P mask.  One Gauss-Jordan
    elimination of the rows [C | D | I] finds all three: it pivots on C's
    columns, whose pivot set P is E2's complement, then on D's columns in
    E2.  Sorted by pivot column its rows are X2^{-1} in the I part, and
    Theta is each row's D bits on P plus its C bits on E2.  Peeling those
    layers and H1 off every row, each kept as i^e X^x Z^z, leaves (0|K) at
    the bottom, where K = X2 makes X2^{-1} the CX stage, and (K^{-T}|T) at
    the top, where K^T T fixes the first P mask and CZ pattern; K^T is read
    off the tableau's own columns.  The remaining peels map the bottom rows
    to (0|I) and leave their signs alone, so they run on the top rows only,
    which must come out as the identity bits; the signs left over are the
    leading Z mask (top rows) and X mask (bottom rows).

    The peels check that s is symplectic.  Each multiplies the rows on the
    right by a matrix M, symplectic for every P or H mask, for a CZ layer
    z -> z + x Gamma exactly when Gamma is symmetric (``CzSpec`` checks),
    and for the CX peel (x -> x K^T, z -> z X2^{-1}) exactly when K = X2.
    Past those checks the rows left are s M with M symplectic: the identity
    only if s = M^{-1} is symplectic, and a symplectic s passes every check.
    Any failure, a singular X2 included, raises ValueError("tableau is not
    symplectic").
    """
    rows = t.rows()
    n = t.n
    full = (1 << n) - 1
    x = [v & full for v in rows]
    z = [v >> n for v in rows]
    e = [2 * (t.ph >> r & 1) + (a & b).bit_count() for r, (a, b) in enumerate(zip(x, z))]

    # rows below C's rank are zero on C, so pivoting them on D's columns in
    # E2 leaves the first phase's echelon form on C in place
    ech, p_cols = gauss_jordan([v | 1 << (2 * n + i) for i, v in enumerate(rows[n:])], range(n))
    e2 = full ^ sum(1 << q for q in p_cols)
    ech, d_cols = gauss_jordan(ech, [n + q for q in set_bits(e2)], len(p_cols))
    if len(p_cols) + len(d_cols) < n:  # X2 is singular
        raise ValueError("tableau is not symplectic")
    by_col = [0] * n  # row q of R [C|D] has its one X2 bit in column q
    for v, q in zip(ech, p_cols + [j - n for j in d_cols]):
        by_col[q] = v
    r_cx = BitMatrix(n, n, [v >> 2 * n for v in by_col])  # X2^{-1}, the CX stage's basis matrix
    p_mask = full ^ e2
    theta = [v >> n & p_mask | v & e2 for v in by_col]
    x2 = [u & p_mask | v & e2 for u, v in zip(x[n:], z[n:])]
    # column q of X2 is the bottom half of the tableau's column q of X, or of Z on E2
    k_t = BitMatrix(n, n, [(zq if e2 >> q & 1 else xq) >> n
                           for q, (xq, zq) in enumerate(zip(t.X, t.Z))])
    # on E2 the columns of C are sums of pivot columns, which X2 keeps in
    # place, so theta vanishes on E2 x E2 and d2 lies outside E2
    d2 = sum(v & 1 << q for q, v in enumerate(theta))
    gamma2 = [v & ~(1 << q) for q, v in enumerate(theta)]

    # adjacent H pairs around a CZ stage that ignores the qubit cancel
    cancel = sum(1 << q for q in range(n) if e2 >> q & 1 and not theta[q])
    e1, e2 = full ^ cancel, e2 ^ cancel

    # peel P2, H2, CZ2, H1 off all rows, each row as i^e X^x Z^z (Y = iXZ);
    # the bottom rows must leave (0|K) with K = X2
    _peel_p(x, z, e, d2)
    _peel_h(x, z, e, e2)
    _peel_cz(x, z, e, gamma2)
    _peel_h(x, z, e, e1)
    if any(x[n:]) or z[n:] != x2:
        raise ValueError("tableau is not symplectic")

    # the top rows are (K^{-T} | T) with K^T T = K^T diag(d1) K + Gamma1;
    # d1 = R^T diag(q1), the xor of the rows of R that diag(q1) selects,
    # hits the diagonal and the first CZ pattern absorbs the remainder
    q1 = mat_mul(k_t, BitMatrix(n, n, z[:n])).ints
    d1 = reduce(int.__xor__, (v for j, v in enumerate(r_cx.ints) if q1[j] >> j & 1), 0)
    kdk = mat_mul(BitMatrix(n, n, [v & d1 for v in k_t.ints]), BitMatrix(n, n, x2))
    gamma1 = [u ^ v for u, v in zip(q1, kdk.ints)]

    # peel CZ1, the CX stage (no phase) and P1 off the top rows (the peels
    # update e[r] for row r only); what remains is the leading X/Z masks,
    # identity bits whose signs are the masks
    x, z = x[:n], z[:n]
    _peel_cz(x, z, e, gamma1)
    x = mat_mul(BitMatrix(n, n, x), k_t).ints
    z = mat_mul(BitMatrix(n, n, z), r_cx).ints
    _peel_p(x, z, e, d1)
    if any(u != 1 << r or v for r, (u, v) in enumerate(zip(x, z))):
        raise ValueError("tableau is not symplectic")
    try:  # CzSpec refuses an asymmetric Theta or Gamma1: a CZ peel that was not symplectic
        cz1, cz2 = (CzSpec.from_bitmatrix(BitMatrix(n, n, g)) for g in (gamma1, gamma2))
    except ValueError:
        raise ValueError("tableau is not symplectic") from None
    assert not any(v & 1 for v in e)
    masks = BitMatrix(4, n, [d1, e1, e2, d2]).to_dense()
    signs = np.array([v >> 1 & 1 for v in e], dtype=np.uint8)
    return CliffordLayers(x_mask=signs[n:], z_mask=signs[:n], p1_mask=masks[0], cx=r_cx,
                          cz1=cz1, cz2=cz2, h_mask1=masks[1], h_mask2=masks[2],
                          p2_mask=masks[3])


# Conjugating a row i^e X^x Z^z by the inverse of a layer, in place: the
# rules of Aaronson and Gottesman (arXiv:quant-ph/0406196) in the
# i^e X^x Z^z form of Dehaene and De Moor (PRA 68, 042318, 2003).  Rows are
# ints (bit q for qubit q), as are the masks.
def _peel_p(x: list[int], z: list[int], e: list[int], d: int) -> None:
    """P^-1 on mask d: S^dag X S = -iXZ."""
    for r, v in enumerate(x):
        xd = v & d
        e[r] -= xd.bit_count()
        z[r] ^= xd


def _peel_h(x: list[int], z: list[int], e: list[int], mask: int) -> None:
    """H on a mask: H XZ H = ZX = -XZ, then x and z swap."""
    for r, (u, v) in enumerate(zip(x, z)):
        e[r] += 2 * (u & v & mask).bit_count()
        swap = (u ^ v) & mask
        x[r] = u ^ swap
        z[r] = v ^ swap


def _peel_cz(x: list[int], z: list[int], e: list[int], gamma: list[int]) -> None:
    """CZ pattern gamma (its rows): X_a -> X_a Z^gamma_a; reordering to
    X^x Z^z costs (-1)^(x_a x_b) for every pair a < b of gamma."""
    n = len(gamma)
    # one product against [lower | gamma]: bits < n pair, bits >= n flip
    both = [v & ((1 << a) - 1) | v << n for a, v in enumerate(gamma)]
    prod = mat_mul(BitMatrix(len(x), n, x), BitMatrix(n, 2 * n, both)).ints
    for r, (u, v) in enumerate(zip(x, prod)):
        e[r] += 2 * ((u & v).bit_count() & 1)
        z[r] ^= v >> n


def synth_clifford(t: CliffordTableau) -> Circuit:
    """Depth-optimized circuit with exactly the given tableau.

    The first CZ stage opens with parity-tree CNOTs; those fold into the
    CX stage (CNOT circuits compose as linear maps), which is what the
    merge saving in the depth table accounts for.  Their linear action is
    replayed here on int rows, one row xor per CNOT.
    """
    layers = decompose_tableau(t)
    n = t.n
    blocks: list = []
    _synth_gates(list(range(n)), layers.cz1.mat.ints, blocks)
    cz1 = join(blocks)
    split = np.flatnonzero(cz1[:, 0] != CNOT)
    split = int(split[0]) if split.size else len(cz1)
    rows = [1 << q for q in range(n)]  # bit j of rows[i]: x_j feeds x_i
    for ctrl, tgt in cz1[:split, 1:].tolist():
        rows[tgt] ^= rows[ctrl]
    r_comb = mat_mul(BitMatrix(n, n, rows), layers.cx)

    out = [gate_block(X, np.flatnonzero(layers.x_mask)),
           gate_block(Z, np.flatnonzero(layers.z_mask)),
           gate_block(P, np.flatnonzero(layers.p1_mask))]
    _linear_gates(r_comb, EXACT, out)
    out += [cz1[split:], gate_block(H, np.flatnonzero(layers.h_mask1))]
    _synth_gates(list(range(n)), layers.cz2.mat.ints, out)
    out += [gate_block(H, np.flatnonzero(layers.h_mask2)),
            gate_block(P, np.flatnonzero(layers.p2_mask))]
    return Circuit(n, join(out))
