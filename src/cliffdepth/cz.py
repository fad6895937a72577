"""Depth-optimized synthesis of CZ-only circuits.

A CZ pattern is a symmetric zero-diagonal 0/1 matrix; the synthesized
circuit applies CZ on exactly the marked pairs.  Synthesis picks, per
instance size, the cheapest of three constructions:

* ``coloring``  - schedule the pairs directly via round-robin matchings,
  depth at most n-1 (n even) or n (n odd);
* ``onestep``   - halve the register, clear the cross block with weight
  halving + rectangles + colored layers, recurse on both halves in
  parallel;
* ``twostep``   - two nested halvings whose correction rectangles share
  one pool of parity trees, then recurse on the four quarters.

Each schedule is built in the form it is emitted: the round-robin as two
read-only index arrays per size, class after class, and the two-step's
correction stage as one ``rectangle_gates`` schedule (one parity tree per
atom, a class of positions that every halving treats alike, then the CZs
between the atoms' representatives, then the trees reversed).

The cheapest is coloring for n <= 38 and two-step for every larger n, so
one-step runs only when forced; it is the construction behind the
cz-basic bound.  The realized two-qubit depth never exceeds the
recursion table value for the register size.

A ``CzSpec`` holds its pattern as a ``gf2.BitMatrix``, and the recursion
runs on those int rows: every node cuts its blocks out of its rows with
shifts and masks, and only a coloring node densifies its block, to read
the round-robin pairs it marks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise

import numpy as np

from . import bounds
from .circuit import Circuit, cz_block, join
from .gf2 import BitMatrix, set_bits
from .patterns import _halving_sides, cz_layers, halve_weights, m01_gates
from .rectangles import rectangle_gates, tree_layers


class CzSpec:
    """Symmetric zero-diagonal 0/1 pattern of CZ pairs on n qubits.

    ``mat`` holds the pattern as int rows: bit j of ``mat.ints[i]`` pairs
    qubits i and j.  ``CzSpec(n, bits)`` takes a dense (n, n) 0/1 array;
    it and ``from_bitmatrix`` check the pattern on its rows.
    """

    __slots__ = ("mat",)

    def __init__(self, n: int, bits) -> None:
        self.mat = _checked(n, BitMatrix.from_dense(bits))

    @classmethod
    def from_bitmatrix(cls, mat: BitMatrix) -> "CzSpec":
        """The pattern with mat's rows, which it keeps without copying."""
        spec = cls.__new__(cls)
        spec.mat = _checked(mat.rows, mat)
        return spec

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "CzSpec":
        bits = np.zeros((n, n), dtype=np.uint8)
        for (i, j) in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) has a qubit outside 0..{n - 1}")
            if i == j:
                raise ValueError("diagonal pair")
            bits[i, j] = bits[j, i] = 1
        return cls(n, bits)

    @classmethod
    def all_ones(cls, n: int) -> "CzSpec":
        return cls.from_bitmatrix(BitMatrix(n, n, [((1 << n) - 1) ^ 1 << i for i in range(n)]))

    @classmethod
    def random(cls, rng: np.random.Generator, n: int) -> "CzSpec":
        u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        return cls(n, u | u.T)

    @property
    def n(self) -> int:
        return self.mat.rows

    @property
    def bits(self) -> np.ndarray:
        """The pattern as a read-only (n, n) uint8 array, derived from the rows."""
        out = self.mat.to_dense()
        out.flags.writeable = False
        return out

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, v in enumerate(self.mat.ints) for j in set_bits(v >> i << i)]


def _checked(n: int, mat: BitMatrix) -> BitMatrix:
    """mat, once found n x n, symmetric and zero on the diagonal."""
    if (mat.rows, mat.cols) != (n, n):
        raise ValueError(f"pattern shape {(mat.rows, mat.cols)} does not match qubit count {n}")
    if mat.transpose() != mat:
        raise ValueError("pattern must be symmetric")
    if any(v >> i & 1 for i, v in enumerate(mat.ints)):
        raise ValueError("pattern diagonal must be zero")
    return mat


@lru_cache(maxsize=16)
def _coloring_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin partition of all pairs on n points into matchings, as the
    pairs' two read-only int arrays (i, j), i < j, class after class.

    Odd n: class r holds the pairs with i + j = r (mod n), giving n classes.
    Even n: point n-1 is a hub paired with r first in class r; the other
    pairs have i + j = 2r (mod n-1), giving n-1 classes.
    """
    m = n - 1 + n % 2  # the class count and the modulus
    r = np.arange(m)[:, None]
    i = np.broadcast_to(np.arange(m), (m, m))
    j = ((2 - n % 2) * r - i) % m
    if n % 2 == 0:
        i, j = np.hstack([r, i]), np.hstack([np.full_like(r, n - 1), j])
    keep = i < j
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


def synth_cz_coloring(spec: CzSpec) -> Circuit:
    """Direct scheduling of the pattern pairs into matching layers."""
    return synth_cz(spec, bounds.COLORING)


def _block(rows: list[int], r0: int, r1: int, c0: int, c1: int) -> list[int]:
    """Rows r0..r1-1 of a pattern cut to columns c0..c1-1, as int rows from bit 0."""
    mask = (1 << (c1 - c0)) - 1
    return [v >> c0 & mask for v in rows[r0:r1]]


def _coloring_gates(qubits: list[int], rows: list[int]) -> np.ndarray:
    i, j = _coloring_columns(len(qubits))
    keep = BitMatrix(len(qubits), len(qubits), rows).to_dense()[i, j].astype(bool)
    q = np.asarray(qubits)
    return cz_block(q[i[keep]], q[j[keep]])


def _bipartite_cz(left: list[int], right: list[int]) -> list[tuple[int, int]]:
    """All-pairs CZ between two representative sets, in matching rounds, as
    (left, right) qubit pairs.

    Round r pairs end i of the smaller side with end (i + r) mod t of the
    larger side, of size t (left is the smaller on a tie).  Emitting round
    by round keeps the ASAP depth at max(|left|, |right|) instead of
    |left| + |right| - 1.
    """
    if len(left) > len(right):
        t = len(left)
        return [(left[(i + r) % t], q) for r in range(t) for i, q in enumerate(right)]
    t = len(right)
    return [(q, right[(i + r) % t]) for r in range(t) for i, q in enumerate(left)]


def _twostep_stage(qubits: list[int], rows: list[int], cuts: tuple[int, ...]) -> list[np.ndarray]:
    """The gate blocks of a two-step node's halving stage, for the cuts (0, qa, h, qb, k).

    It halves the halves' cross block, then each half's.  Their six
    rectangles share one pool of parity trees, one per atom in key order: an
    atom is the positions that share one key, whose bits are (second half,
    kept by level 1, second quarter of its half, kept by level 2).  A
    rectangle's middle is the complete bipartite CZ between the
    representatives of the atoms on its two sides.  The reduced blocks'
    colored layers follow.
    """
    _, qa, h, qb, k = cuts
    # each block is rows r0..c0-1 x columns c0..c1-1, halved
    blocks = [(r0, c0, c1, halve_weights(BitMatrix(c0 - r0, c1 - c0, _block(rows, r0, c0, c0, c1))))
              for r0, c0, c1 in ((0, h, k), (0, qa, h), (h, qb, k))]
    flips = [{r0 + i for i in hr.row_flips} | {c0 + j for j in hr.col_flips} for r0, c0, _, hr in blocks]
    flip1, flip2 = flips[0], flips[1] | flips[2]
    key = [8 * (pos >= h) + 4 * (pos not in flip1) + 2 * (qa <= pos < h or qb <= pos)
           + (pos not in flip2) for pos in range(k)]
    atoms: dict[int, list[int]] = {}
    for a, q in zip(key, qubits):
        atoms.setdefault(a, []).append(q)

    def reps(offset: int, side: list[int]) -> list[int]:
        return [atoms[a][-1] for a in sorted({key[offset + i] for i in side})]

    trees = [pair for a in sorted(atoms) for layer in tree_layers(atoms[a]) for pair in layer]
    pairs = [pair for r0, c0, _, hr in blocks for s, u in _halving_sides(hr)
             for pair in _bipartite_cz(reps(r0, s), reps(c0, u))]
    return [rectangle_gates([(trees, pairs)])] + [
        cz_layers(qubits[r0:c0], qubits[c0:c1], hr.reduced) for r0, c0, c1, hr in blocks]


def _synth_gates(qubits: list[int], rows: list[int], out: list, strategy: str | None = None) -> None:
    """Append the gate blocks for the pattern with these int rows (bit j of
    rows[i] pairs qubits[i] with qubits[j]) to out.

    A node is a coloring leaf, or one halving stage clearing the blocks off
    the diagonal between its cut points, followed by each diagonal block's
    own node: one-step cuts at (0, h, k), two-step at (0, qa, h, qb, k).
    """
    k = len(qubits)
    if k <= 1 or not any(rows):
        return
    choice = strategy or bounds.cz_choice(k)
    if choice == bounds.COLORING:
        out.append(_coloring_gates(qubits, rows))
        return
    h = (k + 1) // 2
    if choice == bounds.ONESTEP:
        cuts = (0, h, k)
        hr = halve_weights(BitMatrix(h, k - h, _block(rows, 0, h, h, k)))
        out.append(m01_gates(qubits[:h], qubits[h:], hr))
    else:
        cuts = (0, (h + 1) // 2, h, h + (k - h + 1) // 2, k)
        out += _twostep_stage(qubits, rows, cuts)
    for lo, hi in pairwise(cuts):
        _synth_gates(qubits[lo:hi], _block(rows, lo, hi, lo, hi), out)


def synth_cz(spec: CzSpec, strategy: str = "auto") -> Circuit:
    """CZ circuit for the pattern, depth at most the recursion table value.

    The strategy argument forces the top-level construction only; inner
    recursions always pick the per-size argmin.
    """
    if strategy not in ("auto", *bounds.BRANCHES):
        raise ValueError(f"unknown strategy {strategy!r}")
    forced = None if strategy == "auto" else strategy
    if forced in (bounds.ONESTEP, bounds.TWOSTEP) and spec.n < 4:
        forced = bounds.COLORING
    out: list = []
    _synth_gates(list(range(spec.n)), spec.mat.ints, out, strategy=forced)
    return Circuit(spec.n, join(out))
