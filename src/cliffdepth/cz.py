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
correction stage as one ``rectangle_gates`` schedule (the 16 sets' parity
trees, the CZs between their representatives, the trees reversed).

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

import numpy as np

from . import bounds
from .circuit import Circuit, cz_block, join
from .gf2 import BitMatrix, set_bits
from .patterns import cz_layers, halve_weights, m01_gates
from .rectangles import rectangle_gates, tree_layers


class CzSpec:
    """Symmetric zero-diagonal 0/1 pattern of CZ pairs on n qubits.

    ``mat`` holds the pattern as int rows: bit j of ``mat.ints[i]`` pairs
    qubits i and j.  ``CzSpec(n, bits)`` takes a dense (n, n) 0/1 array;
    it and ``from_bitmatrix`` check the pattern on its rows.
    """

    __slots__ = ("mat",)

    def __init__(self, n: int, bits) -> None:
        dense = np.asarray(bits)
        if not np.isin(dense, (0, 1)).all():
            raise ValueError("pattern entries must be 0 or 1")
        self.mat = _checked(n, BitMatrix.from_dense(dense))

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


def _onestep_gates(qubits: list[int], rows: list[int], out: list) -> None:
    k = len(qubits)
    h = (k + 1) // 2
    out.append(m01_gates(qubits[:h], qubits[h:], halve_weights(BitMatrix(h, k - h, _block(rows, 0, h, h, k)))))
    _synth_gates(qubits[:h], _block(rows, 0, h, 0, h), out)
    _synth_gates(qubits[h:], _block(rows, h, k, h, k), out)


def _twostep_gates(qubits: list[int], rows: list[int], out: list) -> None:
    k = len(qubits)
    h = (k + 1) // 2
    m = k - h
    hr1 = halve_weights(BitMatrix(h, m, _block(rows, 0, h, h, k)))
    flip1 = set(hr1.row_flips) | {h + j for j in hr1.col_flips}

    qa = (h + 1) // 2
    qb = (m + 1) // 2
    hr2a = halve_weights(BitMatrix(qa, h - qa, _block(rows, 0, qa, qa, h)))
    hr2b = halve_weights(BitMatrix(qb, m - qb, _block(rows, h, h + qb, h + qb, k)))
    flip2 = (set(hr2a.row_flips) | {qa + j for j in hr2a.col_flips}
             | {h + i for i in hr2b.row_flips} | {h + qb + j for j in hr2b.col_flips})

    # classify every position: side (0=A, 1=B), level-1 flip membership
    # (0=in flip set), level-2 quadrant class
    #   0: first level-2 half, flipped    1: first half, unflipped
    #   2: second level-2 half, flipped   3: second half, unflipped
    sets = {(s, j, c): [] for s in (0, 1) for j in (0, 1) for c in range(4)}
    for pos, q in enumerate(qubits):
        side = int(pos >= h)
        second = pos >= (h + qb if side else qa)
        sets[(side, int(pos not in flip1), 2 * second + (pos not in flip2))].append(q)

    # one rectangle schedule: every set's parity tree folds it into its last
    # qubit, the representatives' CZs run, and the trees are uncomputed
    trees = [pair for s in sets.values() for layer in tree_layers(s) for pair in layer]
    rep = {key: s[-1] for key, s in sets.items() if s}

    def live(side: int, j: int, cs) -> list[int]:
        return [rep[(side, j, c)] for c in cs if (side, j, c) in rep]

    # level-1 corrections: A' x (B \ B') and (A \ A') x B', as complete
    # bipartite CZ between at most 4 representatives per side
    pairs = _bipartite_cz(live(0, 0, range(4)), live(1, 1, range(4)))
    pairs += _bipartite_cz(live(0, 1, range(4)), live(1, 0, range(4)))
    # level-2 corrections inside each half, at most 2x2 each
    for side in (0, 1):
        pairs += _bipartite_cz(live(side, 0, (0,)) + live(side, 1, (0,)),
                               live(side, 0, (3,)) + live(side, 1, (3,)))
        pairs += _bipartite_cz(live(side, 0, (1,)) + live(side, 1, (1,)),
                               live(side, 0, (2,)) + live(side, 1, (2,)))
    out.append(rectangle_gates([(trees, pairs)]))

    # reduced patterns as colored matching layers on the actual qubits
    out.append(cz_layers(qubits[:h], qubits[h:], hr1.reduced))
    out.append(cz_layers(qubits[:qa], qubits[qa:h], hr2a.reduced))
    out.append(cz_layers(qubits[h:h + qb], qubits[h + qb:], hr2b.reduced))

    # recurse on the four quarters in parallel
    for lo, hi in ((0, qa), (qa, h), (h, h + qb), (h + qb, k)):
        _synth_gates(qubits[lo:hi], _block(rows, lo, hi, lo, hi), out)


def _synth_gates(qubits: list[int], rows: list[int], out: list, strategy: str | None = None) -> None:
    """Append the gate blocks for the pattern with these int rows (bit j of
    rows[i] pairs qubits[i] with qubits[j]) to out."""
    k = len(qubits)
    if k <= 1 or not any(rows):
        return
    choice = strategy or bounds.cz_choice(k)
    if choice == bounds.COLORING:
        out.append(_coloring_gates(qubits, rows))
    elif choice == bounds.ONESTEP:
        _onestep_gates(qubits, rows, out)
    else:
        _twostep_gates(qubits, rows, out)


def synth_cz(spec: CzSpec, strategy: str = "auto") -> Circuit:
    """CZ circuit for the pattern, depth at most the recursion table value.

    The strategy argument forces the top-level construction only; inner
    recursions always pick the per-size argmin.
    """
    forced = None if strategy == "auto" else strategy
    if forced not in (None, bounds.COLORING, bounds.ONESTEP, bounds.TWOSTEP):
        raise ValueError(f"unknown strategy {strategy!r}")
    if forced in (bounds.ONESTEP, bounds.TWOSTEP) and spec.n < 4:
        forced = bounds.COLORING
    out: list = []
    _synth_gates(list(range(spec.n)), spec.mat.ints, out, strategy=forced)
    return Circuit(spec.n, join(out))
