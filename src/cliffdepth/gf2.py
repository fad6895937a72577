"""GF(2) linear algebra on bit rows.

``BitMatrix`` stores each row as one Python int: entry (i, j) is bit j of
``ints[i]``.  That is the package's public GF(2) format, which the other
modules build and shift directly; numpy arrays enter through ``from_dense``
and ``to_dense``, and inside the product.  The matrix, tableau and circuit
text formats share one grammar, kept here: ``numbered_lines``, strict
integer fields (``int_fields``) and 0/1 rows as int rows
(``parse_bit_rows``).  The product takes and returns int rows but computes
on uint64 word rows: it combines rows of the right factor eight at a time
through lookup tables (the method of four Russians).  Inverse, solve,
rank and the Clifford decomposition share one Gauss-Jordan elimination on
int rows, which pivots on given bit columns, LU eliminates on the
same rows, and a unitriangular system is solved by back-substitution.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import compress, count

import numpy as np


def _rows_from_dense(dense: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as one int, bit j holding column j."""
    # packbits along the rows of a Fortran-ordered array (a transpose, or a
    # vstack of one) is about 5x slower than copying it to C order first
    packed = np.packbits(np.ascontiguousarray(dense), axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _rows_to_dense(ints: list[int], cols: int) -> np.ndarray:
    """Inverse of ``_rows_from_dense``: (len(ints), cols) uint8 array."""
    as_bytes = _byte_rows(ints, (cols + 7) // 8, np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[:, :cols]


def _byte_rows(ints: list[int], size: int, dtype) -> np.ndarray:
    """Int rows as a 2-D array of dtype items, each row as size little-endian bytes."""
    buf = b"".join(v.to_bytes(size, "little") for v in ints)
    return np.frombuffer(buf, dtype).reshape(len(ints), -1)


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The stripped non-blank lines of text, each with its 1-based line number."""
    return [(no, s) for no, ln in enumerate(text.splitlines(), 1) if (s := ln.strip())]


_INT = re.compile(r"-?[0-9]+")  # ASCII digits only, unlike int()


def int_fields(no: int, fields: list[str], count: int | None = None) -> list[int]:
    """Line no's fields as ints, count of them if given: ASCII ``-?[0-9]+`` within int64,
    else ValueError naming the line (``int()`` alone takes ``1_0``, ``+9``, non-ASCII digits)."""
    vals = [v for t in fields if _INT.fullmatch(t) and -1 << 63 <= (v := int(t)) < 1 << 63]
    if len(vals) < len(fields) or count not in (None, len(vals)):
        raise ValueError(f"line {no}: expected {count or 'only'} int64 field(s), got {fields}")
    return vals


def parse_bit_rows(lines: list[tuple[int, str]], width: int) -> list[int]:
    """Numbered lines as int rows, character j as bit j; a line that is not ``width``
    0/1 characters raises ValueError naming it (``int(s, 2)`` alone accepts ``1_0``)."""
    for no, row in lines:
        if len(row) != width or set(row) - {"0", "1"}:
            raise ValueError(f"line {no}: expected {width} bits, got {row!r}")
    return [int(row[::-1], 2) for _, row in lines]


class BitMatrix:
    """Dense matrix over GF(2); ``ints[i]`` is row i, bit j holding column j."""

    __slots__ = ("rows", "cols", "ints")

    def __init__(self, rows: int, cols: int, ints: list[int] | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("BitMatrix dimensions must be positive")
        if ints is None:
            ints = [0] * rows
        elif len(ints) != rows:
            raise ValueError(f"expected {rows} matrix rows, got {len(ints)}")
        elif min(ints) < 0 or max(ints) >> cols:
            raise ValueError(f"matrix rows must be ints in [0, 2**{cols})")
        self.rows = rows
        self.cols = cols
        self.ints = ints

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """The matrix of a 2-D array of any dtype whose every entry is 0 or 1."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("expected 2-D array")
        # a uint8 array needs only its largest entry, with no full-size temporary: at
        # 513 x 512 on a 2-vCPU Xeon that takes 0.004 ms, the two comparisons 0.14 ms
        ok = dense.max(initial=0) <= 1 if dense.dtype == np.uint8 else ((dense == 0) | (dense == 1)).all()
        if not ok:
            raise ValueError("matrix entries must be 0 or 1")
        return cls(dense.shape[0], dense.shape[1], _rows_from_dense(dense.astype(np.uint8, copy=False)))

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse ``rows cols`` and one 0/1 string per row; an error names its line."""
        lines = numbered_lines(text)
        if not lines:
            raise ValueError("empty matrix file")
        no, head = lines[0]
        r, c = int_fields(no, head.split(), 2)
        if r < 1 or c < 1:
            raise ValueError(f"line {no}: matrix dimensions must be positive")
        if len(lines) - 1 != r:
            raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
        return cls(r, c, parse_bit_rows(lines[1:], c))

    # -- access ------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return _rows_to_dense(self.ints, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.ints == other.ints
        )

    def __hash__(self):
        raise TypeError("BitMatrix is not hashable")

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def to_text(self) -> str:
        w = self.cols
        return f"{self.rows} {w}\n" + "".join(format(v, f"0{w}b")[::-1] + "\n" for v in self.ints)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "BitMatrix":
        """Block transpose on the rows, zero-padded to n x n with n a power of 2.

        At block size s, rows k and k + s (bit s of k clear) swap the high
        half of each 2s-bit group of row k with the low half of row k + s's.
        """
        n = 1 << (max(self.rows, self.cols) - 1).bit_length()
        a = self.ints + [0] * (n - self.rows)
        s = n >> 1
        while s:
            low = ((1 << n) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1)
            for base in range(0, n, 2 * s):
                for k in range(base, base + s):
                    x, y = a[k], a[k + s]
                    t = (x >> s ^ y) & low
                    a[k] = x ^ t << s
                    a[k + s] = y ^ t
            s >>= 1
        return BitMatrix(self.cols, self.rows, a[:self.cols])


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) product: row i of a @ b is the xor of the rows of b that row i of a selects.

    The rows of b go in groups of eight, as uint64 word rows.  Doubling
    tabulates the 256 xor combinations of every group at once (groups x
    256 x words); then each group adds one gather, indexed by the matching
    byte of a's rows, into a rows x words accumulator.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    groups, size = (b.rows + 7) // 8, (b.cols + 63) // 64 * 8  # size: bytes per word row
    words = _byte_rows(b.ints + [0] * (-b.rows % 8), size, "<u8").reshape(groups, 8, 1, -1)
    tables = np.zeros((groups, 256, size // 8), dtype="<u8")
    for i in range(8):  # entry 2^i + t is entry t plus row i of the group
        np.bitwise_xor(tables[:, :1 << i], words[:, i], out=tables[:, 1 << i: 2 << i])
    acc = np.zeros((a.rows, size // 8), dtype="<u8")
    for table, idx in zip(tables, _byte_rows(a.ints, groups, np.uint8).T.copy()):
        acc ^= table.take(idx, axis=0)
    out = [int.from_bytes(v, "little") for v in acc.view(f"V{size}").ravel().tolist()]
    return BitMatrix(a.rows, b.cols, out)


class SingularMatrixError(ValueError):
    """Raised when an inverse or solve hits a rank-deficient matrix."""


def gauss_jordan(rows: list[int], cols: Iterable[int],
                 start: int = 0) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over the bit columns cols, in order, and its pivot columns.

    The k-th pivot lands in row start + k; rows above start are cleared of
    each pivot column but never pivot.  Other bits ride along with their
    rows, so an augmented block comes out transformed by the same row
    operations.
    """
    rows = list(rows)
    pivots: list[int] = []
    r = start
    for j in cols:
        if r == len(rows):
            break
        bit = 1 << j
        piv = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if piv is None:
            continue
        p = rows[piv]
        rows[piv] = rows[r]
        rows = [v ^ p if v & bit else v for v in rows]
        rows[r] = p
        pivots.append(j)
        r += 1
    return rows, pivots


def solve_right(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Solve a @ X = b for square invertible a (Gauss-Jordan on [a | b])."""
    if a.rows != a.cols:
        raise ValueError("coefficient matrix must be square")
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    n = a.rows
    rows, pivots = gauss_jordan([u | v << n for u, v in zip(a.ints, b.ints)], range(n))
    if len(pivots) < n:
        j = next(j for j, p in enumerate(pivots + [n]) if j != p)
        raise SingularMatrixError(f"matrix is singular (no pivot in column {j})")
    return BitMatrix(n, b.cols, [v >> n for v in rows])


_BIN_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit_bytes(v: int) -> bytes:
    """Byte j is bit j of v (0 or 1), up to v's highest set bit."""
    return bin(v)[:1:-1].encode().translate(_BIN_DIGITS)


def set_bits(v: int) -> list[int]:
    """Positions of the set bits of v, lowest first."""
    return list(compress(count(), bit_bytes(v)))


def back_substitute(top: list[int], rhs: list[int]) -> list[int]:
    """Rows of X with top @ X = rhs, for an upper unitriangular top.

    Both matrices come as int rows.  Row i of X is row i of rhs plus the
    rows j > i of X that row i of top selects, so X is filled from the
    last row up.
    """
    x = list(rhs)
    for i in range(len(top) - 1, -1, -1):
        acc = x[i]
        for j in set_bits(top[i] ^ 1 << i):
            acc ^= x[j]
        x[i] = acc
    return x


def mat_inverse(a: BitMatrix) -> BitMatrix:
    return solve_right(a, BitMatrix.identity(a.rows))


def rank_and_pivots(a: BitMatrix) -> tuple[int, list[int]]:
    """Rank and pivot-column indices from row reduction."""
    _, pivots = gauss_jordan(a.ints, range(a.cols))
    return len(pivots), pivots


class Permutation:
    """Bijection on 0..n-1; map[i] is the image of i."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        arr = np.asarray(mapping)  # [0, True] reads as ints, and [] as floats
        if arr.size and (arr.dtype.kind not in "iu"
                         or any(isinstance(v, (bool, np.bool_)) for v in mapping)):
            raise ValueError("permutation entries must be integers, not floats or bools")
        arr = arr.astype(np.int64)
        if sorted(arr.tolist()) != list(range(len(arr))):
            raise ValueError("not a permutation")
        self.map = arr

    def __len__(self) -> int:
        return len(self.map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and bool(np.array_equal(self.map, other.map))

    def __repr__(self) -> str:
        return f"Permutation({self.map.tolist()})"

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.map, np.arange(len(self.map))))


def lu_decompose(r: BitMatrix) -> tuple[Permutation, BitMatrix, BitMatrix]:
    """Row-pivoted LU: row i of L@U equals row perm[i] of r.

    Returns:
        (perm, l, u) with l lower unitriangular and u upper triangular
        (unit diagonal, since any invertible triangular GF(2) matrix has
        ones on the diagonal).
    """
    if r.rows != r.cols:
        raise ValueError("LU requires a square matrix")
    n = r.rows
    a = list(r.ints)
    low = [0] * n  # strictly lower part of L; row k holds only bits < k at step k
    perm = list(range(n))
    for k in range(n):
        bit = 1 << k
        piv = next((i for i in range(k, n) if a[i] & bit), None)
        if piv is None:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {k})")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            low[k], low[piv] = low[piv], low[k]
        top = a[k]
        for i in range(k + 1, n):
            if a[i] & bit:
                a[i] ^= top
                low[i] |= bit
    low = [v | 1 << i for i, v in enumerate(low)]
    return Permutation(perm), BitMatrix(n, n, low), BitMatrix(n, n, a)


def perm_to_transposition_layers(p: Permutation) -> list[list[tuple[int, int]]]:
    """Decompose p into at most two layers of disjoint transpositions.

    Each cycle (v0 v1 ... v_{k-1}) factors as two reflections: layer one
    swaps v_i with v_{k-1-i}, layer two swaps v_j with v_{k-j}; applying
    layer one then layer two maps v_i to v_{i+1 mod k}.
    """
    n = len(p.map)
    seen = [False] * n
    layer1: list[tuple[int, int]] = []
    layer2: list[tuple[int, int]] = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = int(p.map[start])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = int(p.map[cur])
        k = len(cyc)
        if k == 1:
            continue
        for i in range(k):
            if i < k - 1 - i:
                layer1.append((cyc[i], cyc[k - 1 - i]))
        for j in range(1, k):
            if j < k - j:
                layer2.append((cyc[j], cyc[k - j]))
    layers = [ly for ly in (layer1, layer2) if ly]
    return layers


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def random_invertible(rng: np.random.Generator, n: int) -> BitMatrix:
    """Random invertible matrix as L @ P @ U (unitriangular L, U; random P).

    P maps column c to row perm[c], so L @ P is L with its columns
    permuted; the product with U is the GF(2) ``mat_mul``.
    """
    low = np.tril(rng.integers(0, 2, size=(n, n), dtype=np.uint8), -1) + np.eye(n, dtype=np.uint8)
    up = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1) + np.eye(n, dtype=np.uint8)
    perm = rng.permutation(n)
    return mat_mul(BitMatrix.from_dense(low[:, perm]), BitMatrix.from_dense(up))
