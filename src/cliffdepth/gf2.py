"""Bit-packed GF(2) linear algebra.

``BitMatrix`` stores rows as packed ``uint64`` words.  Elimination-style
routines (inverse, solve, LU) work on the packed words with vectorized row
xors; the dense ``uint8`` view is used where per-entry bookkeeping is
simpler (LU factor construction, reduced row echelon form).
"""

from __future__ import annotations

import numpy as np

WORD = 64


def _nwords(cols: int) -> int:
    return (cols + WORD - 1) // WORD


def _pack(dense: np.ndarray) -> np.ndarray:
    """Pack 0/1 bits along the last axis into uint64 words, bit j at word j // 64."""
    packed = np.packbits(dense, axis=-1, bitorder="little")
    out = np.zeros(packed.shape[:-1] + (_nwords(dense.shape[-1]) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def _unpack(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of ``_pack``: the first ``cols`` bits of each word row."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :cols]


def _words_to_ints(words: np.ndarray) -> list[int]:
    """Each row of packed words as one Python int: bit j of the row is bit j."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return [int.from_bytes(row.tobytes(), "little") for row in as_bytes]


def _ints_to_words(ints: list[int], cols: int) -> np.ndarray:
    """Inverse of ``_words_to_ints``: (len(ints), words) packed rows of ``cols`` bits."""
    size = _nwords(cols) * 8
    buf = b"".join(v.to_bytes(size, "little") for v in ints)
    return np.frombuffer(buf, dtype=np.uint64).reshape(len(ints), size // 8).copy()


class BitMatrix:
    """Dense matrix over GF(2), rows packed into machine words."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("BitMatrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        if words is None:
            words = np.zeros((rows, _nwords(cols)), dtype=np.uint64)
        self.words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, _ints_to_words([1 << i for i in range(n)], n))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense, dtype=np.uint8) & 1
        if dense.ndim != 2:
            raise ValueError("expected 2-D array")
        return cls(dense.shape[0], dense.shape[1], _pack(dense))

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse ``rows cols`` followed by one 0/1 string per row.

        Blank lines are skipped; malformed input raises ValueError naming
        its line.
        """
        lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty matrix file")
        no, head = lines[0]
        try:
            r, c = (int(t) for t in head.split())
        except ValueError:
            raise ValueError(f"line {no}: expected 'rows cols', got {head!r}") from None
        if len(lines) - 1 != r:
            raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
        for i, (no, row) in enumerate(lines[1:]):
            if len(row) != c or set(row) - {"0", "1"}:
                raise ValueError(f"line {no}: bad matrix row {i}: {row!r}")
        dense = np.array([[int(ch) for ch in row] for _, row in lines[1:]], dtype=np.uint8)
        return cls.from_dense(dense.reshape(r, c))

    # -- access ------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return _unpack(self.words, self.cols)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.words.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        raise TypeError("BitMatrix is not hashable")

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def to_text(self) -> str:
        dense = self.to_dense()
        head = f"{self.rows} {self.cols}"
        body = "\n".join("".join("1" if b else "0" for b in row) for row in dense)
        return head + "\n" + body + "\n"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def is_upper_triangular(self) -> bool:
        d = self.to_dense()
        return bool(np.array_equal(np.triu(d), d))

    def is_lower_triangular(self) -> bool:
        d = self.to_dense()
        return bool(np.array_equal(np.tril(d), d))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    bt = b.transpose().words
    r, c = a.rows, b.cols
    out = np.empty((r, c), dtype=np.uint8)
    # out[i, j] = parity of popcount(a row i & b column j); rows go in
    # chunks so the (chunk, c, words) intermediate stays small
    step = max(1, (1 << 22) // max(1, c * a.words.shape[1]))
    for lo in range(0, r, step):
        anded = a.words[lo: lo + step, None, :] & bt[None, :, :]
        out[lo: lo + step] = np.bitwise_count(anded).sum(axis=2) & 1
    return BitMatrix.from_dense(out)


def mat_vec(a: BitMatrix, v: np.ndarray) -> np.ndarray:
    """a @ v over GF(2) for a 0/1 vector v."""
    col = BitMatrix.from_dense(np.asarray(v, dtype=np.uint8).reshape(-1, 1))
    return mat_mul(a, col).to_dense()[:, 0]


class SingularMatrixError(ValueError):
    """Raised when an inverse or solve hits a rank-deficient matrix."""


def solve_right(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Solve a @ X = b for square invertible a (Gauss-Jordan on packed rows)."""
    if a.rows != a.cols:
        raise ValueError("coefficient matrix must be square")
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    n = a.rows
    wa = a.words.shape[1]
    aug = np.concatenate([a.words.copy(), b.words.copy()], axis=1)
    for j in range(n):
        col = (aug[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)
        cand = np.nonzero(col[j:])[0]
        if cand.size == 0:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {j})")
        piv = j + int(cand[0])
        if piv != j:
            aug[[j, piv]] = aug[[piv, j]]
            col[[j, piv]] = col[[piv, j]]
        mask = col.astype(bool)
        mask[j] = False
        aug[mask] ^= aug[j]
    return BitMatrix(n, b.cols, np.ascontiguousarray(aug[:, wa:]))


def mat_inverse(a: BitMatrix) -> BitMatrix:
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    return solve_right(a, BitMatrix.identity(a.rows))


def rank_and_pivots(a: BitMatrix) -> tuple[int, list[int]]:
    """Rank and pivot-column indices from row reduction."""
    words = a.words.copy()
    r = 0
    pivots: list[int] = []
    for j in range(a.cols):
        col = (words[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)
        cand = np.nonzero(col[r:])[0]
        if cand.size == 0:
            continue
        piv = r + int(cand[0])
        if piv != r:
            words[[r, piv]] = words[[piv, r]]
            col[[r, piv]] = col[[piv, r]]
        mask = col.astype(bool)
        mask[r] = False
        words[mask] ^= words[r]
        pivots.append(j)
        r += 1
        if r == a.rows:
            break
    return r, pivots


class Permutation:
    """Bijection on 0..n-1; map[i] is the image of i."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        arr = np.asarray(mapping, dtype=np.int64)
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
    a = r.to_dense().copy()
    low = np.eye(n, dtype=np.uint8)
    perm = np.arange(n, dtype=np.int64)
    for k in range(n):
        cand = np.nonzero(a[k:, k])[0]
        if cand.size == 0:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {k})")
        piv = k + int(cand[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
            low[[k, piv], :k] = low[[piv, k], :k]
        below = np.nonzero(a[k + 1:, k])[0] + k + 1
        low[below, k] = 1
        a[below] ^= a[k]
    return Permutation(perm), BitMatrix.from_dense(low), BitMatrix.from_dense(a)


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
    permuted; the product with U is the packed GF(2) ``mat_mul``.
    """
    low = np.tril(rng.integers(0, 2, size=(n, n), dtype=np.uint8), -1) + np.eye(n, dtype=np.uint8)
    up = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1) + np.eye(n, dtype=np.uint8)
    perm = rng.permutation(n)
    return mat_mul(BitMatrix.from_dense(low[:, perm]), BitMatrix.from_dense(up))
