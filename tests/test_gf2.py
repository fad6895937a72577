import ast
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cliffdepth
from cliffdepth.gf2 import (
    BitMatrix,
    Permutation,
    SingularMatrixError,
    back_substitute,
    int_fields,
    lu_decompose,
    mat_inverse,
    mat_mul,
    numbered_lines,
    perm_to_transposition_layers,
    random_invertible,
    _rows_from_dense,
    _rows_to_dense,
    random_matrix,
    rank_and_pivots,
    solve_right,
)


def dense_mul(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


# sizes that cross the 8-row table groups of mat_mul and the byte edges of a row
EDGE_SIZES = (1, 7, 8, 9, 63, 64, 65, 130)


def test_pack_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = int(rng.integers(1, 100))
        c = int(rng.integers(1, 200))
        d = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        assert np.array_equal(BitMatrix.from_dense(d).to_dense(), d)
    # bit j of a row's int is column j
    for c in (1, 63, 64, 65, 130):
        d = rng.integers(0, 2, size=(3, c), dtype=np.uint8)
        ints = _rows_from_dense(d)
        assert [[v >> j & 1 for j in range(c)] for v in ints] == d.tolist()
        assert np.array_equal(_rows_to_dense(ints, c), d)


@pytest.mark.parametrize("shape", [
    (1, 1), (7, 9), (8, 8), (9, 7), (63, 65), (64, 64), (65, 63), (130, 130)])
def test_transpose_against_dense(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    d = rng.integers(0, 2, size=shape, dtype=np.uint8)
    t = BitMatrix.from_dense(d).transpose()
    assert (t.rows, t.cols) == shape[::-1]
    assert t == BitMatrix.from_dense(d.T)
    assert t.transpose() == BitMatrix.from_dense(d)


def test_no_private_gf2_imports_outside_gf2():
    """Only gf2 knows the bit-row layout: no other module imports its _ names."""
    offenders = []
    for path in Path(cliffdepth.__file__).parent.glob("*.py"):
        if path.name == "gf2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("gf2", "cliffdepth.gf2"):
                offenders += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_active_backend_is_numpy():
    assert cliffdepth.active_backend() == "numpy"


def test_text_roundtrip():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 7, 13)
    assert BitMatrix.from_text(m.to_text()) == m


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65])
def test_text_roundtrip_widths(width):
    """Character j of a row is column j, through zero first and last columns."""
    dense = np.random.default_rng(width).integers(0, 2, size=(5, width), dtype=np.uint8)
    dense[:, [0, -1]] = 0
    m = BitMatrix.from_dense(dense)
    text = m.to_text()
    assert text.splitlines() == [f"5 {width}"] + ["".join(map(str, r)) for r in dense.tolist()]
    assert BitMatrix.from_text(text) == m


def test_text_rejects_bad_rows():
    with pytest.raises(ValueError):
        BitMatrix.from_text("2 2\n10\n1")
    with pytest.raises(ValueError):
        BitMatrix.from_text("1 3\n012")


def test_mat_mul_against_dense():
    rng = np.random.default_rng(2)
    drawn = (tuple(int(v) for v in rng.integers(1, 90, size=3)) for _ in range(30))
    edge = [(n, n, n) for n in EDGE_SIZES] + [(5, n, 3) for n in EDGE_SIZES]
    # the decomposition's shapes: one-row and 2n x n left factors, n x n and n x 2n right ones
    edge += [(k, n, m) for n in (64, 65, 128, 129) for k in (1, 2 * n) for m in (n, 2 * n)]
    for k, l, m in itertools.chain(drawn, edge):
        a = random_matrix(rng, k, l)
        b = random_matrix(rng, l, m)
        assert np.array_equal(
            mat_mul(a, b).to_dense(), dense_mul(a.to_dense(), b.to_dense())
        )


def test_mat_mul_peak_memory():
    """The temporaries stay near the 4 MB of tables: no gather of all groups at once."""
    rng = np.random.default_rng(5)
    a, b = random_matrix(rng, 2048, 1024), random_matrix(rng, 1024, 1024)
    tracemalloc.start()
    try:
        mat_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_inverse():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 8, 33, 64, 100) + EDGE_SIZES:
        a = random_invertible(rng, n)
        assert mat_mul(a, mat_inverse(a)) == BitMatrix.identity(n)


def test_singular_raises():
    z = BitMatrix.zeros(3, 3)
    with pytest.raises(SingularMatrixError):
        mat_inverse(z)
    with pytest.raises(SingularMatrixError):
        lu_decompose(z)


def test_solve_right():
    rng = np.random.default_rng(5)
    for n, m in [(20, 7)] + [(n, m) for n in EDGE_SIZES for m in (1, n)]:
        a = random_invertible(rng, n)
        b = random_matrix(rng, n, m)
        x = solve_right(a, b)
        assert mat_mul(a, x) == b


def test_lu_identity():
    perm, low, up = lu_decompose(BitMatrix.identity(5))
    assert perm.is_identity()
    assert low == BitMatrix.identity(5)
    assert up == BitMatrix.identity(5)


def test_lu_upper_triangular_input_trivial():
    # already-triangular input needs no pivoting at all
    l14 = np.eye(14, dtype=np.uint8)
    l14[:7, 7:] = 1
    perm, low, up = lu_decompose(BitMatrix.from_dense(l14))
    assert perm.is_identity()
    assert low == BitMatrix.identity(14)
    assert np.array_equal(up.to_dense(), l14)


def test_lu_reconstruction():
    rng = np.random.default_rng(6)
    for n in itertools.chain((int(rng.integers(1, 40)) for _ in range(40)), EDGE_SIZES):
        r = random_invertible(rng, n)
        perm, low, up = lu_decompose(r)
        prod = mat_mul(low, up).to_dense()
        rd = r.to_dense()
        for i in range(n):
            assert np.array_equal(prod[i], rd[int(perm.map[i])])
        # bit j of row i is entry (i, j)
        assert all(v >> (i + 1) == 0 for i, v in enumerate(low.ints))
        assert all(v & ((1 << i) - 1) == 0 for i, v in enumerate(up.ints))


def test_random_invertible_matches_dense_formula():
    # the dense L @ P @ U product on the same RNG draws, in the same order
    for n in (1, 2, 5, 17, 64, 65, 130):
        ref_rng = np.random.default_rng(n)
        low = np.tril(ref_rng.integers(0, 2, size=(n, n), dtype=np.uint8), -1)
        up = np.triu(ref_rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        p = np.zeros((n, n), dtype=np.uint8)
        p[ref_rng.permutation(n), np.arange(n)] = 1
        eye = np.eye(n, dtype=np.uint8)
        want = dense_mul(dense_mul(low + eye, p), up + eye)
        rng = np.random.default_rng(n)
        assert np.array_equal(random_invertible(rng, n).to_dense(), want)
        # both consumed the same number of draws
        assert rng.integers(0, 1 << 30) == ref_rng.integers(0, 1 << 30)


def test_random_invertible_is_invertible():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        mat_inverse(random_invertible(rng, n))  # raises if singular


def test_rank_and_pivots():
    rng = np.random.default_rng(8)
    drawn = ((int(rng.integers(1, 25)), int(rng.integers(1, 25))) for _ in range(40))
    edge = [shape for n in EDGE_SIZES for shape in ((n, n), (9, n), (n, 9))]
    for r, c in itertools.chain(drawn, edge):
        a = random_matrix(rng, r, c)
        rank, pivots = rank_and_pivots(a)
        assert rank == len(pivots)
        # GF(2) rank cross-check by elimination on the dense form
        d = a.to_dense().copy()
        rr = 0
        ref_pivots = []
        for j in range(c):
            nz = [i for i in range(rr, r) if d[i, j]]
            if not nz:
                continue
            ref_pivots.append(j)
            d[[rr, nz[0]]] = d[[nz[0], rr]]
            for i in range(r):
                if i != rr and d[i, j]:
                    d[i] ^= d[rr]
            rr += 1
        assert rank == rr
        assert pivots == ref_pivots


def apply_layers(layers, n):
    out = list(range(n))
    for layer in layers:
        for (i, j) in layer:
            out[i], out[j] = out[j], out[i]
    return out


def test_perm_transposition_layers():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        p = Permutation(rng.permutation(n))
        layers = perm_to_transposition_layers(p)
        assert len(layers) <= 2
        for layer in layers:
            flat = [q for pair in layer for q in pair]
            assert len(flat) == len(set(flat))
        # wire relabeling: the value starting at i must end on wire map[i]
        wires = apply_layers(layers, n)
        ends = [0] * n
        for pos, val in enumerate(wires):
            ends[val] = pos
        assert ends == list(p.map)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    # numpy would truncate the floats and read the bools as 0 and 1
    for bad in ([0.9, 1.2], [True, False], [0, True], np.array([1.0, 0.0]),
                np.array([False, True])):
        with pytest.raises(ValueError, match="integers"):
            Permutation(bad)
    assert len(Permutation([])) == 0
    assert Permutation(np.array([1, 0], dtype=np.uint8)) == Permutation([1, 0])


def test_numbered_lines():
    assert numbered_lines("") == []
    assert numbered_lines("\n a b \n\t\n\u00a0c\r\n") == [(2, "a b"), (4, "c")]


@pytest.mark.parametrize("fields, want", [
    (["0", "-0", "007", "-12"], [0, 0, 7, -12]),
    (["9223372036854775807", "-9223372036854775808"], [2**63 - 1, -2**63]),
    ([], []),
])
def test_int_fields_reads_ascii_int64(fields, want):
    assert int_fields(3, fields) == want


@pytest.mark.parametrize("fields", [
    ["1_0"], ["+1"], ["\u0661"], ["1", "x"], ["0x1"], ["1.0"], ["-"], [""],
    ["9223372036854775808"], ["-9223372036854775809"], ["99999999999999999999"],
])
def test_int_fields_rejects_the_rest(fields):
    with pytest.raises(ValueError, match=r"^line 3: "):
        int_fields(3, fields)


def test_int_fields_counts():
    assert int_fields(1, ["4", "5"], 2) == [4, 5]
    for fields in (["4"], ["4", "5", "6"]):
        with pytest.raises(ValueError, match=r"^line 1: expected 2 int64 field"):
            int_fields(1, fields, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 130])
def test_back_substitute_matches_solve_right(k):
    """The unitriangular solve equals the Gauss-Jordan one, for right-hand
    sides narrower and wider than the system."""
    rng = np.random.default_rng(600 + k)
    for _ in range(3):
        top = np.triu(rng.integers(0, 2, size=(k, k), dtype=np.uint8), 1)
        np.fill_diagonal(top, 1)
        a = BitMatrix.from_dense(top)
        for width in (max(1, k // 2), k + 5):
            b = random_matrix(rng, k, width)
            assert back_substitute(a.ints, b.ints) == solve_right(a, b).ints


@pytest.mark.parametrize("call, message", [
    (lambda: mat_mul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3)), "dimension mismatch: 3 vs 2"),
    (lambda: solve_right(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 1)),
     "coefficient matrix must be square"),
    (lambda: solve_right(BitMatrix.identity(2), BitMatrix.zeros(3, 1)), "row count mismatch"),
    (lambda: lu_decompose(BitMatrix.zeros(2, 3)), "LU requires a square matrix"),
    (lambda: BitMatrix(0, 1), "BitMatrix dimensions must be positive"),
    (lambda: BitMatrix.from_dense(np.ones(3, dtype=np.uint8)), "expected 2-D array"),
    (lambda: BitMatrix.from_text("3 2\n10\n01\n"), "expected 3 matrix rows, got 2"),
])
def test_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("dense", [
    [[2]], [[0.6]], [[np.nan]], np.array([[-1]], dtype=np.int64), [[3, -1]], [[256]],
    np.array([[1, 2]], dtype=np.uint8),
])
def test_from_dense_refuses_entries_other_than_0_and_1(dense):
    """Every entry other than 0 and 1 is refused, rather than read by its parity
    or wrapped into uint8."""
    with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
        BitMatrix.from_dense(dense)


def test_from_dense_takes_any_dtype_of_0_and_1():
    want = BitMatrix(2, 2, [1, 3])
    for dense in ([[1, 0], [1, 1]], [[1.0, 0.0], [1.0, 1.0]], np.array([[1, 0], [1, 1]], dtype=bool),
                  np.asfortranarray([[1, 0], [1, 1]], dtype=np.uint8)):
        assert BitMatrix.from_dense(dense) == want


@pytest.mark.parametrize("ints, message", [
    ([1], "expected 2 matrix rows, got 1"),
    ([1, 2, 0], "expected 2 matrix rows, got 3"),
    ([1, 6], "matrix rows must be ints in [0, 2**2)"),
    ([4, 1], "matrix rows must be ints in [0, 2**2)"),
    ([1, -2], "matrix rows must be ints in [0, 2**2)"),
])
def test_bitmatrix_rejects_malformed_rows(ints, message):
    """A row list of the wrong length, a negative row or a bit at or past cols
    is refused when the matrix is made, before any reader sees it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BitMatrix(2, 2, ints)
    assert BitMatrix(2, 2, [3, 0]).to_text() == "2 2\n11\n00\n"
