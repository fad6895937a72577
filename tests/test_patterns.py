import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffdepth.circuit import asap_finish
from cliffdepth.gf2 import BitMatrix, random_matrix
from cliffdepth.patterns import (
    _halving_sides,
    bipartite_edge_color,
    cz_layers,
    halve_weights,
    halving_finish,
    m01_gates,
    max_col_degree,
    synth_m01,
)
from cliffdepth.rectangles import (
    check_qubit_set,
    rectangle_gates,
    rectangle_pairs,
    rectangle_parts,
    tree_layers,
)
from cliffdepth.verify import phase_oracle
from patterns_ref import edge_color_classes, reference_edge_color, reference_halve_weights


patterns = st.builds(
    BitMatrix.from_dense,
    st.integers(1, 12).flatmap(
        lambda k: st.integers(1, 12).flatmap(
            lambda m: arrays(np.uint8, (k, m), elements=st.integers(0, 1))
        )
    ),
)


@settings(max_examples=1000, deadline=None)
@given(patterns)
def test_halving_postconditions(p):
    hr = halve_weights(p)
    red = hr.reduced.to_dense()
    assert red.sum(axis=1).max(initial=0) <= p.cols // 2
    assert red.sum(axis=0).max(initial=0) <= p.rows // 2
    # so the reduced pattern colors in the max(k/2, m/2) layers the depth charges
    assert len(edge_color_classes(hr.reduced)) <= max(p.rows // 2, p.cols // 2)
    # reduced pattern differs from the original exactly by the flipped lines
    recon = red.copy()
    for i in hr.row_flips:
        recon[i] ^= 1
    for j in hr.col_flips:
        recon[:, j] ^= 1
    assert np.array_equal(recon, p.to_dense())


@settings(max_examples=1000, deadline=None)
@given(patterns)
def test_edge_coloring_is_partition_into_matchings(p):
    classes = edge_color_classes(p)
    bits = p.to_dense()
    delta = int(
        max(bits.sum(axis=1).max(initial=0), bits.sum(axis=0).max(initial=0))
    )
    assert len(classes) <= delta
    seen = set()
    for cl in classes:
        rows = [i for (i, _) in cl]
        cols = [j for (_, j) in cl]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))
        for e in cl:
            assert bits[e] == 1
            assert e not in seen
            seen.add(e)
    assert len(seen) == bits.sum()


def test_edge_coloring_gives_delta_nonempty_classes():
    """Every vertex of degree Delta holds all Delta colors, so no class is
    empty: exactly Delta classes come back, on raw and on halved patterns."""
    rng = np.random.default_rng(91)
    for _ in range(2000):
        k, m = (int(x) for x in rng.integers(1, 25, size=2))
        p = BitMatrix.from_dense((rng.random((k, m)) < rng.random()).astype(np.uint8))
        for q in (p, halve_weights(p).reduced):
            bits = q.to_dense()
            delta = int(max(bits.sum(axis=1).max(), bits.sum(axis=0).max()))
            classes = edge_color_classes(q)
            assert len(classes) == delta
            assert all(classes)


def _flat(classes):
    return [pair for cl in classes for pair in cl]


def test_edge_color_arrays_flatten_the_classes():
    """The (rows, cols) arrays list the class view's pairs, class after class,
    on raw and halved random patterns from 1x1 to 40x40."""
    rng = np.random.default_rng(25)
    for _ in range(2000):
        k, m = (int(x) for x in rng.integers(1, 41, size=2))
        p = BitMatrix.from_dense((rng.random((k, m)) < rng.random()).astype(np.uint8))
        for q in (p, halve_weights(p).reduced):
            rows, cols = bipartite_edge_color(q)
            assert rows.dtype == cols.dtype == np.int64
            assert list(zip(rows.tolist(), cols.tolist())) == _flat(edge_color_classes(q))


def test_edge_color_arrays_edge_cases():
    """All-zero patterns give two empty int64 arrays; 1x1, all-ones and
    300-row blocks give the class view's pairs."""
    for k, m in ((1, 1), (3, 5), (300, 2)):
        rows, cols = bipartite_edge_color(BitMatrix(k, m, [0] * k))
        assert rows.dtype == cols.dtype == np.int64
        assert rows.shape == cols.shape == (0,)
    rng = np.random.default_rng(26)
    for dense in (np.ones((1, 1)), np.ones((7, 7)), np.ones((5, 12)), np.ones((300, 4)),
                  rng.random((300, 40)) < 0.5, rng.random((40, 300)) < 0.5):
        p = BitMatrix.from_dense(dense)
        rows, cols = bipartite_edge_color(p)
        assert list(zip(rows.tolist(), cols.tolist())) == _flat(edge_color_classes(p))
        assert len(rows) == dense.sum()


def test_layers_of_a_pattern_the_halving_empties():
    """An all-ones block halves to nothing: cz_layers emits no gate, and
    m01_gates emits only the halving rectangles."""
    a, b = [0, 2, 4], [1, 3, 5, 6]
    p = BitMatrix.from_dense(np.ones((3, 4)))
    hr = halve_weights(p)
    assert not any(hr.reduced.ints)
    assert cz_layers(a, b, hr.reduced).shape == (0, 3)
    assert np.array_equal(m01_gates(a, b, hr), rectangle_gates(halving_rects(a, b, hr)))


def _halving_patterns():
    """Random k x m with k != m for k, m in 1..40, all-ones and all-zero
    blocks, single rows and single columns."""
    rng = np.random.default_rng(58)
    for k in range(1, 41):
        for m in range(1, 41):
            if k != m:
                yield rng.random((k, m)) < rng.random()
    for k, m in ((1, 1), (2, 2), (5, 3), (8, 8), (40, 17)):
        yield np.ones((k, m))
        yield np.zeros((k, m))
    for m in (1, 2, 7, 40):
        for density in (0.3, 0.7, 1.0):
            yield rng.random((1, m)) < density
            yield rng.random((m, 1)) < density


def test_halve_weights_matches_reference_loop():
    """Same row flips, column flips and reduced rows as the numpy loop,
    including on patterns where a later pass flips lines again."""
    passes: list = []
    for dense in _halving_patterns():
        p = BitMatrix.from_dense(dense)
        bits, row_flips, col_flips = reference_halve_weights(p.to_dense(), passes)
        hr = halve_weights(p)
        assert (hr.row_flips, hr.col_flips) == (row_flips, col_flips)
        assert hr.reduced == BitMatrix.from_dense(bits)
        assert hr.cols == BitMatrix.from_dense(bits.T).ints
    assert max(passes) >= 4 and sum(n >= 3 for n in passes) > 50


def test_max_col_degree_matches_dense_column_sums():
    """The counter's planes give the largest column sum, also on columns of
    more than 255 ones; the coloring's own column sums go through bytes at
    most 255 rows at a time, so its Delta must not carry either."""
    rng = np.random.default_rng(4)
    for k, m in ((1, 1), (3, 70), (255, 9), (256, 9), (600, 3), (511, 130)):
        for dense in (np.ones((k, m)), np.zeros((k, m)), rng.random((k, m)) < 0.5):
            p = BitMatrix.from_dense(dense)
            assert max_col_degree(p) == p.to_dense().sum(axis=0).max()
            delta = int(max(p.to_dense().sum(axis=0).max(), p.to_dense().sum(axis=1).max()))
            assert len(edge_color_classes(p)) == delta
    for _ in range(2000):
        k, m = (int(x) for x in rng.integers(1, 41, size=2))
        dense = rng.random((k, m)) < rng.random()
        assert max_col_degree(BitMatrix.from_dense(dense)) == dense.sum(axis=0).max()


def halving_rects(a, b, hr):
    """The rectangle_pairs of each nonempty rectangle undoing hr's flips, on rows a and columns b."""
    return [rectangle_pairs([a[i] for i in s], [b[j] for j in u]) for s, u in _halving_sides(hr)]


def _rectangle_kinds(a, b, hr):
    """Which rectangle_pairs branch each of the halving's rectangles takes."""
    flip_a, flip_b = set(hr.row_flips), set(hr.col_flips)
    sides = [([a[i] for i in hr.row_flips], [q for j, q in enumerate(b) if j not in flip_b]),
             ([q for i, q in enumerate(a) if i not in flip_a], [b[j] for j in hr.col_flips])]
    for s, u in sides:
        if s and u:
            if len(s) == len(u) == 1:
                yield "1x1"
            else:
                yield "equal" if len(tree_layers(s)) == len(tree_layers(u)) else "unequal"


def test_halving_finish_matches_asap_over_halving_rectangles():
    """The finish times read off the rectangles' shapes equal asap_finish, from
    zero, over the halving rectangles' gates, position by position, on 1x1
    rectangles and on equal and unequal tree depths."""
    rng = np.random.default_rng(13)
    kinds = set()
    for _ in range(400):
        k, m = (int(v) for v in rng.integers(1, 20, size=2))
        p = BitMatrix.from_dense(rng.random((k, m)) < rng.random())
        qubits = [int(q) for q in rng.permutation(k + m + 5)]
        a, b = qubits[:k], qubits[k:k + m]
        hr = halve_weights(p)
        want = dict.fromkeys(a + b, 0)
        asap_finish(rectangle_gates(halving_rects(a, b, hr)), want)
        assert halving_finish(hr) == [want[q] for q in a + b]
        kinds.update(_rectangle_kinds(a, b, hr))
    assert kinds == {"1x1", "equal", "unequal"}


def _reference_patterns():
    """Halved random squares at k = 64, 128, 256, then rectangles, lines and
    squares at densities 0.05, 0.5 and 0.95."""
    rng = np.random.default_rng(67)
    for k in (64, 128, 256):
        yield halve_weights(random_matrix(rng, k, k)).reduced
    for k, m in ((37, 90), (90, 37), (128, 31), (1, 50), (50, 1), (60, 60)):
        for density in (0.05, 0.5, 0.95):
            yield BitMatrix.from_dense((rng.random((k, m)) < density).astype(np.uint8))


def test_edge_color_matches_reference_loop():
    """Same classes, in the same order, as the reference Kempe loop.

    Large halved patterns make long alternating paths; both kinds of path
    end (at a row and at a column) must occur, since each takes its own
    exit from the walk.
    """
    ends: dict = {}
    for p in _reference_patterns():
        assert edge_color_classes(p) == reference_edge_color(p, path_ends=ends)
    assert ends["row"] > 0 and ends["col"] > 0


def _full_table_patterns():
    """Circulant d-regular k x k patterns with d = 1, k // 2 and k, where
    every column's color table fills; a 40 x 5 pattern whose Delta comes
    only from one all-ones column, and its transpose; an unhalved 128 x 128
    block at density 1/2, as the direct CNOT form colors."""
    rng = np.random.default_rng(75)
    for k in (31, 64):
        for d in (1, k // 2, k):
            yield BitMatrix(k, k, [sum(1 << (i + s) % k for s in range(d)) for i in range(k)])
    tall = rng.random((40, 5)) < 0.5
    tall[:, 2] = True
    yield BitMatrix.from_dense(tall.astype(np.uint8))
    yield BitMatrix.from_dense(tall.T.astype(np.uint8))
    yield random_matrix(rng, 128, 128)


def test_edge_color_full_tables_match_reference_loop():
    """Where a column's table fills, its first free color is its last
    slot; the classes still match the reference loop, Delta of them."""
    for p in _full_table_patterns():
        bits = p.to_dense()
        delta = int(max(bits.sum(axis=0).max(), bits.sum(axis=1).max()))
        classes = edge_color_classes(p)
        assert classes == reference_edge_color(p)
        assert len(classes) == delta


def test_synth_m01_phases_exhaustive():
    rng = np.random.default_rng(14)
    for _ in range(120):
        n = int(rng.integers(2, 10))
        qubits = list(rng.permutation(n))
        k = int(rng.integers(1, n))
        m = int(rng.integers(1, n - k + 1))
        a = [int(q) for q in qubits[:k]]
        b = [int(q) for q in qubits[k:k + m]]
        p = random_matrix(rng, k, m)
        bits = p.to_dense()
        circ = synth_m01(a, b, p, n)
        labels = np.arange(1 << n, dtype=np.uint32)
        expect = np.zeros(labels.shape, dtype=np.uint8)
        for i in range(k):
            for j in range(m):
                if bits[i, j]:
                    expect ^= (
                        (labels >> np.uint32(a[i]))
                        & (labels >> np.uint32(b[j]))
                        & np.uint32(1)
                    ).astype(np.uint8)
        assert np.array_equal(phase_oracle(circ), expect)


def test_synth_m01_validation():
    p = BitMatrix.from_dense(np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        synth_m01([0, 1], [1, 2], p)
    with pytest.raises(ValueError):
        synth_m01([0], [1, 2], p)


def test_m01_and_rectangle_share_the_overlap_check():
    p = BitMatrix.from_dense(np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="^qubit sets overlap$"):
        synth_m01([0, 1], [1, 2], p)
    with pytest.raises(ValueError, match="^qubit sets overlap$"):
        rectangle_parts([0, 1], [1, 2])
    with pytest.raises(ValueError, match="^qubit sets overlap$"):
        check_qubit_set([0], [1], [2, 0])
    check_qubit_set([0, 1], [2], [3, 4])
