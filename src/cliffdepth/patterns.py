"""Arbitrary 0/1 CZ patterns on A x B: weight halving plus edge coloring.

The halving step complements rows/columns until every row weight is at
most m/2 and every column weight at most k/2; the complement corrections
are two parallel rectangles, and the reduced pattern is scheduled as CZ
layers given by a bipartite edge coloring with max-degree many colors.
The coloring hands its classes on as two index arrays, the rows and the
columns of the pairs, class after class, and the emitters index their
qubit lists with them.
A k x m pattern is a k x m ``gf2.BitMatrix``: bit j of row i marks CZ(a_i, b_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, zip_longest

import numpy as np

from .circuit import Circuit, cz_block
from .gf2 import BitMatrix, bit_bytes, set_bits
from .rectangles import check_qubit_set, rectangle_finish, rectangle_gates, rectangle_pairs


def max_col_degree(p: BitMatrix) -> int:
    """The largest number of ones in a column of p.

    The rows are counted on ints, in planes: plane b holds bit b of every
    column's count.  Rows come in pairs; a carry-save step adds a pair into
    plane 0 and ripples the pair's carry up from plane 1.  The largest
    count has the top plane's bit; below it, bit b is set when a column
    that matched every higher bit so far has it.
    """
    planes = [0]
    rows = iter(p.ints)
    for x, y in zip_longest(rows, rows, fillvalue=0):
        ones = planes[0]
        u = ones ^ x
        planes[0] = u ^ y
        carry = (ones & x) | (u & y)
        for b in range(1, len(planes)):
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    alive, degree = -1, 0
    for b in reversed(range(len(planes))):
        if alive & planes[b]:
            alive &= planes[b]
            degree |= 1 << b
    return degree


@dataclass
class HalvingResult:
    reduced: BitMatrix
    row_flips: list[int]  # A'
    col_flips: list[int]  # B'
    cols: list[int]  # the reduced pattern's columns as ints, bit i holding row i


def halve_weights(p: BitMatrix) -> HalvingResult:
    """Greedy line complementing until all weights are at most half.

    Alternates a pass over the rows with a pass over the columns until a
    round flips nothing; a line is flipped only when that strictly reduces
    the number of ones, so the loop ends within the initial weight's
    number of flips.  Flipping one line leaves every parallel line's
    weight unchanged, so each pass flips all of its heavy lines at once.
    Rows and columns are kept as ints side by side: a pass complements
    its heavy lines and xors their mask into every crossing line.
    """
    k, m = p.rows, p.cols
    rows, cols = list(p.ints), p.transpose().ints
    full_r, full_c = (1 << m) - 1, (1 << k) - 1
    half_r, half_c = m // 2, k // 2
    rowflip = colflip = 0
    while True:
        heavy_r = heavy_c = 0
        for i, v in enumerate(rows):
            if v.bit_count() > half_r:
                rows[i] = v ^ full_r
                heavy_r |= 1 << i
        cols = [v ^ heavy_r for v in cols]
        for j, v in enumerate(cols):
            if v.bit_count() > half_c:
                cols[j] = v ^ full_c
                heavy_c |= 1 << j
        rows = [v ^ heavy_c for v in rows]
        if not heavy_r | heavy_c:
            break
        rowflip ^= heavy_r
        colflip ^= heavy_c
    assert max(v.bit_count() for v in rows) <= half_r
    assert max(v.bit_count() for v in cols) <= half_c
    return HalvingResult(BitMatrix(k, m, rows), set_bits(rowflip), set_bits(colflip), cols)


def _color_table(p: BitMatrix, delta: int | None = None) -> list[list[int]]:
    """Each row's color -> column list, -1 where the row lacks the color, of a
    first-fit Kempe-chain coloring with Delta colors (delta, when the caller
    has counted Delta of a nonzero p).

    Rows are filled in order: an edge takes the first color fi free at its
    row; if fi is taken at the column, fi and the column's first free
    color fj are swapped along the maximal alternating path from the
    column.  That path enters rows by fi-edges, so it never reaches the
    row being filled, where fi is free: the row's t-th edge takes color t,
    so the row's columns, padded with -1 to Delta, become its color ->
    column list once the row is done.  Each column keeps a color -> row
    list, and its first free color is its first -1.
    """
    at_row = [list(compress(count(), bit_bytes(v))) for v in p.ints]  # each row's columns, ascending
    if delta is None:
        delta = max(map(len, at_row))
        if delta == 0:
            return at_row
        delta = max(delta, max_col_degree(p))
    at_col = [[-1] * delta for _ in range(p.cols)]  # color -> row

    for i, js in enumerate(at_row):
        for fi, j in enumerate(js):
            col = at_col[j]
            v = col[fi]
            if v >= 0:
                # fi is taken at column j, so fj != fi.  Walk the path a row
                # and a column per step: a row is entered by fi and left by fj,
                # a column the other way; exchanging a vertex's two entries
                # recolors both of its path edges.
                fj = col.index(-1)
                col[fj] = v
                while True:
                    entry = at_row[v]
                    c = entry[fj]
                    entry[fj], entry[fi] = entry[fi], c
                    if c < 0:
                        break
                    entry = at_col[c]
                    v = entry[fi]
                    entry[fi], entry[fj] = entry[fj], v
                    if v < 0:
                        break
            col[fi] = i
        js += [-1] * (delta - len(js))  # now the row's color -> col table
    return at_row


def bipartite_edge_color(p: BitMatrix, *, _delta: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Partition the 1-entries into Delta matchings, as (rows, cols): two int64
    arrays of the pairs (i, j), class after class, rows ascending in a class.

    The classes are color 0 first, of _color_table's first-fit Kempe-chain
    coloring.  A vertex of degree Delta holds every color, so no class is
    empty; an all-zero p gives two empty arrays.

    Args:
        p: bipartite pattern (rows vs columns).
        _delta: package-internal: Delta of a nonzero p, for a caller that
            has counted it, so that it is not counted again.
    """
    table = _color_table(p, _delta)
    k, delta = len(table), len(table[0])
    t = np.fromiter(chain.from_iterable(table), np.int64, k * delta).reshape(k, delta)
    colors, rows = np.nonzero(t.T >= 0)
    return rows, t[rows, colors]


def cz_layers(a: list[int], b: list[int], p: BitMatrix) -> np.ndarray:
    """CZ(a[i], b[j]) for every pair (i, j) of bipartite_edge_color(p)'s arrays,
    so one edge-color matching per layer.

    Ends are ordered as ``cz`` orders them.
    """
    i, j = bipartite_edge_color(p)
    return cz_block(np.asarray(a)[i], np.asarray(b)[j])


def _halving_sides(hr: HalvingResult) -> list[tuple[list[int], list[int]]]:
    """The row and column positions of each nonempty rectangle undoing hr's flips:
    flipped rows x unflipped columns, then unflipped rows x flipped columns."""
    flip_a, flip_b = set(hr.row_flips), set(hr.col_flips)
    kept_a = [i for i in range(hr.reduced.rows) if i not in flip_a]
    kept_b = [j for j in range(hr.reduced.cols) if j not in flip_b]
    return [(s, u) for s, u in ((hr.row_flips, kept_b), (kept_a, hr.col_flips)) if s and u]


def halving_finish(hr: HalvingResult) -> list[int]:
    """The finish times asap_finish gives, from zero, over the gates of hr's
    halving rectangles, by position: the rows, then the columns.

    Each rectangle's times are read off its shape, so no pair is built.
    """
    k = hr.reduced.rows
    t = [0] * (k + hr.reduced.cols)
    for s, u in _halving_sides(hr):
        for pos, v in zip(s + [k + j for j in u], rectangle_finish(len(s), len(u))):
            t[pos] = v
    return t


def m01_gates(a: list[int], b: list[int], hr: HalvingResult) -> np.ndarray:
    """The gate array applying exactly the CZs of the pattern that hr halved,
    between rows a and columns b: the one CZ form of a halved block.

    The rectangles undoing hr's flips run side by side, then come the
    reduced pattern's colored CZ layers: its weights bound them to at most
    max(k/2, m/2).  The CZ stages emit it; the CNOT block stage conjugates
    it by H on the rows.
    """
    rects = [rectangle_pairs([a[i] for i in s], [b[j] for j in u]) for s, u in _halving_sides(hr)]
    return np.concatenate([rectangle_gates(rects), cz_layers(a, b, hr.reduced)])


def synth_m01(a: list[int], b: list[int], p: BitMatrix, n: int | None = None) -> Circuit:
    """Circuit applying exactly the CZ gates marked in p between a and b."""
    check_qubit_set(a, b)
    if p.rows != len(a) or p.cols != len(b):
        raise ValueError("pattern dimensions do not match qubit sets")
    if n is None:
        n = max(max(a), max(b)) + 1
    return Circuit(n, m01_gates(a, b, halve_weights(p)))
