"""Reference halving and edge coloring for the pattern tests (test helper).

``reference_halve_weights`` is the numpy line-complementing loop that
``cliffdepth.patterns.halve_weights`` ran before patterns became int
rows, kept unchanged apart from taking and returning dense arrays and an
opt-in count of its passes.  The package's halving must flip the same
rows and columns and leave the same reduced pattern.

``reference_edge_color`` is the first-fit Kempe-chain loop that
``cliffdepth.patterns.bipartite_edge_color`` ran before its per-edge
overhead was removed, kept unchanged: a mask per row and per column, the
lowest clear bit as each end's first free color, and a one-vertex-per-step
walk that toggles between the row and column tables.  The package's
coloring must return the same classes, in the same order.  The only
addition is the opt-in ``path_ends`` counter of where each Kempe path
stops, so a test can check that its patterns drive both kinds of path.

``edge_color_classes`` is the class view of the package's coloring: the
lists of ``(i, j)`` pairs that ``bipartite_edge_color`` returns flattened
into two arrays, read off the same color tables.
"""

import numpy as np

from cliffdepth.gf2 import BitMatrix
from cliffdepth.patterns import _color_table


def reference_halve_weights(
    bits: np.ndarray, passes: list | None = None
) -> tuple[np.ndarray, list[int], list[int]]:
    """The earlier loop: (reduced bits, row flips, column flips).

    passes, if given, gets the number of passes the loop ran appended; the
    last pass is the one that flips nothing.
    """
    k, m = bits.shape
    bits = bits.copy()
    rowflip = np.zeros(k, dtype=np.uint8)
    colflip = np.zeros(m, dtype=np.uint8)
    changed = True
    count = 0
    while changed:
        count += 1
        rows = 2 * bits.sum(axis=1) > m
        bits[rows] ^= 1
        rowflip[rows] ^= 1
        cols = 2 * bits.sum(axis=0) > k
        bits[:, cols] ^= 1
        colflip[cols] ^= 1
        changed = bool(rows.any() or cols.any())
    if passes is not None:
        passes.append(count)
    return (bits, [int(i) for i in np.nonzero(rowflip)[0]],
            [int(j) for j in np.nonzero(colflip)[0]])


def reference_edge_color(
    p: BitMatrix, max_colors: int | None = None, path_ends: dict | None = None
) -> list[list[tuple[int, int]]]:
    """The earlier loop; path_ends, if given, counts paths ending at a row or a column."""
    deg_r = p.to_dense().sum(axis=1).astype(int)
    deg_c = p.to_dense().sum(axis=0).astype(int)
    delta = int(max(deg_r.max(initial=0), deg_c.max(initial=0)))
    if delta == 0:
        return []
    if max_colors is not None and delta > max_colors:
        raise ValueError(f"max degree {delta} exceeds allowed colors {max_colors}")
    at_row = [[-1] * delta for _ in range(p.rows)]  # color -> col
    at_col = [[-1] * delta for _ in range(p.cols)]  # color -> row
    used_row = [0] * p.rows
    used_col = [0] * p.cols

    rows, cols = np.nonzero(p.to_dense())
    for i, j in zip(rows.tolist(), cols.tolist()):
        u = used_row[i]
        fi = ((u + 1) & ~u).bit_length() - 1
        u = used_col[j]
        fj = ((u + 1) & ~u).bit_length() - 1
        if fi != fj and at_col[j][fi] >= 0:
            # swap colors fi/fj along the alternating path from column j;
            # rows on the path are always entered by fi-edges, so row i
            # (where fi is free) is never reached.  The path enters each
            # vertex by one color and leaves by the other, so exchanging
            # the vertex's two entries recolors both of its path edges;
            # only the two end vertices change which colors they use.
            tables, v, want, other = at_col, j, fi, fj
            while True:
                entry = tables[v]
                nxt = entry[want]
                entry[want], entry[other] = entry[other], nxt
                if nxt < 0:
                    break
                tables = at_row if tables is at_col else at_col
                v, want, other = nxt, other, want
            flip = (1 << fi) | (1 << fj)
            used_col[j] ^= flip
            (used_row if tables is at_row else used_col)[v] ^= flip
            if path_ends is not None:
                end = "row" if tables is at_row else "col"
                path_ends[end] = path_ends.get(end, 0) + 1
        at_row[i][fi] = j
        at_col[j][fi] = i
        used_row[i] |= 1 << fi
        used_col[j] |= 1 << fi

    classes: list[list[tuple[int, int]]] = [[] for _ in range(delta)]
    for i, entry in enumerate(at_row):
        for color, j in enumerate(entry):
            if j >= 0:
                classes[color].append((i, j))
    return [cl for cl in classes if cl]


def edge_color_classes(p: BitMatrix) -> list[list[tuple[int, int]]]:
    """The package coloring's classes, color 0 first, each its (i, j) pairs by row."""
    return [[(i, j) for i, j in enumerate(entries) if j >= 0] for entries in zip(*_color_table(p))]
