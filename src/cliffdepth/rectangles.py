"""All-pairs CZ "rectangles" between two disjoint qubit sets.

A rectangle applies phase (-1)^{(x_{a1}+...+x_{ak})(x_{b1}+...+x_{bm})}:
parity trees fold each side into a representative, one CZ couples the
representatives, and the trees are uncomputed.  The final tree layer on
the deeper side is always a single CNOT; rewriting it together with the
central CZ into a short CZ fragment saves one depth unit per side, giving
total depth 2*max(ceil(log2 k), ceil(log2 m)).

``rectangle_pairs`` is a rectangle's one schedule, as qubit pairs, and
``rectangle_gates`` builds the gates of rectangles run side by side.
``rectangle_finish`` replays one rectangle of a given shape through
``asap_finish`` and caches its finish times: a rectangle's schedule
depends on its sets only through their sizes and orders, so the times
of every rectangle of that shape are read off the cache.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import Circuit, asap_finish, cnot_pairs, cz_pairs

Pairs = tuple[list[tuple[int, int]], list[tuple[int, int]]]


def check_qubit_set(*sets: list[int]) -> None:
    """Each set non-empty and free of duplicates, and the sets pairwise disjoint."""
    for s in sets:
        if len(s) == 0:
            raise ValueError("qubit set must be non-empty")
        if len(set(s)) != len(s):
            raise ValueError("qubit set has duplicates")
    if len(set().union(*sets)) != sum(map(len, sets)):
        raise ValueError("qubit sets overlap")


def tree_layers(s: list[int]) -> list[list[tuple[int, int]]]:
    """CNOT layers (control, target) folding s into its last element.

    Layer count is ceil(log2 |s|); survivors of each round are the pair
    targets plus an odd leftover, so the last element of s survives every
    round and ends up holding the full parity.
    """
    layers: list[list[tuple[int, int]]] = []
    cur = list(s)
    while len(cur) > 1:
        layer = [(cur[i], cur[i + 1]) for i in range(0, len(cur) - 1, 2)]
        nxt = [cur[i + 1] for i in range(0, len(cur) - 1, 2)]
        if len(cur) % 2:
            nxt.append(cur[-1])
        layers.append(layer)
        cur = nxt
    return layers


def parity_tree(s: list[int], n: int | None = None) -> tuple[Circuit, int]:
    """CNOT circuit computing the parity of s into a representative qubit."""
    check_qubit_set(s)
    if n is None:
        n = max(s) + 1
    return Circuit(n, cnot_pairs([pair for layer in tree_layers(s) for pair in layer])), s[-1]


def rectangle_pairs(a: list[int], b: list[int]) -> Pairs:
    """The rectangle's tree CNOTs as (control, target) and its middle CZs as qubit pairs.

    The uncompute is the trees reversed.  The sets are not checked.
    """
    if len(a) == 1 and len(b) == 1:
        return [], [(a[0], b[0])]
    la = tree_layers(a)
    lb = tree_layers(b)
    if len(la) == len(lb):
        # equal depths: drop the last single-CNOT layer on both sides and
        # couple the four partial parities directly (depth-2 CZ fragment)
        ua, ra = la[-1][0]
        ub, rb = lb[-1][0]
        trees = [pair for layer in la[:-1] + lb[:-1] for pair in layer]
        return trees, [(ua, rb), (ra, ub), (ua, ub), (ra, rb)]
    if len(la) < len(lb):
        a, b = b, a
        la, lb = lb, la
    # deeper side partial, shallower side full; two CZs replace the
    # deeper side's last CNOT plus the central CZ
    u, r_deep = la[-1][0]
    trees = [pair for layer in la[:-1] + lb for pair in layer]
    return trees, [(u, b[-1]), (r_deep, b[-1])]


def rectangle_gates(rects: list[Pairs]) -> np.ndarray:
    """The gate array of rectangles on disjoint qubit sets, each given as rectangle_pairs.

    The rectangles run side by side, so that ASAP scheduling overlaps
    them: every tree, then every middle, then each tree reversed.
    """
    return np.concatenate([
        cnot_pairs([pair for trees, _ in rects for pair in trees]),
        cz_pairs([pair for _, middle in rects for pair in middle]),
        cnot_pairs([pair for trees, _ in rects for pair in reversed(trees)]),
    ])


@lru_cache(maxsize=1024)
def rectangle_finish(s: int, u: int) -> tuple[int, ...]:
    """The finish times asap_finish gives, from zero, over the gates of the
    rectangle a x b with |a| = s and |b| = u: a's positions, then b's.

    Cached per shape; the blocks of one synthesis bring a few hundred.
    """
    t = [0] * (s + u)
    asap_finish(rectangle_gates([rectangle_pairs(list(range(s)), list(range(s, s + u)))]), t)
    return tuple(t)


def rectangle_parts(a: list[int], b: list[int]) -> np.ndarray:
    """The gate array of the rectangle a x b, after checking both qubit sets."""
    check_qubit_set(a, b)
    return rectangle_gates([rectangle_pairs(a, b)])


def synth_rectangle(a: list[int], b: list[int], n: int | None = None) -> Circuit:
    """Depth-optimized circuit for the all-pairs CZ pattern A x B."""
    gates = rectangle_parts(a, b)
    if n is None:
        n = max(max(a), max(b)) + 1
    return Circuit(n, gates)
