"""All-pairs CZ "rectangles" between two disjoint qubit sets.

A rectangle applies phase (-1)^{(x_{a1}+...+x_{ak})(x_{b1}+...+x_{bm})}:
parity trees fold each side into a representative, one CZ couples the
representatives, and the trees are uncomputed.  The final tree layer on
the deeper side is always a single CNOT; rewriting it together with the
central CZ into a short CZ fragment saves one depth unit per side, giving
total depth 2*max(ceil(log2 k), ceil(log2 m)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, Gate, cnot, cz


def check_qubit_set(s: list[int]) -> None:
    if len(s) == 0:
        raise ValueError("qubit set must be non-empty")
    if len(set(s)) != len(s):
        raise ValueError("qubit set has duplicates")


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
    gates = [cnot(c, t) for layer in tree_layers(s) for (c, t) in layer]
    return Circuit(n, gates), s[-1]


@dataclass
class RectangleParts:
    """A rectangle split into its schedulable stages.

    ``trees`` is a pure-CNOT prefix, ``middle`` is CZ-only, and
    ``uncompute`` undoes ``trees``; concatenating the three is the full
    rectangle.  Callers that run several rectangles in parallel merge the
    stages of each so that ASAP scheduling overlaps them.
    """

    trees: list[Gate] = field(default_factory=list)
    middle: list[Gate] = field(default_factory=list)
    uncompute: list[Gate] = field(default_factory=list)

    def all_gates(self) -> list[Gate]:
        return self.trees + self.middle + self.uncompute


def rectangle_pairs(
    a: list[int], b: list[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
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


def rectangle_parts(a: list[int], b: list[int]) -> RectangleParts:
    check_qubit_set(a)
    check_qubit_set(b)
    if set(a) & set(b):
        raise ValueError("rectangle sets must be disjoint")
    trees, middle = rectangle_pairs(a, b)
    tree_gates = [cnot(c, t) for c, t in trees]
    return RectangleParts(tree_gates, [cz(x, y) for x, y in middle], tree_gates[::-1])


def synth_rectangle(a: list[int], b: list[int], n: int | None = None) -> Circuit:
    """Depth-optimized circuit for the all-pairs CZ pattern A x B."""
    parts = rectangle_parts(a, b)
    if n is None:
        n = max(max(a), max(b)) + 1
    return Circuit(n, parts.all_gates())
