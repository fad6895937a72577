"""Exact minimum two-qubit depth of small CZ patterns and CNOT maps (test helper).

A breadth-first search over layers of disjoint gates, from the identity: a
state's depth is the fewest layers whose product reaches it.  A CZ layer is
a matching of CZ gates, each toggling one pair of a pattern; every CZ
commutes with every other, so a pattern's depth is the least number of
matchings that cover its pairs.  A CNOT layer is a matching of CNOT(c, t)
gates, each mapping x_t -> x_t + x_c, so the map x -> R x of the circuit so
far takes row c of R into row t; the search reaches all of GL(n, 2).

It shares no code with the package: patterns are sets of pairs (i, j) with
i < j, and matrices are tuples of n row ints, bit j of row i holding R[i, j].
"""

from itertools import combinations, permutations


def _matchings(gates):
    """Every nonempty set of gates (a, b) that touch pairwise disjoint qubits."""
    out = []

    def extend(start, used, chosen):
        for k in range(start, len(gates)):
            a, b = gates[k]
            if used >> a & 1 or used >> b & 1:
                continue
            layer = chosen + [gates[k]]
            out.append(layer)
            extend(k + 1, used | 1 << a | 1 << b, layer)

    extend(0, 0, [])
    return out


def _bfs(start, layers, step):
    """Depth of every state reachable from start, one layer per step."""
    depth = {start: 0}
    frontier = [start]
    while frontier:
        reached = []
        for state in frontier:
            d = depth[state] + 1
            for layer in layers:
                nxt = step(state, layer)
                if nxt not in depth:
                    depth[nxt] = d
                    reached.append(nxt)
        frontier = reached
    return depth


def cz_optimum(n: int) -> dict[frozenset, int]:
    """Least CZ-layer depth of every CZ pattern on n qubits, keyed by its set of pairs."""
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    masks = [sum(bit[p] for p in layer) for layer in _matchings(pairs)]
    depth = _bfs(0, masks, lambda state, mask: state ^ mask)
    return {frozenset(p for p in pairs if mask & bit[p]): d for mask, d in depth.items()}


def cnot_optimum(n: int) -> dict[tuple[int, ...], int]:
    """Least CNOT-layer depth of every invertible n x n matrix, keyed by its rows."""

    def step(rows, layer):
        out = list(rows)
        for c, t in layer:
            out[t] ^= rows[c]
        return tuple(out)

    identity = tuple(1 << i for i in range(n))
    return _bfs(identity, _matchings(list(permutations(range(n), 2))), step)
