"""Reference schedules for the CZ tests (test helper).

``reference_coloring_classes`` is the loop that built the coloring
construction's matchings as lists of pairs before ``cliffdepth.cz``
built them as index arrays, kept unchanged.  ``cz._coloring_columns(n)``
must give the same pairs, in the same order.

``reference_complete_bipartite_rounds`` is the former
``patterns.complete_bipartite_rounds``, kept unchanged;
``cz._bipartite_cz`` must give its pairs, in the same order.
"""


def reference_coloring_classes(n: int) -> list[list[tuple[int, int]]]:
    """Round-robin partition of all pairs on n points into matchings.

    Odd n: class r holds pairs with a+b = r (mod n), giving n classes.
    Even n: point n-1 is a hub paired with r in class r; the remaining
    pairs satisfy a+b = 2r (mod n-1), giving n-1 classes.
    """
    if n < 2:
        return []
    classes: list[list[tuple[int, int]]] = []
    if n % 2:
        for r in range(n):
            cl = []
            for a in range(n):
                b = (r - a) % n
                if a < b:
                    cl.append((a, b))
            classes.append(cl)
    else:
        m = n - 1
        for r in range(m):
            cl = [(r, n - 1)]
            for a in range(m):
                b = (2 * r - a) % m
                if a < b:
                    cl.append((a, b))
            classes.append(cl)
    return classes


def reference_complete_bipartite_rounds(s: int, t: int) -> list[list[tuple[int, int]]]:
    """Edge coloring of K_{s,t} into max(s, t) perfect-as-possible matchings."""
    if s == 0 or t == 0:
        return []
    swap = s > t
    if swap:
        s, t = t, s
    rounds = [[(i, (i + r) % t) for i in range(s)] for r in range(t)]
    if swap:
        rounds = [[(j, i) for (i, j) in rnd] for rnd in rounds]
    return rounds
