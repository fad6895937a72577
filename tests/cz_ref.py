"""Reference round-robin for the CZ tests (test helper).

``reference_coloring_classes`` is the loop that built the coloring
construction's matchings as lists of pairs before ``cliffdepth.cz``
built them as index arrays, kept unchanged.  ``cz._coloring_columns(n)``
must give the same pairs, in the same order.
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
