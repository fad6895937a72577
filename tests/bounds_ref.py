"""Reference depth tables and bound scan for the bound tests (test helper).

The fill that ``cliffdepth.bounds`` used before it ran over h = ceil(n / 2):
runs of n inside the blocks (m, 2m], the branch values in n, the argmin by
``np.select`` and the merge saving as two terms.  The code is kept unchanged,
except that ``_clifford_composed`` takes its tables as arguments and the
scalar helpers read ``reference_tables``.  The package's tables must equal
these bit for bit.  The package keeps no argmin: its branch choice and merge
saving must agree with this one, which the tests read as "cz-argmin".

``reference_scan`` is ``cliffdepth.bounds._scan`` as it was before it read
the floors off the closed forms' steps: every formula evaluated in double
precision at every size, in runs of 2**14 sizes that share n and log2 n.
It is kept unchanged, except that it reads the package's names at call
time (so that patches of ``_depth`` and ``_exact`` apply), has no per-run
hook, and reads each family's construction depth over 0..N_MAX through
``_depth`` in one call.  The package's tallies must equal its tallies.
"""

import numpy as np

from cliffdepth import bounds

BRANCHES = ("coloring", "onestep", "twostep")


def ceil_log2(n):
    """Exact ceil(log2 n) of a positive int or int64 array."""
    if isinstance(n, np.ndarray):
        if (n < 1).any():
            raise ValueError("n must be positive")
        return np.frexp(n - 1)[1].astype(np.int64)
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def _cz_branch_values(n, d: np.ndarray):
    """Coloring, one-step and two-step CZ depths at size n.

    n is a positive int or int64 array; d is the CZ table filled up to
    ceil(n / 2).  Below n = 4 only the coloring value is a construction.
    """
    h = (n + 1) // 2
    q = (h + 1) // 2
    coloring = n - 1 + n % 2
    onestep = d[h] + h // 2 + 2 * (ceil_log2(n) - 1)
    twostep = d[q] + h // 2 + q // 2 + 2 * ceil_log2(q) + 6
    return coloring, onestep, twostep


def _blocks(n_max: int):
    """(lo, n) for runs n = lo, lo + 1, ... covering 4..n_max in order.

    Each run holds at most 2**16 sizes and lies inside one block (m, 2m]
    with m = 3, 6, 12, ...; every ceil(n / 2) in it is at most m, so a
    bottom-up fill evaluates the whole run at once.  Short runs keep the
    temporaries of that evaluation small.
    """
    run = 1 << 16
    m = 3
    while m < n_max:
        hi = min(n_max, 2 * m)
        for lo in range(m + 1, hi + 1, run):
            yield lo, np.arange(lo, min(hi + 1, lo + run), dtype=np.int64)
        m = hi


def _fill_cz(n_max: int, with_twostep: bool) -> tuple[np.ndarray, np.ndarray]:
    """CZ depth table and argmin branch per size (coloring below 4)."""
    d = np.zeros(max(n_max, 3) + 1, dtype=np.int64)
    d[2], d[3] = 1, 3
    argmin = np.zeros(len(d), dtype=np.int8)
    for lo, n in _blocks(n_max):
        values = _cz_branch_values(n, d)[: 3 if with_twostep else 2]
        best = np.minimum.reduce(values)
        d[lo: lo + len(n)] = best
        # np.select takes the first match, so ties go to the earlier branch
        argmin[lo: lo + len(n)] = np.select([v == best for v in values], range(len(values)))
    return d[: n_max + 1], argmin[: n_max + 1]


def _fill_cnot(n_max: int, first_branch_only: bool) -> np.ndarray:
    d = np.zeros(max(n_max, 3) + 1, dtype=np.int64)
    d[2], d[3] = 1, 2
    for lo, n in _blocks(n_max):
        h = (n + 1) // 2
        cost = h if first_branch_only else np.minimum(h, h // 2 + 2 * ceil_log2(h))
        d[lo: lo + len(n)] = d[h] + cost
    return d[: n_max + 1]


def _merge_saving(n, argmin):
    """Depth saved by folding the top CZ stage's leading trees into -CX-.

    n is an int or an int64 array, argmin the matching branch indices.
    One-step opens with trees of depth ceil(log2(n/2)) - 1, two-step with
    trees of depth ceil(log2 q) over its quarters.
    """
    q = ((n + 1) // 2 + 1) // 2
    # 1 and 2 index ONESTEP and TWOSTEP in BRANCHES
    return (argmin == 1) * (ceil_log2(n) - 2) + (argmin == 2) * ceil_log2(q)


def _clifford_composed(n_max: int, dcz, dcx, argmin) -> np.ndarray:
    """Composed 11-stage depth: 2*cz + (2*cnot + 6) - merge saving."""
    out = dcz + dcx
    out *= 2
    out += 6
    for lo, n in _blocks(n_max):  # the saving is 0 below 4
        out[lo: lo + len(n)] -= _merge_saving(n, argmin[lo: lo + len(n)])
    out[0] = 0
    if n_max >= 1:
        out[1] = 2 * int(dcz[1]) + 2 * int(dcx[1])
    return out


def reference_tables(n_max: int) -> dict[str, np.ndarray]:
    """The five depth tables d[0..n_max], and the CZ argmin as "cz-argmin"."""
    cz, argmin = _fill_cz(n_max, with_twostep=True)
    cnot = _fill_cnot(n_max, first_branch_only=False)
    return {
        "cz": cz,
        "cz-argmin": argmin,
        "cz-basic": _fill_cz(n_max, with_twostep=False)[0],
        "cnot": cnot,
        "cnot-first-branch": _fill_cnot(n_max, first_branch_only=True),
        "clifford": _clifford_composed(n_max, cz, cnot, argmin),
    }


def reference_cz_branches(n: int, tables) -> tuple[int, int | None, int | None]:
    b1, b2, b3 = _cz_branch_values(n, tables["cz"])
    if n < 4:
        return b1, None, None
    return b1, int(b2), int(b3)


def reference_cz_choice(n: int, tables) -> str:
    return BRANCHES[tables["cz-argmin"][n]]


def reference_merge_saving(n: int, tables) -> int:
    if n < 4:
        return 0
    return int(_merge_saving(n, int(tables["cz-argmin"][n])))


def reference_scan(starts: dict[str, int]) -> dict:
    """Each family's _Tally from its start size through N_MAX, size by size."""
    tallies = {fam: bounds._Tally(lo - 1) for fam, lo in starts.items()}
    depths = {fam: bounds._depth(fam, 0, bounds.N_MAX + 1) for fam in starts}
    run, end = bounds._RUN, bounds.N_MAX + 1
    offsets = np.arange(run, dtype=np.float64)
    n_buf, ln_buf, v_buf, t_buf = (np.empty(run) for _ in range(4))
    flag_buf = np.empty(run, dtype=bool)
    start = min(starts.values())
    cuts = [start, *range((start // run + 1) * run, end, run), end]
    for a, b in zip(cuts, cuts[1:]):
        n = np.add(offsets[: b - a], a, out=n_buf[: b - a])
        ln = np.log2(n, out=ln_buf[: b - a])
        for family, lo in starts.items():
            tally, i, j = tallies[family], max(lo, a) - a, b - a
            if i >= j:
                continue
            f, v, t, flags = bounds.FORMULAS[family], v_buf[: j - i], t_buf[: j - i], flag_buf[: j - i]
            np.multiply(n[i:j], f.linear, out=v)
            np.multiply(ln[i:j], f.log2sq, out=t)
            t *= ln[i:j]
            v += t
            np.multiply(ln[i:j], f.log, out=t)
            v += t
            v += f.const
            np.rint(v, out=t)
            t -= v
            np.abs(t, out=t)
            near = np.flatnonzero(np.less(t, 1e-6, out=flags))
            np.floor(v, out=v)
            for k in near.tolist():
                v[k] = f._exact(a + i + k)
            tally.near += near.size
            np.subtract(v, depths[family][a + i: a + j], out=t)
            low = t.min()
            if low < 0:
                bad = np.flatnonzero(np.less(t, 0, out=flags)) + (a + i)
                tally.violations += bad[: 100 - len(tally.violations)].tolist()
                tally.count += bad.size
                tally.last = int(bad[-1])
            tally.min_slack = min(tally.min_slack, low)
            tally.max_slack = max(tally.max_slack, t.max())
    return tallies
