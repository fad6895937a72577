"""Depth recursion tables, closed-form bounds, and range validation.

Tables are filled bottom-up into flat int64 arrays over n = 1..1,345,000.
Closed forms are evaluated in double precision with a near-integer guard:
values within 1e-6 of an integer are re-evaluated in high precision before
flooring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_MAX = 1_345_000

CZ = "cz"
CZ_BASIC = "cz-basic"
CNOT = "cnot"
CNOT_FIRST = "cnot-first-branch"
CLIFFORD = "clifford"

COLORING, ONESTEP, TWOSTEP = "coloring", "onestep", "twostep"
# CZ branches in tie-break order; argmin arrays hold indices into this
BRANCHES = (COLORING, ONESTEP, TWOSTEP)

_tables: dict[str, np.ndarray] = {}
_cz_argmin: dict[str, np.ndarray] = {}  # per CZ family, as long as its table


def ceil_log2(n):
    """Exact ceil(log2 n) of a positive int or int64 array.

    The array form reads the binary exponent of n - 1, which is exact
    while n - 1 < 2**53.
    """
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


def get_table(family: str, n_max: int = N_MAX) -> np.ndarray:
    """Depth table d[0..n_max] for a recursion family (memoized)."""
    cached = _tables.get(family)
    if cached is not None and len(cached) > n_max:
        return cached
    if family in (CZ, CZ_BASIC):
        t, _cz_argmin[family] = _fill_cz(n_max, with_twostep=family == CZ)
    elif family in (CNOT, CNOT_FIRST):
        t = _fill_cnot(n_max, first_branch_only=family == CNOT_FIRST)
    elif family == CLIFFORD:
        t = _clifford_composed(n_max)
    else:
        raise ValueError(f"unknown family {family!r}")
    _tables[family] = t
    return t


def cz_argmin(n_max: int = N_MAX) -> np.ndarray:
    """Index into BRANCHES of the CZ branch chosen at each size 0..n_max."""
    get_table(CZ, n_max)
    return _cz_argmin[CZ]


def cz_branches(n: int) -> tuple[int, int | None, int | None]:
    """The three Eq-style branch values for the CZ recursion at size n."""
    if n < 2:
        raise ValueError("branches defined for n >= 2")
    b1, b2, b3 = _cz_branch_values(n, get_table(CZ, n))
    if n < 4:
        return b1, None, None
    return b1, int(b2), int(b3)


def cz_choice(n: int) -> str:
    """Argmin branch at size n; ties break coloring, then onestep."""
    if n < 2:
        raise ValueError("branches defined for n >= 2")
    return BRANCHES[cz_argmin(n)[n]]


def _merge_saving(n, argmin):
    """Depth saved by folding the top CZ stage's leading trees into -CX-.

    n is an int or an int64 array, argmin the matching branch indices.
    One-step opens with trees of depth ceil(log2(n/2)) - 1, two-step with
    trees of depth ceil(log2 q) over its quarters.
    """
    q = ((n + 1) // 2 + 1) // 2
    # 1 and 2 index ONESTEP and TWOSTEP in BRANCHES
    return (argmin == 1) * (ceil_log2(n) - 2) + (argmin == 2) * ceil_log2(q)


def merge_saving(n: int) -> int:
    """Depth saved by folding the top CZ stage's leading trees into -CX-."""
    if n < 4:
        return 0
    return int(_merge_saving(n, int(cz_argmin(n)[n])))


def _clifford_composed(n_max: int) -> np.ndarray:
    """Composed 11-stage depth: 2*cz + (2*cnot + 6) - merge saving."""
    dcz = get_table(CZ, n_max)[: n_max + 1]
    dcx = get_table(CNOT, n_max)[: n_max + 1]
    argmin = cz_argmin(n_max)
    out = dcz + dcx
    out *= 2
    out += 6
    for lo, n in _blocks(n_max):  # the saving is 0 below 4
        out[lo: lo + len(n)] -= _merge_saving(n, argmin[lo: lo + len(n)])
    out[0] = 0
    if n_max >= 1:
        out[1] = 2 * int(dcz[1]) + 2 * int(dcx[1])
    return out


def cz_depth_recursion(n: int) -> int:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n out of range [1..{N_MAX}]")
    return int(get_table(CZ)[n])


def cnot_depth_recursion(n: int) -> int:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n out of range [1..{N_MAX}]")
    return int(get_table(CNOT)[n])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundFormula:
    """floor(linear*n + log2sq*log2(n)^2 + log*log2(n) + const), base-2 logs."""

    linear: float
    log2sq: float
    log: float
    const: float
    lo: int
    hi: int

    def value(self, n: int) -> int:
        ln = math.log2(n)
        v = self.linear * n + self.log2sq * ln * ln + self.log * ln + self.const
        if abs(v - round(v)) < 1e-6:
            return self._exact(n)
        return math.floor(v)

    def _exact(self, n: int) -> int:
        import mpmath  # loaded only when the near-integer guard fires

        with mpmath.workdps(50):
            ln = mpmath.log(n, 2)
            v = (
                mpmath.mpf(repr(self.linear)) * n
                + mpmath.mpf(repr(self.log2sq)) * ln * ln
                + mpmath.mpf(repr(self.log)) * ln
                + mpmath.mpf(repr(self.const))
            )
            return int(mpmath.floor(v))


CZ_BOUND = BoundFormula(0.5, 0.4993, 3.0191, -10.9139, 39, N_MAX)
CZ_BASIC_BOUND = BoundFormula(0.5, 0.9937, 1.1882, -14.6772, 43, N_MAX)
CNOT_EXACT_BOUND = BoundFormula(1.0, 1.9496, 3.5075, -23.4269, 70, N_MAX)
# Stated with constant -29.4269; equals the exact bound minus the depth-6
# qubit-reordering stage.
CNOT_REORDER_BOUND = BoundFormula(1.0, 1.9496, 3.5075, -29.4269, 70, N_MAX)
CLIFFORD_BOUND = BoundFormula(2.0, 2.9487, 8.4909, -44.4798, 43, N_MAX)

FORMULAS = {
    CZ: CZ_BOUND,
    CZ_BASIC: CZ_BASIC_BOUND,
    CNOT: CNOT_EXACT_BOUND,
    CLIFFORD: CLIFFORD_BOUND,
}


def construction_depth(family: str, n_max: int = N_MAX) -> np.ndarray:
    """Depth our construction certifies at each n, per family."""
    if family == CZ:
        return get_table(CZ, n_max)
    if family == CZ_BASIC:
        return get_table(CZ_BASIC, n_max)
    if family == CNOT:
        return 2 * get_table(CNOT, n_max) + 6
    if family == CLIFFORD:
        return get_table(CLIFFORD, n_max)
    raise ValueError(f"unknown family {family!r}")


def prior_art_bound(family: str, n: int) -> int:
    """Best previously known depth bound."""
    if n < 2:
        raise ValueError("prior art defined for n >= 2")
    if family == CZ:
        return n - 1 if n % 2 == 0 else n
    if family == CNOT:
        return min(2 * n, (4 * n) // 3 + 8 * ceil_log2(n))
    if family == CLIFFORD:
        # reconstruction: prior CZ/CNOT bounds applied per the 11-stage
        # layered decomposition (see README); not a published curve
        return 2 * prior_art_bound(CZ, n) + 2 * prior_art_bound(CNOT, n) + 6
    raise ValueError(f"unknown family {family!r}")


_RUN = 1 << 14  # sizes per closed-form scan run; its float buffers stay in cache


@dataclass
class _Tally:
    """Slack of a family's closed form against its construction."""

    depth: np.ndarray
    last: int  # the last violating size; lo - 1 while there is none
    violations: list = field(default_factory=list)  # the first 100
    count: int = 0
    min_slack: float = math.inf
    max_slack: float = -math.inf
    near: int = 0


def _scan(ranges: dict[str, tuple[int, int]], each_run=None) -> dict[str, _Tally]:
    """Tally each family's closed-form slack over its range lo..hi.

    The sizes are walked in runs cut at multiples of _RUN.  Each run
    computes n and log2(n) once for all families and evaluates every formula
    in place, in the operation order of BoundFormula.value, into buffers
    reused from run to run.  Values within 1e-6 of an integer take
    BoundFormula._exact.  each_run(a, n, ln), if given, sees every run's
    float n and log2(n).
    """
    tallies = {fam: _Tally(construction_depth(fam, hi), lo - 1)
               for fam, (lo, hi) in ranges.items()}
    offsets = np.arange(_RUN, dtype=np.float64)
    n_buf, ln_buf, v_buf, t_buf = (np.empty(_RUN) for _ in range(4))
    flag_buf = np.empty(_RUN, dtype=bool)
    start = min(lo for lo, _ in ranges.values())
    end = max(hi for _, hi in ranges.values()) + 1
    cuts = [start, *range((start // _RUN + 1) * _RUN, end, _RUN), end]
    for a, b in zip(cuts, cuts[1:]):
        n = np.add(offsets[: b - a], a, out=n_buf[: b - a])
        ln = np.log2(n, out=ln_buf[: b - a])
        for family, (lo, hi) in ranges.items():
            tally, i, j = tallies[family], max(lo, a) - a, min(hi + 1, b) - a
            if i >= j:
                continue
            f, v, t, flags = FORMULAS[family], v_buf[: j - i], t_buf[: j - i], flag_buf[: j - i]
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
            np.subtract(v, tally.depth[a + i: a + j], out=t)
            low = t.min()
            if low < 0:
                bad = np.flatnonzero(np.less(t, 0, out=flags)) + (a + i)
                tally.violations += bad[: 100 - len(tally.violations)].tolist()
                tally.count += bad.size
                tally.last = int(bad[-1])
            tally.min_slack = min(tally.min_slack, low)
            tally.max_slack = max(tally.max_slack, t.max())
        if each_run is not None:
            each_run(a, n, ln)
    return tallies


def _validate(families) -> list[dict]:
    tallies = _scan({fam: (FORMULAS[fam].lo, FORMULAS[fam].hi) for fam in families})
    return [{"family": fam, "range": (FORMULAS[fam].lo, FORMULAS[fam].hi),
             "violations": t.violations, "violation_count": t.count,
             "max_slack": int(t.max_slack), "min_slack": int(t.min_slack),
             "near_integer_flags": t.near} for fam, t in tallies.items()]


def validate_closed_form(family: str) -> dict:
    """Check bound >= construction depth over the family's closed-form range."""
    if family not in FORMULAS:
        raise ValueError(f"no closed form for family {family!r}")
    return _validate([family])[0]


def validate_all() -> list[dict]:
    return _validate(FORMULAS)


def _first(a: int, mask: np.ndarray) -> int | None:
    """a plus the index of the first true entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return a + int(hits[0]) if hits.size else None


def crossover_scan() -> dict:
    """Crossover points between our constructions and prior art.

    A family's range start is the first n from which its closed form holds
    through N_MAX.
    """
    d = get_table(CNOT)
    out = {"cnot_crossover": 2, "prior_internal_rounded": None, "prior_internal_asymptotic": None}

    def prior_art(a, n, ln):
        m = np.arange(a, a + len(n), dtype=np.int64)
        internal = (4 * m) // 3 + 8 * ceil_log2(m)
        # crossover = first size from which the improvement is permanent
        # (isolated earlier wins exist, e.g. around n = 56..64)
        lose = np.flatnonzero(2 * d[a: a + len(n)] + 6 >= np.minimum(2 * m, internal))
        if lose.size:
            out["cnot_crossover"] = a + int(lose[-1]) + 1
        if out["prior_internal_rounded"] is None:
            out["prior_internal_rounded"] = _first(a, internal < 2 * m)
        if out["prior_internal_asymptotic"] is None:
            out["prior_internal_asymptotic"] = _first(a, 4.0 * n / 3.0 + 8.0 * ln < 2.0 * n)

    tallies = _scan({fam: (2, N_MAX) for fam in FORMULAS}, prior_art)
    for fam, t in tallies.items():
        out[fam.replace("-", "_") + "_range_start"] = t.last + 1
    return out


def emit_comparison_csv(family: str, lo: int, hi: int) -> str:
    """CSV rows (n, prior, closed_form, construction) for a family."""
    if family not in (CZ, CNOT, CLIFFORD, CZ_BASIC):
        raise ValueError(f"unknown family {family!r}")
    if not 2 <= lo <= hi <= N_MAX:
        raise ValueError(f"range must satisfy 2 <= from <= to <= {N_MAX}, got {lo}..{hi}")
    formula = FORMULAS[family]
    depth = construction_depth(family, max(hi, formula.lo))
    lines = ["n,prior,closed_form,construction"]
    if family == CLIFFORD:
        lines.insert(0, "# prior column reconstructs a baseline from prior CZ/CNOT bounds applied per stage; no directly published prior Clifford depth curve is used")
    for n in range(lo, hi + 1):
        prior = prior_art_bound(family if family != CZ_BASIC else CZ, n)
        cf = formula.value(n) if formula.lo <= n <= formula.hi else ""
        lines.append(f"{n},{prior},{cf},{int(depth[n])}")
    return "\n".join(lines) + "\n"
