"""Depth recursion tables, closed-form bounds, and range validation.

Tables are filled bottom-up into flat int64 arrays over n = 1..1,345,000.
Closed forms are evaluated in double precision with a near-integer guard:
values within 1e-6 of an integer are re-evaluated in high precision before
flooring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
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
        with mpmath.workdps(50):
            ln = mpmath.log(n, 2)
            v = (
                mpmath.mpf(repr(self.linear)) * n
                + mpmath.mpf(repr(self.log2sq)) * ln * ln
                + mpmath.mpf(repr(self.log)) * ln
                + mpmath.mpf(repr(self.const))
            )
            return int(mpmath.floor(v))

    def values(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Floored values and near-integer flags over an integer array."""
        ln = np.log2(n.astype(np.float64))
        v = self.linear * n + self.log2sq * ln * ln + self.log * ln + self.const
        flags = np.abs(v - np.round(v)) < 1e-6
        out = np.floor(v).astype(np.int64)
        for idx in np.nonzero(flags)[0]:
            out[idx] = self._exact(int(n[idx]))
        return out, flags


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


def validate_closed_form(family: str) -> dict:
    """Check bound >= construction depth over the family's closed-form range."""
    formula = FORMULAS[family]
    depth = construction_depth(family, formula.hi)
    n = np.arange(formula.lo, formula.hi + 1, dtype=np.int64)
    vals, flags = formula.values(n)
    slack = vals - depth[formula.lo: formula.hi + 1]
    bad = np.nonzero(slack < 0)[0]
    return {
        "family": family,
        "range": (formula.lo, formula.hi),
        "violations": [int(n[i]) for i in bad[:100]],
        "violation_count": int(bad.size),
        "max_slack": int(slack.max()),
        "min_slack": int(slack.min()),
        "near_integer_flags": int(flags.sum()),
    }


def validate_all() -> list[dict]:
    return [validate_closed_form(fam) for fam in (CZ, CZ_BASIC, CNOT, CLIFFORD)]


def _range_start(family: str) -> int:
    """First n from which the closed form holds through N_MAX."""
    formula = FORMULAS[family]
    depth = construction_depth(family)
    n = np.arange(2, N_MAX + 1, dtype=np.int64)
    vals, _ = formula.values(n)
    ok = vals >= depth[2:]
    bad = np.nonzero(~ok)[0]
    if bad.size == 0:
        return 2
    return int(n[bad[-1]]) + 1


def crossover_scan() -> dict:
    """Crossover points between our constructions and prior art."""
    d = get_table(CNOT)
    n = np.arange(2, N_MAX + 1, dtype=np.int64)
    clv = ceil_log2(n)
    prior = np.minimum(2 * n, (4 * n) // 3 + 8 * clv)
    ours = 2 * d[2:] + 6
    # crossover = first size from which the improvement is permanent
    # (isolated earlier wins exist, e.g. around n = 56..64)
    lose = np.nonzero(ours >= prior)[0]
    cnot_crossover = int(n[lose[-1]]) + 1 if lose.size else int(n[0])

    rounded = np.nonzero((4 * n) // 3 + 8 * clv < 2 * n)[0]
    asym = np.nonzero(4.0 * n / 3.0 + 8.0 * np.log2(n.astype(np.float64)) < 2.0 * n)[0]
    return {
        "cnot_crossover": cnot_crossover,
        "prior_internal_rounded": int(n[rounded[0]]) if rounded.size else None,
        "prior_internal_asymptotic": int(n[asym[0]]) if asym.size else None,
        "cz_range_start": _range_start(CZ),
        "cz_basic_range_start": _range_start(CZ_BASIC),
        "cnot_range_start": _range_start(CNOT),
        "clifford_range_start": _range_start(CLIFFORD),
    }


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
