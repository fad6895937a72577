"""Depth recursion tables, closed-form bounds, and range validation.

Tables are flat int32 arrays over n = 0..N_MAX = 1,345,000 (no entry
exceeds 2.7M), each filled once per process, bottom-up in runs of
h = ceil(n / 2), with one int ceil(log2 h) per run.  For n >= 4 the
recursions read n only through h (ceil(log2 n) = ceil(log2 h) + 1), so
sizes 2h - 1 and 2h share an entry.  The Clifford merge saving (the
depth of the trees either recursive CZ branch opens with) is
ceil(log2 n) - 2 where a recursive branch beats coloring, which is where
d_CZ[n] < (n - 1) | 1, coloring's depth 2h - 1 (ties go to coloring).
Closed forms are evaluated in double precision with a near-integer guard:
values within 1e-6 of an integer are re-evaluated at 50 digits in decimal
(imported only when the guard fires) before flooring.  The full-range scans
read each floored closed form off its steps: linear * n plus a log part
whose floor rises a few hundred to a few thousand times up to N_MAX, at
the roots of a quadratic in log2 n; only the sizes at a rise can trip the
guard, and the slack is int arithmetic.  The prior-art crossover is a
separate pass over the CNOT construction depth, after a direct search for
the first sizes where the prior internal bound beats 2n.
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
# CZ branches, in the order cz_branches gives their values
BRANCHES = (COLORING, ONESTEP, TWOSTEP)

_RUN = 1 << 14  # values per run of a table fill or scan; its buffers stay in cache
_LN2 = "0.69314718055994530941723212145817656807550013436026"  # ln 2 to 50 digits, for _exact

# family -> its table, filled on first use
_tables: dict[str, np.ndarray] = {}


def ceil_log2(n):
    """Exact ceil(log2 n) of a positive int, or of an int array as int64.

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


def _cz_branch_values(h, d: np.ndarray, c):
    """Coloring, one-step and two-step CZ depths at both sizes 2h - 1 and 2h.

    h >= 2 is an int or int64 array, c = ceil(log2 h), and d is the CZ table
    filled up to h.  A caller that takes two values skips the two-step one.
    """
    yield 2 * h - 1
    half = h >> 1
    yield d[h] + (half + 2 * c)
    q = h - half
    yield d[q] + (half + (q >> 1) + (2 * c + 4))


def _runs():
    """(h, c) for runs of h = ceil(n / 2) covering n = 5..N_MAX, in order.

    A run holds at most _RUN values inside one (2**(c-1), 2**c], so c =
    ceil(log2 h) is one int; it reads sizes up to 2**c and writes sizes
    above, so a bottom-up fill evaluates the whole run at once.
    """
    lo, top = 3, N_MAX // 2
    while lo <= top:
        c = ceil_log2(lo)
        hi = min(top, 1 << c, lo + _RUN - 1)
        yield np.arange(lo, hi + 1, dtype=np.int64), c
        lo = hi + 1


def _store(t: np.ndarray, h: np.ndarray, v: np.ndarray) -> None:
    """Write a run's values v to t at both sizes 2h - 1 and 2h."""
    t[2 * h[0] - 1: 2 * h[-1]: 2] = t[2 * h[0]: 2 * h[-1] + 1: 2] = v


def _base(d3: int) -> np.ndarray:
    """Zeroed table d[0..N_MAX] (N_MAX is even), holding d[2..4] (d[4] = 3 in every family)."""
    d = np.zeros(N_MAX + 1, dtype=np.int32)
    d[2:5] = 1, d3, 3
    return d


def _fill_cz(with_twostep: bool) -> np.ndarray:
    """CZ depth table: the least branch value at each size."""
    d = _base(3)
    for h, c in _runs():
        branches = _cz_branch_values(h, d, c)
        best = np.minimum(next(branches), next(branches))
        if with_twostep:
            np.minimum(best, next(branches), out=best)
        _store(d, h, best)
    return d


def _fill_cnot(first_branch_only: bool) -> np.ndarray:
    d = _base(2)
    for h, c in _runs():
        cost = h if first_branch_only else np.minimum(h, (h >> 1) + 2 * c)
        _store(d, h, d[h] + cost)
    return d


def get_table(family: str) -> np.ndarray:
    """Depth table d[0..N_MAX] for a recursion family, filled on first use."""
    if family not in _tables:
        if family in (CZ, CZ_BASIC):
            _tables[family] = _fill_cz(with_twostep=family == CZ)
        elif family in (CNOT, CNOT_FIRST):
            _tables[family] = _fill_cnot(first_branch_only=family == CNOT_FIRST)
        elif family == CLIFFORD:
            _tables[family] = _clifford_composed()
        else:
            raise ValueError(f"unknown family {family!r}")
    return _tables[family]


def _check_range(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n out of range [1..{N_MAX}]")


def cz_branches(n: int) -> tuple[int, int | None, int | None]:
    """The three Eq-style branch values for the CZ recursion at size n."""
    if n < 2:
        raise ValueError("branches defined for n >= 2")
    _check_range(n)
    h = (n + 1) // 2
    if n < 4:
        return 2 * h - 1, None, None
    return tuple(map(int, _cz_branch_values(h, get_table(CZ), ceil_log2(h))))


def cz_choice(n: int) -> str:
    """The first minimum of cz_branches(n): two-step where the CZ table beats coloring's
    (n - 1) | 1, else coloring (one-step ties the minimum only at n = 31 and 32)."""
    if n < 2:
        raise ValueError("branches defined for n >= 2")
    _check_range(n)
    return TWOSTEP if get_table(CZ)[n] < (n - 1) | 1 else COLORING


def merge_saving(n: int) -> int:
    """Depth saved by folding the top CZ stage's leading trees into -CX-:
    ceil(log2 n) - 2 where a recursive branch beats coloring, else 0."""
    _check_range(n)
    return ceil_log2(n) - 2 if n >= 4 and cz_choice(n) == TWOSTEP else 0


def _clifford_composed() -> np.ndarray:
    """Composed 11-stage depth: 2*cz + (2*cnot + 6) - merge saving."""
    dcz = get_table(CZ)
    out = dcz + get_table(CNOT)
    out *= 2
    out += 6
    for h, c in _runs():
        even = slice(2 * h[0], 2 * h[-1] + 1, 2)  # sizes 2h; 2h - 1 shares every entry
        # a recursive branch beats coloring's 2h - 1 and saves ceil(log2 n) - 2 = c - 1
        _store(out, h, out[even] - (dcz[even] < 2 * h - 1) * (c - 1))
    out[:2] = 0
    return out


def cz_depth_recursion(n: int) -> int:
    _check_range(n)
    return int(get_table(CZ)[n])


def cnot_depth_recursion(n: int) -> int:
    _check_range(n)
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
    lo: int  # the first n of the closed form's range, which runs to N_MAX

    def value(self, n: int) -> int:
        ln = math.log2(n)
        v = self.linear * n + self.log2sq * ln * ln + self.log * ln + self.const
        if abs(v - round(v)) < 1e-6:
            return self._exact(n)
        return math.floor(v)

    def _exact(self, n: int) -> int:
        from decimal import Context, Decimal, localcontext  # loaded only when the guard fires

        with localcontext(Context(prec=50)):
            n = Decimal(int(n) if isinstance(n, np.integer) else n)  # decimal takes no numpy ints
            ln = n.ln() / Decimal(_LN2)
            linear, log2sq, log, const = (Decimal(repr(x)) for x in
                                          (self.linear, self.log2sq, self.log, self.const))
            return math.floor(linear * n + log2sq * ln * ln + log * ln + const)


CZ_BOUND = BoundFormula(0.5, 0.4993, 3.0191, -10.9139, 39)
CZ_BASIC_BOUND = BoundFormula(0.5, 0.9937, 1.1882, -14.6772, 43)
CNOT_EXACT_BOUND = BoundFormula(1.0, 1.9496, 3.5075, -23.4269, 70)
# Stated with constant -29.4269; equals the exact bound minus the depth-6
# qubit-reordering stage.
CNOT_REORDER_BOUND = BoundFormula(1.0, 1.9496, 3.5075, -29.4269, 70)
CLIFFORD_BOUND = BoundFormula(2.0, 2.9487, 8.4909, -44.4798, 43)

FORMULAS = {
    CZ: CZ_BOUND,
    CZ_BASIC: CZ_BASIC_BOUND,
    CNOT: CNOT_EXACT_BOUND,
    CLIFFORD: CLIFFORD_BOUND,
}


def _depth(family: str, a: int, b: int) -> np.ndarray:
    """Construction depth at sizes a..b - 1: the table's slice, for CNOT 2 d + 6 of it."""
    d = get_table(family)[a:b]
    if family == CNOT:
        d = d * 2  # then in place: one int32 copy of the slice
        d += 6
    return d


def construction_depth(family: str) -> np.ndarray:
    """Depth our construction certifies at each n = 0..N_MAX, per family (for CNOT, a copy)."""
    if family not in FORMULAS:
        raise ValueError(f"unknown family {family!r}")
    return _depth(family, 0, N_MAX + 1)


def _cnot_prior_internal(n):
    """The prior CNOT construction's (4n) // 3 + 8 ceil(log2 n), of an int or int array."""
    return (4 * n) // 3 + 8 * ceil_log2(n)


def prior_art_bound(family: str, n: int) -> int:
    """Best previously known depth bound."""
    if n < 2:
        raise ValueError("prior art defined for n >= 2")
    if family == CZ:
        return n - 1 if n % 2 == 0 else n
    if family == CNOT:
        return min(2 * n, _cnot_prior_internal(n))
    if family == CLIFFORD:
        # reconstruction: prior CZ/CNOT bounds applied per the 11-stage
        # layered decomposition (see README); not a published curve
        return 2 * prior_art_bound(CZ, n) + 2 * prior_art_bound(CNOT, n) + 6
    raise ValueError(f"unknown family {family!r}")


@dataclass
class _Tally:
    """Slack of a family's closed form against its construction."""

    last: int  # the last violating size; lo - 1 while there is none
    violations: list = field(default_factory=list)  # the first 100
    count: int = 0
    min_slack: float = math.inf
    max_slack: float = -math.inf
    near: int = 0


def _doubles(n: np.ndarray, linear, log2sq, log, const) -> np.ndarray:
    """BoundFormula.value's double before flooring, at float64 sizes n, in its
    operation order; each coefficient is a float or an array as long as n."""
    ln = np.log2(n)
    return linear * n + log2sq * ln * ln + log * ln + const


def _scale(f: BoundFormula) -> int:
    """s, with floor(v) = (s * linear * n + floor(s * (v - linear * n))) >> (s - 1)."""
    return 2 if f.linear == 0.5 else 1


def _steps(starts: dict[str, int]) -> dict[str, tuple[int, np.ndarray, dict[int, int]]]:
    """Each family's K at its start size, the sizes where K rises, and the
    sizes whose double trips the near-integer guard, with _exact's floor there.

    K(n) = floor(s * (v - linear * n)), with v the double of
    BoundFormula.value and s = _scale(f); every formula has linear in
    {1/2, 1, 2}, so its floor is (s * linear * n + K) >> (s - 1).  Above
    linear * n, v is log2sq * L**2 + log * L + const in L = log2 n, with
    log2sq and log positive, so K never decreases and rises to m at
    ceil(2**L), L the positive root of that quadratic at m / s; a size
    where K rises by j is listed j times.  A guarded double puts
    s * (v - linear * n) within 2e-6 of an integer, and that grows by at
    least 5e-5 per size (CZ at N_MAX), so only a rise, the size before one
    and the two ends can trip the guard; only those are evaluated.
    """
    out = {}
    for fam, lo in starts.items():
        f = FORMULAS[fam]
        s, terms = _scale(f), (f.linear, f.log2sq, f.log, f.const)
        ends = np.array([lo, N_MAX], dtype=np.float64)
        k_lo, k_hi = np.floor(s * (_doubles(ends, *terms) - f.linear * ends)).astype(np.int64).tolist()
        c = f.const - np.arange(k_lo + 1, k_hi + 1) / s
        root = (np.sqrt(f.log * f.log - 4 * f.log2sq * c) - f.log) / (2 * f.log2sq)
        rises = np.ceil(np.exp2(root)).astype(np.int64)
        sizes = np.concatenate(([lo, N_MAX], rises, rises - 1))
        v = _doubles(sizes.astype(np.float64), *terms)
        near = set(sizes[np.abs(np.rint(v) - v) < 1e-6].tolist())  # a rise can also precede one
        out[fam] = k_lo, rises, {n: f._exact(n) for n in near}
    return out


def _cuts(start: int):
    """(a, b) of the runs a..b - 1 covering start..N_MAX, cut at multiples of _RUN."""
    cuts = [start, *range((start // _RUN + 1) * _RUN, N_MAX + 1, _RUN), N_MAX + 1]
    return zip(cuts, cuts[1:])


def _scan(starts: dict[str, int]) -> dict[str, _Tally]:
    """Tally each family's closed-form slack from its start size through N_MAX.

    The floored closed form is read off the steps of _steps in int32, next
    to the int32 construction depth, which _depth reads run by run; the
    guarded sizes _steps finds take BoundFormula._exact.  The sizes are
    walked in runs cut at multiples of _RUN, in int arithmetic.
    """
    tallies = {fam: _Tally(lo - 1) for fam, lo in starts.items()}
    forms = {}
    for fam, (k, rises, exact) in _steps(starts).items():
        tallies[fam].near = len(exact)
        s = _scale(FORMULAS[fam])
        mul = int(s * FORMULAS[fam].linear)
        forms[fam] = k, rises, exact, mul, s - 1, np.arange(_RUN, dtype=np.int32) * mul
    for a, b in _cuts(min(starts.values())):
        for family, lo in starts.items():
            tally, i = tallies[family], max(lo, a)
            if i >= b:
                continue
            k, rises, exact, mul, shift, ramp = forms[family]
            j, top = rises.searchsorted((i, b - 1), "right").tolist()
            ends = np.concatenate(([i], rises[j:top], [b]))
            # s * linear * n + K: K + s * linear * i on each step, plus s * linear * (n - i)
            t = np.repeat(np.arange(k + j, k + top + 1, dtype=np.int32) + mul * i,
                          ends[1:] - ends[:-1])
            t += ramp[: b - i]
            if shift:
                t >>= shift
            depth = _depth(family, i, b)
            t -= depth
            for n, floor in exact.items():
                if i <= n < b:
                    t[n - i] = floor - depth[n - i]
            low = t.min()
            if low < 0:
                bad = np.flatnonzero(t < 0) + i
                tally.violations += bad[: 100 - len(tally.violations)].tolist()
                tally.count += bad.size
                tally.last = int(bad[-1])
            tally.min_slack = min(tally.min_slack, low)
            tally.max_slack = max(tally.max_slack, t.max())
    return tallies


def _validate(families) -> list[dict]:
    tallies = _scan({fam: FORMULAS[fam].lo for fam in families})
    return [{"family": fam, "range": (FORMULAS[fam].lo, N_MAX),
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


def cnot_crossovers() -> dict:
    """Where the CNOT construction depth wins over prior art from on (isolated
    earlier wins exist, e.g. around n = 56..64), read run by run, and where the
    prior internal bound, rounded and asymptotic, first beats 2n."""
    rounded = next(n for n in range(2, N_MAX) if _cnot_prior_internal(n) < 2 * n)
    asymptotic = next(n for n in range(2, N_MAX) if 4.0 * n / 3.0 + 8.0 * math.log2(n) < 2.0 * n)
    last_loss = 1
    for a, b in _cuts(2):
        ours = _depth(CNOT, a, b)
        # both prior bounds are at least (4a) // 3 on the run: a run below that cannot lose
        if ours.max() < 4 * a // 3:
            continue
        m = np.arange(a, b, dtype=np.int32)
        lose = np.flatnonzero(ours >= np.minimum(2 * m, _cnot_prior_internal(m)))
        if lose.size:
            last_loss = a + int(lose[-1])
    return {"cnot_crossover": last_loss + 1, "prior_internal_rounded": rounded,
            "prior_internal_asymptotic": asymptotic}


def crossover_scan() -> dict:
    """Crossover points between our constructions and prior art.

    A family's range start is the first n from which its closed form holds
    through N_MAX.
    """
    out = cnot_crossovers()
    for fam, t in _scan(dict.fromkeys(FORMULAS, 2)).items():
        out[fam.replace("-", "_") + "_range_start"] = t.last + 1
    return out


def emit_comparison_csv(family: str, lo: int, hi: int) -> str:
    """CSV rows (n, prior, closed_form, construction) for a family."""
    if family not in FORMULAS:
        raise ValueError(f"unknown family {family!r}")
    if not 2 <= lo <= hi <= N_MAX:
        raise ValueError(f"range must satisfy 2 <= from <= to <= {N_MAX}, got {lo}..{hi}")
    formula = FORMULAS[family]
    lines = ["n,prior,closed_form,construction"]
    if family == CLIFFORD:
        lines.insert(0, "# prior column reconstructs a baseline from prior CZ/CNOT bounds applied per stage; no directly published prior Clifford depth curve is used")
    for n, depth in zip(range(lo, hi + 1), _depth(family, lo, hi + 1).tolist()):
        prior = prior_art_bound(family if family != CZ_BASIC else CZ, n)
        cf = formula.value(n) if n >= formula.lo else ""
        lines.append(f"{n},{prior},{cf},{depth}")
    return "\n".join(lines) + "\n"
