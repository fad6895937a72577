import decimal
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cliffdepth
from cliffdepth import bounds, cli

from bounds_ref import (reference_cz_branches, reference_cz_choice, reference_merge_saving,
                        reference_scan, reference_tables)


def test_ceil_log2():
    assert bounds.ceil_log2(1) == 0
    for n in range(2, 2000):
        assert bounds.ceil_log2(n) == math.ceil(math.log2(n))
    with pytest.raises(ValueError):
        bounds.ceil_log2(0)
    # the array form agrees with the int form on 1..5000 and around every
    # power of two up to N_MAX
    n = np.arange(1, 5001, dtype=np.int64)
    edges = [v for k in range(1, bounds.N_MAX.bit_length())
             for v in (2 ** k - 1, 2 ** k, 2 ** k + 1) if 2 ** k <= bounds.N_MAX]
    for arr in (n, np.array(edges, dtype=np.int64)):
        got = bounds.ceil_log2(arr)
        assert got.dtype == np.int64
        assert got.tolist() == [bounds.ceil_log2(int(v)) for v in arr]
    with pytest.raises(ValueError):
        bounds.ceil_log2(np.array([4, 0], dtype=np.int64))


@pytest.mark.parametrize(
    "n, depth",
    [(1, 0), (2, 1), (3, 3), (4, 3), (5, 5), (10, 9), (20, 19), (39, 38), (70, 59)],
)
def test_cz_table_values(n, depth):
    assert bounds.cz_depth_recursion(n) == depth


@pytest.mark.parametrize("n, depth", [(2, 1), (3, 2), (4, 3), (70, 66)])
def test_cnot_table_values(n, depth):
    assert bounds.cnot_depth_recursion(n) == depth


def test_table_range_checks():
    with pytest.raises(ValueError):
        bounds.cz_depth_recursion(0)
    with pytest.raises(ValueError):
        bounds.cnot_depth_recursion(bounds.N_MAX + 1)


def test_cz_table_is_branch_minimum():
    d = bounds.get_table(bounds.CZ)
    for n in range(4, 3000):
        b1, b2, b3 = bounds.cz_branches(n)
        assert d[n] == min(b1, b2, b3)


def test_cnot_recursion_identity():
    d = bounds.get_table(bounds.CNOT)
    for n in range(4, 3000):
        h = (n + 1) // 2
        assert d[n] == d[h] + min(h, h // 2 + 2 * bounds.ceil_log2(h))


def test_cz_choice_matches_branches():
    for n in range(2, 500):
        choice = bounds.cz_choice(n)
        b1, b2, b3 = bounds.cz_branches(n)
        best = min(v for v in (b1, b2, b3) if v is not None)
        got = {bounds.COLORING: b1, bounds.ONESTEP: b2, bounds.TWOSTEP: b3}[choice]
        assert got == best


def test_merge_saving_formula():
    for n in range(2, 2000):
        s = bounds.merge_saving(n)
        choice = bounds.cz_choice(n)
        if n < 4 or choice == bounds.COLORING:
            assert s == 0
        elif choice == bounds.ONESTEP:
            assert s == max(0, bounds.ceil_log2(n) - 2)
        else:
            assert s == bounds.ceil_log2(((n + 1) // 2 + 1) // 2)


def test_merge_saving_arr_agrees_with_scalar():
    # the Clifford table tests a run of CZ table entries against coloring's
    # 2h - 1, merge_saving one entry against (n - 1) | 1
    dcz = bounds.get_table(bounds.CZ)
    dcx = bounds.get_table(bounds.CNOT)
    dcl = bounds.get_table(bounds.CLIFFORD)
    for n in range(2, 5000, 37):
        assert dcl[n] == 2 * dcz[n] + 2 * dcx[n] + 6 - bounds.merge_saving(n)


def test_clifford_table_composition():
    dcz = bounds.get_table(bounds.CZ)
    dcx = bounds.get_table(bounds.CNOT)
    dcl = bounds.get_table(bounds.CLIFFORD)
    for n in (2, 5, 17, 43, 100, 999):
        expect = 2 * int(dcz[n]) + 2 * int(dcx[n]) + 6 - bounds.merge_saving(n)
        assert dcl[n] == expect


def test_closed_form_known_points():
    # frozen spot checks of the floored formulas
    assert bounds.CNOT_EXACT_BOUND.value(70) == bounds.CNOT_REORDER_BOUND.value(70) + 6
    assert bounds.CZ_BOUND.value(39) >= bounds.cz_depth_recursion(39)
    assert bounds.CLIFFORD_BOUND.value(43) >= int(bounds.get_table(bounds.CLIFFORD)[43])


def test_prior_art_values():
    assert bounds.prior_art_bound(bounds.CNOT, 64) == 128
    assert bounds.prior_art_bound(bounds.CNOT, 1024) == 1445
    assert bounds.prior_art_bound(bounds.CZ, 10) == 9
    assert bounds.prior_art_bound(bounds.CZ, 11) == 11
    with pytest.raises(ValueError):
        bounds.prior_art_bound(bounds.CZ, 1)
    with pytest.raises(ValueError):
        bounds.prior_art_bound("nope", 5)


def test_construction_depth_families():
    for fam in (bounds.CZ, bounds.CZ_BASIC, bounds.CNOT, bounds.CLIFFORD):
        assert bounds.construction_depth(fam).shape == (bounds.N_MAX + 1,)
    with pytest.raises(ValueError):
        bounds.construction_depth("nope")


def test_emit_comparison_csv():
    out = bounds.emit_comparison_csv(bounds.CNOT, 64, 70)
    lines = out.strip().splitlines()
    assert lines[0] == "n,prior,closed_form,construction"
    row70 = lines[-1].split(",")
    assert row70[0] == "70"
    assert int(row70[1]) == 140
    assert int(row70[3]) == 2 * 66 + 6
    cliff = bounds.emit_comparison_csv(bounds.CLIFFORD, 43, 45)
    assert cliff.splitlines()[0].startswith("#")
    with pytest.raises(ValueError):
        bounds.emit_comparison_csv("nope", 2, 3)


TABLE_FAMILIES = (bounds.CZ, bounds.CZ_BASIC, bounds.CNOT, bounds.CNOT_FIRST, bounds.CLIFFORD)


def test_tables_match_reference_fill():
    want = reference_tables(bounds.N_MAX)
    argmin = want.pop("cz-argmin")
    assert want.keys() == set(TABLE_FAMILIES)
    for family in TABLE_FAMILIES:
        table = bounds.get_table(family)
        assert table.dtype == np.int32, family  # no entry exceeds 2.7M
        assert np.array_equal(table, want[family]), family
    # for n >= 4 a recursive branch wins exactly where the table is below coloring's (n - 1) | 1
    n = np.arange(4, bounds.N_MAX + 1)
    assert np.array_equal(bounds.get_table(bounds.CZ)[4:] < (n - 1) | 1, argmin[4:] != 0)


def test_each_table_is_filled_once(monkeypatch):
    """Every table is filled over the whole range on first use, and only then."""
    monkeypatch.setattr(bounds, "_tables", {})
    fills = []
    for name in ("_fill_cz", "_fill_cnot", "_clifford_composed"):
        fill = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, fill=fill, **k: fills.append(fill) or fill(*a, **k))
    bounds.cz_choice(5)
    bounds.cz_choice(600)
    bounds.get_table(bounds.CZ)
    bounds.construction_depth(bounds.CZ)
    assert len(fills) == 1
    for _ in range(2):
        for family in reversed(TABLE_FAMILIES):
            assert len(bounds.get_table(family)) == bounds.N_MAX + 1
    assert len(fills) == len(TABLE_FAMILIES)


def test_scalar_helpers_match_reference():
    want = reference_tables(5000)
    for n in range(2, 5001):
        assert bounds.cz_branches(n) == reference_cz_branches(n, want)
        assert bounds.merge_saving(n) == reference_merge_saving(n, want)
        assert bounds.cz_choice(n) == reference_cz_choice(n, want)


def test_tables_agree_at_both_sizes_of_each_half():
    """For h >= 3, sizes 2h - 1 and 2h share every table entry."""
    for table in map(bounds.get_table, TABLE_FAMILIES):
        odd, even = table[5::2], table[6::2]
        assert np.array_equal(odd[: len(even)], even)


def test_merge_saving_is_one_term():
    """For n >= 4 the saving is ceil(log2 n) - 2 under either recursive branch."""
    n = np.arange(4, bounds.N_MAX + 1, dtype=np.int64)
    argmin = reference_tables(bounds.N_MAX)["cz-argmin"]
    saving = (argmin[4:] != 0) * (bounds.ceil_log2(n) - 2)
    dcz, dcx = bounds.get_table(bounds.CZ)[4:], bounds.get_table(bounds.CNOT)[4:]
    assert np.array_equal(bounds.get_table(bounds.CLIFFORD)[4:], 2 * dcz + 2 * dcx + 6 - saving)
    sampled = np.random.default_rng(26).integers(3000, bounds.N_MAX + 1, 500).tolist()
    for k in [*range(4, 3000), *sampled]:
        choice = bounds.cz_choice(k)
        assert choice == bounds.BRANCHES[argmin[k]]
        expect = (choice != bounds.COLORING) * (bounds.ceil_log2(k) - 2)
        assert bounds.merge_saving(k) == expect == saving[k - 4]


def test_basic_cz_table_never_below_full():
    full = bounds.get_table(bounds.CZ)
    basic = bounds.get_table(bounds.CZ_BASIC)
    assert np.all(basic[1:10000] >= full[1:10000])


# -- full-range scans --------------------------------------------------------

# the complete outputs of validate_all() and crossover_scan()
GOLDEN_REPORTS = [
    {"family": "cz", "range": (39, 1345000), "violations": [], "violation_count": 0,
     "max_slack": 18, "min_slack": 0, "near_integer_flags": 2},
    {"family": "cz-basic", "range": (43, 1345000), "violations": [], "violation_count": 0,
     "max_slack": 31, "min_slack": 0, "near_integer_flags": 1},
    {"family": "cnot", "range": (70, 1345000), "violations": [], "violation_count": 0,
     "max_slack": 70, "min_slack": 0, "near_integer_flags": 3},
    {"family": "clifford", "range": (43, 1345000), "violations": [], "violation_count": 0,
     "max_slack": 104, "min_slack": 0, "near_integer_flags": 1},
]
GOLDEN_SCAN = {
    "cnot_crossover": 70,
    "prior_internal_rounded": 85,
    "prior_internal_asymptotic": 75,
    "cz_range_start": 38,
    "cz_basic_range_start": 42,
    "cnot_range_start": 66,
    "clifford_range_start": 39,
}
# sizes in 2..N_MAX where the double-precision value lies within 1e-6 of an
# integer, with the floor the high-precision re-evaluation gives there
NEAR_INTEGER = {
    bounds.CZ: {768944: 384710, 1124099: 562301},
    bounds.CZ_BASIC: {646625: 323691},
    bounds.CNOT: {33566: 34035, 210003: 210650, 933892: 934705},
    bounds.CLIFFORD: {628294: 1257801},
}
RANGE_KEYS = {bounds.CZ: "cz_range_start", bounds.CZ_BASIC: "cz_basic_range_start",
              bounds.CNOT: "cnot_range_start", bounds.CLIFFORD: "clifford_range_start"}


def test_validate_all_golden():
    assert bounds.validate_all() == GOLDEN_REPORTS
    for rep in GOLDEN_REPORTS:
        assert bounds.validate_closed_form(rep["family"]) == rep


def test_crossover_scan_golden():
    assert bounds.crossover_scan() == GOLDEN_SCAN


def test_near_integer_sizes_take_the_exact_value(monkeypatch):
    for family, points in NEAR_INTEGER.items():
        formula = bounds.FORMULAS[family]
        for n, floor in points.items():
            assert formula._exact(n) == floor
            assert formula.value(n) == floor
    # an _exact that answers -1 turns exactly the guarded sizes into
    # violations, in both scans
    family_of = {id(formula): family for family, formula in bounds.FORMULAS.items()}
    calls = []

    def exact(self, n):
        calls.append((family_of[id(self)], n))
        return -1

    monkeypatch.setattr(bounds.BoundFormula, "_exact", exact)
    for rep in bounds.validate_all():
        sizes = sorted(NEAR_INTEGER[rep["family"]])
        assert rep["violations"] == sizes
        assert rep["violation_count"] == rep["near_integer_flags"] == len(sizes)
        assert rep["min_slack"] < 0
    assert sorted(calls) == sorted((fam, n) for fam, pts in NEAR_INTEGER.items() for n in pts)
    scan = bounds.crossover_scan()
    for family, key in RANGE_KEYS.items():
        assert scan[key] == max(NEAR_INTEGER[family]) + 1


def test_value_takes_numpy_ints_at_the_guarded_sizes():
    for family, points in NEAR_INTEGER.items():
        formula = bounds.FORMULAS[family]
        for n, floor in points.items():
            assert formula.value(np.int64(n)) == formula.value(np.int32(n)) == formula.value(n) == floor


@pytest.mark.parametrize("start", ["lo", 2])
def test_steps_match_k_at_every_size(start):
    """_steps gives K at the start size, each size where K rises once per unit
    of the rise, and _exact's floor at exactly the sizes whose double lies
    within 1e-6 of an integer, against K and the double at every size."""
    starts = {fam: f.lo if start == "lo" else 2 for fam, f in bounds.FORMULAS.items()}
    for family, (k, rises, exact) in bounds._steps(starts).items():
        f = bounds.FORMULAS[family]
        sizes = np.arange(starts[family], bounds.N_MAX + 1)
        n = sizes.astype(np.float64)
        v = bounds._doubles(n, f.linear, f.log2sq, f.log, f.const)
        K = np.floor(bounds._scale(f) * (v - f.linear * n)).astype(np.int64)
        assert k == K[0], family
        np.testing.assert_array_equal(rises, np.repeat(sizes[1:], np.diff(K)), err_msg=family)
        assert sorted(exact) == sizes[np.abs(np.rint(v) - v) < 1e-6].tolist(), family
        assert exact == {m: fl for m, fl in NEAR_INTEGER[family].items() if m >= starts[family]}


RUN = 1 << 14  # the scans cut their runs at multiples of this
BIG = 1000  # larger than any slack
BUMPS = {
    bounds.CZ: [39, RUN - 1, RUN, bounds.N_MAX],
    bounds.CZ_BASIC: [10, 43, *range(300_000, 300_150), 5 * RUN - 1, 5 * RUN],
    bounds.CNOT: [70, *range(4 * RUN - 60, 4 * RUN + 90)],
    bounds.CLIFFORD: [43, 44, (1 << 20) - 1, 1 << 20],
}


def _bump_depths(monkeypatch):
    """Raise the construction depth the scans read by BIG + n % 7 at the BUMPS
    sizes; return the unbumped depth over 0..N_MAX."""
    orig = bounds._depth

    def bumped(family, a, b):
        d = orig(family, a, b).copy()
        sizes = np.array(BUMPS[family], dtype=np.int64)
        sizes = sizes[(a <= sizes) & (sizes < b)]
        d[sizes - a] += BIG + sizes % 7
        return d

    monkeypatch.setattr(bounds, "_depth", bumped)
    return lambda family: orig(family, 0, bounds.N_MAX + 1)


def test_scans_report_violations_like_a_scalar_reference(monkeypatch):
    orig = _bump_depths(monkeypatch)
    expect = []
    for golden in GOLDEN_REPORTS:
        family = golden["family"]
        formula = bounds.FORMULAS[family]
        depth = orig(family)
        slack = {n: formula.value(n) - int(depth[n]) - BIG - n % 7
                 for n in BUMPS[family] if n >= formula.lo}
        bad = sorted(n for n, s in slack.items() if s < 0)
        assert len(bad) == len(slack)
        expect.append({**golden, "violations": bad[:100], "violation_count": len(bad),
                       "min_slack": min(slack.values())})
    reports = bounds.validate_all()
    assert reports == expect
    assert [bounds.validate_closed_form(r["family"]) for r in expect] == expect
    assert sum(len(r["violations"]) == 100 for r in reports) == 2

    starts = {key: max(BUMPS[family]) + 1 for family, key in RANGE_KEYS.items()}
    # the crossover reads the same construction depth: bumped at n = 70, the
    # construction loses to prior art there, and wins again from 71 on
    assert bounds.crossover_scan() == {**GOLDEN_SCAN, **starts, "cnot_crossover": 71}


TALLY_FIELDS = ("violations", "count", "last", "min_slack", "max_slack", "near")


@pytest.mark.parametrize("condition", ["plain", "exact -1", "bumped", "bumped, exact -1"])
def test_scan_matches_reference_scan(monkeypatch, condition):
    """The step scan tallies as the per-size double scan does, from each
    formula's start and from 2, with the guard's sizes answering -1 and with
    depths bumped across run edges."""
    if "bumped" in condition:
        _bump_depths(monkeypatch)
    if "exact" in condition:
        monkeypatch.setattr(bounds.BoundFormula, "_exact", lambda self, n: -1)
    for starts in ({fam: f.lo for fam, f in bounds.FORMULAS.items()},
                   dict.fromkeys(bounds.FORMULAS, 2)):
        got, want = bounds._scan(starts), reference_scan(starts)
        assert got.keys() == want.keys()
        for fam in starts:
            for name in TALLY_FIELDS:
                assert getattr(got[fam], name) == getattr(want[fam], name), (fam, starts[fam], name)


def test_floor_steps_are_far_apart():
    """_steps guards only rises of K, the sizes before them and the two ends.  That needs
    linear in {1/2, 1, 2} and positive log terms (K never decreases), and
    s * (v - linear * n) to grow by more than the guard's 2e-6 at every
    size; the least growth is at N_MAX."""
    n = np.arange(2, bounds.N_MAX + 1, dtype=np.float64)
    ln = np.log2(n)
    for family, f in bounds.FORMULAS.items():
        assert f.linear in (0.5, 1.0, 2.0) and f.log2sq > 0 and f.log > 0, family
        grow = np.diff(bounds._scale(f) * (f.log2sq * ln * ln + f.log * ln))
        assert grow.argmin() == len(grow) - 1
        assert grow[-1] > 4e-5, family


def test_scans_stay_small():
    """On filled tables, neither full-range call holds more than 8 MiB at once."""
    bounds.validate_all()
    bounds.crossover_scan()  # fills the tables and loads decimal
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for call in (bounds.validate_all, bounds.crossover_scan):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            assert tracemalloc.get_traced_memory()[1] - held < 8 * 2 ** 20, call.__name__
    finally:
        if started:
            tracemalloc.stop()


def test_scans_read_the_tables_in_place(monkeypatch, capsys):
    """validate_all(), crossover_scan() and `cliffdepth bounds --validate` never
    build a full-range construction depth, and on filled tables each scan holds
    under 2 MiB at once (a full-range int32 copy is 5.1 MiB)."""
    bounds.validate_all()
    bounds.crossover_scan()  # fills the tables and loads decimal

    def refuse(family):
        raise AssertionError(f"full-range construction_depth({family!r}) built")

    monkeypatch.setattr(bounds, "construction_depth", refuse)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for call, golden in ((bounds.validate_all, GOLDEN_REPORTS),
                             (bounds.crossover_scan, GOLDEN_SCAN)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert call() == golden
            assert tracemalloc.get_traced_memory()[1] - held < 2 * 2 ** 20, call.__name__
    finally:
        if started:
            tracemalloc.stop()
    assert cli.main(["bounds", "--validate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cz: range 39..1345000 ok (min slack 0, near-integer 2)",
        "cz-basic: range 43..1345000 ok (min slack 0, near-integer 1)",
        "cnot: range 70..1345000 ok (min slack 0, near-integer 3)",
        "clifford: range 43..1345000 ok (min slack 0, near-integer 1)",
        "cnot crossover vs prior art: n=70",
    ]


def test_construction_depth_is_the_table():
    """CNOT certifies 2 d + 6 (its reordering stage adds 6); every other family
    certifies its table, which construction_depth returns without a copy."""
    cnot = bounds.get_table(bounds.CNOT)
    assert np.array_equal(bounds.construction_depth(bounds.CNOT), 2 * cnot + 6)
    for family in (bounds.CZ, bounds.CZ_BASIC, bounds.CLIFFORD):
        depth, table = bounds.construction_depth(family), bounds.get_table(family)
        assert np.shares_memory(depth, table) and np.array_equal(depth, table), family


@pytest.mark.parametrize("size", [5 * RUN, 5 * RUN + 1, 1_000_003, bounds.N_MAX])
def test_crossover_finds_a_late_loss(monkeypatch, size):
    """A construction depth equal to prior art at one large size is a loss
    there, and one below it is not, wherever the size sits in its run."""
    orig = bounds._depth
    prior = bounds.prior_art_bound(bounds.CNOT, size)
    for depth, crossover in ((prior, size + 1), (prior - 1, GOLDEN_SCAN["cnot_crossover"])):
        def raised(family, a, b, depth=depth):
            d = orig(family, a, b).copy()
            if family == bounds.CNOT and a <= size < b:
                d[size - a] = depth
            return d

        monkeypatch.setattr(bounds, "_depth", raised)
        assert bounds.crossover_scan()["cnot_crossover"] == crossover


def test_validate_closed_form_rejects_unknown_family():
    for family in (bounds.CNOT_FIRST, "nope"):
        with pytest.raises(ValueError, match=repr(family)):
            bounds.validate_closed_form(family)


def test_exact_loads_decimal_only_when_the_guard_fires():
    """Importing the package, filling every table and running both scans never
    load mpmath; decimal is loaded by the first _exact call, not before it."""
    code = (
        "import sys\n"
        "import cliffdepth\n"
        "from cliffdepth import bounds\n"
        "for family in ('cz', 'cz-basic', 'cnot', 'cnot-first-branch', 'clifford'):\n"
        "    bounds.get_table(family)\n"
        "assert 'decimal' not in sys.modules\n"
        "exact, calls = bounds.BoundFormula._exact, []\n"
        "def guarded(self, n):\n"
        "    calls.append('decimal' in sys.modules)\n"
        "    return exact(self, n)\n"
        "bounds.BoundFormula._exact = guarded\n"
        "bounds.validate_all()\n"
        "bounds.crossover_scan()\n"
        "assert calls[0] is False and all(calls[1:]) and len(calls) == 14, calls\n"
        "assert bounds.CZ_BOUND._exact(768944) == 384710\n"
        "assert 'decimal' in sys.modules and 'mpmath' not in sys.modules\n"
    )
    src = str(Path(cliffdepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_is_the_floor_away_from_integers():
    """Where the double lies at least 1e-3 from an integer, _exact's 50-digit
    floor is the double's; its ln 2 is decimal's own to 50 digits."""
    with decimal.localcontext(decimal.Context(prec=50)):
        assert decimal.Decimal(bounds._LN2) == decimal.Decimal(2).ln()
    rng = np.random.default_rng(39)
    for family, f in bounds.FORMULAS.items():
        n = rng.integers(f.lo, bounds.N_MAX + 1, 2500)
        v = bounds._doubles(n.astype(np.float64), f.linear, f.log2sq, f.log, f.const)
        far = np.abs(v - np.rint(v)) >= 1e-3
        assert far.sum() >= 2000, family
        for size, double in list(zip(n[far].tolist(), v[far].tolist()))[:2000]:
            assert f._exact(size) == math.floor(double), (family, size)


@pytest.mark.parametrize("call, message", [
    (lambda: bounds.get_table("bogus"), "unknown family 'bogus'"),
    (lambda: bounds.cz_branches(1), "branches defined for n >= 2"),
    (lambda: bounds.cz_choice(1), "branches defined for n >= 2"),
    *((lambda f=f: f(bounds.N_MAX + 1), f"n out of range [1..{bounds.N_MAX}]")
      for f in (bounds.cz_branches, bounds.cz_choice, bounds.merge_saving)),
    *((lambda n=n: bounds.merge_saving(n), f"n out of range [1..{bounds.N_MAX}]") for n in (0, -3)),
])
def test_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
