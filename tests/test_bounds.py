import math

import numpy as np
import pytest

from cliffdepth import bounds


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
    # the Clifford table takes its merge saving from the cached argmin array
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
        d = bounds.construction_depth(fam, 100)
        assert d.shape[0] >= 101
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


def test_basic_cz_table_never_below_full():
    full = bounds.get_table(bounds.CZ)
    basic = bounds.get_table(bounds.CZ_BASIC)
    assert np.all(basic[1:10000] >= full[1:10000])
