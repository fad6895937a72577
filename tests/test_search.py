"""Seeded local search for deep inputs, held to the recursion tables.

Random inputs sit well below the tables, which are worst-case bounds.
Each search starts from a random CZ pattern, upper unitriangular matrix
or invertible matrix and makes single-pair flips (on an invertible
matrix, the row operation rows[j] ^= rows[i], which keeps it invertible
and is its own undo), keeping a flip unless it lowers the synthesized
two-qubit depth, so it climbs towards deep inputs.  Every circuit it
builds must stay within the table; the final input is checked by the
oracle.
"""

import numpy as np
import pytest

from cliffdepth import bounds
from cliffdepth.cli import _cz_tableau
from cliffdepth.clifford import tableau_of_circuit
from cliffdepth.cnot import EXACT, REORDER, synth_linear, synth_triangular
from cliffdepth.cz import CzSpec, synth_cz
from cliffdepth.gf2 import BitMatrix, random_invertible
from cliffdepth.verify import linear_action, tableaux_equal

SIZES = (8, 16, 24, 39, 48, 64)
FLIPS = 150


def _climb(rng, bits, flip, depth_of, table):
    """Flip random pairs (i < j) of bits in place with flip(bits, i, j),
    keeping each flip unless depth_of(bits) falls; every depth is at most
    table."""
    n = len(bits)
    depth = depth_of(bits)
    assert depth <= table
    for _ in range(FLIPS):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        flip(bits, i, j)
        d = depth_of(bits)
        assert d <= table
        if d < depth:
            flip(bits, i, j)
        else:
            depth = d
    print(f"n={n}: depth {depth} of table {table} ({depth / table:.3f})")


def _flip_sym(bits, i, j):
    bits[i, j] ^= 1
    bits[j, i] ^= 1


def _flip_upper(bits, i, j):
    bits[i, j] ^= 1


def _flip_row(bits, i, j):
    bits[j] ^= bits[i]


@pytest.mark.parametrize("n", SIZES)
def test_cz_search_stays_within_table(n):
    rng = np.random.default_rng(n)
    bits = CzSpec.random(rng, n).bits.copy()
    table = bounds.cz_depth_recursion(n)
    _climb(rng, bits, _flip_sym, lambda b: synth_cz(CzSpec(n, b)).two_qubit_depth(), table)
    spec = CzSpec(n, bits)
    assert tableaux_equal(tableau_of_circuit(synth_cz(spec)), _cz_tableau(spec))


@pytest.mark.parametrize("n", SIZES)
def test_triangular_search_stays_within_table(n):
    rng = np.random.default_rng(100 + n)
    bits = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1) | np.eye(n, dtype=np.uint8)
    table = bounds.cnot_depth_recursion(n)
    _climb(rng, bits, _flip_upper,
           lambda b: synth_triangular(BitMatrix.from_dense(b)).two_qubit_depth(), table)
    m = BitMatrix.from_dense(bits)
    assert linear_action(synth_triangular(m)) == m


@pytest.mark.parametrize("n", SIZES)
def test_linear_search_stays_within_table(n):
    """General invertible matrices stress the block stage on both LU factors
    and the permutation; the reorder circuit drops the permutation's swaps."""
    rng = np.random.default_rng(200 + n)
    bits = random_invertible(rng, n).to_dense().copy()
    table = int(bounds.construction_depth(bounds.CNOT)[n])
    _climb(rng, bits, _flip_row,
           lambda b: synth_linear(BitMatrix.from_dense(b), EXACT).two_qubit_depth(), table)
    m = BitMatrix.from_dense(bits)
    assert linear_action(synth_linear(m, EXACT)) == m
    c = synth_linear(m, REORDER)
    bound = 2 * bounds.cnot_depth_recursion(n)
    assert c.two_qubit_depth() <= bound
    assert linear_action(c).ints == [m.ints[int(i)] for i in c.perm.map]
    print(f"n={n}: reorder depth {c.two_qubit_depth()} of {bound} "
          f"({c.two_qubit_depth() / bound:.3f})")
