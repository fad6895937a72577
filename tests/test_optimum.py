"""Synthesized depths against the exact small-n optimum of optimum_ref.py.

No synthesized circuit is shallower than the optimum, and every table entry
is at least the optimum's worst case.  The gaps (synthesized two-qubit depth
minus optimum -> count of inputs) are pinned over every input at each size:
every CZ pattern up to n = 5 (at n = 6, a seeded sample of 4,096 of the
32,768), every upper unitriangular matrix and, at n = 4, every invertible
matrix.  The CZ optimum is over layers of CZ gates alone; the
CNOT optimum is over layers of CNOTs, the only gates the linear stages emit.
"""

from collections import Counter

import numpy as np
import pytest

from cliffdepth import bounds
from cliffdepth.cnot import synth_linear, synth_triangular
from cliffdepth.cz import CzSpec, synth_cz
from cliffdepth.gf2 import BitMatrix

from optimum_ref import cnot_optimum, cz_optimum

# at n = 6 over a seeded sample of 4,096 patterns: all 32,768 give
# {0: 20910, 1: 11372, 2: 486}, but take over 3 s
CZ_GAPS = {2: {0: 2}, 3: {0: 8}, 4: {0: 64}, 5: {0: 622, 1: 374, 2: 28},
           6: {0: 2572, 1: 1448, 2: 76}}
TRIANGULAR_GAPS = {3: {0: 8}, 4: {0: 52, 1: 12}}
LINEAR_GAPS_4 = {0: 1746, 1: 3522, 2: 3974, 3: 3870, 4: 3248, 5: 2027, 6: 1178, 7: 485,
                 8: 101, 9: 9}


def _gaps(depths):
    """Histogram of synthesized minus optimal depth over (synthesized, optimal) pairs."""
    gaps = Counter(got - best for got, best in depths)
    assert min(gaps) >= 0, "a circuit is shallower than the optimum"
    return dict(gaps)


@pytest.mark.parametrize("n", sorted(CZ_GAPS))
def test_synth_cz_against_the_optimum(n):
    optimum = cz_optimum(n)
    assert len(optimum) == 2 ** (n * (n - 1) // 2)
    assert max(optimum.values()) <= bounds.get_table(bounds.CZ)[n]
    patterns = sorted(sorted(pairs) for pairs in optimum)
    if n == 6:
        patterns = [patterns[k] for k in np.random.default_rng(6).choice(len(patterns), 4096, replace=False)]
    depths = [(synth_cz(CzSpec.from_pairs(n, pairs)).two_qubit_depth(), optimum[frozenset(pairs)])
              for pairs in patterns]
    assert _gaps(depths) == CZ_GAPS[n]
    if n >= 5:  # the synthesizer's worst case meets the optimum's and the table's
        assert max(d for d, _ in depths) == max(optimum.values()) == bounds.get_table(bounds.CZ)[n] == 5


@pytest.mark.parametrize("n", sorted(TRIANGULAR_GAPS))
def test_synth_triangular_against_the_optimum(n):
    optimum = cnot_optimum(n)
    unitriangular = {rows: best for rows, best in optimum.items()
                     if all(v & ((2 << i) - 1) == 1 << i for i, v in enumerate(rows))}
    assert len(unitriangular) == 2 ** (n * (n - 1) // 2)
    assert max(unitriangular.values()) <= bounds.get_table(bounds.CNOT)[n]
    depths = [(synth_triangular(BitMatrix(n, n, list(rows))).two_qubit_depth(), best)
              for rows, best in unitriangular.items()]
    assert _gaps(depths) == TRIANGULAR_GAPS[n]


def test_synth_linear_against_the_optimum():
    """Exact synth_linear over all 20,160 invertible 4 x 4 matrices."""
    optimum = cnot_optimum(4)
    assert len(optimum) == 20160  # |GL(4, 2)|
    certified = bounds.construction_depth(bounds.CNOT)[4]
    assert max(optimum.values()) == 6 <= certified
    depths = [(synth_linear(BitMatrix(4, 4, list(rows))).two_qubit_depth(), best)
              for rows, best in optimum.items()]
    assert _gaps(depths) == LINEAR_GAPS_4
    assert max(d for d, _ in depths) == certified == 12
