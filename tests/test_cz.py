import numpy as np
import pytest

from cliffdepth import bounds
from cliffdepth.circuit import Circuit, cz_pairs, to_text
from cliffdepth.clifford import tableau_of_circuit
from cliffdepth.cz import CzSpec, _bipartite_cz, _coloring_columns, synth_cz, synth_cz_coloring
from cliffdepth.gf2 import BitMatrix
from cliffdepth.verify import cz_pattern_phases, phase_oracle

from cz_ref import reference_complete_bipartite_rounds, reference_coloring_classes


def test_spec_validation():
    with pytest.raises(ValueError):
        CzSpec(2, np.array([[0, 1], [0, 0]], dtype=np.uint8))  # not symmetric
    with pytest.raises(ValueError):
        CzSpec(2, np.array([[1, 1], [1, 0]], dtype=np.uint8))  # diagonal
    with pytest.raises(ValueError):
        CzSpec(3, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        CzSpec.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        CzSpec(2, [[0, 2], [2, 0]])  # would mask to the empty pattern
    for pair in ((0, -1), (0, 3), (3, 0)):  # (0, -1) would wrap to (0, 2)
        with pytest.raises(ValueError, match="outside 0..2"):
            CzSpec.from_pairs(3, [pair])


@pytest.mark.parametrize("dense", [
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],  # not symmetric
    [[0, 1, 0], [1, 1, 0], [0, 0, 0]],  # diagonal
    [[0, 1, 0], [1, 0, 0]],             # not square
], ids=["asymmetric", "diagonal", "non-square"])
def test_from_bitmatrix_checks_as_the_dense_constructor(dense):
    """from_bitmatrix checks the rows it wraps, with the dense constructor's message."""
    dense = np.array(dense, dtype=np.uint8)
    with pytest.raises(ValueError) as want:
        CzSpec(len(dense), dense)
    with pytest.raises(ValueError) as got:
        CzSpec.from_bitmatrix(BitMatrix.from_dense(dense))
    assert str(got.value) == str(want.value)


def test_spec_roundtrips():
    rng = np.random.default_rng(20)
    s = CzSpec.random(rng, 9)
    assert np.array_equal(CzSpec.from_pairs(9, s.pairs()).bits, s.bits)
    assert np.array_equal(CzSpec.from_bitmatrix(s.mat).bits, s.bits)
    assert CzSpec(9, s.bits).mat == s.mat == CzSpec.from_pairs(9, s.pairs()).mat
    assert s.pairs() == list(zip(*(v.tolist() for v in np.nonzero(np.triu(s.bits, 1)))))


def test_bits_is_a_read_only_view_of_the_rows():
    s = CzSpec.random(np.random.default_rng(3), 11)
    assert s.bits.shape == (11, 11) and s.bits.dtype == np.uint8
    assert BitMatrix.from_dense(s.bits) == s.mat
    with pytest.raises(ValueError):
        s.bits[0, 1] ^= 1


def test_coloring_all_ones_depth():
    # round-robin coloring is exactly n-1 layers for even n, n for odd
    for n in range(2, 101):
        d = synth_cz_coloring(CzSpec.all_ones(n)).two_qubit_depth()
        assert d == (n - 1 if n % 2 == 0 else n)


def test_coloring_columns_match_reference_round_robin():
    for n in range(1, 81):
        i, j = _coloring_columns(n)
        want = [pair for cl in reference_coloring_classes(n) for pair in cl]
        assert list(zip(i.tolist(), j.tolist())) == want
        assert not i.flags.writeable and not j.flags.writeable
        with pytest.raises(ValueError):
            i[:1] = 0


def test_bipartite_cz_matches_reference_rounds():
    for s in range(1, 9):
        for t in range(1, 9):
            left, right = list(range(10, 10 + s)), list(range(30, 30 + t))
            pairs = _bipartite_cz(left, right)
            rounds = reference_complete_bipartite_rounds(s, t)
            assert pairs == [(left[i], right[j]) for rnd in rounds for (i, j) in rnd]
            # max(s, t) rounds of min(s, t) pairs, each a matching, covering K_{s,t}
            w = min(s, t)
            assert len(pairs) == max(s, t) * w
            for r in range(0, len(pairs), w):
                rnd = pairs[r:r + w]
                assert len({a for a, _ in rnd}) == len({b for _, b in rnd}) == w
            assert set(pairs) == {(a, b) for a in left for b in right}


def test_coloring_entry_point_is_forced_coloring():
    rng = np.random.default_rng(26)
    for n in range(1, 41):
        for s in (CzSpec.random(rng, n), CzSpec.all_ones(n), CzSpec(n, np.zeros((n, n), int))):
            assert to_text(synth_cz_coloring(s)) == to_text(synth_cz(s, "coloring"))


def test_coloring_phases_exhaustive():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        s = CzSpec.random(rng, n)
        c = synth_cz_coloring(s)
        assert all(g.kind == "CZ" for g in c.gates)
        assert np.array_equal(phase_oracle(c), cz_pattern_phases(s.bits))


@pytest.mark.parametrize("strategy", ["auto", "coloring", "onestep", "twostep"])
def test_synth_cz_phases_exhaustive(strategy):
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        s = CzSpec.random(rng, n)
        c = synth_cz(s, strategy=strategy)
        assert np.array_equal(phase_oracle(c), cz_pattern_phases(s.bits))


def test_synth_cz_rejects_unknown_strategy():
    for strategy in ("magic", None):
        with pytest.raises(ValueError):
            synth_cz(CzSpec.all_ones(4), strategy=strategy)


def test_auto_depth_within_table_random():
    rng = np.random.default_rng(23)
    table = bounds.get_table(bounds.CZ)
    for n in [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]:
        for _ in range(3):
            s = CzSpec.random(rng, n)
            assert synth_cz(s).two_qubit_depth() <= table[n]


def test_auto_depth_within_table_all_ones():
    table = bounds.get_table(bounds.CZ)
    for n in [2, 4, 7, 16, 39, 64, 128, 256, 512]:
        assert synth_cz(CzSpec.all_ones(n)).two_qubit_depth() <= table[n]


def test_forced_strategies_depth_sane():
    rng = np.random.default_rng(24)
    for n in [8, 16, 33, 64]:
        s = CzSpec.random(rng, n)
        base = synth_cz(s, strategy="coloring").two_qubit_depth()
        assert base <= n  # coloring never exceeds round-robin layer count
        for strategy in ("onestep", "twostep"):
            synth_cz(s, strategy=strategy)  # must synthesize without error


def test_tableau_equivalence_medium():
    from cliffdepth.clifford import tableau_of_circuit
    from cliffdepth.circuit import Circuit, cz as czg

    rng = np.random.default_rng(25)
    for n in [17, 40, 65]:
        s = CzSpec.random(rng, n)
        direct = Circuit(n, [czg(i, j) for (i, j) in s.pairs()])
        assert tableau_of_circuit(synth_cz(s)) == tableau_of_circuit(direct)


def test_empty_pattern():
    c = synth_cz(CzSpec(5, np.zeros((5, 5), dtype=np.uint8)))
    assert c.two_qubit_depth() == 0


def _adversarial_patterns(n: int) -> dict[str, list[tuple[int, int]]]:
    """Structured patterns that stress the recursion's splits at size n."""
    h = (n + 1) // 2
    qa, qb = (h + 1) // 2, (n - h + 1) // 2
    quarters = [(0, qa), (qa, h), (h, h + qb), (h + qb, n)]
    return {
        "empty": [],
        "single pair": [(0, n - 1)],
        "perfect matching": [(i, n - 1 - i) for i in range(n // 2)],
        "complete bipartite across the halving": [(i, j) for i in range(h) for j in range(h, n)],
        "block-diagonal quarters": [(i, j) for lo, hi in quarters
                                    for i in range(lo, hi) for j in range(i + 1, hi)],
        "all ones": [(i, j) for i in range(n) for j in range(i + 1, n)],
    }


@pytest.mark.parametrize("n", [39, 40, 64, 77, 130])
def test_adversarial_patterns_verify_within_recursion(n):
    bound = bounds.cz_depth_recursion(n)
    for name, pairs in _adversarial_patterns(n).items():
        c = synth_cz(CzSpec.from_pairs(n, pairs))
        direct = Circuit(n, cz_pairs(pairs))
        assert tableau_of_circuit(c) == tableau_of_circuit(direct), name
        assert c.two_qubit_depth() <= bound, name
