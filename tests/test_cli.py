import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdepth import bounds, cli
from cliffdepth.circuit import Circuit, cz, from_text
from cliffdepth.cli import _cz_tableau, main
from cliffdepth.clifford import CliffordTableau, tableau_of_circuit
from cliffdepth.cz import CzSpec
from cliffdepth.gf2 import BitMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen(capsys, tmp_path, kind, n, seed, name):
    path = tmp_path / name
    code, _, _ = run(capsys, "gen", "--kind", kind, "--n", str(n),
                     "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


def test_gen_is_deterministic(capsys, tmp_path):
    a = gen(capsys, tmp_path, "cz", 10, 7, "a.mat")
    b = gen(capsys, tmp_path, "cz", 10, 7, "b.mat")
    c = gen(capsys, tmp_path, "cz", 10, 8, "c.mat")
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


@pytest.mark.parametrize("kind", ["cz", "linear", "tableau"])
def test_gen_rejects_n_above_table_range(capsys, tmp_path, monkeypatch, kind):
    """--n past N_MAX is a usage error, raised before any instance is made."""
    def no_instance(*args):
        raise AssertionError("an instance was generated")

    for name in ("random_invertible", "random_tableau"):
        monkeypatch.setattr(cli, name, no_instance)
    monkeypatch.setattr(CzSpec, "random", no_instance)
    path = tmp_path / "out.txt"
    code, out, err = run(capsys, "gen", "--kind", kind, "--n", str(bounds.N_MAX + 1),
                         "--seed", "1", "--out", str(path))
    assert code == 2
    assert str(bounds.N_MAX) in err
    assert not path.exists()


def test_memory_error_is_a_usage_error(capsys, tmp_path, monkeypatch):
    def too_big(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "random_invertible", too_big)
    code, _, err = run(capsys, "gen", "--kind", "linear", "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert "out of memory" in err


@pytest.mark.parametrize("kind", ["cz", "linear", "tableau"])
@pytest.mark.parametrize("n", [0, -3])
def test_gen_rejects_nonpositive_n(capsys, tmp_path, kind, n):
    path = tmp_path / "out.txt"
    code, _, err = run(capsys, "gen", "--kind", kind, "--n", str(n), "--seed", "1",
                       "--out", str(path))
    assert code == 2
    assert "--n" in err
    assert not path.exists()


def test_cz_tableau_is_literal_circuit_tableau():
    rng = np.random.default_rng(48)
    for n in (1, 2, 5, 31, 33, 40):
        u = np.triu(rng.random((n, n)) < rng.random(), 1).astype(np.uint8)
        spec = CzSpec(n, u | u.T)
        literal = Circuit(n, [cz(i, j) for (i, j) in spec.pairs()])
        assert _cz_tableau(spec) == tableau_of_circuit(literal)


def test_synth_cz_roundtrip(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "cz", 12, 1, "p.mat")
    circ = tmp_path / "p.circ"
    code, out, _ = run(capsys, "synth-cz", "--input", str(mat),
                       "--out", str(circ), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verified"] is True
    assert rep["family"] == "cz"
    assert rep["n"] == 12
    assert rep["depth"] <= rep["bound"]

    code, out, _ = run(capsys, "verify", "--circuit", str(circ),
                       "--against", str(mat))
    assert code == 0
    assert "verified" in out


def test_synth_cz_strategies(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "cz", 9, 2, "p.mat")
    for strategy in ("coloring", "onestep", "twostep"):
        code, out, _ = run(capsys, "synth-cz", "--input", str(mat),
                           "--strategy", strategy, "--out", "-", "--json")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["verified"] is True


def test_synth_cnot_exact_and_perm(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "linear", 16, 3, "r.mat")
    for mode in ("exact", "perm"):
        circ = tmp_path / f"{mode}.circ"
        code, out, _ = run(capsys, "synth-cnot", "--input", str(mat),
                           "--mode", mode, "--out", str(circ), "--json")
        assert code == 0
        assert json.loads(out)["verified"] is True
    assert "perm " in (tmp_path / "perm.circ").read_text()
    assert "perm " not in (tmp_path / "exact.circ").read_text()


@pytest.mark.parametrize("cnot_only", [False, True])
def test_verify_honours_perm(capsys, tmp_path, cnot_only):
    mat = gen(capsys, tmp_path, "linear", 8, 5, "r.mat")
    circ = tmp_path / "r.circ"
    flags = ["--cnot-only"] if cnot_only else []
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--mode", "perm",
                     "--out", str(circ), *flags)
    assert code == 0
    code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat))
    assert code == 0 and "verified" in out
    # the same gates under two swapped perm entries realize another row order
    lines = circ.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("perm "))
    perm = lines[k].split()[1:]
    perm[0], perm[1] = perm[1], perm[0]
    lines[k] = " ".join(["perm"] + perm)
    bad = tmp_path / "bad.circ"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(bad), "--against", str(mat))
    assert code == 1 and "MISMATCH" in out


def test_synth_cnot_cnot_only(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "linear", 14, 4, "r.mat")
    circ = tmp_path / "r.circ"
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat),
                     "--cnot-only", "--out", str(circ))
    assert code == 0
    body = circ.read_text()
    assert "H " not in body and "CZ " not in body
    assert "CNOT " in body


def test_synth_clifford(capsys, tmp_path):
    tab = gen(capsys, tmp_path, "tableau", 8, 5, "t.tab")
    circ = tmp_path / "t.circ"
    code, out, _ = run(capsys, "synth-clifford", "--input", str(tab),
                       "--out", str(circ), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True

    code, out, _ = run(capsys, "verify", "--circuit", str(circ),
                       "--against", str(tab))
    assert code == 0


def test_verify_mismatch_exits_1(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "cz", 6, 6, "p.mat")
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 6\nCZ 0 1\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(bad),
                       "--against", str(mat))
    assert code == 1
    assert "MISMATCH" in out


def test_verify_linear_oracle(capsys, tmp_path):
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    mat = tmp_path / "m.mat"
    mat.write_text("2 2\n10\n11\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(circ),
                       "--against", str(mat), "--oracle", "linear")
    assert code == 0


def test_qasm_output(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "cz", 5, 9, "p.mat")
    code, _, _ = run(capsys, "synth-cz", "--input", str(mat),
                     "--out", str(tmp_path / "p.qasm"), "--format", "qasm2")
    assert code == 0
    assert (tmp_path / "p.qasm").read_text().startswith("OPENQASM 2.0;")


def test_bounds_csv(capsys, tmp_path):
    out_path = tmp_path / "cmp.csv"
    code, _, _ = run(capsys, "bounds", "--family", "cnot", "--from", "64",
                     "--to", "70", "--csv", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,prior,closed_form,construction"
    assert len(lines) == 8


def test_bounds_requires_family_or_validate(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2


def test_bounds_validate(capsys):
    code, out, _ = run(capsys, "bounds", "--validate")
    assert code == 0
    assert out.splitlines() == [
        "cz: range 39..1345000 ok (min slack 0, near-integer 2)",
        "cz-basic: range 43..1345000 ok (min slack 0, near-integer 1)",
        "cnot: range 70..1345000 ok (min slack 0, near-integer 3)",
        "clifford: range 43..1345000 ok (min slack 0, near-integer 1)",
        "cnot crossover vs prior art: n=70",
    ]


def test_bounds_validate_violation_exits_1(capsys, monkeypatch):
    orig = bounds.construction_depth

    def bumped(family, n_max=bounds.N_MAX):
        d = orig(family, n_max).copy()
        if family == bounds.CNOT:
            d[100_000] += 1000
        return d

    monkeypatch.setattr(bounds, "construction_depth", bumped)
    code, out, _ = run(capsys, "bounds", "--validate")
    assert code == 1
    lines = out.splitlines()
    assert lines[2].startswith("cnot: range 70..1345000 VIOLATED (min slack -")
    assert sum("VIOLATED" in line for line in lines) == 1


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "synth-cz", "--input", str(tmp_path / "no.mat"))
    assert code == 2
    assert "error" in err


def test_bad_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "synth-cz", "--nope")
    assert code == 2


@pytest.mark.parametrize("cmd, suffix, text, where", [
    ("synth-cz", ".mat", "", "empty"),
    ("synth-cz", ".mat", "\n  \n", "empty"),
    ("synth-cz", ".mat", "2 2\n01\n1x\n", "line 3"),
    ("synth-cz", ".mat", "two 2\n01\n10\n", "line 1"),
    ("synth-cnot", ".mat", "", "empty"),
    ("synth-clifford", ".tab", "", "empty"),
    ("synth-clifford", ".tab", "1\n10\n0\n00\n", "line 3"),
    ("synth-clifford", ".tab", "x\n", "line 1"),
])
def test_malformed_input_is_usage_error(capsys, tmp_path, cmd, suffix, text, where):
    path = tmp_path / f"in{suffix}"
    path.write_text(text)
    code, _, err = run(capsys, cmd, "--input", str(path))
    assert code == 2
    assert where in err


@pytest.mark.parametrize("text, where", [
    ("", "qubits"),
    ("qubits 2\nCZ 0\n", "line 2"),
    ("qubits 2\nH\n", "line 2"),
    ("qubits 2\n\nCNOT 0 one\n", "line 3"),
    ("qubits\nH 0\n", "line 1"),
    ("qubits 2\nperm 0 99999999999999999999\n", "line 2"),
    ("qubits 2\nH 0\nCZ 0 5\n", "line 3"),
    ("qubits 2\nCNOT 1 1\n", "line 2"),
    ("qubits 3\nperm 0 1\nCZ 0 1\n", "line 2"),
])
def test_malformed_circuit_is_usage_error(capsys, tmp_path, text, where):
    mat = tmp_path / "m.mat"
    mat.write_text("2 2\n10\n11\n")
    circ = tmp_path / "c.circ"
    circ.write_text(text)
    code, _, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat))
    assert code == 2
    assert where in err


@pytest.mark.parametrize("lo, hi", [
    ("0", None), ("1", None), ("1345001", None), ("10", "1345001"), ("10", "9"),
])
def test_bounds_range_is_checked(capsys, tmp_path, lo, hi):
    argv = ["bounds", "--family", "cz", "--from", lo, "--csv", str(tmp_path / "b.csv")]
    if hi is not None:
        argv += ["--to", hi]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "1345000" in err
    assert not (tmp_path / "b.csv").exists()


def test_bounds_range_edges_accepted(capsys, tmp_path):
    for lo in ("2", "1345000"):
        out_path = tmp_path / f"b{lo}.csv"
        code, _, _ = run(capsys, "bounds", "--family", "cz", "--from", lo,
                         "--csv", str(out_path))
        assert code == 0
        assert out_path.read_text().splitlines()[-1].startswith(f"{lo},")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789 -\nqubitspermCZHNOT", max_size=60))
def test_parsers_raise_only_value_error(text):
    for parse in (BitMatrix.from_text, from_text, CliffordTableau.from_text):
        try:
            parse(text)
        except ValueError:
            pass


def _swap_first_perm_entries(src, dst):
    lines = src.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("perm "))
    perm = lines[k].split()[1:]
    perm[0], perm[1] = perm[1], perm[0]
    lines[k] = " ".join(["perm"] + perm)
    dst.write_text("\n".join(lines) + "\n")


def test_verify_perm_circuit_against_exact_circuit(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "linear", 8, 5, "r.mat")
    circs = {}
    for mode in ("perm", "exact"):
        circs[mode] = tmp_path / f"{mode}.circ"
        code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--mode", mode,
                         "--out", str(circs[mode]))
        assert code == 0
    for a, b in (("perm", "exact"), ("exact", "perm")):
        for flags in ([], ["--oracle", "linear"]):
            code, out, _ = run(capsys, "verify", "--circuit", str(circs[a]),
                               "--against", str(circs[b]), *flags)
            assert code == 0 and "verified" in out
    bad = tmp_path / "bad.circ"
    _swap_first_perm_entries(circs["perm"], bad)
    for a, b in ((bad, circs["exact"]), (circs["exact"], bad)):
        code, out, _ = run(capsys, "verify", "--circuit", str(a), "--against", str(b))
        assert code == 1 and "MISMATCH" in out
    for oracle in ("tableau", "phase"):
        for a, b in ((circs["perm"], circs["exact"]), (circs["exact"], circs["perm"]),
                     (circs["perm"], mat)):
            code, _, err = run(capsys, "verify", "--circuit", str(a), "--against", str(b),
                               "--oracle", oracle)
            assert code == 2 and "linear oracle" in err


def test_verify_auto_oracle_falls_back_to_tableau_for_h_gates(capsys, tmp_path):
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nH 1\nCNOT 0 1\nH 1\n")
    mat = tmp_path / "p.mat"
    mat.write_text("2 2\n01\n10\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat))
    assert code == 0 and "verified" in out


@pytest.mark.parametrize("oracle", ["tableau", "phase"])
def test_verify_linear_matrix_needs_linear_oracle(capsys, tmp_path, oracle):
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    mat = tmp_path / "m.mat"
    mat.write_text("2 2\n10\n11\n")
    code, _, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat),
                       "--oracle", oracle)
    assert code == 2
    assert "linear matrix" in err and "linear oracle" in err
    assert "symmetric" not in err


@pytest.mark.parametrize("cmd, kind, suffix, flags, oracles", [
    ("synth-cz", "cz", ".mat", [], ["auto", "tableau", "phase"]),
    ("synth-cnot", "linear", ".mat", ["--mode", "exact"], ["auto", "linear"]),
    ("synth-cnot", "linear", ".mat", ["--mode", "perm"], ["auto", "linear"]),
    ("synth-clifford", "tableau", ".tab", [], ["auto", "tableau"]),
])
def test_synth_output_verifies_against_its_input(capsys, tmp_path, cmd, kind, suffix,
                                                  flags, oracles):
    ref = gen(capsys, tmp_path, kind, 10, 11, "in" + suffix)
    circ = tmp_path / "out.circ"
    code, out, _ = run(capsys, cmd, "--input", str(ref), "--out", str(circ), "--json",
                       *flags)
    assert code == 0 and json.loads(out)["verified"] is True
    for oracle in oracles:
        code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(ref),
                           "--oracle", oracle)
        assert code == 0 and "verified" in out, oracle


@pytest.mark.parametrize("flags", [[], ["--oracle", "phase"]])
def test_verify_label_permuting_circuit_is_a_mismatch(capsys, tmp_path, flags):
    """A circuit that permutes basis labels cannot realize a CZ pattern."""
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    mat = tmp_path / "p.mat"
    mat.write_text("2 2\n01\n10\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat), *flags)
    assert code == 1 and "MISMATCH" in out


@pytest.mark.parametrize("n, body, message", [
    (13, "CZ 0 1\n", "limited to 12 qubits"),
    (2, "H 1\nCNOT 0 1\nH 1\n", "cannot handle H gate"),
])
def test_verify_phase_oracle_usage_errors_exit_2(capsys, tmp_path, n, body, message):
    circ = tmp_path / "c.circ"
    circ.write_text(f"qubits {n}\n{body}")
    bits = np.zeros((n, n), dtype=np.uint8)
    bits[0, 1] = bits[1, 0] = 1
    mat = tmp_path / "p.mat"
    mat.write_text(CzSpec(n, bits).to_bitmatrix().to_text())
    code, _, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat),
                       "--oracle", "phase")
    assert code == 2 and message in err


@pytest.mark.parametrize("flags", [[], ["--oracle", "linear"]])
@pytest.mark.parametrize("body", [
    "CZ 0 1\n",
    "H 0\nCNOT 0 1\nH 0\n",
    "H 0\nCZ 0 1\n",
    "P 0\nCNOT 0 1\n",
    "X 0\nCNOT 0 1\n",
], ids=["cz-bare-ends", "cnot-one-conjugated-end", "unmatched-h", "phase", "offset"])
def test_verify_non_linear_circuit_is_a_mismatch(capsys, tmp_path, flags, body):
    """A circuit that is not linear cannot realize a linear matrix."""
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\n" + body)
    mat = tmp_path / "m.mat"
    mat.write_text("2 2\n10\n11\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat), *flags)
    assert code == 1 and "MISMATCH" in out


@pytest.mark.parametrize("body", [
    "CZ 0 1\nCZ 0 1\nCNOT 0 1\n",
    "P 0\nP 0\nZ 0\nCNOT 0 1\n",
    "H 0\nCZ 0 1\nCZ 0 1\nH 0\nX 1\nCNOT 0 1\nX 1\n",
], ids=["cancelling-cz", "cancelling-phases", "cancelling-offsets"])
def test_verify_linear_circuit_outside_the_replayed_form(capsys, tmp_path, body):
    """Gates that leave the replayed form and cancel later still verify."""
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\n" + body)
    mat = tmp_path / "m.mat"
    mat.write_text("2 2\n10\n11\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat))
    assert code == 0 and "verified" in out


def test_verify_non_linear_reference_is_a_usage_error(capsys, tmp_path):
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    ref = tmp_path / "r.circ"
    ref.write_text("qubits 2\nCZ 0 1\n")
    code, _, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(ref),
                       "--oracle", "linear")
    assert code == 2 and "not linear" in err
