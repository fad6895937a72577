import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdepth import bounds, cli
from cliffdepth.circuit import Circuit, cz, from_text, to_text
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


@pytest.mark.parametrize("n, seed, digest", [
    (64, 5, "12710b8faf8da5579d0c502bd4d1fe355f828d51b19b8244d59b58e5236ee546"),
    (257, 9, "4a2cd9a39b38b30a91c9a95d07746f0d4f02ddcaba1f92c4c1dc2171520b05c2"),
])
def test_gen_cz_output_is_pinned(capsys, tmp_path, n, seed, digest):
    """gen --kind cz writes the same pattern text as when these digests were recorded."""
    path = gen(capsys, tmp_path, "cz", n, seed, "p.mat")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kind, n, seed, digest", [
    ("linear", 64, 5, "ee4d2b775916fd334fe79fda08734f1ece046fbd0733c8fc8686851a597b358f"),
    ("linear", 257, 9, "b7aed212a58dd6351b5f928a49b851ef0cf9db380da2aadf98c1f413d7a01a31"),
    ("tableau", 64, 5, "e6a4a4fb0d69263e248ca3f060f069d55fb40b539debe46e197f1a3e0facb27f"),
    ("tableau", 257, 9, "f9be34411252e5dd82025c1fd629a03848279beeb0c649a4844b945e5395c808"),
])
def test_gen_linear_and_tableau_output_is_pinned(capsys, kind, n, seed, digest):
    """gen --kind linear/tableau print the same text as when these digests were recorded."""
    code, out, _ = run(capsys, "gen", "--kind", kind, "--n", str(n), "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    """A forced strategy is held to its own branch value of cz_branches,
    not to the automatic bound; below n = 4 synth_cz colors, so the
    coloring value applies, and n = 1 needs no gate."""
    assert bounds.cz_branches(9) == (9, 13, 16)
    cases = [(9, seed, s, b) for seed in (2, 4)
             for s, b in zip(("coloring", "onestep", "twostep"), (9, 13, 16))]
    cases += [(128, 1, "coloring", 127), (3, 1, "twostep", 3), (1, 1, "onestep", 0)]
    for n, seed, strategy, bound in cases:
        mat = gen(capsys, tmp_path, "cz", n, seed, "p.mat")
        code, out, _ = run(capsys, "synth-cz", "--input", str(mat),
                           "--strategy", strategy, "--out", "-", "--json")
        rep = json.loads(out.splitlines()[-1])
        assert (code, rep["verified"], rep["bound"]) == (0, True, bound)
        assert rep["depth"] <= bound


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


def test_synth_cnot_reads_one_table_entry(capsys, tmp_path):
    """Below the closed form's start size the bound is one entry of the filled
    CNOT table: no 5.1 MiB copy of the construction depth is built."""
    mat = gen(capsys, tmp_path, "linear", 16, 3, "r.mat")
    argv = ("synth-cnot", "--input", str(mat), "--out", str(tmp_path / "r.circ"))
    assert run(capsys, *argv)[0] == 0  # fills the table
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert run(capsys, *argv)[0] == 0
        assert tracemalloc.get_traced_memory()[1] - held < 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


def test_verify_honours_perm(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "linear", 8, 5, "r.mat")
    circ = tmp_path / "r.circ"
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--mode", "perm",
                     "--out", str(circ))
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
    # at n = 100, seed 1, some blocks take the CZ form: it too comes out as CNOTs
    mat = gen(capsys, tmp_path, "linear", 100, 1, "r.mat")
    circ = tmp_path / "r.circ"
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--out", str(circ))
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


def test_non_symplectic_tableau_reference_is_usage_error(capsys, tmp_path):
    """verify rejects a .tab that is no Clifford tableau, as synth-clifford does."""
    tab = tmp_path / "t.tab"
    tab.write_text("1\n11\n11\n00\n")
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 1\nH 0\n")
    for argv in (("synth-clifford", "--input", str(tab)),
                 ("verify", "--circuit", str(circ), "--against", str(tab))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "tableau is not symplectic" in err


@pytest.mark.parametrize("rows", [["01", "10"], ["0100", "1000", "0001", "0010"]])
def test_verify_reads_a_symmetric_matrix_both_ways(capsys, tmp_path, rows):
    """A symmetric zero-diagonal .mat is a CZ pattern and a linear map: under
    --oracle auto, both synth-cz's and synth-cnot's circuits for it verify."""
    n = len(rows)
    mat = tmp_path / "s.mat"
    mat.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n")
    for cmd in ("synth-cnot", "synth-cz"):
        circ = tmp_path / f"{cmd}.circ"
        code, out, _ = run(capsys, cmd, "--input", str(mat), "--out", str(circ))
        assert code == 0 and "verified=yes" in out
        code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat))
        assert (code, out) == (0, "verified\n")
    # an explicit oracle keeps the CZ reading
    code, out, _ = run(capsys, "verify", "--circuit", str(tmp_path / "synth-cnot.circ"),
                       "--against", str(mat), "--oracle", "tableau")
    assert (code, out) == (1, "MISMATCH\n")
    bad = tmp_path / "bad.circ"
    bad.write_text(f"qubits {n}\nCNOT 0 1\nCNOT 1 0\n")
    code, out, _ = run(capsys, "verify", "--circuit", str(bad), "--against", str(mat))
    assert (code, out) == (1, "MISMATCH\n")


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


def test_qasm_refuses_perm_mode(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "linear", 6, 3, "m.mat")
    out = tmp_path / "p.qasm"
    code, _, err = run(capsys, "synth-cnot", "--input", str(mat), "--mode", "perm",
                       "--format", "qasm2", "--out", str(out))
    assert code == 2
    assert "permutation" in err
    assert not out.exists()
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--format", "qasm2",
                     "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("OPENQASM 2.0;")


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


@pytest.mark.parametrize("extra, flag", [
    (("--family", "cz"), "--family"), (("--from", "5"), "--from"),
    (("--to", "9"), "--to"), (("--csv", "out.csv"), "--csv"),
])
def test_bounds_validate_refuses_range_flags(capsys, extra, flag):
    """--validate checks every family over its full range, so a flag choosing
    a family, a range or a CSV file is a usage error naming the flag."""
    code, out, err = run(capsys, "bounds", "--validate", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_bounds_validate_scans_each_closed_form_once(capsys, monkeypatch):
    """The crossover line comes from the prior-art pass alone, not a second scan."""
    starts = []
    steps = bounds._steps
    monkeypatch.setattr(bounds, "_steps", lambda s: starts.append(s) or steps(s))
    run(capsys, "bounds", "--validate")
    assert starts == [{fam: f.lo for fam, f in bounds.FORMULAS.items()}]


def test_bounds_validate_violation_exits_1(capsys, monkeypatch):
    orig = bounds._depth

    def bumped(family, a, b):
        d = orig(family, a, b).copy()
        if family == bounds.CNOT and a <= 100_000 < b:
            d[100_000 - a] += 1000
        return d

    monkeypatch.setattr(bounds, "_depth", bumped)
    code, out, _ = run(capsys, "bounds", "--validate")
    assert code == 1
    lines = out.splitlines()
    assert lines[2].startswith("cnot: range 70..1345000 VIOLATED (min slack -")
    assert sum("VIOLATED" in line for line in lines) == 1


def test_python_m_runs_the_cli(tmp_path):
    """``python -m cliffdepth`` works from the source tree, without installing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "cliffdepth", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    proc = cli_run("bounds", "--family", "cz", "--from", "2", "--to", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n,prior,closed_form,construction"
    proc = cli_run("gen", "--kind", "cz", "--n", "0", "--seed", "1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_closes_the_files_it_reads(capsys, tmp_path):
    """synth-cz and verify close their input files: under ``-X dev`` an open
    file left to the garbage collector prints a ResourceWarning, here an error."""
    gen(capsys, tmp_path, "cz", 8, 1, "p.mat")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (("synth-cz", "--input", "p.mat", "--out", "p.circ"),
                 ("verify", "--circuit", "p.circ", "--against", "p.mat")):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-m", "cliffdepth", *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


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
    # rows that are not width characters from {0, 1}; int(row[::-1], 2) alone
    # would accept the ones with "_"
    ("synth-cnot", ".mat", "2 3\n010\n0_1\n", "line 3"),
    ("synth-cnot", ".mat", "2 3\n+01\n010\n", "line 2"),
    ("synth-cnot", ".mat", "2 3\n010\n1 0\n", "line 3"),
    ("synth-cnot", ".mat", "2 3\n\n0b1\n010\n", "line 3"),
    ("synth-clifford", ".tab", "2\n1000\n1_01\n0010\n0001\n0000\n", "line 3"),
    # headers that int() alone would read as 10x10, 1x1 and n = 1
    ("synth-cnot", ".mat", "1_0 10\n" + "".join("0" * i + "1" + "0" * (9 - i) + "\n"
                                                for i in range(10)), "line 1"),
    ("synth-cnot", ".mat", "+1 1\n1\n", "line 1"),
    ("synth-clifford", ".tab", "+1\n10\n01\n00\n", "line 1"),
    ("synth-clifford", ".tab", "\u0661\n10\n01\n00\n", "line 1"),
])
def test_malformed_input_is_usage_error(capsys, tmp_path, cmd, suffix, text, where):
    path = tmp_path / f"in{suffix}"
    path.write_text(text)
    code, _, err = run(capsys, cmd, "--input", str(path))
    assert code == 2
    assert where in err


@pytest.mark.parametrize("head", ["-1 2", "0 0", "2 0", "0 3"])
def test_nonpositive_matrix_header_is_usage_error(capsys, tmp_path, head):
    mat = tmp_path / "m.mat"
    mat.write_text(f"{head}\n")
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nCNOT 0 1\n")
    for argv in (("synth-cnot", "--input", str(mat)),
                 ("verify", "--circuit", str(circ), "--against", str(mat))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "line 1: matrix dimensions must be positive" in err


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
    # integer fields that int() alone would read as 10, +1, 1 and a perm
    ("qubits 1_0\nH 0\n", "line 1"),
    ("qubits 2\nCZ 0 +1\n", "line 2"),
    ("qubits 2\nH \u0661\n", "line 2"),
    ("qubits 2\nperm +1 0\n", "line 2"),
    # beyond int64, in the header and in a gate
    ("qubits 99999999999999999999\nH 99999999999999999998\n", "line 1"),
    ("qubits 2\n\nH 99999999999999999998\n", "line 3"),
    ("qubits -1\n", "line 1"),
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
@given(st.text(alphabet="0123456789 -\nqubitspermCZHNOT_+b\u0661\t\u00a0", max_size=60))
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
    mat.write_text(CzSpec(n, bits).mat.to_text())
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


@pytest.mark.parametrize("oracle", ["auto", "linear", "phase", "tableau"])
@pytest.mark.parametrize("n, name, ref, message", [
    (3, "p.mat", "1 1\n0\n", "3 qubits, the reference 1"),
    (2, "m.mat", "2 3\n100\n010\n", "must be square"),
    (3, "t.tab", CliffordTableau.identity(2).to_text(), "3 qubits, the reference 2"),
    (3, "r.circ", "qubits 2\nCZ 0 1\n", "3 qubits, the reference 2"),
], ids=["cz-pattern", "non-square-matrix", "tableau", "circuit"])
def test_verify_qubit_count_mismatch_is_a_usage_error(capsys, tmp_path, oracle, n, name,
                                                      ref, message):
    circ = tmp_path / "c.circ"
    circ.write_text(f"qubits {n}\nCZ 0 1\n")
    path = tmp_path / name
    path.write_text(ref)
    code, out, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(path),
                         "--oracle", oracle)
    assert code == 2 and message in err and "MISMATCH" not in out


@pytest.mark.parametrize("oracle", ["auto", "linear", "phase", "tableau"])
def test_verify_two_empty_registers_match_under_every_oracle(capsys, tmp_path, oracle):
    """Two 0-qubit circuits verify, whichever oracle reads them."""
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 0\n")
    code, out, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(circ),
                         "--oracle", oracle)
    assert (code, out, err) == (0, "verified\n", "")


def test_verify_circuit_against_circuit_uses_the_tableau(capsys, tmp_path):
    """The README's circuit-against-circuit check, under auto and --oracle tableau."""
    mat = gen(capsys, tmp_path, "cz", 9, 4, "p.mat")
    circs = [tmp_path / "synth.circ", tmp_path / "literal.circ"]
    code, _, _ = run(capsys, "synth-cz", "--input", str(mat), "--out", str(circs[0]))
    assert code == 0
    spec = CzSpec.from_bitmatrix(BitMatrix.from_text(mat.read_text()))
    circs[1].write_text(to_text(Circuit(9, [cz(i, j) for (i, j) in spec.pairs()])))
    assert circs[0].read_text() != circs[1].read_text()
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 9\nCZ 0 1\n")
    for flags in ([], ["--oracle", "tableau"]):
        code, out, _ = run(capsys, "verify", "--circuit", str(circs[0]),
                           "--against", str(circs[1]), *flags)
        assert (code, out) == (0, "verified\n")
        code, out, _ = run(capsys, "verify", "--circuit", str(bad),
                           "--against", str(circs[1]), *flags)
        assert (code, out) == (1, "MISMATCH\n")


def test_verify_symmetric_matrix_under_the_linear_oracle(capsys, tmp_path):
    """--oracle linear reads a symmetric .mat as a linear map: the SWAP."""
    mat = tmp_path / "s.mat"
    mat.write_text("2 2\n01\n10\n")
    swap = tmp_path / "swap.circ"
    code, _, _ = run(capsys, "synth-cnot", "--input", str(mat), "--out", str(swap))
    assert code == 0
    bad = tmp_path / "cz.circ"
    bad.write_text("qubits 2\nCZ 0 1\n")
    for circ, want in ((swap, (0, "verified\n")), (bad, (1, "MISMATCH\n"))):
        code, out, _ = run(capsys, "verify", "--circuit", str(circ), "--against", str(mat),
                           "--oracle", "linear")
        assert (code, out) == want


@pytest.mark.parametrize("oracle", ["linear", "phase"])
def test_tableau_reference_needs_the_tableau_oracle(capsys, tmp_path, oracle):
    tab = gen(capsys, tmp_path, "tableau", 3, 2, "t.tab")
    circ = tmp_path / "t.circ"
    code, _, _ = run(capsys, "synth-clifford", "--input", str(tab), "--out", str(circ))
    assert code == 0
    code, out, err = run(capsys, "verify", "--circuit", str(circ), "--against", str(tab),
                         "--oracle", oracle)
    assert (code, out) == (2, "")
    assert "tableau reference requires the tableau oracle" in err


def test_synth_cz_reports_the_closed_form_inside_its_range(capsys, tmp_path):
    mat = gen(capsys, tmp_path, "cz", 40, 3, "p.mat")
    code, out, _ = run(capsys, "synth-cz", "--input", str(mat), "--out", str(tmp_path / "c"),
                       "--json")
    rep = json.loads(out)
    assert code == 0 and rep["verified"] is True
    assert rep["bound"] == bounds.CZ_BOUND.value(40) == 39
    assert rep["depth"] <= 39
