"""Command line interface.

Exit codes: 0 success, 1 verification or bound-validation failure,
2 usage error, an instance too large for memory included.  Random
instances from ``gen`` use numpy's default PCG64 generator seeded with
``--seed``, so outputs are reproducible across platforms.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds
from .circuit import KINDS, Circuit, from_text, to_qasm2, to_text
from .clifford import CliffordTableau, random_tableau, synth_clifford, tableau_of_circuit
from .cnot import EXACT, REORDER, synth_linear
from .cz import CzSpec, synth_cz
from .gf2 import BitMatrix, random_invertible
from .verify import (PHASE_MAX_QUBITS, NotDiagonalError, NotLinearError, cz_pattern_phases,
                     linear_action, phase_oracle, tableaux_equal)


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _report(args, n: int, depth: int, bound: int, family: str, verified: bool) -> None:
    if args.json:
        print(json.dumps(
            {"n": n, "depth": depth, "bound": bound, "family": family,
             "verified": verified}))
    else:
        print(f"family={family} n={n} depth={depth} bound={bound} "
              f"verified={'yes' if verified else 'no'}")


def _bound(family: str, n: int) -> int:
    """The family's closed form from its start size on, else the construction depth."""
    formula = bounds.FORMULAS[family]
    if n >= formula.lo:
        return formula.value(n)
    return int(bounds._depth(family, n, n + 1)[0])


def _cz_tableau(spec: CzSpec) -> CliffordTableau:
    """Tableau of the CZ pattern: X_i -> X_i times Z of its partners, Z fixed, signs +."""
    n = spec.n
    pattern = spec.mat.ints  # symmetric, so row q is column q
    return CliffordTableau(n, [1 << q for q in range(n)],
                           [1 << (n + q) | v for q, v in enumerate(pattern)], 0)


def _as_matrix(x) -> BitMatrix:
    """The matrix x realizes: row i of a circuit's linear action is row perm[i] of it."""
    if isinstance(x, BitMatrix):
        return x
    if isinstance(x, CzSpec):
        return x.mat
    rows = linear_action(x).ints
    if x.perm is not None:  # row perm[i] of the result is row i
        rows = [rows[i] for i in np.argsort(x.perm.map).tolist()]
    return BitMatrix(x.n, x.n, rows)


def _matches(circ: Circuit, ref, oracle: str) -> bool:
    """Whether circ realizes ref, a BitMatrix, CzSpec, CliffordTableau or Circuit.

    ``auto`` picks tableau for a tableau; linear for a matrix or when either
    circuit has a perm; phase for a CZ pattern on at most PHASE_MAX_QUBITS
    qubits with a CNOT/CZ/X/Z circuit; and tableau otherwise.  A reference
    on another number of qubits, or a matrix that is not square, is a usage
    error under every oracle; two 0-qubit circuits match under every oracle.
    """
    if isinstance(ref, BitMatrix) and ref.rows != ref.cols:
        raise ValueError(f"a linear reference must be square, got {ref.rows}x{ref.cols}")
    ref_n = ref.rows if isinstance(ref, BitMatrix) else ref.n
    if circ.n != ref_n:
        raise ValueError(f"the circuit has {circ.n} qubits, the reference {ref_n}")
    has_perm = circ.perm is not None or (isinstance(ref, Circuit) and ref.perm is not None)
    if oracle == "auto":
        if isinstance(ref, CliffordTableau):
            oracle = "tableau"
        elif has_perm or isinstance(ref, BitMatrix):
            oracle = "linear"
        elif (isinstance(ref, CzSpec) and ref.n <= PHASE_MAX_QUBITS
              and {KINDS[k] for k in np.unique(circ.array[:, 0]).tolist()}
              <= {"CNOT", "CZ", "X", "Z"}):
            oracle = "phase"
        else:
            oracle = "tableau"
    if isinstance(ref, CliffordTableau) and oracle != "tableau":
        raise ValueError("tableau reference requires the tableau oracle")
    if oracle == "linear":
        if circ.n == 0:  # two empty registers match, as under the other oracles
            return True
        want = _as_matrix(ref)
        try:
            return _as_matrix(circ) == want
        except NotLinearError:  # the reference is linear, the circuit is not
            return False
    if has_perm:
        raise ValueError(f"a circuit with a perm needs the linear oracle, not {oracle}")
    if isinstance(ref, BitMatrix):
        raise ValueError(f"a linear matrix reference needs the linear oracle, not {oracle}")
    if oracle == "phase":
        want = cz_pattern_phases(ref.bits) if isinstance(ref, CzSpec) else phase_oracle(ref)
        try:
            return bool(np.array_equal(phase_oracle(circ), want))
        except NotDiagonalError:  # a diagonal reference never permutes labels
            return False
    if isinstance(ref, CzSpec):
        ref = _cz_tableau(ref)
    elif isinstance(ref, Circuit):
        ref = tableau_of_circuit(ref)
    return tableaux_equal(tableau_of_circuit(circ), ref)


def _cmd_synth(args) -> int:
    text = _read(args.input)
    if args.family == bounds.CZ:
        ref = CzSpec.from_bitmatrix(BitMatrix.from_text(text))
        circ = synth_cz(ref, strategy=args.strategy)
    elif args.family == bounds.CNOT:
        ref = BitMatrix.from_text(text)
        circ = synth_linear(ref, EXACT if args.mode == "exact" else REORDER)
    else:
        ref = CliffordTableau.from_text(text)
        circ = synth_clifford(ref)
    _write(args.out, to_qasm2(circ) if args.format == "qasm2" else to_text(circ))
    verified = _matches(circ, ref, "linear" if args.family == bounds.CNOT else "tableau")
    depth = circ.two_qubit_depth()
    if args.family == bounds.CNOT and args.mode == "perm":
        # the exact construction without its depth-6 reordering stage
        bound = 2 * bounds.cnot_depth_recursion(circ.n)
    elif args.family == bounds.CZ and args.strategy != "auto" and circ.n >= 2:
        # the forced branch's value; below n = 4 synth_cz colors instead
        branch = bounds.BRANCHES.index(args.strategy) if circ.n >= 4 else 0
        bound = bounds.cz_branches(circ.n)[branch]
    else:
        bound = _bound(args.family, circ.n)
    _report(args, circ.n, depth, bound, args.family, verified)
    return 0 if verified and depth <= bound else 1


def _cmd_verify(args) -> int:
    circ = from_text(_read(args.circuit))
    text = _read(args.against)
    if args.against.endswith(".tab"):
        ref = CliffordTableau.from_text(text)
        if not ref.is_symplectic():  # as synth-clifford rejects it
            raise ValueError("tableau is not symplectic")
    elif args.against.endswith(".mat"):
        ref = BitMatrix.from_text(text)
        try:  # a symmetric zero-diagonal matrix is a CZ pattern, or a linear map
            ref = CzSpec.from_bitmatrix(ref)
        except ValueError:
            pass
    else:
        ref = from_text(text)
    ok = _matches(circ, ref, args.oracle)
    if not ok and args.oracle == "auto" and isinstance(ref, CzSpec):
        ok = _matches(circ, ref.mat, "linear")  # the same file read as a linear map
    print("verified" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    if args.validate:
        flags = {"--family": args.family, "--from": args.from_, "--to": args.to, "--csv": args.csv}
        if given := [flag for flag, v in flags.items() if v is not None]:
            raise ValueError(f"--validate checks every family's full range; it takes no {', '.join(given)}")
        reports = bounds.validate_all()
        failed = False
        for rep in reports:
            status = "ok" if rep["violation_count"] == 0 else "VIOLATED"
            failed = failed or rep["violation_count"] != 0
            print(f"{rep['family']}: range {rep['range'][0]}..{rep['range'][1]} "
                  f"{status} (min slack {rep['min_slack']}, "
                  f"near-integer {rep['near_integer_flags']})")
        print(f"cnot crossover vs prior art: n={bounds.cnot_crossovers()['cnot_crossover']}")
        return 1 if failed else 0
    if args.family is None:
        print("bounds requires --family with --from/--to, or --validate",
              file=sys.stderr)
        return 2
    lo = args.from_ if args.from_ is not None else 2
    hi = args.to if args.to is not None else lo
    csv = bounds.emit_comparison_csv(args.family, lo, hi)
    _write(args.csv, csv)
    return 0


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.n > bounds.N_MAX:
        raise ValueError(f"--n must be at most {bounds.N_MAX} (the bound tables' range), "
                         f"got {args.n}")
    rng = np.random.default_rng(args.seed)
    if args.kind == "cz":
        text = CzSpec.random(rng, args.n).mat.to_text()
    elif args.kind == "linear":
        text = random_invertible(rng, args.n).to_text()
    else:
        text = random_tableau(rng, args.n).to_text()
    _write(args.out, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cliffdepth")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("circ", "qasm2"), default="circ")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("synth-cz", help="synthesize a CZ pattern")
    add_common(sp)
    sp.add_argument("--strategy", choices=("auto", "coloring", "onestep", "twostep"),
                    default="auto")
    sp.set_defaults(fn=_cmd_synth, family=bounds.CZ)

    sp = sub.add_parser("synth-cnot", help="synthesize a linear reversible matrix")
    add_common(sp)
    sp.add_argument("--mode", choices=("exact", "perm"), default="exact")
    sp.set_defaults(fn=_cmd_synth, family=bounds.CNOT)

    sp = sub.add_parser("synth-clifford", help="synthesize a Clifford tableau")
    add_common(sp)
    sp.set_defaults(fn=_cmd_synth, family=bounds.CLIFFORD)

    sp = sub.add_parser("verify", help="check a circuit against a reference")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--against", required=True)
    sp.add_argument("--oracle", choices=("auto", "tableau", "phase", "linear"),
                    default="auto")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bounds", help="depth-bound tables and range validation")
    sp.add_argument("--family", choices=("cz", "cz-basic", "cnot", "clifford"),
                    default=None)
    sp.add_argument("--from", dest="from_", type=int, default=None)
    sp.add_argument("--to", type=int, default=None)
    sp.add_argument("--csv", default=None)
    sp.add_argument("--validate", action="store_true")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("gen", help="emit a reproducible random instance")
    sp.add_argument("--kind", choices=("cz", "linear", "tableau"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller instance", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
