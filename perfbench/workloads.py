"""The benchmark's workloads: fixed-seed inputs, the public call, its check.

Each workload draws one input per operation from ``np.random.default_rng``
(the same seed gives the same sequence), makes one call into cliffdepth's
public API and checks the output with an oracle that shares no code with
the synthesizer.  Every call goes through a module attribute (``cz.synth_cz``),
never through a name bound at import, so the tracer's wrappers see it.

Inputs are built by the benchmark itself, not by ``gf2.random_invertible``
or ``random_tableau``: the former multiplies dense int64 matrices (0.9 s at
n = 512) and the latter samples shallow, easy tableaux.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from cliffdepth import bounds, circuit, clifford, cnot, cz, gf2, verify

ALL_TABLES = (bounds.CZ, bounds.CZ_BASIC, bounds.CNOT, bounds.CNOT_FIRST, bounds.CLIFFORD)


@dataclass
class Result:
    """Checked outcome of one operation.

    ``depth`` is what was realized and ``bound`` what it must not exceed;
    ``depth_ratio`` sums both over the quality set.
    """

    ok: bool
    depth: int
    bound: int
    closed_form: int | None
    twoq: int
    sha256: str


# ---------------------------------------------------------------------------
# input generators (harness overhead, never inside a timed metric)
# ---------------------------------------------------------------------------

def _unitriangular(rng: np.random.Generator, n: int, lower: bool) -> np.ndarray:
    u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    u |= np.eye(n, dtype=np.uint8)
    return np.ascontiguousarray(u.T) if lower else u


def random_invertible(rng: np.random.Generator, n: int) -> gf2.BitMatrix:
    """L @ P @ U with unitriangular L, U and a random permutation P."""
    perm = np.zeros((n, n), dtype=np.uint8)
    perm[rng.permutation(n), np.arange(n)] = 1
    low, up = _unitriangular(rng, n, True), _unitriangular(rng, n, False)
    r = gf2.mat_mul(
        gf2.mat_mul(gf2.BitMatrix.from_dense(low), gf2.BitMatrix.from_dense(perm)),
        gf2.BitMatrix.from_dense(up),
    )
    if gf2.rank_and_pivots(r)[0] != n:
        raise RuntimeError("generated matrix is singular")
    return r


def _symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    return u | u.T


def _cx_layer(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symplectic row action of a CNOT stage x -> A x: diag(A^T, A^-1)."""
    a = random_invertible(rng, n)
    out = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    out[:n, :n] = a.to_dense().T
    out[n:, n:] = gf2.mat_inverse(a).to_dense()
    return out


def _cz_p_layer(rng: np.random.Generator, n: int) -> np.ndarray:
    """CZ pattern plus P mask: [[I, Q], [0, I]] for a random symmetric Q."""
    out = np.eye(2 * n, dtype=np.uint8)
    out[:n, n:] = _symmetric(rng, n)
    return out


def _h_layer(rng: np.random.Generator, n: int) -> np.ndarray:
    mask = rng.integers(0, 2, size=n).astype(bool)
    keep = np.diag((~mask).astype(np.uint8))
    swap = np.diag(mask.astype(np.uint8))
    return np.block([[keep, swap], [swap, keep]])


# Layer sequence of the generated tableaux.  Two CNOT stages and three
# CZ/P stages separated by Hadamard masks give tableaux whose synthesized
# depth lands near the recursion table, unlike random_tableau's 10n gates.
_LAYERS = (_cx_layer, _cz_p_layer, _h_layer, _cz_p_layer, _h_layer,
           _cx_layer, _cz_p_layer, _h_layer, _cz_p_layer)


def layered_tableau(rng: np.random.Generator, n: int) -> clifford.CliffordTableau:
    s = gf2.BitMatrix.from_dense(_LAYERS[0](rng, n))
    for layer in _LAYERS[1:]:
        s = gf2.mat_mul(s, gf2.BitMatrix.from_dense(layer(rng, n)))
    t = clifford.CliffordTableau.from_dense(
        s.to_dense(), rng.integers(0, 2, size=2 * n, dtype=np.uint8))
    if not t.is_symplectic():
        raise RuntimeError("generated tableau is not symplectic")
    return t


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    tables: tuple[str, ...] = ()
    n = 0
    # calibration chunk (run.calibrate) timed before the call and the check
    calib = ("compute", "compute")

    def make(self, rng: np.random.Generator, n: int):
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError

    def result(self, x, out, ok: bool) -> Result:
        raise NotImplementedError

    def corrupt(self, out):
        """Damage an output so that a live check must reject it."""
        raise NotImplementedError


class _Synthesis(Workload):
    family = ""
    closed = None

    def __init__(self):
        self._bounds: dict[int, int] = {}

    def check(self, x, c: circuit.Circuit) -> bool:
        if not self.oracle(x, c):
            return False
        return c.two_qubit_depth() <= self.bound(c.n)

    def bound(self, n: int) -> int:
        # memoized: construction_depth(CNOT) builds a 1.3M-entry array per call
        if n not in self._bounds:
            self._bounds[n] = int(bounds.construction_depth(self.family)[n])
        return self._bounds[n]

    def result(self, x, c: circuit.Circuit, ok: bool) -> Result:
        n = c.n
        closed = self.closed.value(n) if n >= self.closed.lo else None
        text = circuit.to_text(c).encode()
        return Result(ok, c.two_qubit_depth(), self.bound(n), closed,
                      c.count_two_qubit(), hashlib.sha256(text).hexdigest())

    def corrupt(self, c: circuit.Circuit) -> circuit.Circuit:
        gates = list(c.gates)
        last = max(i for i, g in enumerate(gates) if g.kind in circuit.TWO_QUBIT)
        del gates[last]
        return circuit.Circuit(c.n, gates, perm=c.perm)


class CzDense(_Synthesis):
    name = "cz_dense"
    why = ("random symmetric CZ patterns at density 1/2, n=256: edge coloring "
           "dominates synthesis and tableau simulation dominates the check")
    tables = (bounds.CZ,)
    n = 256
    family = bounds.CZ
    closed = bounds.CZ_BOUND

    def make(self, rng, n):
        u = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        return cz.CzSpec(n, u | u.T)

    def call(self, spec):
        return cz.synth_cz(spec)

    def oracle(self, spec, c) -> bool:
        # CZ on (a, b) maps X_a -> X_a Z_b and fixes every Z, signs stay +
        n = spec.n
        s = np.eye(2 * n, dtype=np.uint8)
        s[:n, n:] = spec.bits
        want = clifford.CliffordTableau.from_dense(s, np.zeros(2 * n, dtype=np.uint8))
        return clifford.tableau_of_circuit(c) == want


class CnotDense(_Synthesis):
    name = "cnot_dense"
    why = ("random invertible matrices, n=256: hundreds of small colorings and "
           "candidate depth checks per instance; the check is the linear oracle")
    tables = (bounds.CNOT,)
    n = 256
    family = bounds.CNOT
    closed = bounds.CNOT_EXACT_BOUND

    def make(self, rng, n):
        return random_invertible(rng, n)

    def call(self, r):
        return cnot.synth_linear(r)

    def oracle(self, r, c) -> bool:
        return verify.linear_action(c) == r


class CliffordLayered(_Synthesis):
    name = "clifford_layered"
    why = ("dense layered tableaux, n=128, depth near the table: decomposition, "
           "GF(2) algebra and tableau runs carry as much time as coloring")
    tables = (bounds.CLIFFORD,)
    n = 128
    family = bounds.CLIFFORD
    closed = bounds.CLIFFORD_BOUND

    def make(self, rng, n):
        return layered_tableau(rng, n)

    def call(self, t):
        return clifford.synth_clifford(t)

    def oracle(self, t, c) -> bool:
        return clifford.tableau_of_circuit(c) == t


class BoundsValidate(Workload):
    """validate_all() + crossover_scan(), the `cliffdepth bounds --validate` path.

    The check cross-examines the filled tables at seeded sizes through the
    package's scalar code paths (CZ branch recursion, merge saving,
    closed-form evaluation with its near-integer guard) and requires the
    published CNOT crossover.  "depth" is the certified construction depth
    and "bound" the floored closed form at those sizes.
    """

    name = "bounds_validate"
    why = ("full-range bound validation and crossover scan after filling all five "
           "tables: no synthesis, so it bypasses every synthesis layer")
    tables = ALL_TABLES
    n = 1024  # sizes cross-checked per operation
    # the call scans 1.3M-entry arrays; the check is scalar Python
    calib = ("memory", "compute")
    crossover = 70

    def make(self, rng, n):
        return np.sort(rng.integers(4, bounds.N_MAX + 1, size=n))

    def call(self, sizes):
        return bounds.validate_all(), bounds.crossover_scan()

    def corrupt(self, out):
        reports, scan = out
        return reports, {**scan, "cnot_crossover": scan["cnot_crossover"] + 1}

    def _sums(self, sizes) -> tuple[bool, int, int]:
        dcz = bounds.get_table(bounds.CZ)
        dcx = bounds.get_table(bounds.CNOT)
        dcl = bounds.get_table(bounds.CLIFFORD)
        certified = {f: bounds.construction_depth(f) for f in bounds.FORMULAS}
        ok, depth, bound = True, 0, 0
        for n in sizes.tolist():
            ok &= int(dcz[n]) == min(b for b in bounds.cz_branches(n) if b is not None)
            ok &= int(dcl[n]) == 2 * int(dcz[n]) + 2 * int(dcx[n]) + 6 - bounds.merge_saving(n)
            for family, formula in bounds.FORMULAS.items():
                if n >= formula.lo:
                    d = int(certified[family][n])
                    v = formula.value(n)
                    ok &= d <= v
                    depth += d
                    bound += v
        return bool(ok), depth, bound

    def check(self, sizes, out) -> bool:
        reports, scan = out
        if any(r["violation_count"] for r in reports):
            return False
        if scan["cnot_crossover"] != self.crossover:
            return False
        return self._sums(sizes)[0]

    def result(self, sizes, out, ok: bool) -> Result:
        _, depth, bound = self._sums(sizes)
        text = json.dumps(out, sort_keys=True, default=str).encode()
        return Result(ok, depth, bound, None, 0, hashlib.sha256(text).hexdigest())


WORKLOADS = {w.name: w for w in (CzDense(), CnotDense(), CliffordLayered(), BoundsValidate())}
