"""Gate-level circuit representation and the two-qubit depth metric.

A circuit is one (G, 3) int64 array, one row per gate in order: column 0
holds the kind code, an index into ``KINDS``, and columns 1 and 2 the
qubits a and b, with b = -1 for a one-qubit gate.  Synthesis builds these
arrays block by block, joined once, and ``from_text`` one row per line;
``Circuit``'s check validates both.  ``Circuit.gates`` is a view that
builds a fresh list of ``Gate`` tuples, for tests and the benchmark.

Only two-qubit gates occupy schedule steps; single-qubit gates are free.
Depth is computed by an ASAP scan over per-qubit counters, so synthesis
code is responsible for emitting gates in an order that realizes the
claimed parallelism.  The scan, like the linear oracle's CNOT replay,
tests the kinds once in numpy and then reads only the two qubit columns
as lists.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .gf2 import Permutation, int_fields, numbered_lines


class Gate(NamedTuple):
    kind: str  # CZ | CNOT | H | P | X | Z
    a: int
    b: int = -1


KINDS = ("CZ", "CNOT", "H", "P", "X", "Z")
CZ, CNOT, H, P, X, Z = range(len(KINDS))  # kind codes; the two-qubit kinds come first
TWO_QUBIT = KINDS[:2]
_CODE = {k: i for i, k in enumerate(KINDS)}

EMPTY = np.empty((0, 3), dtype=np.int64)
EMPTY.flags.writeable = False


def cz(i: int, j: int) -> Gate:
    if i == j:
        raise ValueError("CZ needs two distinct qubits")
    return Gate("CZ", i, j) if i < j else Gate("CZ", j, i)


def cnot(c: int, t: int) -> Gate:
    if c == t:
        raise ValueError("CNOT needs two distinct qubits")
    return Gate("CNOT", c, t)


def h(q: int) -> Gate:
    return Gate("H", q)


def p(q: int) -> Gate:
    return Gate("P", q)


def x(q: int) -> Gate:
    return Gate("X", q)


def z(q: int) -> Gate:
    return Gate("Z", q)


# ---------------------------------------------------------------------------
# gate arrays
# ---------------------------------------------------------------------------

def gate_block(kind: int, a, b=-1) -> np.ndarray:
    """The gates of one kind on qubit columns a and b (b = -1 for one qubit), in order."""
    a = np.asarray(a, dtype=np.int64)
    out = np.empty((a.size, 3), dtype=np.int64)
    out[:, 0] = kind
    out[:, 1] = a
    out[:, 2] = b
    return out


def cz_block(a, b) -> np.ndarray:
    """CZ gates on the qubit columns a and b, ends ordered as ``cz`` orders them."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return gate_block(CZ, np.minimum(a, b), np.maximum(a, b))


def pair_columns(pairs: Iterable[tuple[int, int]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and second entries of count pairs, as two int arrays."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * count)
    return flat[0::2], flat[1::2]


def cnot_pairs(pairs: list[tuple[int, int]]) -> np.ndarray:
    """CNOT gates from (control, target) pairs, in order."""
    return gate_block(CNOT, *pair_columns(pairs, len(pairs)))


def cz_pairs(pairs: list[tuple[int, int]]) -> np.ndarray:
    """CZ gates on qubit pairs, in order, ends ordered as ``cz`` orders them."""
    return cz_block(*pair_columns(pairs, len(pairs)))


def join(blocks: list) -> np.ndarray:
    """One gate array of the blocks, in order: gate arrays, or nonempty lists of
    (kind, a, b) rows."""
    return np.concatenate(blocks) if blocks else EMPTY


def gate_array(gates: Iterable[Gate]) -> np.ndarray:
    """The gate array of (kind, a, b) tuples; an unknown kind raises ValueError."""
    gates = list(gates)
    try:
        codes = [_CODE[g[0]] for g in gates]
    except KeyError:
        bad = next(g for g in gates if g[0] not in _CODE)
        raise ValueError(f"gate {bad} has unknown kind {bad[0]!r}") from None
    out = np.empty((len(gates), 3), dtype=np.int64)
    if gates:
        out[:, 0] = codes
        out[:, 1:] = [g[1:] for g in gates]
    return out


def gate_list(arr: np.ndarray) -> list[Gate]:
    """The gates of a gate array as ``Gate`` tuples."""
    return [Gate(KINDS[k], a, b) for k, a, b in arr.tolist()]


def _check(arr: np.ndarray, n: int) -> tuple[int, str] | None:
    """The row of the first gate that is malformed or out of range and what is
    wrong with it, naming the gate; None when every gate is well formed."""
    kind, a, b = arr.T
    two = kind < 2
    unknown = (kind < 0) | (kind >= len(KINDS))
    same = two & (a == b)
    stray = ~two & (b != -1)
    out = (a < 0) | (a >= n) | two & ((b < 0) | (b >= n))
    bad = unknown | same | stray | out
    if not bad.any():
        return None
    i = int(bad.argmax())
    k, qa, qb = arr[i].tolist()
    if unknown[i]:
        return i, f"gate {i} has unknown kind code {k}"
    g = Gate(KINDS[k], qa, qb)
    if out[i]:
        return i, f"gate {g} out of range for {n} qubits"
    if same[i]:
        return i, f"gate {g} needs two distinct qubits"
    return i, f"gate {g} is a one-qubit gate with a second qubit"


class Circuit:
    """Ordered gates over a fixed qubit register, held as one (G, 3) gate array.

    ``gates`` may be a gate array, which is kept as it is and must not be
    changed afterwards, or an iterable of ``Gate`` tuples, converted once.
    A CZ's ends are held, and named in errors, in ascending order, as ``cz`` orders
    them (a gate array with a descending CZ is copied).  Equality compares ``perm`` too.
    """

    __slots__ = ("n", "array", "perm")

    def __init__(self, n: int, gates: Iterable[Gate] | np.ndarray = (),
                 perm: Permutation | None = None):
        if n < 0:
            raise ValueError(f"negative qubit count {n}")
        if perm is not None and len(perm) != n:
            raise ValueError(f"perm of {len(perm)} qubits for a circuit on {n}")
        self.n = n
        if isinstance(gates, np.ndarray):
            if gates.ndim != 2 or gates.shape[1] != 3 or gates.dtype.kind not in "iu":
                raise ValueError(f"a gate array is (G, 3) ints, got {gates.dtype} {gates.shape}")
            arr = gates.astype(np.int64, copy=False)
        else:
            arr = gate_array(gates)
        if (desc := (arr[:, 0] == CZ) & (arr[:, 1] > arr[:, 2])).any():
            arr = arr.copy()
            arr[desc, 1:] = arr[desc, :0:-1]  # cz() order
        if (bad := _check(arr, n)) is not None:
            raise ValueError(bad[1])
        self.array = arr
        # Output qubit reordering reported by up-to-reordering synthesis.
        self.perm = perm

    @property
    def gates(self) -> list[Gate]:
        """A fresh list of the gates as ``Gate`` tuples."""
        return gate_list(self.array)

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self.n == other.n
                and np.array_equal(self.array, other.array) and self.perm == other.perm)

    def __repr__(self) -> str:
        return f"Circuit(n={self.n}, gates={len(self.array)})"

    def count_two_qubit(self) -> int:
        return int(np.count_nonzero(self.array[:, 0] < 2))

    def two_qubit_depth(self) -> int:
        """ASAP schedule length of the two-qubit gates."""
        d = [0] * self.n
        asap_finish(self.array, d)
        return max(d, default=0)


def asap_finish(gates: np.ndarray, d) -> None:
    """Advance the finish times d[q] past a gate array's two-qubit gates, each ASAP.

    d maps every qubit the gates touch to the step it is busy until; the
    schedule length is max(d) afterwards.
    """
    qa, qb = gates[:, 1], gates[:, 2]
    if not (two := gates[:, 0] < 2).all():  # drop the free one-qubit gates, column by column
        qa, qb = qa[two], qb[two]
    for a, b in zip(qa.tolist(), qb.tolist()):
        x = d[a]
        y = d[b]
        d[a] = d[b] = (x if x > y else y) + 1


def compose(a: Circuit, b: Circuit) -> Circuit:
    """a, then b; a circuit with a perm raises ValueError, as the result would drop it."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    if a.perm is not None or b.perm is not None:
        raise ValueError("cannot compose a circuit that carries a qubit permutation")
    return Circuit(a.n, np.concatenate([a.array, b.array]))


def invert(c: Circuit) -> Circuit:
    """Inverse circuit: reversed order, P becomes P,P,P (= P dagger); a perm raises ValueError."""
    if c.perm is not None:
        raise ValueError("cannot invert a circuit that carries a qubit permutation")
    rev = c.array[::-1]
    return Circuit(c.n, np.repeat(rev, np.where(rev[:, 0] == P, 3, 1), axis=0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    if c.perm is not None:
        lines.append("perm " + " ".join(str(int(i)) for i in c.perm.map))
    lines += [f"{KINDS[k]} {a} {b}" if k < 2 else f"{KINDS[k]} {a}"
              for k, a, b in zip(*c.array.T.tolist())]
    return "\n".join(lines) + "\n"


# a two-qubit kind and two integer fields or a one-qubit kind and one, as int_fields reads them
_GATE_LINE = re.compile(r"(CZ|CNOT)\s+(-?[0-9]+)\s+(-?[0-9]+)|([HPXZ])\s+(-?[0-9]+)")


def from_text(text: str) -> Circuit:
    """Parse the ``to_text`` form; malformed input raises ValueError naming its line."""
    lines = numbered_lines(text)
    if not lines or lines[0][1].split()[0] != "qubits":
        raise ValueError("circuit file must start with 'qubits n'")
    (n,) = int_fields(lines[0][0], lines[0][1].split()[1:], 1)
    perm, body = None, lines[1:]
    if body and body[0][1].split()[0] == "perm":
        no, ln = body.pop(0)
        entries = int_fields(no, ln.split()[1:])
        if len(entries) != n or sorted(entries) != list(range(n)):
            raise ValueError(f"line {no}: perm is not a permutation of the {n} qubits")
        perm = Permutation(entries)
    flat: list[int] = []  # (kind, a, b) rows, b = -1 for a one-qubit gate
    for no, ln in body:
        if (m := _GATE_LINE.fullmatch(ln)) is None:
            raise ValueError(f"line {no}: expected a gate such as 'CZ a b' or 'H a', got {ln!r}")
        two, a, b, one, q = m.groups()
        flat += (_CODE[two], int(a), int(b)) if two else (_CODE[one], int(q), -1)
    try:
        arr = np.array(flat, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # a qubit beyond int64: the strict reader names its line
        for no, ln in body:
            int_fields(no, ln.split()[1:])
        raise
    try:
        return Circuit(n, arr, perm=perm)
    except ValueError as e:  # the qubit count, or a bad gate: row i is body line i
        no = lines[0][0] if n < 0 else body[_check(arr, n)[0]][0]
        raise ValueError(f"line {no}: {e}") from None


_QASM_NAMES = ("cz", "cx", "h", "s", "x", "z")  # by kind code


def to_qasm2(c: Circuit) -> str:
    """The circuit as OpenQASM 2.0; a circuit with a perm has no QASM form."""
    if c.perm is not None:
        raise ValueError("OpenQASM 2.0 cannot state a qubit permutation; use the circ format")
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n}];",
    ]
    names = _QASM_NAMES
    lines += [f"{names[k]} q[{a}],q[{b}];" if k < 2 else f"{names[k]} q[{a}];"
              for k, a, b in zip(*c.array.T.tolist())]
    return "\n".join(lines) + "\n"
