"""Gate-level circuit representation and the two-qubit depth metric.

Only two-qubit gates occupy schedule steps; single-qubit gates are free.
Depth is computed by an ASAP scan over per-qubit counters, so synthesis
code is responsible for emitting gates in an order that realizes the
claimed parallelism.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple

from .gf2 import Permutation


class Gate(NamedTuple):
    kind: str  # CZ | CNOT | H | P | X | Z
    a: int
    b: int = -1


TWO_QUBIT = ("CZ", "CNOT")
ONE_QUBIT = ("H", "P", "X", "Z")

# Gate from a full (kind, a, b) tuple, skipping NamedTuple's Python __new__
_gate = partial(tuple.__new__, Gate)


def cz(i: int, j: int) -> Gate:
    if i == j:
        raise ValueError("CZ needs two distinct qubits")
    return _gate(("CZ", i, j) if i < j else ("CZ", j, i))


def cnot(c: int, t: int) -> Gate:
    if c == t:
        raise ValueError("CNOT needs two distinct qubits")
    return _gate(("CNOT", c, t))


def h(q: int) -> Gate:
    return Gate("H", q)


def p(q: int) -> Gate:
    return Gate("P", q)


def x(q: int) -> Gate:
    return Gate("X", q)


def z(q: int) -> Gate:
    return Gate("Z", q)


class Circuit:
    """Ordered gate list over a fixed qubit register."""

    __slots__ = ("n", "gates", "perm")

    def __init__(self, n: int, gates: Iterable[Gate] = (), perm: Permutation | None = None):
        self.n = n
        self.gates: list[Gate] = list(gates)
        # Output qubit reordering reported by up-to-reordering synthesis.
        self.perm = perm
        used = set(map(itemgetter(1), self.gates))
        # b names a qubit only in a two-qubit gate
        used.update([b for kind, _, b in self.gates if kind in TWO_QUBIT])
        if used and (min(used) < 0 or max(used) >= n):
            bad = next(g for g in self.gates
                       if not (0 <= g.a < n and (g.kind not in TWO_QUBIT or 0 <= g.b < n)))
            raise ValueError(f"gate {bad} out of range for {n} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other) -> bool:
        return isinstance(other, Circuit) and self.n == other.n and self.gates == other.gates

    def __repr__(self) -> str:
        return f"Circuit(n={self.n}, gates={len(self.gates)})"

    def count_two_qubit(self) -> int:
        return sum(1 for g in self.gates if g.kind in TWO_QUBIT)

    def two_qubit_depth(self) -> int:
        """ASAP schedule length of the two-qubit gates."""
        d = [0] * self.n
        asap_finish(self.gates, d)
        return max(d, default=0)


def asap_finish(gates: Iterable[Gate], d) -> None:
    """Advance the finish times d[q] past the gates' two-qubit gates, each ASAP.

    d maps every qubit the gates touch to the step it is busy until; the
    schedule length is max(d) afterwards.
    """
    for kind, a, b in gates:
        if kind in TWO_QUBIT:
            x = d[a]
            y = d[b]
            d[a] = d[b] = (x if x > y else y) + 1


def compose(a: Circuit, b: Circuit) -> Circuit:
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return Circuit(a.n, a.gates + b.gates)


def invert(c: Circuit) -> Circuit:
    """Inverse circuit: reversed order; P becomes P,P,P (= P dagger)."""
    out: list[Gate] = []
    for g in reversed(c.gates):
        if g.kind == "P":
            out.extend([g, g, g])
        else:
            out.append(g)
    return Circuit(c.n, out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_text(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    if c.perm is not None:
        lines.append("perm " + " ".join(str(int(i)) for i in c.perm.map))
    for g in c.gates:
        if g.kind in TWO_QUBIT:
            lines.append(f"{g.kind} {g.a} {g.b}")
        else:
            lines.append(f"{g.kind} {g.a}")
    return "\n".join(lines) + "\n"


def _line_ints(no: int, ln: str, count: int | None = None) -> list[int]:
    """The integer fields after the keyword of one text line."""
    fields = ln.split()[1:]
    if count is not None and len(fields) != count:
        raise ValueError(f"line {no}: expected {count} integer field(s) in {ln!r}")
    try:
        return [int(t) for t in fields]
    except ValueError:
        raise ValueError(f"line {no}: non-integer field in {ln!r}") from None


def from_text(text: str) -> Circuit:
    """Parse the ``to_text`` form; malformed input raises ValueError naming its line."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].split()[0] != "qubits":
        raise ValueError("circuit file must start with 'qubits n'")
    (n,) = _line_ints(*lines[0], 1)
    if n < 0:
        raise ValueError(f"line {lines[0][0]}: negative qubit count")
    perm = None
    body = lines[1:]
    if body and body[0][1].split()[0] == "perm":
        no, ln = body[0]
        try:
            perm = Permutation(_line_ints(no, ln))
        except (ValueError, OverflowError) as e:
            raise ValueError(f"line {no}: {e}") from None
        if len(perm) != n:
            raise ValueError(f"line {no}: perm has {len(perm)} entries for {n} qubits")
        body = body[1:]
    gates: list[Gate] = []
    for no, ln in body:
        kind = ln.split()[0]
        if kind not in TWO_QUBIT and kind not in ONE_QUBIT:
            raise ValueError(f"line {no}: unknown gate line: {ln!r}")
        qs = _line_ints(no, ln, 2 if kind in TWO_QUBIT else 1)
        if not all(0 <= q < n for q in qs):
            raise ValueError(f"line {no}: qubit out of range for {n} qubits in {ln!r}")
        if len(set(qs)) < len(qs):
            raise ValueError(f"line {no}: {kind} needs two distinct qubits in {ln!r}")
        if kind in TWO_QUBIT:
            gates.append(cz(*qs) if kind == "CZ" else cnot(*qs))
        else:
            gates.append(Gate(kind, qs[0]))
    return Circuit(n, gates, perm=perm)


_QASM_NAMES = {"CZ": "cz", "CNOT": "cx", "H": "h", "P": "s", "X": "x", "Z": "z"}


def to_qasm2(c: Circuit) -> str:
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n}];",
    ]
    for g in c.gates:
        name = _QASM_NAMES[g.kind]
        if g.kind in TWO_QUBIT:
            lines.append(f"{name} q[{g.a}],q[{g.b}];")
        else:
            lines.append(f"{name} q[{g.a}];")
    return "\n".join(lines) + "\n"
