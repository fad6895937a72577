"""Independent correctness oracles.

These deliberately avoid the synthesis code paths: the linear oracle
replays CNOTs on the rows of an identity matrix, kept as Python ints (a
circuit with any other gate is read from its tableau), the
phase oracle tracks the diagonal action over all basis labels, and
tableau equality compares the simulator's bit columns.  Convention used
throughout: circuits act left to right, so
linear_action(compose(a, b)) == linear_action(b) @ linear_action(a).
"""

from __future__ import annotations

import numpy as np

from .circuit import CNOT, CZ, KINDS, X, Z, Circuit
from .clifford import tableau_of_circuit
from .gf2 import BitMatrix

PHASE_MAX_QUBITS = 12  # the phase oracle's table has 2**n entries


class NotLinearError(ValueError):
    """The circuit does not act as a linear map x -> R x on basis labels."""


def linear_action(c: Circuit) -> BitMatrix:
    """Basis-label action x -> R x of a linear-reversible circuit.

    Replays a CNOT-only circuit directly.  A circuit with any other gate
    is read from its stabilizer tableau instead, since later gates may
    undo what an H or CZ does.  A circuit that is not linear raises
    NotLinearError (a ValueError).
    """
    if (c.array[:, 0] != CNOT).any():
        return _linear_action_from_tableau(c)
    rows = [1 << i for i in range(c.n)]  # bit j of rows[i] = R[i, j]
    for a, b in zip(c.array[:, 1].tolist(), c.array[:, 2].tolist()):
        rows[b] ^= rows[a]
    return BitMatrix(c.n, c.n, rows)


def _linear_action_from_tableau(c: Circuit) -> BitMatrix:
    """R read off the tableau: linear exactly when each X_j maps to a product
    of Xs and each Z_j to a product of Zs, all with sign +."""
    t = tableau_of_circuit(c)
    # bit r < n of a column is a row X_r maps to, bit n + r one Z_r maps to
    low = (1 << c.n) - 1
    if t.ph or any(v >> c.n for v in t.X) or any(v & low for v in t.Z):
        raise NotLinearError("circuit is not linear on basis labels")
    return BitMatrix(c.n, c.n, t.X)


class NotDiagonalError(ValueError):
    """The circuit permutes basis labels, so it has no diagonal phase table."""


def phase_oracle(c: Circuit) -> np.ndarray:
    """Diagonal phase exponent per input basis label, exhaustively.

    Supports CNOT, CZ, X, Z.  The circuit's permutation action on labels
    must be the identity overall (CZ synthesis with compute/uncompute
    stages satisfies this); otherwise phases would not be attributable to
    input labels and a NotDiagonalError (a ValueError) is raised.
    """
    if c.n > PHASE_MAX_QUBITS:
        raise ValueError(f"phase oracle limited to {PHASE_MAX_QUBITS} qubits")
    labels = np.arange(1 << c.n, dtype=np.uint32)
    cur = labels.copy()
    phase = np.zeros(labels.shape, dtype=np.uint8)
    for kind, a, b in zip(*c.array.T.tolist()):
        if kind == CNOT:
            cur ^= ((cur >> np.uint32(a)) & np.uint32(1)) << np.uint32(b)
        elif kind == CZ:
            phase ^= ((cur >> np.uint32(a)) & (cur >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
        elif kind == Z:
            phase ^= ((cur >> np.uint32(a)) & np.uint32(1)).astype(np.uint8)
        elif kind == X:
            cur ^= np.uint32(1 << a)
        else:
            raise ValueError(f"phase oracle cannot handle {KINDS[kind]} gate")
    if not np.array_equal(cur, labels):
        raise NotDiagonalError("circuit permutes basis labels; phases not diagonal")
    return phase


def cz_pattern_phases(bits: np.ndarray) -> np.ndarray:
    """Predicted phase exponents (-1)^{sum m_ij x_i x_j} of a CZ pattern."""
    n = bits.shape[0]
    labels = np.arange(1 << n, dtype=np.uint32)
    phase = np.zeros(labels.shape, dtype=np.uint8)
    for i in range(n):
        for j in range(i + 1, n):
            if bits[i, j]:
                phase ^= ((labels >> np.uint32(i)) & (labels >> np.uint32(j)) & np.uint32(1)).astype(np.uint8)
    return phase


def tableaux_equal(a, b) -> bool:
    """Bitwise equality of two tableaux (symplectic part and phases)."""
    if a.n != b.n:
        raise ValueError("tableau sizes differ")
    return a == b
