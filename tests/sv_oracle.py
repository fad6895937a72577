"""Brute-force statevector checks for small circuits (test helper).

Builds the full 2^n unitary and conjugates Pauli generators explicitly,
so it shares no code with the bit-column tableau simulator.
"""

import numpy as np

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P = np.diag([1, 1j])
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_I = np.eye(2, dtype=complex)

_ONEQ = {"H": _H, "P": _P, "X": _X, "Z": _Z}


def _lift(op: np.ndarray, q: int, n: int) -> np.ndarray:
    mats = [_I] * n
    mats[q] = op
    out = np.array([[1.0 + 0j]])
    # qubit 0 is the least significant bit of the basis label
    for m in reversed(mats):
        out = np.kron(out, m)
    return out


def _two_qubit(kind: str, a: int, b: int, n: int) -> np.ndarray:
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        ba = (s >> a) & 1
        bb = (s >> b) & 1
        if kind == "CZ":
            u[s, s] = -1.0 if ba and bb else 1.0
        else:  # CNOT a->b
            u[s ^ (ba << b), s] = 1.0
    return u


def circuit_unitary(c) -> np.ndarray:
    u = np.eye(1 << c.n, dtype=complex)
    for g in c.gates:
        if g.kind in ("CZ", "CNOT"):
            u = _two_qubit(g.kind, g.a, g.b, c.n) @ u
        else:
            u = _lift(_ONEQ[g.kind], g.a, c.n) @ u
    return u


def pauli_matrix(xbits, zbits) -> np.ndarray:
    n = len(xbits)
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        x, z = int(xbits[q]), int(zbits[q])
        w = _I if not (x or z) else _X if x and not z else _Z if z and not x else _Y
        out = np.kron(out, w)
    return out


def tableau_matches_unitary(t, c) -> bool:
    """Every tableau row equals U P U^dagger of its generator."""
    n = c.n
    u = circuit_unitary(c)
    udag = u.conj().T
    s, ph = t.to_dense()
    for r in range(2 * n):
        xin = np.zeros(n, dtype=int)
        zin = np.zeros(n, dtype=int)
        if r < n:
            xin[r] = 1
        else:
            zin[r - n] = 1
        lhs = u @ pauli_matrix(xin, zin) @ udag
        rhs = ((-1.0) ** int(ph[r])) * pauli_matrix(s[r, :n], s[r, n:])
        if not np.allclose(lhs, rhs, atol=1e-9):
            return False
    return True
