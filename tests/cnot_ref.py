"""Reference triangular recursion for the CNOT tests (test helper).

``reference_tri_gates`` is ``cnot._tri_gates`` as it was before the
recursion took k = 4 as a base case, kept unchanged: a 4-qubit triangle
is halved into a 2x2 block and two k = 2 triangles.  ``cnot._tri_gates``
must give the same gates, in the same order.
"""

from cliffdepth.circuit import CNOT
from cliffdepth.cnot import _BASE3, _block_add_gates
from cliffdepth.gf2 import BitMatrix, back_substitute


def reference_tri_gates(qubits: list[int], r: list[int], out: list) -> None:
    k = len(qubits)
    if k <= 1:
        return
    if k == 2:
        if r[0] >> 1 & 1:
            out.append([(CNOT, qubits[1], qubits[0])])
        return
    if k == 3:
        key = (r[0] >> 1 & 1, r[0] >> 2 & 1, r[1] >> 2 & 1)
        if key != (0, 0, 0):
            out.append([(CNOT, qubits[c], qubits[t]) for (c, t) in _BASE3[key]])
        return
    h_ = (k + 1) // 2
    a, b = qubits[:h_], qubits[h_:]
    top = [v & ((1 << h_) - 1) for v in r[:h_]]
    c = back_substitute(top, [v >> h_ for v in r[:h_]])
    out.append(_block_add_gates(a, b, BitMatrix(h_, k - h_, c)))
    reference_tri_gates(a, top, out)
    reference_tri_gates(b, [v >> h_ for v in r[h_:]], out)
