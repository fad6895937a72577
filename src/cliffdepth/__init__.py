"""Depth-optimized synthesis of CZ, CNOT, and Clifford circuits."""

from .bounds import (
    BoundFormula,
    CLIFFORD_BOUND,
    CNOT_EXACT_BOUND,
    CNOT_REORDER_BOUND,
    CZ_BASIC_BOUND,
    CZ_BOUND,
    cnot_depth_recursion,
    crossover_scan,
    cz_depth_recursion,
    emit_comparison_csv,
    merge_saving,
    prior_art_bound,
    validate_closed_form,
)
from .circuit import Circuit, Gate, compose, from_text, invert, to_qasm2, to_text
from .clifford import (
    CliffordLayers,
    CliffordTableau,
    decompose_tableau,
    random_tableau,
    synth_clifford,
    tableau_of_circuit,
)
from .cnot import remove_hadamards, synth_linear, synth_triangular
from .cz import CzSpec, synth_cz, synth_cz_coloring
from .gf2 import (
    BitMatrix,
    Permutation,
    SingularMatrixError,
    lu_decompose,
    mat_inverse,
    mat_mul,
    perm_to_transposition_layers,
    random_invertible,
)
from .patterns import bipartite_edge_color, halve_weights, synth_m01
from .rectangles import parity_tree, synth_rectangle
from .verify import linear_action, phase_oracle, tableaux_equal

__all__ = [
    "BitMatrix", "BoundFormula", "Circuit", "CliffordLayers", "CliffordTableau",
    "CzSpec", "Gate", "Permutation", "SingularMatrixError",
    "active_backend", "bipartite_edge_color", "cnot_depth_recursion", "compose",
    "crossover_scan", "cz_depth_recursion", "decompose_tableau",
    "emit_comparison_csv", "from_text", "halve_weights", "invert",
    "linear_action", "lu_decompose", "mat_inverse", "mat_mul", "merge_saving",
    "parity_tree", "perm_to_transposition_layers", "phase_oracle",
    "prior_art_bound", "random_invertible", "random_tableau",
    "remove_hadamards", "synth_cz", "synth_cz_coloring", "synth_clifford",
    "synth_linear", "synth_m01", "synth_rectangle", "synth_triangular",
    "tableau_of_circuit", "tableaux_equal", "to_qasm2", "to_text",
    "validate_closed_form",
    "CZ_BOUND", "CZ_BASIC_BOUND", "CNOT_EXACT_BOUND", "CNOT_REORDER_BOUND",
    "CLIFFORD_BOUND",
]

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel backend; plain numpy is the only one."""
    return "numpy"
