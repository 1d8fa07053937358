"""Operator-algebra verification of conservation-law-constrained qubit dynamics.

Subpackages cover exact Pauli algebra and dense numerics, the six-gate
witness network in the Heisenberg picture, commutant computations under
additive and non-additive conservation laws, rotation-axis constraint
systems with bounded mediator searches, partial-swap homogenisation, and a
truncated bosonic image of the network.  The ``qwitness`` CLI runs every
check deterministically and writes machine-readable reports.
"""

from .circuit import (
    Circuit,
    DescriptorFrame,
    GateSpec,
    evolve_descriptors,
    gate_unitary,
    network_hamiltonian,
    witness_circuit,
    witness_state_check,
)
from .conservation import (
    ConservedQuantity,
    HamiltonianFamily,
    commutant_basis,
    conservation_residual,
    constrain_family,
)
from .dense import expm_hermitian, partial_trace, pauli_decompose, to_dense
from .errors import ContractViolation, StructuralError
from .homogenizer import HomogenizerConfig, homogenize_step
from .oscillator import FockOperators, HPQubit, fock_ops, hp_hamiltonian, hp_qubit
from .paulis import OperatorExpr, commutator
from .reports import Check, WitnessReport
from .witness import (
    WITNESS_FRAME_MAP,
    axis_constraint_report,
    classical_impossibility_search,
    coherence,
    conjugation_image,
    quantum_demo,
)

__version__ = "0.1.0"
