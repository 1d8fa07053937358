"""Operator-algebra verification of conservation-law-constrained qubit dynamics.

Modules cover exact Pauli algebra and dense numerics, the six-gate
witness network in the Heisenberg picture, commutant computations under
additive and non-additive conservation laws, rotation-axis constraint
systems with bounded mediator searches, partial-swap homogenisation, and a
truncated bosonic image of the network.  The ``qwitness`` CLI runs every
check deterministically and writes machine-readable reports.
"""

__version__ = "0.1.0"
