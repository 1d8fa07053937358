"""Operator predicates and the stepwise descriptor reference shared by the tests.

None of these is needed to run the CLI, so they live beside the tests that
use them rather than in ``src/``.
"""

import numpy as np

from qwitness.circuit import (
    COMPONENTS,
    SUBSYSTEMS,
    Circuit,
    DescriptorFrame,
    gate_expr_in_frame,
    initial_frame,
)
from qwitness.dense import DenseOperator
from qwitness.paulis import COEFF_TOL, OperatorExpr


def approx_equal(a: OperatorExpr, b: OperatorExpr, tol: float = 1e-12) -> bool:
    """Equal site counts and every coefficient within ``tol``."""
    labels = set(a.labels()) | set(b.labels())
    return a.n_sites == b.n_sites and all(abs(a.coeff(l) - b.coeff(l)) <= tol for l in labels)


def is_zero(expr: OperatorExpr) -> bool:
    """No term survived canonicalisation."""
    return not expr.labels()


def is_hermitian(expr: OperatorExpr, tol: float = COEFF_TOL) -> bool:
    # Pauli products are Hermitian, so Hermiticity is realness of coeffs.
    return all(abs(c.imag) <= tol for _, c in expr)


def dagger(expr: OperatorExpr) -> OperatorExpr:
    """Adjoint: Pauli products are Hermitian, so conjugate each coefficient."""
    return OperatorExpr({l: c.conjugate() for l, c in expr}, expr.n_sites)


def is_unitary(op: DenseOperator, tol: float = 1e-12) -> bool:
    return bool(np.linalg.norm(op.mat.conj().T @ op.mat - np.eye(op.side)) <= tol)


def evolve_descriptors_stepwise(circuit: Circuit) -> list[DescriptorFrame]:
    """Frames computed gate-at-a-time, each gate expressed in the previous frame.

    Reference for :func:`qwitness.circuit.evolve_descriptors`, which conjugates
    by the accumulated dense gate product: here the slice-i gate is built
    from the descriptors at t_{i-1} and conjugates them symbolically.
    """
    frames = [initial_frame()]
    for step, gate in enumerate(circuit.gates, start=1):
        prev = frames[-1]
        v = gate_expr_in_frame(gate, prev)
        v_dag = dagger(v)
        triples = {}
        for sub in SUBSYSTEMS:
            triples[sub] = tuple(
                v_dag @ prev.component(sub, comp) @ v for comp in COMPONENTS
            )
        frames.append(DescriptorFrame(step, triples))
    return frames
