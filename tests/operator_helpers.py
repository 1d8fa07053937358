"""Operator predicates and the stepwise descriptor reference shared by the tests.

None of these is needed to run the CLI, so they live beside the tests that
use them rather than in ``src/``.
"""

import numpy as np

from typing import Sequence

from qwitness.paulis import COEFF_TOL, OperatorExpr

#: The two systems of the witness network, in tensor order.
SUBSYSTEMS = ("Q", "M")


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


def is_unitary(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.linalg.norm(mat.conj().T @ mat - np.eye(len(mat))) <= tol)


def substitute_descriptors(expr: OperatorExpr, row: dict) -> OperatorExpr:
    """``expr`` with each site's Pauli letter replaced by that site's descriptor.

    ``row`` maps each subsystem to its (x, y, z) descriptors.  Conjugation
    preserves products and Q descriptors commute with M descriptors, so a
    t0-basis expression becomes its conjugate by the row's evolution.
    """
    one = OperatorExpr.identity(expr.n_sites)
    letters = [dict(zip("IXYZ", (one, *row[sub]))) for sub in SUBSYSTEMS]
    out = OperatorExpr.zero(expr.n_sites)
    for label, coeff in expr:
        out = out + coeff * (letters[0][label[0]] @ letters[1][label[1]])
    return out


def evolve_descriptors_stepwise(gates: Sequence[OperatorExpr]) -> list[dict]:
    """Descriptor rows computed gate-at-a-time, each gate written in the previous row.

    Reference for :func:`qwitness.circuit.evolve_descriptors`, which conjugates
    by the accumulated dense gate product: here the slice-i gate is its
    t0-basis expression with the descriptors at t_{i-1} substituted for its Pauli
    letters, and it conjugates those descriptors symbolically.
    """
    rows = [{
        "Q": tuple(OperatorExpr.from_label(l) for l in ("XI", "YI", "ZI")),
        "M": tuple(OperatorExpr.from_label(l) for l in ("IX", "IY", "IZ")),
    }]
    for gate in gates:
        prev = rows[-1]
        v = substitute_descriptors(gate, prev)
        v_dag = dagger(v)
        rows.append({sub: tuple(v_dag @ p @ v for p in triple) for sub, triple in prev.items()})
    return rows
