"""Operator predicates, the stepwise descriptor reference and the CLI's search
arguments, shared by the tests.

None of these is needed to run the CLI, so they live beside the tests that
use them rather than in ``src/``.
"""

import functools
from types import MappingProxyType

import numpy as np
import pytest

from typing import Sequence

from qwitness import cli, homogenizer, witness
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


@functools.cache
def cli_search_arguments(**config) -> MappingProxyType:
    """Keyword arguments the CLI hands each search driver, by driver name.

    Runs ``experiment_witness`` and ``experiment_homogenize`` at
    ``RunConfig(**config)`` with both drivers replaced by recorders that
    answer with the real driver at budget 0, so nothing is sampled.  With no
    ``config`` these are the arguments of the CLI's default search and check.
    The result is cached and shared, so it is read-only, arrays included.
    """
    seen = {}

    def recorder(module, name):
        real = getattr(module, name)

        def driver(**kwargs):
            seen[name] = MappingProxyType(kwargs)
            return real(**{**kwargs, "budget": 0})

        return driver

    with pytest.MonkeyPatch.context() as mp:
        for module, name in (
            (witness, "classical_impossibility_search"),
            (homogenizer, "classical_reservoir_check"),
        ):
            mp.setattr(module, name, recorder(module, name))
        cli.experiment_witness(cli.RunConfig(**config))
        cli.experiment_homogenize(cli.RunConfig(**config))
    seen["classical_reservoir_check"]["eta_grid"].flags.writeable = False
    return MappingProxyType(seen)
