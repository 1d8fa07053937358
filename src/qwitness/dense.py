"""Dense complex-matrix realisations of the symbolic operators.

Conventions fixed here and inherited by every other module:

* ``Z = diag(1, -1)``, ``X`` real off-diagonal, ``Y = [[0, -i], [i, 0]]``;
  ``|0>`` is the +1 eigenvector of ``Z``.
* Tensor factors are ordered (Q, M, ancillas...) and map to ``np.kron``
  left-to-right, so site 0 indexes the most significant qubit.
* Matrix exponentials go through a Hermitian eigendecomposition; every
  dimension used in the package is at most 64.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

from .errors import ContractViolation, StructuralError
from .paulis import PAULI_CHARS, OperatorExpr

PAULI_MATS: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=8)
def pauli_basis_stack(n_sites: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """All 4**n Pauli product matrices, stacked, with their labels."""
    labels = tuple("".join(p) for p in product(PAULI_CHARS, repeat=n_sites))
    stack = np.empty((len(labels), 2**n_sites, 2**n_sites), dtype=complex)
    for k, label in enumerate(labels):
        m = np.array([[1.0 + 0j]])
        for c in label:
            m = np.kron(m, PAULI_MATS[c])
        stack[k] = m
    return stack, labels


def to_dense(expr: OperatorExpr) -> np.ndarray:
    """Exact matrix realisation of a Pauli expression on qubit sites."""
    n = expr.n_sites
    stack, labels = pauli_basis_stack(n)
    index = {label: k for k, label in enumerate(labels)}
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in expr:
        mat += coeff * stack[index[label]]
    return mat


def pauli_decompose(mat: np.ndarray) -> OperatorExpr:
    """Expand a 2**n x 2**n matrix in the Pauli basis: c_P = tr(P D) / 2**n."""
    side = len(mat)
    if mat.shape != (side, side) or side < 2 or side & (side - 1):
        raise StructuralError(
            f"Pauli decomposition requires a 2**n x 2**n matrix, got shape {mat.shape}"
        )
    n = side.bit_length() - 1
    stack, labels = pauli_basis_stack(n)
    # tr(P D) with P Hermitian; einsum contracts tr(P @ D) per basis element
    coeffs = np.einsum("aij,ji->a", stack, mat) / side
    return OperatorExpr(
        {label: c for label, c in zip(labels, coeffs)}, n_sites=n
    )


def partial_trace(
    mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Trace out every subsystem not in ``keep`` (original order preserved).

    ``dims`` lists the tensor factors of ``mat`` in kron order.
    """
    dims = tuple(dims)
    side = prod(dims)
    if mat.shape != (side, side):
        raise StructuralError(f"matrix shape {mat.shape} does not match dims {dims}")
    keep = tuple(sorted(set(keep)))
    n = len(dims)
    if not keep:
        raise StructuralError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise StructuralError(f"keep indices {keep} out of range for {n} subsystems")
    tensor = mat.reshape(dims + dims)
    # contract row/col indices of each traced subsystem pairwise
    traced = [i for i in range(n) if i not in keep]
    for offset, idx in enumerate(traced):
        ax = idx - offset  # axes shift left after each trace
        tensor = np.trace(tensor, axis1=ax, axis2=ax + (n - offset))
    kept = prod(dims[k] for k in keep)
    return tensor.reshape(kept, kept)


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exp(-i t H) of a Hermitian H via eigendecomposition."""
    if not np.linalg.norm(h - h.conj().T) <= 1e-10:
        raise ContractViolation("expm_hermitian requires a Hermitian matrix")
    # force exact Hermiticity so eigh phases are clean
    sym = (h + h.conj().T) / 2
    evals, vecs = np.linalg.eigh(sym)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


# -- qubit-state helpers -------------------------------------------------


def qubit_state(bloch: tuple[float, float, float]) -> np.ndarray:
    """Density matrix (I + r.sigma)/2 for a Bloch vector with |r| <= 1."""
    rx, ry, rz = bloch
    if rx * rx + ry * ry + rz * rz > 1 + 1e-10:
        raise ContractViolation(f"Bloch vector {bloch} outside the unit ball")
    return 0.5 * (
        PAULI_MATS["I"] + rx * PAULI_MATS["X"] + ry * PAULI_MATS["Y"] + rz * PAULI_MATS["Z"]
    )


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(<X>, <Y>, <Z>) of a qubit density matrix."""
    return np.array(
        [np.trace(rho @ PAULI_MATS[c]).real for c in "XYZ"]
    )


def assert_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise ContractViolation unless rho is a valid state to tolerance."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ContractViolation(f"not a square matrix: shape {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > tol:
        raise ContractViolation("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ContractViolation(f"trace {np.trace(rho):.3g} != 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -tol:
        raise ContractViolation("state has a negative eigenvalue")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """D(a, b) = tr|a - b| / 2 for Hermitian matrices."""
    diff = (a - b + (a - b).conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(diff)).sum() / 2)
