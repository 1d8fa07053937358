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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class DenseOperator:
    """A complex matrix on a listed tensor-product dimension profile."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        side = prod(self.dims)
        if self.mat.shape != (side, side):
            raise StructuralError(
                f"matrix shape {self.mat.shape} does not match dims {self.dims}"
            )

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dims != other.dims:
            raise StructuralError(f"dims mismatch: {self.dims} vs {other.dims}")
        return DenseOperator(self.dims, self.mat @ other.mat)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dims != other.dims:
            raise StructuralError(f"dims mismatch: {self.dims} vs {other.dims}")
        return DenseOperator(self.dims, self.mat + other.mat)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return self + (-1) * other

    def __mul__(self, scalar: complex) -> "DenseOperator":
        return DenseOperator(self.dims, self.mat * scalar)

    __rmul__ = __mul__

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.linalg.norm(self.mat - self.mat.conj().T) <= tol)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        eye = np.eye(self.side)
        return bool(np.linalg.norm(self.mat.conj().T @ self.mat - eye) <= tol)


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


def to_dense(expr: OperatorExpr) -> DenseOperator:
    """Exact matrix realisation of a Pauli expression on qubit sites."""
    n = expr.n_sites
    stack, labels = pauli_basis_stack(n)
    index = {label: k for k, label in enumerate(labels)}
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in expr:
        mat += coeff * stack[index[label]]
    return DenseOperator((2,) * n, mat)


def pauli_decompose(dense: DenseOperator) -> OperatorExpr:
    """Expand a matrix in the Pauli basis: c_P = tr(P D) / 2**n."""
    if any(d != 2 for d in dense.dims):
        raise StructuralError(f"Pauli decomposition requires qubit dims, got {dense.dims}")
    n = len(dense.dims)
    stack, labels = pauli_basis_stack(n)
    # tr(P D) with P Hermitian; einsum contracts tr(P @ D) per basis element
    coeffs = np.einsum("aij,ji->a", stack, dense.mat) / (2**n)
    return OperatorExpr(
        {label: c for label, c in zip(labels, coeffs)}, n_sites=n
    )


def partial_trace(dense: DenseOperator, keep: tuple[int, ...]) -> DenseOperator:
    """Trace out every subsystem not in ``keep`` (original order preserved)."""
    keep = tuple(sorted(set(keep)))
    n = len(dense.dims)
    if not keep:
        raise StructuralError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise StructuralError(f"keep indices {keep} out of range for {n} subsystems")
    tensor = dense.mat.reshape(dense.dims + dense.dims)
    # contract row/col indices of each traced subsystem pairwise
    traced = [i for i in range(n) if i not in keep]
    for offset, idx in enumerate(traced):
        ax = idx - offset  # axes shift left after each trace
        tensor = np.trace(tensor, axis1=ax, axis2=ax + (n - offset))
    new_dims = tuple(dense.dims[k] for k in keep)
    side = prod(new_dims)
    return DenseOperator(new_dims, tensor.reshape(side, side))


def expm_hermitian(h: DenseOperator, t: float = 1.0) -> DenseOperator:
    """Unitary exp(-i t H) of a Hermitian H via eigendecomposition."""
    if not h.is_hermitian(tol=1e-10):
        raise ContractViolation("expm_hermitian requires a Hermitian matrix")
    # force exact Hermiticity so eigh phases are clean
    sym = (h.mat + h.mat.conj().T) / 2
    evals, vecs = np.linalg.eigh(sym)
    u = (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T
    return DenseOperator(h.dims, u)


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
