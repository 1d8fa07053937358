"""Dense complex-matrix realisations of the symbolic operators.

Conventions fixed here and inherited by every other module:

* ``Z = diag(1, -1)``, ``X`` real off-diagonal, ``Y = [[0, -i], [i, 0]]``;
  ``|0>`` is the +1 eigenvector of ``Z``.
* Tensor factors are ordered (Q, M, ancillas...) and map to ``np.kron``
  left-to-right, so site 0 indexes the most significant qubit.
* Matrix exponentials go through a Hermitian eigendecomposition.  The
  package's matrices are 4 x 4 for the two-qubit network, 8 x 8 for the
  channel extension and 2 d_b x 2 d_b for the bosonic image, so their side
  grows with the mediator truncation ``--db`` (64 at ``--db 32``).
* Stacks: :func:`expm_hermitian`, :func:`partial_trace`, :func:`bloch_vector`,
  :func:`assert_density_matrix`, :func:`trace_distance` and
  :func:`frobenius_norm` take matrices with any leading stack axes,
  ``(..., n, n)``, and treat each trailing 2-D slice as one matrix; a 2-D
  input is the one-matrix case.  Every slice of a stacked result equals the
  2-D result for that slice bit for bit: each step is elementwise or one
  LAPACK/BLAS call per slice, as for one matrix.  A stack fails validation
  when any slice does; with one invalid slice, the error is the one that
  slice raises alone.
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

#: Tolerance of the Hermiticity, trace and eigenvalue tests of a state.
_STATE_TOL = 1e-10


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

    ``dims`` lists the tensor factors of ``mat`` (..., side, side) in kron
    order.
    """
    dims = tuple(dims)
    side = prod(dims)
    if mat.shape[-2:] != (side, side):
        raise StructuralError(f"matrix shape {mat.shape} does not match dims {dims}")
    keep = tuple(sorted(set(keep)))
    n = len(dims)
    if not keep:
        raise StructuralError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise StructuralError(f"keep indices {keep} out of range for {n} subsystems")
    stack = mat.shape[:-2]
    tensor = mat.reshape(stack + dims + dims)
    # contract row/col indices of each traced subsystem pairwise
    traced = [i for i in range(n) if i not in keep]
    for offset, idx in enumerate(traced):
        ax = len(stack) + idx - offset  # axes shift left after each trace
        tensor = np.trace(tensor, axis1=ax, axis2=ax + (n - offset))
    kept = prod(dims[k] for k in keep)
    return tensor.reshape(stack + (kept, kept))


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each trailing 2-D slice."""
    return mat.conj().swapaxes(-1, -2)


def frobenius_norm(mat: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of each C-ordered 2-D slice, as ``np.linalg.norm`` gives it.

    ``np.linalg.norm`` of one complex matrix is sqrt(re.re + im.im), each
    term one strided BLAS dot over the flattened slice; ``axis=(-2, -1)``
    sums the squares in another order and can differ in the last bit.  A
    vector @ vector ``matmul`` calls that same dot, once per slice.
    """
    mat = np.asarray(mat)
    flat = mat.reshape(*mat.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    squares = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    norm = np.sqrt(squares[..., 0, 0])
    return norm if norm.ndim else float(norm)


def expm_hermitian(h: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Unitary exp(-i t H) of a Hermitian H via eigendecomposition.

    ``t`` is a scalar or an array broadcasting against the stack axes of
    ``h``; one eigendecomposition of ``h`` serves every time.
    """
    adjoint = _adjoint(h)
    if not np.all(frobenius_norm(h - adjoint) <= 1e-10):
        raise ContractViolation("expm_hermitian requires a Hermitian matrix")
    # force exact Hermiticity so eigh phases are clean
    sym = (h + adjoint) / 2
    evals, vecs = np.linalg.eigh(sym)
    phase = np.exp(-1j * np.asarray(t)[..., None] * evals)
    return (vecs * phase[..., None, :]) @ _adjoint(vecs)


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
    """(<X>, <Y>, <Z>) of a qubit density matrix, along a new last axis."""
    return np.stack(
        [np.trace(rho @ PAULI_MATS[c], axis1=-2, axis2=-1).real for c in "XYZ"], axis=-1
    )


def assert_density_matrix(rho: np.ndarray) -> None:
    """Raise ContractViolation unless rho (or every slice) is a valid state to tolerance."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ContractViolation(f"not a square matrix: shape {rho.shape}")
    adjoint = _adjoint(rho)
    if np.any(frobenius_norm(rho - adjoint) > _STATE_TOL):
        raise ContractViolation("state is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    error = trace - 1.0
    off = np.hypot(error.real, error.imag) > _STATE_TOL  # the scalar abs() of a complex
    if np.any(off):
        raise ContractViolation(f"trace {np.asarray(trace)[off][0]:.3g} != 1")
    if np.linalg.eigvalsh((rho + adjoint) / 2).min() < -_STATE_TOL:
        raise ContractViolation("state has a negative eigenvalue")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """D(a, b) = tr|a - b| / 2 for Hermitian matrices."""
    diff = a - b
    dist = np.abs(np.linalg.eigvalsh((diff + _adjoint(diff)) / 2)).sum(axis=-1) / 2
    return dist if dist.ndim else float(dist)
