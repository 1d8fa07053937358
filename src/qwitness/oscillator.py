"""Bosonic image of the two-qubit network on a truncated Fock space.

A spin-1/2 degree of freedom is written through creation/annihilation
operators: q_z = 1/2 - a†a and q_x, q_y built from sqrt(1 - a†a) a and its
adjoint.  On truncations with more than two levels the argument of the
square root goes negative on high Fock states; its negative eigenvalues are
clamped to zero, which keeps every operator Hermitian and reproduces the
two-level case exactly at dimension 2.

The half-Pauli normalisation is deliberate: at dimension 2 the generators
are X/2, Y/2, Z/2 and satisfy [q_i, q_j] = i eps_ijk q_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .paulis import OperatorExpr


@dataclass(frozen=True)
class FockOperators:
    """Truncated ladder operators on d levels."""

    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    number: np.ndarray


def fock_ops(dim: int) -> FockOperators:
    """a|n> = sqrt(n)|n-1> on a d-level truncation; number = diag(0..d-1)."""
    if dim < 2:
        raise StructuralError("Fock truncation needs at least two levels")
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return FockOperators(dim, a, a.conj().T, a.conj().T @ a)


def _clamped_sqrt_one_minus_number(dim: int) -> np.ndarray:
    """sqrt(max(1 - n, 0)) as a diagonal matrix on d levels."""
    diag = np.sqrt(np.clip(1.0 - np.arange(dim, dtype=float), 0.0, None))
    return np.diag(diag).astype(complex)


@dataclass(frozen=True)
class HPQubit:
    """Spin-1/2 generators realised on a d-level truncation (half-Pauli scale).

    Only spin 1/2 is built: at d = 2 these are X/2, Y/2, Z/2.
    """

    dim: int
    q_x: np.ndarray
    q_y: np.ndarray
    q_z: np.ndarray


def hp_qubit(dim: int = 2) -> HPQubit:
    """Spin-1/2 generators q_z = 1/2 - a†a, q_x/q_y from the clamped hopping term."""
    ops = fock_ops(dim)
    root = _clamped_sqrt_one_minus_number(dim)
    lower = root @ ops.a          # sqrt(1 - n) a
    raise_ = ops.a_dag @ root     # a† sqrt(1 - n)
    return HPQubit(
        dim=dim,
        q_x=(lower + raise_) / 2,
        q_y=(lower - raise_) / (2j),
        q_z=np.eye(dim, dtype=complex) / 2 - ops.number,
    )


def hp_hamiltonian(d_b: int) -> np.ndarray:
    """Network Hamiltonian with the mediator promoted to a d_b-level mode.

    Probe truncation fixed at two levels.  Terms: the two free evolutions,
    the controller coupling q_x^(Q) (1/2 + b†b), and the symmetric hopping
    term b† sqrt(1-b†b) sqrt(1-a†a) a + h.c. (weight 1/4).
    """
    if d_b < 2:
        raise StructuralError("mediator truncation needs at least two levels")
    d_a = 2
    a_ops = fock_ops(d_a)
    b_ops = fock_ops(d_b)
    eye_a = np.eye(d_a, dtype=complex)
    eye_b = np.eye(d_b, dtype=complex)
    eye = np.kron(eye_a, eye_b)

    q_a = hp_qubit(d_a)
    root_a = _clamped_sqrt_one_minus_number(d_a)
    root_b = _clamped_sqrt_one_minus_number(d_b)
    lower_a = root_a @ a_ops.a
    lower_b = root_b @ b_ops.a

    h = 1.5 * (eye - np.kron(eye_a, b_ops.number))
    h += 0.5 * (eye - np.kron(a_ops.number, eye_b))
    h += np.kron(q_a.q_x, 0.5 * eye_b + b_ops.number)
    hop = np.kron(lower_a, lower_b.conj().T)  # sqrt(1-n_a) a  x  b† sqrt(1-n_b)
    h += 0.25 * (hop + hop.conj().T)
    return h


def hp_substitute(expr: OperatorExpr, d_b: int) -> np.ndarray:
    """Letter-wise bosonic image of a two-site Pauli expression.

    Site 0 keeps a two-level truncation, site 1 is widened to d_b levels;
    each Pauli letter maps to the matching half-Pauli generator (X -> q_x and
    so on), so single-letter terms pick up a factor 1/2 per non-identity
    letter relative to the Pauli convention.
    """
    if expr.n_sites != 2:
        raise StructuralError("substitution is defined for two-site expressions")
    q_a = hp_qubit(2)
    q_b = hp_qubit(d_b)
    maps = [
        {"I": np.eye(2, dtype=complex), "X": q_a.q_x, "Y": q_a.q_y, "Z": q_a.q_z},
        {"I": np.eye(d_b, dtype=complex), "X": q_b.q_x, "Y": q_b.q_y, "Z": q_b.q_z},
    ]
    out = np.zeros((2 * d_b, 2 * d_b), dtype=complex)
    for label, coeff in expr:
        out += coeff * np.kron(maps[0][label[0]], maps[1][label[1]])
    return out


def identity_free_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance after removing each operator's identity component."""
    if a.shape != b.shape:
        raise StructuralError(f"shape mismatch: {a.shape} vs {b.shape}")
    dim = len(a)
    a0 = a - np.trace(a) / dim * np.eye(dim)
    b0 = b - np.trace(b) / dim * np.eye(dim)
    return float(np.linalg.norm(a0 - b0))


def oscillator_witness_run(d_b: int) -> dict[int, list[tuple[float, float]]]:
    """Coherence of Q over time, one trajectory per initial mediator level.

    Q starts Z-sharp (|0> in the two-level truncation); the mediator starts
    in each Fock basis state; times are 64 points on [0, 2 pi].  Returns
    {level: [(t, coherence)]}, coherence 2|sum_m psi[0, m] conj(psi[1, m])|.
    """
    t_grid = np.linspace(0.0, 2 * math.pi, 64)
    evals, vecs = np.linalg.eigh(hp_hamiltonian(d_b))
    trajectories: dict[int, list[tuple[float, float]]] = {}
    for level in range(d_b):
        psi0 = np.zeros(2 * d_b, dtype=complex)
        psi0[level] = 1.0  # |0>_Q x |level>_M in row-major (Q, M) ordering
        coeff = vecs.conj().T @ psi0
        points = []
        for t in t_grid:
            psi = vecs @ (np.exp(-1j * t * evals) * coeff)
            rho_01 = (psi[:d_b] * psi[d_b:].conj()).sum()
            points.append((float(t), float(2 * abs(rho_01))))
        trajectories[level] = points
    return trajectories
