"""Operator predicates, the summed family member, the stepwise descriptor
reference, the CLI's search arguments, per-sample references for the stacked
sites, the two-recurrence reservoir walk and the broadcast search
certificates, shared by the tests.

None of these is needed to run the CLI, so they live beside the tests that
use them rather than in ``src/``.
"""

import functools
import math
from types import MappingProxyType

import numpy as np
import pytest

from typing import Iterator, Sequence

from qwitness import cli, conservation, homogenizer, oscillator, witness
from qwitness.circuit import composite_unitary, witness_circuit
from qwitness.dense import (
    PAULI_MATS,
    bloch_vector,
    expm_hermitian,
    partial_trace,
    to_dense,
    trace_distance,
)
from qwitness.errors import StructuralError
from qwitness.paulis import COEFF_TOL, OperatorExpr
from qwitness.witness import _COS2_SLACK, _E, _PHASE_SLACK, _POP_SLACK

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


# -- per-sample references for the stacked sites ----------------------------
# Each loop below is the one its site ran before the site became one numpy
# call per stack, with the dense helpers called on one matrix at a time.  The
# tests hold each stacked site equal to its loop with ==, not allclose.


def member(family: conservation.HamiltonianFamily, values: dict[str, float]) -> OperatorExpr:
    """Expression of ``family`` at a parameter assignment, summed term by term.

    The constraints must hold to 1e-9.  Reference for
    :meth:`~qwitness.conservation.HamiltonianFamily.dense_members`.
    """
    vec = np.array([values[p] for p in family.params], dtype=float)
    if family.constraints:
        resid = np.abs(family.constraint_matrix() @ vec).max()
        if resid > 1e-9:
            raise StructuralError(f"parameters violate constraints (residual {resid:.3g})")
    out = OperatorExpr.zero(family.basis[0].n_sites)
    for c, b in zip(vec, family.basis):
        out = out + float(c) * b
    return out


def random_member(
    family: conservation.HamiltonianFamily, rng: np.random.Generator
) -> tuple[OperatorExpr, np.ndarray]:
    """Random constrained member of ``family``: (expression, parameter vector).

    The free parameters are uniform on [-2, 2], expanded through
    ``family.expansion_matrix()``.
    """
    expand = family.expansion_matrix().astype(float)
    vec = rng.uniform(-2.0, 2.0, size=len(expand)) @ expand
    return member(family, dict(zip(family.params, vec))), vec


def member_residual_loop(seed: int) -> float:
    """``experiment_conservation``'s worst residual over 100 constrained members.

    The rng is fresh at ``seed``, as the experiment's is when it reaches its
    members; each draw takes a :func:`random_member` (the expansion matrix
    built again), then its time.  The residual is ``np.linalg.norm`` of the
    commutator.
    """
    rng = np.random.default_rng(seed)
    family = conservation.classical_filtered_family()
    c_dense = to_dense(conservation.ConservedQuantity.nonadditive().expr)
    worst = 0.0
    for _ in range(100):
        member, _vec = random_member(family, rng)
        t = rng.uniform(0.0, 2 * math.pi)
        u = expm_hermitian(to_dense(member), t)
        worst = max(worst, float(np.linalg.norm(u @ c_dense - c_dense @ u)))
    return worst


def haar_mediator_states_loop(seed: int) -> list[np.ndarray]:
    """The 100 pure mediator states of ``mediator_independence_check``, one at a time."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(100):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        states.append(np.outer(amp, amp.conj()))
    return states


def witness_state_loop(mediator_states: list[np.ndarray]) -> np.ndarray:
    """``witness_state_check``, one mediator state at a time."""
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    u = composite_unitary(witness_circuit())
    blochs = []
    for rho_m in mediator_states:
        joint = np.kron(ket0, np.asarray(rho_m, dtype=complex))
        rho_q = partial_trace(u @ joint @ u.conj().T, (2, 2), keep=(0,))
        blochs.append(bloch_vector(rho_q))
    return np.array(blochs)


def exchange_trajectory_loop() -> list[tuple[float, float, float, float]]:
    """The exchange demo's (t, <X>, <Y>, <Z>) rows, one exponential per time."""
    h_dense = to_dense(witness.exchange_hamiltonian())
    ket0 = np.array([1.0, 0.0], dtype=complex)
    rho_m = 0.5 * (PAULI_MATS["I"] + PAULI_MATS["X"])
    joint0 = np.kron(np.outer(ket0, ket0.conj()), rho_m)
    trajectory = []
    for t in np.linspace(0.0, math.pi / 4, 65):
        u = expm_hermitian(h_dense, t)
        rho_q = partial_trace(u @ joint0 @ u.conj().T, (2, 2), keep=(0,))
        bloch = bloch_vector(rho_q)
        trajectory.append((float(t), float(bloch[0]), float(bloch[1]), float(bloch[2])))
    return trajectory


def oscillator_run_loop(d_b: int) -> dict[int, list[tuple[float, float]]]:
    """``oscillator_witness_run``, one state vector per (level, time)."""
    t_grid = np.linspace(0.0, 2 * math.pi, 64)
    evals, vecs = np.linalg.eigh(oscillator.hp_hamiltonian(d_b))
    trajectories = {}
    for level in range(d_b):
        psi0 = np.zeros(2 * d_b, dtype=complex)
        psi0[level] = 1.0
        coeff = vecs.conj().T @ psi0
        points = []
        for t in t_grid:
            psi = vecs @ (np.exp(-1j * t * evals) * coeff)
            rho_01 = (psi[:d_b] * psi[d_b:].conj()).sum()
            points.append((float(t), float(2 * abs(rho_01))))
        trajectories[level] = points
    return trajectories


def homogenize_rows_loop(cfg: "cli.RunConfig") -> list[tuple]:
    """``homogenizer_trajectory.csv`` rows, one collision and one state at a time."""
    rows = []
    for eta in dict.fromkeys((0.2, 0.5, 1.0, cfg.eta)):
        states = [homogenizer.RHO0]
        for _ in range(cfg.n_steps):
            states.append(homogenizer.homogenize_step(states[-1], homogenizer.XI, eta)[0])
        distances = [trace_distance(rho, homogenizer.XI) for rho in states]
        for n, rho in enumerate(states):
            kappa = homogenizer.xi_coefficient(rho, homogenizer.XI)
            rows.append((eta, n, distances[n], kappa, 1.0 - math.cos(eta) ** (2 * n)))
    return rows


def one_call_surface_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """Reference for :func:`qwitness.homogenizer._admissible_surface_draws`:
    every sign, then every normal in one call, copied from the code it
    replaced."""
    sign = rng.choice([-1.0, 1.0], size=count)           # gamma + c
    vec = rng.normal(size=(count, 3))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)     # (-2a, -2b, gamma - c)
    return np.column_stack(
        [(sign + vec[:, 2]) / 2, -vec[:, 0] / 2, -vec[:, 1] / 2, (sign - vec[:, 2]) / 2]
    )


def two_recurrence_distances(
    plus: np.ndarray, eta_grid: np.ndarray, n_steps: int
) -> Iterator[np.ndarray]:
    """Reference for :func:`qwitness.homogenizer._final_distances`: the walk of
    psi0 and psi1 as two scalar recurrences, with u11 = cos + i sin (c - n_z)
    built from the block's I and Z parts, copied from the code it replaced.

    It refuses X and Y parts only, so it also walks plus blocks with an I part.
    """
    c, nx, ny, nz = plus.T
    if nx.any() or ny.any():
        raise StructuralError("Z_M = +1 block with an X or Y part: U_+ is not diagonal")
    c_plus, c_minus = c + nz, c - nz
    for eta in eta_grid:
        cos, sin = math.cos(eta), math.sin(eta)
        u00 = cos + 1j * sin * c_plus
        u11 = cos + 1j * sin * c_minus
        psi0 = np.full(len(plus), 1 / math.sqrt(2), dtype=complex)
        psi1 = psi0.copy()
        for _ in range(n_steps):
            np.multiply(u00, psi0, out=psi0)
            np.multiply(u11, psi1, out=psi1)
        d00 = psi0.real**2 + psi0.imag**2 - 1.0
        d01 = psi0 * psi1.conj()
        yield np.sqrt(d00**2 + d01.real**2 + d01.imag**2)


def broadcast_certificates(
    blocks: np.ndarray, times: np.ndarray, out: np.ndarray, work: np.ndarray
) -> None:
    """Reference for :func:`qwitness.witness._sector_certificates`: the same
    bounds from (T, 2 B) broadcasts over every (time, row) cell.

    ``work`` is scratch space of at least (2, 2 B T) floats.  The extrema
    over time are ``f.max(axis=0)`` and ``min |f - alpha/pi|`` over axis 0.
    """
    n_rows = out.shape[1]
    axes = blocks[..., 1:].reshape(-1, 3)  # the plus rows, then the minus rows
    r = np.linalg.norm(axes, axis=-1)
    degenerate = r < 1e-100
    unit = axes / np.where(degenerate, 1.0, r)[:, None]
    unit[degenerate] = _E["z"]
    ux, uy, uz = unit.T
    f, dist = work[:, : len(times) * len(r)].reshape(2, len(times), len(r))
    np.multiply.outer(times / math.pi, r, out=f)
    np.subtract(f, np.rint(f, out=dist), out=f)
    np.abs(f, out=f)
    slack = _PHASE_SLACK * (1.0 + np.abs(times).max() * r)
    x = np.maximum(math.pi * (0.5 - f.max(axis=0)) - slack, 0.0)
    floor = np.sin(x) ** 2 * (1.0 - _COS2_SLACK)
    lb = floor * (ux + uz) ** 2 + ((ux - uz) ** 2 + 2.0 * uy * uy)
    np.sqrt(8.0 * (lb[:n_rows] + lb[n_rows:]), out=out[0])
    out[1:3] = np.sqrt(8.0 * lb).reshape(2, n_rows)
    transverse = ux * ux + uy * uy
    alpha = np.arcsin(np.sqrt(0.5 / np.maximum(transverse, 0.5)))
    np.subtract(f, alpha / math.pi, out=dist)
    d = np.maximum(math.pi * np.abs(dist, out=dist).min(axis=0) - slack, 0.0)
    g = math.pi - 2.0 * alpha - slack
    m = np.where(
        transverse < 0.5,
        0.5 - transverse,
        transverse * np.sin(d) * np.sin(np.maximum(d, g - d)),
    )
    ub = 2.0 * np.sqrt(0.25 - m * m + _POP_SLACK)
    np.negative(np.maximum(ub[:n_rows], ub[n_rows:]), out=out[3])
