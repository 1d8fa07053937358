"""Collision-model homogenisation of one qubit against a fresh-qubit reservoir.

The system qubit meets each reservoir qubit exactly once through the partial
swap ``P(eta) = cos(eta) I + i sin(eta) S``, the circuit's ``PARTIAL_SWAP``
gate.  Because used reservoir qubits are discarded, each step is an exact
4-dimensional computation; the joint state over the full reservoir is never
materialised (cross-checked against a small joint simulation in the tests).

The weight of the reservoir state inside the system state after n steps
follows the closed law ``1 - cos(eta)**(2n)``; the weight is extracted from
the simulated state by a least-squares split described at
:func:`xi_coefficient`.  The classical-reservoir search is exact on 2x2 Z_M
sectors: the reservoir enters as the diagonal |0><0| and every classical H is
block diagonal in Z_M, so the probe only meets the Z_M = +1 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import GateSpec, PARTIAL_SWAP, gate_unitary
from .conservation import (
    ConservedQuantity,
    HamiltonianFamily,
    box_samples,
    classical_filtered_family,
    conservation_residual,
    zm_sector_maps,
)
from .dense import (
    assert_density_matrix,
    partial_trace,
    qubit_state,
    trace_distance,
)
from .errors import StructuralError
from .reports import WitnessReport


def homogenize_step(
    rho: np.ndarray, xi: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One collision: reduced states of P (rho x xi) P† on each side."""
    assert_density_matrix(rho)
    assert_density_matrix(xi)
    p = gate_unitary(GateSpec(PARTIAL_SWAP, eta))
    joint = p @ np.kron(rho, xi) @ p.conj().T
    return (
        partial_trace(joint, (2, 2), keep=(0,)),
        partial_trace(joint, (2, 2), keep=(1,)),
    )


def step_recursion(
    rho: np.ndarray, xi: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form collision step, including the commutator cross term.

    rho' = cos^2(eta) rho + sin^2(eta) xi + i cos(eta) sin(eta) [xi, rho]
    xi'  = cos^2(eta) xi + sin^2(eta) rho - i cos(eta) sin(eta) [xi, rho]
    """
    c, s = math.cos(eta), math.sin(eta)
    cross = 1j * c * s * (xi @ rho - rho @ xi)
    return (
        c * c * rho + s * s * xi + cross,
        c * c * xi + s * s * rho - cross,
    )


def xi_coefficient(rho: np.ndarray, xi: np.ndarray) -> float:
    """Weight of xi inside rho from the split rho = kappa xi + rest.

    ``rest`` is constrained to the span of the identity and the Pauli
    directions orthogonal to xi's traceless part, which makes the split a
    one-parameter least-squares problem:
    kappa = <xi_tl, rho_tl> / <xi_tl, xi_tl> in the Hilbert-Schmidt inner
    product of traceless parts.  NaN when xi is maximally mixed (no traceless
    direction to project on).
    """
    dim = rho.shape[0]
    xi_tl = xi - np.trace(xi) / dim * np.eye(dim)
    denom = np.trace(xi_tl.conj().T @ xi_tl).real
    if denom < 1e-24:
        return float("nan")
    rho_tl = rho - np.trace(rho) / dim * np.eye(dim)
    return float(np.trace(xi_tl.conj().T @ rho_tl).real / denom)


@dataclass(frozen=True)
class HomogenizerConfig:
    """Reservoir size, coupling strength and the two single-qubit states."""

    n_steps: int = 20
    eta: float = 0.5
    rho0: np.ndarray = field(default_factory=lambda: qubit_state((0.0, 0.0, 1.0)))
    xi: np.ndarray = field(default_factory=lambda: qubit_state((1.0, 0.0, 0.0)))

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise StructuralError("need at least one reservoir qubit")
        assert_density_matrix(self.rho0)
        assert_density_matrix(self.xi)


@dataclass
class HomogenizerTrajectory:
    """Per-step record of one homogenisation run."""

    config: HomogenizerConfig
    states: list[np.ndarray]            # system state after step n (index 0 = initial)
    reservoir_out: list[np.ndarray]     # used reservoir qubit after each step
    trace_distances: list[float]        # D(rho_n, xi)
    xi_coefficients: list[float]        # extracted weight of xi in rho_n
    predicted_coefficients: list[float]  # 1 - cos(eta)^(2n)


def run(config: HomogenizerConfig) -> HomogenizerTrajectory:
    """Homogenise against n fresh reservoir qubits, one collision each."""
    rho = np.array(config.rho0, dtype=complex)
    states = [rho]
    reservoir_out: list[np.ndarray] = []
    distances = [trace_distance(rho, config.xi)]
    coeffs = [xi_coefficient(rho, config.xi)]
    predicted = [0.0]
    for n in range(1, config.n_steps + 1):
        rho, xi_out = homogenize_step(rho, config.xi, config.eta)
        states.append(rho)
        reservoir_out.append(xi_out)
        distances.append(trace_distance(rho, config.xi))
        coeffs.append(xi_coefficient(rho, config.xi))
        predicted.append(1.0 - math.cos(config.eta) ** (2 * n))
    return HomogenizerTrajectory(
        config=config,
        states=states,
        reservoir_out=reservoir_out,
        trace_distances=distances,
        xi_coefficients=coeffs,
        predicted_coefficients=predicted,
    )


# -- classical-reservoir impossibility check --------------------------------


def _admissible_surface_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random (alpha, beta, gamma, c) drawn directly on the H^2 = I surface.

    Per Z_M sector: (gamma + c)^2 = 1 and 4 alpha^2 + 4 beta^2 + (gamma - c)^2 = 1.
    """
    sign = rng.choice([-1.0, 1.0], size=count)           # gamma + c
    vec = rng.normal(size=(count, 3))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)     # (2a, 2b, gamma - c)
    alpha = vec[:, 0] / 2
    beta = vec[:, 1] / 2
    gamma = (sign + vec[:, 2]) / 2
    c = (sign - vec[:, 2]) / 2
    return np.column_stack([alpha, beta, gamma, c])


def _sector_involution_residual(blocks: np.ndarray) -> np.ndarray:
    """|H^2 - I|_F from sector blocks (2, B, 4) in (I, X, Y, Z) coordinates.

    (c I + n.sigma)^2 - I = (c^2 + |n|^2 - 1) I + 2c n.sigma, and a 2x2 block
    a I + b.sigma has squared Frobenius norm 2(a^2 + |b|^2).
    """
    c2 = blocks[..., 0] ** 2
    n2 = (blocks[..., 1:] ** 2).sum(axis=-1)
    return np.sqrt((2 * ((c2 + n2 - 1) ** 2 + 4 * c2 * n2)).sum(axis=0))


def _sector_image_gap(blocks: np.ndarray) -> np.ndarray:
    """|H X_Q H - Z_Q|_F from sector blocks (2, B, 4).

    Per sector H X H = 2c n_x I + (c^2 + n_x^2 - n_y^2 - n_z^2) X
    + 2 n_x n_y Y + 2 n_x n_z Z.
    """
    c, nx, ny, nz = np.moveaxis(blocks, -1, 0)
    sq = 2 * (
        (2 * c * nx) ** 2
        + (c * c + nx * nx - ny * ny - nz * nz) ** 2
        + (2 * nx * ny) ** 2
        + (2 * nx * nz - 1) ** 2
    )
    return np.sqrt(sq.sum(axis=0))


def _final_distances(plus: np.ndarray, eta: float, n_steps: int) -> np.ndarray:
    """D(rho_N, |0><0|) after N collisions, from Z_M = +1 blocks (B, 4).

    U (rho x |0><0|) U^dag = U_+ rho U_+^dag x |0><0|, so the probe state is
    psi = U_+^N |+> with U_+ = cos(eta) I + i sin(eta) H_+, and the traceless
    rho_N - |0><0| has trace distance sqrt(d00^2 + |d01|^2).
    """
    c, nx, ny, nz = plus.T
    cos, sin = math.cos(eta), math.sin(eta)
    u00 = cos + 1j * sin * (c + nz)
    u01 = sin * (ny + 1j * nx)
    u10 = sin * (-ny + 1j * nx)
    u11 = cos + 1j * sin * (c - nz)
    psi0 = np.full(len(plus), 1 / math.sqrt(2), dtype=complex)
    psi1 = psi0.copy()
    for _ in range(n_steps):
        psi0, psi1 = u00 * psi0 + u01 * psi1, u10 * psi0 + u11 * psi1
    d00 = psi0.real**2 + psi0.imag**2 - 1.0
    d01 = psi0 * psi1.conj()
    return np.sqrt(d00**2 + d01.real**2 + d01.imag**2)


def _reservoir_scan(
    family: HamiltonianFamily, eta_grid: np.ndarray, n_steps: int, budget: int,
    seed: int, grid_points: int, param_range: float,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample data of the reservoir search over the default classical family.

    Returns the admissibility mask of each sample source (grid, surface),
    the admissible free parameters (B, 4), the final trace distances
    (len(eta_grid), B) and the operator-image gaps (B,).
    """
    to_sectors = zm_sector_maps(family)  # (2, 4, 4)
    free_names = family.free_params()
    rng = np.random.default_rng(seed)
    # no uniform box draws: H^2 = I has measure zero in the box
    grid, _ = box_samples(rng, len(free_names), grid_points, param_range, 0)
    alpha, beta, gamma, c = _admissible_surface_draws(rng, budget).T
    # free coordinates are (gamma, a, b, c) with a = -alpha, b = -beta
    surface = np.column_stack([gamma, -alpha, -beta, c])

    masks, kept = {}, []
    for name, block in (("grid", grid), ("surface", surface)):
        masks[name] = _sector_involution_residual(block @ to_sectors) <= 1e-7
        kept.append(block[masks[name]])
    free_params = np.vstack(kept)
    blocks = free_params @ to_sectors
    distances = np.array(
        [_final_distances(blocks[0], eta, n_steps) for eta in eta_grid]
    ).reshape(len(eta_grid), len(free_params))
    return masks, free_params, distances, _sector_image_gap(blocks)


def classical_reservoir_check(
    eta_grid: np.ndarray | None = None,
    n_steps: int = 8,
    budget: int = 10_000,
    seed: int = 7,
    grid_points: int = 9,
    param_range: float = 2.0,
) -> WitnessReport:
    """Search for a classical reservoir that homogenises |+> towards |0>.

    The interaction is ``U(eta) = cos(eta) I + i sin(eta) H`` with H drawn
    from the constrained classical family; U is unitary only when H^2 = I, so
    samples failing that are skipped and counted.  The samples are the grid
    and ``budget`` draws parametrised directly on that surface.  Reports the
    minimal final trace distance D(rho_N, |0><0|) and the minimal
    ``|H X_Q H - Z_Q|_F``; verdict POSITIVE-GAP when they stay above
    0.5 and 1.0 respectively.  Everything runs on 2x2 Z_M-sector blocks
    (:func:`zm_sector_maps`), exactly: the reservoir qubit enters as the
    diagonal |0><0| and H is block diagonal in Z_M, so N collisions are one
    conjugation of the probe by U_+^N.  ``argmin_trace_distance`` is a
    tie-break among distances equal up to rounding (all sit at 1/sqrt(2)).
    """
    family = classical_filtered_family()
    free_names = family.free_params()
    report = WitnessReport(
        task="classical reservoir homogenisation of |+> towards |0>",
        seed=seed,
        parameters={
            "free_params": list(free_names),
            "n_steps": n_steps,
            "budget": budget,
            "grid_points": grid_points,
            "param_range": param_range,
        },
    )
    report.findings["note"] = (
        "bounded search: evidence only; the algebraic root systems carry the proof"
    )
    if budget <= 0:
        report.verdict = "UNPROVEN"
        return report
    if eta_grid is None:
        eta_grid = np.linspace(math.pi / 32, math.pi / 2, 16)
    eta_grid = np.asarray(eta_grid, dtype=float)

    masks, free_params, distances, image_gap = _reservoir_scan(
        family, eta_grid, n_steps, budget, seed, grid_points, param_range
    )
    report.findings["skipped"] = {name: int((~m).sum()) for name, m in masks.items()}
    report.findings["admissible_samples"] = int(len(free_params))
    if len(free_params) == 0:
        report.verdict = "UNPROVEN"
        return report

    def located(idx: int) -> dict:
        return {n: float(v) for n, v in zip(free_names, free_params[idx])}

    # first occurrence of the minimum in (eta, sample) order
    eta_idx, idx = np.unravel_index(np.argmin(distances), distances.shape)
    best_dist = float(distances[eta_idx, idx])
    gap_idx = int(np.argmin(image_gap))
    report.findings["min_final_trace_distance"] = best_dist
    report.findings["argmin_trace_distance"] = {
        **located(idx), "eta": float(eta_grid[eta_idx])
    }
    report.findings["min_image_distance"] = float(image_gap[gap_idx])
    report.findings["argmin_image_distance"] = located(gap_idx)
    report.add_check(
        "final-distance-gap",
        best_dist,
        ">",
        0.5,
        "classical reservoir never drives |+> to |0>",
    )
    report.add_check(
        "operator-image-gap",
        float(image_gap[gap_idx]),
        ">",
        1.0,
        "H X_Q H never matches Z_Q, so no sin^2 term proportional to xi x xi",
    )
    report.verdict = "POSITIVE-GAP" if report.all_passed() else "GAP-NOT-OBSERVED"
    return report


def nonadditive_conservation_residual(eta: float) -> float:
    """|[P(eta), Z_Q + Z_M + Z_Q Z_M]|_F (zero: the coupling is allowed)."""
    return conservation_residual(
        gate_unitary(GateSpec(PARTIAL_SWAP, eta)), ConservedQuantity.nonadditive()
    )
