"""Collision-model homogenisation of one qubit against a fresh-qubit reservoir.

The system qubit meets each reservoir qubit exactly once through the partial
swap ``P(eta) = cos(eta) I + i sin(eta) S`` of ``circuit.partial_swap``.
Because used reservoir qubits are discarded, each step is an exact
4-dimensional computation; the joint state over the full reservoir is never
materialised (cross-checked against a small joint simulation in the tests).

The weight of the reservoir state inside the system state after n steps
follows the closed law ``1 - cos(eta)**(2n)``; the weight is extracted from
the simulated state by a least-squares split described at
:func:`xi_coefficient`.  The classical-reservoir search is exact on 2x2 Z_M
sectors: the reservoir enters as the diagonal |0><0| and every classical H is
block diagonal in Z_M, so the probe only meets the Z_M = +1 block, which is
n_z Z for every admissible member: the probe walks one scalar recurrence.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .circuit import partial_swap
from .conservation import (
    ConservedQuantity,
    _search_report,
    _sector_blocks,
    box_grid,
    conservation_residual,
)
from .dense import assert_density_matrix, partial_trace, qubit_state, to_dense
from .errors import StructuralError
from .reports import WitnessReport


def homogenize_step(
    rho: np.ndarray, xi: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One collision: reduced states of P (rho x xi) P† on each side."""
    states, used = run(eta, 1, rho, xi)
    return states[1], used[0]


def _partial_swaps(eta: float | np.ndarray) -> np.ndarray:
    """P(eta) per angle, as an ``eta.shape + (4, 4)`` stack (4 x 4 for a scalar)."""
    etas = np.asarray(eta)
    p = np.array([to_dense(partial_swap(e)) for e in etas.ravel().tolist()])
    return p.reshape(etas.shape + (4, 4))


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


def xi_coefficient(rho: np.ndarray, xi: np.ndarray) -> float | np.ndarray:
    """Weight of xi inside rho from the split rho = kappa xi + rest.

    ``rest`` is constrained to the span of the identity and the Pauli
    directions orthogonal to xi's traceless part, which makes the split a
    one-parameter least-squares problem:
    kappa = <xi_tl, rho_tl> / <xi_tl, xi_tl> in the Hilbert-Schmidt inner
    product of traceless parts.  NaN when xi is maximally mixed (no traceless
    direction to project on).  A (..., d, d) stack of states gives one
    weight per state.
    """
    dim = rho.shape[-1]
    xi_tl = xi - np.trace(xi) / dim * np.eye(dim)
    denom = np.trace(xi_tl.conj().T @ xi_tl).real
    if denom < 1e-24:
        denom = math.nan  # no traceless direction: every weight is NaN
    rho_tl = rho - (np.trace(rho, axis1=-2, axis2=-1) / dim)[..., None, None] * np.eye(dim)
    kappa = np.trace(xi_tl.conj().T @ rho_tl, axis1=-2, axis2=-1).real / denom
    return kappa if kappa.ndim else float(kappa)


#: Default initial system state |0><0| and reservoir state |+><+|.
RHO0 = qubit_state((0.0, 0.0, 1.0))
XI = qubit_state((1.0, 0.0, 0.0))


def run(
    eta: float | np.ndarray, n_steps: int, rho0: np.ndarray = RHO0, xi: np.ndarray = XI
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Homogenise against n fresh reservoir qubits, one collision each.

    Returns ``(states, used)``: the system states rho_0 ... rho_n and the used
    reservoir qubit after each collision.  An array of etas runs one
    trajectory per eta as one stack: each state is then ``eta.shape + (2, 2)``
    and its slice k equals ``run(eta[k], n_steps)`` bit for bit.  ``rho0``
    and ``xi`` are validated once; every later state is a collision output,
    a state by construction.  P(eta) and P† are built once; each collision's
    outer product holds the products ``np.kron`` forms, in its order.
    """
    assert_density_matrix(rho0)
    assert_density_matrix(xi)
    p = _partial_swaps(eta)
    p_dag = p.conj().swapaxes(-1, -2)
    states = [np.array(np.broadcast_to(rho0, np.shape(eta) + np.shape(rho0)), dtype=complex)]
    used: list[np.ndarray] = []
    for _ in range(n_steps):
        kron = states[-1][..., :, None, :, None] * xi[..., None, :, None, :]
        joint = p @ kron.reshape(kron.shape[:-4] + (4, 4)) @ p_dag
        states.append(partial_trace(joint, (2, 2), keep=(0,)))
        used.append(partial_trace(joint, (2, 2), keep=(1,)))
    return states, used


# -- classical-reservoir impossibility check --------------------------------


def _admissible_surface_draws(
    rng: np.random.Generator, count: int, step: int
) -> Iterator[np.ndarray]:
    """Random free parameters (gamma, a, b, c) drawn directly on the H^2 = I surface.

    Per Z_M sector: (gamma + c)^2 = 1 and 4 a^2 + 4 b^2 + (gamma - c)^2 = 1.
    Yields blocks of at most ``step`` rows.  Every sign is drawn first, then
    the normals block by block: successive ``rng.normal`` calls continue one
    stream, so the rows are those of one ``(count, 3)`` draw.
    """
    sign = rng.choice([-1.0, 1.0], size=count)           # gamma + c
    for start in range(0, count, step):
        s = sign[start : start + step]
        vec = rng.normal(size=(len(s), 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)  # (-2a, -2b, gamma - c)
        rows = np.column_stack(
            [(s + vec[:, 2]) / 2, -vec[:, 0] / 2, -vec[:, 1] / 2, (s - vec[:, 2]) / 2]
        )
        del vec  # the scan's kernels peak without the normals
        yield rows


def _sector_involution_residual(blocks: np.ndarray) -> np.ndarray:
    """|H^2 - I|_F from sector blocks (2, B, 4) in (I, X, Y, Z) coordinates.

    (c I + n.sigma)^2 - I = (c^2 + |n|^2 - 1) I + 2c n.sigma, and a 2x2 block
    a I + b.sigma has squared Frobenius norm 2(a^2 + |b|^2).
    """
    c, x, y, z = np.moveaxis(blocks, -1, 0)
    c2 = c * c
    n2 = x * x + y * y + z * z  # no (2, B, 3) temporary
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array (-0.0 and 0.0 are one value).

    A sort and a difference mask: plain ``np.unique`` imports ``numpy.ma``.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _final_distances(nz: np.ndarray, eta_grid: np.ndarray, n_steps: int) -> np.ndarray:
    """D(rho_N, |0><0|) after N collisions, (E, U), per eta and Z_M = +1 block n_z Z.

    U (rho x |0><0|) U^dag = U_+ rho U_+^dag x |0><0|, so the probe state is
    psi = U_+^N |+> with U_+ = cos(eta) I + i sin(eta) n_z Z = exp(i eta n_z Z)
    (n_z = +-1 for every admissible member), diagonal with u11 = conj(u00):
    one recurrence walks psi0, psi1 = conj(psi0) bit for bit (negation is
    exact and the complex product sign-symmetric), and the traceless
    rho_N - |0><0| has trace distance sqrt(d00^2 + |d01|^2) with
    d01 = psi0 psi1^* = psi0^2.  The (E, U) walk does per element what a walk
    of one eta does: u00 from ``math.cos`` and ``math.sin`` of that eta.
    """
    u00 = np.empty((len(eta_grid), len(nz)), dtype=complex)
    for k, eta in enumerate(eta_grid):
        cos, sin = math.cos(eta), math.sin(eta)
        u00[k] = cos + 1j * sin * nz
    psi0 = np.full(u00.shape, 1 / math.sqrt(2), dtype=complex)
    for _ in range(n_steps):
        np.multiply(u00, psi0, out=psi0)
    d00 = psi0.real**2 + psi0.imag**2 - 1.0
    d01 = psi0 * psi0
    return np.sqrt(d00**2 + d01.real**2 + d01.imag**2)


def _reservoir_scan(
    maps: np.ndarray, eta_grid: np.ndarray, n_steps: int, budget: int, seed: int,
    grid_points: int, param_range: float,
) -> tuple[dict[str, int], int, float, tuple[float, list]]:
    """Streamed reservoir search over the default classical family.

    ``maps`` is :func:`zm_sector_maps` of that family, whose free parameters
    (gamma, a, b, c) the surface draws are drawn in.  The grid, then the
    surface draws, pass through :func:`_sector_blocks` at four cells per
    sample (a block holds its rows and their (2, B, 4) sector blocks); the
    draws are made block by block.  A block's inadmissible samples
    (H^2 != I in a Z_M sector) are counted as skipped.  Its admissible ones
    update one (value, free parameters) of the operator-image gap, the first
    minimum in sample order, and add their n_z to the sorted distinct n_z:
    a Z_M = +1 block with an I, X or Y part raises :class:`StructuralError`,
    since only n_z Z makes U_+ diagonal.  After the stream the walk runs once
    over the distinct n_z (two, +-1, for the family), since the final trace
    distance depends on a sample only through n_z; it has no argument to
    report (every sample sits at 1/sqrt(2) up to rounding).  Returns the
    skipped count per source, the admissible count and the two minima, inf
    (with no row) until an admissible sample arrives.
    """
    rng = np.random.default_rng(seed)
    sources = {
        # no uniform box draws: H^2 = I has measure zero in the box
        "grid": box_grid(maps.shape[1], grid_points, param_range),
        "surface": lambda step: _admissible_surface_draws(rng, budget, step),
    }
    skipped, admissible = dict.fromkeys(sources, 0), 0
    nz = np.empty(0)
    gap_best = (math.inf, None)
    for name, samples in sources.items():
        for rows, blocks in _sector_blocks(samples, maps, 4):
            mask = _sector_involution_residual(blocks) <= 1e-7
            kept = int(np.count_nonzero(mask))
            skipped[name] += len(rows) - kept
            if not kept:
                continue
            if kept < len(rows):  # the surface draws are all admissible: no copies
                rows, blocks = rows[mask], blocks[:, mask]
            admissible += kept
            if blocks[0, :, :3].any():
                raise StructuralError("Z_M = +1 block with an I, X or Y part: U_+ is not diagonal")
            nz = _distinct(np.concatenate((nz, blocks[0, :, 3])))
            gap = _sector_image_gap(blocks)
            i = int(np.argmin(gap))
            if gap[i] < gap_best[0]:
                gap_best = (float(gap[i]), rows[i].tolist())
    dist_min = float(_final_distances(nz, eta_grid, n_steps).min(initial=math.inf))
    return skipped, admissible, dist_min, gap_best


def classical_reservoir_check(
    *,
    eta_grid: np.ndarray,
    n_steps: int,
    budget: int,
    seed: int,
    grid_points: int,
    param_range: float,
) -> WitnessReport:
    """Search for a classical reservoir that homogenises |+> towards |0>.

    The interaction is ``U(eta) = cos(eta) I + i sin(eta) H`` with H drawn
    from the constrained classical family; U is unitary only when H^2 = I, so
    samples failing that are skipped and counted.  The samples are the grid
    and ``budget`` draws parametrised directly on that surface.  Reports the
    minimal final trace distance D(rho_N, |0><0|) and the minimal
    ``|H X_Q H - Z_Q|_F``; the gap is positive when they stay above 0.5 and
    1.0 respectively.  Everything runs on 2x2 Z_M-sector blocks
    (:func:`zm_sector_maps`), exactly: the reservoir qubit enters as the
    diagonal |0><0| and H is block diagonal in Z_M, so N collisions are one
    conjugation of the probe by U_+^N.  The samples stream through
    :func:`_reservoir_scan` in blocks.  The distance has no reported
    argument: every sample sits at 1/sqrt(2) up to rounding.
    """
    def search(report: WitnessReport, maps: np.ndarray, names: tuple[str, ...]) -> None:
        skipped, admissible, min_dist, (min_gap, gap_row) = _reservoir_scan(
            maps, eta_grid, n_steps, budget, seed, grid_points, param_range
        )
        report.findings["skipped"] = skipped
        report.findings["admissible_samples"] = admissible
        if admissible == 0:
            return
        report.findings["min_final_trace_distance"] = min_dist
        report.findings["min_image_distance"] = min_gap
        report.findings["argmin_image_distance"] = dict(zip(names, gap_row))
        report.add_check(
            "final-distance-gap", min_dist, ">", 0.5,
            "classical reservoir never drives |+> to |0>",
        )
        report.add_check(
            "operator-image-gap", min_gap, ">", 1.0,
            "H X_Q H never matches Z_Q, so no sin^2 term proportional to xi x xi",
        )

    return _search_report(
        "classical reservoir homogenisation of |+> towards |0>", search,
        seed=seed, budget=budget, grid_points=grid_points, param_range=param_range,
        parameters={"n_steps": n_steps},
    )


def nonadditive_conservation_residual(eta: float | np.ndarray) -> float | np.ndarray:
    """|[P(eta), Z_Q + Z_M + Z_Q Z_M]|_F (zero: the coupling is allowed).

    An array of etas gives one residual per eta.
    """
    return conservation_residual(_partial_swaps(eta), ConservedQuantity.nonadditive())
