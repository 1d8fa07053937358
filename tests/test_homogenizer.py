import math

import numpy as np
import pytest

from qwitness.circuit import PARTIAL_SWAP, GateSpec, gate_unitary
from qwitness.conservation import classical_filtered_family
from qwitness.dense import (
    PAULI_MATS,
    partial_trace,
    qubit_state,
    to_dense,
    trace_distance,
)
from qwitness.errors import ContractViolation, StructuralError
from qwitness.homogenizer import (
    HomogenizerConfig,
    _admissible_surface_draws,
    _final_distances,
    _reservoir_scan,
    _sector_image_gap,
    _sector_involution_residual,
    classical_reservoir_check,
    homogenize_step,
    nonadditive_conservation_residual,
    run,
    step_recursion,
    xi_coefficient,
)

from operator_helpers import is_unitary

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
DEFAULT_ETA_GRID = np.linspace(math.pi / 32, math.pi / 2, 16)


# -- dense 4x4 reference for the reservoir search ----------------------------


def _admissible(params: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Closed-form involution mask for the default family at (alpha, beta, gamma, c).

    For H = alpha(X_Q - X_Q Z_M) + beta(Y_Q - Y_Q Z_M) + gamma Z_Q + c Z_Q Z_M
    the condition H^2 = I splits over mediator sectors into
    (gamma + c)^2 = 1 and 4 alpha^2 + 4 beta^2 + (gamma - c)^2 = 1.
    """
    alpha, beta, gamma, c = params.T
    plus = np.abs((gamma + c) ** 2 - 1.0) <= tol
    minus = np.abs(4 * alpha**2 + 4 * beta**2 + (gamma - c) ** 2 - 1.0) <= tol
    return plus & minus


def _involution_mask(h_stack: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Mask of stacked Hermitian matrices with H^2 = I (Frobenius test)."""
    squares = np.einsum("bij,bjk->bik", h_stack, h_stack)
    return np.linalg.norm(squares - np.eye(h_stack.shape[-1]), axis=(1, 2)) <= tol


def _dense_family_members(params: np.ndarray) -> np.ndarray:
    """Stack of 4x4 default-family members at (alpha, beta, gamma, c) rows."""
    kron = lambda a, b: np.kron(PAULI_MATS[a], PAULI_MATS[b])
    basis = np.stack(
        [
            kron("X", "I") - kron("X", "Z"),
            kron("Y", "I") - kron("Y", "Z"),
            kron("Z", "I"),
            kron("Z", "Z"),
        ]
    )
    return np.einsum("bk,kij->bij", params, basis)


def _batched_kron(rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """kron(rho_b, xi) for a batch of 2x2 rho against one fixed 2x2 xi."""
    out = np.einsum("bij,kl->bikjl", rho, xi)
    return out.reshape(-1, 4, 4)


def _dense_from_blocks(blocks: np.ndarray) -> np.ndarray:
    """4x4 operators sum_m (c_m I + n_m . sigma) x |m><m| from blocks (2, B, 4)."""
    paulis = np.stack([PAULI_MATS[k] for k in "IXYZ"])
    projectors = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    out = np.einsum("mbk,kij,mpq->bipjq", blocks, paulis, projectors)
    return out.reshape(-1, 4, 4)


def _dense_collisions(h_stack: np.ndarray, eta: float, n_steps: int) -> np.ndarray:
    """D(rho_N, |0><0|) for |+> after N collisions with fresh |0><0| qubits."""
    xi = qubit_state((0.0, 0.0, 1.0))
    u = math.cos(eta) * np.eye(4) + 1j * math.sin(eta) * h_stack
    u_dag = u.conj().transpose(0, 2, 1)
    rho = np.broadcast_to(qubit_state((1.0, 0.0, 0.0)), (len(h_stack), 2, 2)).copy()
    for _ in range(n_steps):
        joint = np.einsum("bij,bjk,bkl->bil", u, _batched_kron(rho, xi), u_dag)
        rho = joint.reshape(-1, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    return np.abs(np.linalg.eigvalsh(rho - xi)).sum(axis=-1) / 2


def _dense_reservoir_scan(eta_grid, n_steps, budget, seed, grid_points, param_range):
    """The reservoir search on full 4x4 operators, collision by collision.

    Same sampling and return layout as ``_reservoir_scan``: masks per source,
    admissible free parameters, final distances (eta, sample), image gaps.
    """
    family = classical_filtered_family()
    free_names = family.free_params()
    expand = family.expansion_matrix()
    basis_stack = np.stack([to_dense(b) for b in family.basis])

    def members(free_mat):
        return np.einsum("bp,pij->bij", free_mat @ expand, basis_stack)

    rng = np.random.default_rng(seed)
    axis_vals = np.linspace(-param_range, param_range, grid_points)
    grid = (
        np.array(np.meshgrid(*[axis_vals] * len(free_names), indexing="ij"))
        .reshape(len(free_names), -1)
        .T
    )
    sources = {"grid": grid}
    surf = _admissible_surface_draws(rng, budget)
    full = np.column_stack(
        [surf[:, 0], surf[:, 1], surf[:, 2], -surf[:, 0], -surf[:, 1], surf[:, 3]]
    )
    sources["surface"] = full[:, [family.params.index(n) for n in free_names]]

    masks, kept = {}, []
    for name, block in sources.items():
        masks[name] = _involution_mask(members(block))
        kept.append(block[masks[name]])
    free_params = np.vstack(kept)
    h_stack = members(free_params)
    x_q = np.kron(PAULI_MATS["X"], np.eye(2))
    z_q = np.kron(PAULI_MATS["Z"], np.eye(2))
    image = np.einsum("bij,jk,bkl->bil", h_stack, x_q, h_stack)
    image_gap = np.linalg.norm(image - z_q, axis=(1, 2))

    distances = [_dense_collisions(h_stack, eta, n_steps) for eta in eta_grid]
    return masks, free_params, np.array(distances), image_gap


def test_partial_swap_limits():
    assert np.allclose(gate_unitary(GateSpec(PARTIAL_SWAP, 0.0)), np.eye(4))
    quarter = gate_unitary(GateSpec(PARTIAL_SWAP, math.pi / 2))
    assert np.allclose(quarter, 1j * SWAP, atol=1e-15)


def test_partial_swap_is_unitary_and_exchange_symmetric():
    for eta in np.linspace(0, math.pi, 7):
        p = gate_unitary(GateSpec(PARTIAL_SWAP, eta))
        assert is_unitary(p, tol=1e-12)
        assert np.allclose(SWAP @ p @ SWAP, p)  # symmetric under Q<->M


def test_partial_swap_conserves_nonadditive_charge():
    for eta in np.linspace(0.0, math.pi / 2, 16):
        assert nonadditive_conservation_residual(eta) < 1e-12
    assert nonadditive_conservation_residual(0.3) < 1e-12


def test_homogenize_step_limits():
    rho = qubit_state((0, 0, 1))
    xi = qubit_state((1, 0, 0))
    out_rho, out_xi = homogenize_step(rho, xi, 0.0)
    assert np.allclose(out_rho, rho) and np.allclose(out_xi, xi)
    out_rho, out_xi = homogenize_step(rho, xi, math.pi / 2)
    assert np.allclose(out_rho, xi) and np.allclose(out_xi, rho)


def test_homogenize_step_matches_closed_recursion():
    rho = qubit_state((0, 0, 1))
    xi = qubit_state((1, 0, 0))
    for eta in (0.2, 0.5, 1.0):
        state = rho
        for _ in range(5):
            exact = homogenize_step(state, xi, eta)
            closed = step_recursion(state, xi, eta)
            assert np.abs(exact[0] - closed[0]).max() < 1e-12
            assert np.abs(exact[1] - closed[1]).max() < 1e-12
            state = exact[0]


def test_homogenize_step_validates_states():
    with pytest.raises(ContractViolation):
        homogenize_step(np.diag([1.5, -0.5]).astype(complex), qubit_state((1, 0, 0)), 0.3)


def test_config_validation():
    with pytest.raises(StructuralError):
        HomogenizerConfig(n_steps=0)
    with pytest.raises(ContractViolation):
        HomogenizerConfig(rho0=np.diag([2.0, -1.0]).astype(complex))


def test_single_full_swap_reaches_reservoir_state():
    traj = run(HomogenizerConfig(n_steps=1, eta=math.pi / 2))
    assert np.allclose(traj.states[-1], traj.config.xi, atol=1e-14)
    assert traj.trace_distances[-1] == pytest.approx(0.0, abs=1e-14)


def test_xi_coefficient_law():
    for eta in (0.2, 0.5, 1.0):
        traj = run(HomogenizerConfig(n_steps=30, eta=eta))
        for n, (kappa, pred) in enumerate(
            zip(traj.xi_coefficients, traj.predicted_coefficients)
        ):
            assert pred == pytest.approx(1 - math.cos(eta) ** (2 * n), abs=1e-15)
            assert kappa == pytest.approx(pred, abs=1e-10)


def test_trajectory_distances_monotone_and_states_positive():
    rng = np.random.default_rng(4)
    for eta in (0.2, 0.4, 1.0):
        # also try a non-default initial state
        vec = rng.normal(size=3)
        vec = 0.8 * vec / np.linalg.norm(vec)
        traj = run(HomogenizerConfig(n_steps=20, eta=eta, rho0=qubit_state(tuple(vec))))
        for a, b in zip(traj.trace_distances, traj.trace_distances[1:]):
            assert b <= a + 1e-12
        for state in traj.states:
            assert np.linalg.eigvalsh(state).min() >= -1e-12
        for used in traj.reservoir_out:
            assert np.linalg.eigvalsh(used).min() >= -1e-12


def test_used_reservoir_state_matches_closed_form():
    cfg = HomogenizerConfig(n_steps=3, eta=0.5)
    traj = run(cfg)
    for n, used in enumerate(traj.reservoir_out):
        _, expected = step_recursion(traj.states[n], cfg.xi, cfg.eta)
        assert np.abs(used - expected).max() < 1e-12


def test_fresh_ancilla_steps_match_full_joint_simulation():
    # two collisions computed on the full three-qubit joint state
    eta = 0.45
    cfg = HomogenizerConfig(n_steps=2, eta=eta)
    traj = run(cfg)
    p = gate_unitary(GateSpec(PARTIAL_SWAP, eta))
    u1 = np.kron(p, np.eye(2))          # acts on (Q, M1), M2 idle
    # P on (Q, M2) with M1 idle: permute the SWAP embedding
    perm = np.zeros((8, 8))
    for q in range(2):
        for m1 in range(2):
            for m2 in range(2):
                perm[q * 4 + m2 * 2 + m1, q * 4 + m1 * 2 + m2] = 1
    u2 = perm @ np.kron(p, np.eye(2)) @ perm
    joint0 = np.kron(np.kron(cfg.rho0, cfg.xi), cfg.xi)
    joint = u2 @ (u1 @ joint0 @ u1.conj().T) @ u2.conj().T
    rho_final = partial_trace(joint, (2, 2, 2), keep=(0,))
    assert np.abs(rho_final - traj.states[-1]).max() < 1e-12


def test_xi_coefficient_degenerate_reservoir_state():
    assert math.isnan(xi_coefficient(qubit_state((0, 0, 1)), np.eye(2) / 2))


def test_admissibility_predicate():
    # (gamma + c)^2 = 1 and 4 a^2 + 4 b^2 + (gamma - c)^2 = 1
    good = np.array([[0.5, 0.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0]])
    bad = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    assert _admissible(good).all()
    assert not _admissible(bad).any()
    # unitarity check: U = cos I + i sin H is unitary iff H^2 = I
    h = _dense_family_members(good)
    for m in h:
        u = math.cos(0.7) * np.eye(4) + 1j * math.sin(0.7) * m
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12
    for m in _dense_family_members(bad):
        u = math.cos(0.7) * np.eye(4) + 1j * math.sin(0.7) * m
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) > 1e-6


def test_surface_draws_are_always_admissible():
    rng = np.random.default_rng(13)
    draws = _admissible_surface_draws(rng, 500)
    assert _admissible(draws).all()


def test_involution_mask_agrees_with_closed_form():
    rng = np.random.default_rng(21)
    params = np.vstack(
        [
            rng.uniform(-2, 2, size=(200, 4)),
            _admissible_surface_draws(rng, 200),
            np.array([[0.5, 0.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0]]),
        ]
    )
    generic = _involution_mask(_dense_family_members(params))
    closed = _admissible(params, tol=1e-7)
    assert (generic == closed).all()


def test_reservoir_check_budget_zero_is_unproven():
    report = classical_reservoir_check(budget=0)
    assert report.verdict == "UNPROVEN"
    assert report.checks == []


def test_pure_dephasing_family_keeps_probe_in_the_equator():
    # alpha = beta = 0 admissible points only rotate |+> about z, so the
    # distance to |0><0| stays exactly 1/sqrt(2): check one member by hand
    eta = 0.6
    h = np.kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2))  # gamma=1, c=0
    u = math.cos(eta) * np.eye(4) + 1j * math.sin(eta) * h
    rho = qubit_state((1, 0, 0))
    xi = qubit_state((0, 0, 1))
    for _ in range(6):
        joint = u @ np.kron(rho, xi) @ u.conj().T
        rho = partial_trace(joint, (2, 2), keep=(0,))
        assert trace_distance(rho, xi) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_reservoir_check_reports_positive_gap_and_skip_counts():
    report = classical_reservoir_check(budget=300, seed=5, n_steps=4)
    assert report.verdict == "POSITIVE-GAP"
    assert report.findings["skipped"]["surface"] == 0
    assert report.findings["min_final_trace_distance"] == pytest.approx(
        1 / math.sqrt(2), abs=1e-9
    )
    assert report.findings["min_image_distance"] >= 2.0 - 1e-9


def test_reservoir_check_deterministic():
    a = classical_reservoir_check(budget=100, seed=9, n_steps=3)
    b = classical_reservoir_check(budget=100, seed=9, n_steps=3)
    assert a.findings["min_final_trace_distance"] == b.findings["min_final_trace_distance"]
    assert a.findings["argmin_trace_distance"] == b.findings["argmin_trace_distance"]


@pytest.mark.parametrize(
    "seed, budget, grid_points, eta_grid, n_steps",
    [
        (3, 40, 5, np.array([0.1, 0.7, 1.3]), 1),
        (11, 150, 9, np.linspace(0.05, 2.0, 5), 3),
        (23, 300, 7, np.array([math.pi / 3, 2.5, 0.01]), 8),
        (5, 80, 9, np.linspace(math.pi / 32, math.pi / 2, 4), 8),
    ],
)
def test_sector_kernel_matches_dense_reference(seed, budget, grid_points, eta_grid, n_steps):
    args = (eta_grid, n_steps, budget, seed, grid_points, 2.0)
    masks, free, dist, gap = _reservoir_scan(classical_filtered_family(), *args)
    ref_masks, ref_free, ref_dist, ref_gap = _dense_reservoir_scan(*args)
    assert masks.keys() == ref_masks.keys()
    for name in masks:
        assert np.array_equal(masks[name], ref_masks[name])
    assert np.array_equal(free, ref_free)
    assert dist.shape == ref_dist.shape == (len(eta_grid), len(free))
    assert np.abs(dist - ref_dist).max() <= 1e-13
    assert np.abs(gap - ref_gap).max() <= 1e-13
    report = classical_reservoir_check(
        eta_grid=eta_grid, n_steps=n_steps, budget=budget, seed=seed,
        grid_points=grid_points,
    )
    assert report.findings["skipped"] == {
        name: int((~m).sum()) for name, m in ref_masks.items()
    }
    assert report.findings["admissible_samples"] == len(ref_free)


def test_default_reservoir_search_sits_on_the_closed_form():
    # the Z_M = +1 block of every admissible member is (gamma + c) Z = +-Z, so
    # each collision only rotates Q about z and |+> stays at D = 1/sqrt(2)
    family = classical_filtered_family()
    _, _, dist, _ = _reservoir_scan(family, DEFAULT_ETA_GRID, 8, 10_000, 7, 9, 2.0)
    assert np.abs(dist - 1 / math.sqrt(2)).max() <= 1e-12
    report = classical_reservoir_check(n_steps=8, budget=10_000, seed=7, grid_points=9)
    assert report.findings["min_final_trace_distance"] == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )
    assert report.findings["skipped"] == {"grid": 6549, "surface": 0}
    assert report.findings["admissible_samples"] == 10012


def test_sector_kernels_match_dense_on_generic_blocks():
    # the family's Z_M = +1 block is always +-Z; exercise every block entry
    rng = np.random.default_rng(17)
    blocks = rng.uniform(-1.5, 1.5, size=(2, 200, 4))
    h = _dense_from_blocks(blocks)
    x_q = np.kron(PAULI_MATS["X"], np.eye(2))
    z_q = np.kron(PAULI_MATS["Z"], np.eye(2))
    dense_resid = np.linalg.norm(h @ h - np.eye(4), axis=(1, 2))
    dense_gap = np.linalg.norm(h @ x_q @ h - z_q, axis=(1, 2))
    assert np.abs(_sector_involution_residual(blocks) - dense_resid).max() <= 1e-12
    assert np.abs(_sector_image_gap(blocks) - dense_gap).max() <= 1e-12
    # involutions: c = 0 with a unit axis, or c = +-1 with no axis
    axes = rng.normal(size=(2, 60, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    invol = np.concatenate([np.zeros((2, 60, 1)), axes], axis=-1)
    invol[:, :2] = [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    assert (_sector_involution_residual(invol) <= 1e-7).all()
    h = _dense_from_blocks(invol)
    for eta in (0.3, 1.1, 2.9):
        for n_steps in (0, 1, 3, 8):
            got = _final_distances(invol[0], eta, n_steps)
            assert np.abs(got - _dense_collisions(h, eta, n_steps)).max() <= 1e-13
