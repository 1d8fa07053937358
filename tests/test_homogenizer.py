import math
import tracemalloc

import numpy as np
import pytest

from qwitness import homogenizer
from qwitness.circuit import partial_swap
from qwitness.cli import RunConfig, experiment_homogenize
from qwitness.conservation import (
    _BLOCK_CELLS,
    box_grid,
    classical_filtered_family,
    zm_sector_maps,
)
from qwitness.dense import (
    PAULI_MATS,
    partial_trace,
    qubit_state,
    to_dense,
    trace_distance,
)
from qwitness.errors import ContractViolation, StructuralError
from qwitness.homogenizer import (
    RHO0,
    XI,
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

from operator_helpers import (
    cli_search_arguments,
    homogenize_rows_loop,
    is_unitary,
    one_call_surface_draws,
    two_recurrence_distances,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def reservoir_arguments(**overrides):
    """The CLI's default reservoir-check arguments, with ``overrides``."""
    return {**cli_search_arguments()["classical_reservoir_check"], **overrides}


def surface_rows(rng, count):
    """All ``count`` surface draws as one array, from the scan's blocks."""
    return np.concatenate(list(_admissible_surface_draws(rng, count, _BLOCK_CELLS // 4)))


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


def _from_free(free: np.ndarray) -> np.ndarray:
    """(alpha, beta, gamma, c) rows of free-parameter rows (gamma, a, b, c).

    The non-additive law ties a = -alpha and b = -beta.
    """
    gamma, a, b, c = free.T
    return np.column_stack([-a, -b, gamma, c])


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

    Same sampling and return layout as ``_matrix_reservoir_scan``: masks per
    source, admissible free parameters, final distances (eta, sample), image
    gaps.
    """
    family = classical_filtered_family()
    free_names = family.free_params()
    expand = family.expansion_matrix().astype(float)
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
    gamma, a, b, c = surface_rows(rng, budget).T
    assert family.params == ("alpha", "beta", "gamma", "a", "b", "c")
    full = np.column_stack([-a, -b, gamma, a, b, c])
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


# -- the one-pass matrix scan, oracle of the streamed reservoir scan ----------


def _matrix_reservoir_scan(eta_grid, n_steps, budget, seed, grid_points, param_range):
    """The reservoir search in one pass, on the full (eta, sample) matrix.

    Same samples and kernels as ``_reservoir_scan``.  Returns the
    admissibility mask of each source (grid, surface), the admissible free
    parameters (B, 4), the final trace distances (len(eta_grid), B) and the
    operator-image gaps (B,).
    """
    family = classical_filtered_family()
    to_sectors = zm_sector_maps(family).astype(float)
    grid = box_grid(len(family.free_params()), grid_points, param_range)
    surface = surface_rows(np.random.default_rng(seed), budget)
    masks, kept = {}, []
    for name, block in (("grid", grid), ("surface", surface)):
        masks[name] = _sector_involution_residual(block @ to_sectors) <= 1e-7
        kept.append(block[masks[name]])
    free_params = np.vstack(kept)
    blocks = free_params @ to_sectors
    distances = _final_distances(blocks[0, :, 3], eta_grid, n_steps)
    return masks, free_params, distances, _sector_image_gap(blocks)


def _default_maps():
    return zm_sector_maps(classical_filtered_family()).astype(float)


def _bests_of_matrix(masks, free_params, distances, image_gap):
    """``_reservoir_scan``'s return read off the one-pass matrices: the skipped
    counts, the admissible count, the minimum of the (eta, sample) distances
    and the first minimum (value, free parameters) of the image gaps."""
    j = int(np.argmin(image_gap))
    return (
        {name: int((~m).sum()) for name, m in masks.items()},
        len(free_params),
        float(distances.min()),
        (float(image_gap[j]), free_params[j].tolist()),
    )


def test_partial_swap_limits():
    assert np.allclose(to_dense(partial_swap(0.0)), np.eye(4))
    quarter = to_dense(partial_swap(math.pi / 2))
    assert np.allclose(quarter, 1j * SWAP, atol=1e-15)


def test_partial_swap_is_unitary_and_exchange_symmetric():
    for eta in np.linspace(0, math.pi, 7):
        p = to_dense(partial_swap(eta))
        assert is_unitary(p, tol=1e-12)
        assert np.allclose(SWAP @ p @ SWAP, p)  # symmetric under Q<->M


def test_partial_swap_conserves_nonadditive_charge():
    grid = np.linspace(0.0, math.pi / 2, 16)
    for eta in grid:
        assert nonadditive_conservation_residual(eta) < 1e-12
    assert nonadditive_conservation_residual(0.3) < 1e-12
    # an eta array gives the scalar residuals, one per eta
    for etas in (grid, np.array([0.3, 1.7, 0.3]), np.linspace(-2.0, 9.0, 7)):
        stacked = nonadditive_conservation_residual(etas)
        assert stacked.shape == etas.shape
        assert stacked.tolist() == [nonadditive_conservation_residual(e) for e in etas.tolist()]


def test_conservation_check_reports_the_grid_maximum(monkeypatch):
    # one residual call on the whole eta grid; the check takes its largest
    seen = []

    def residual(etas):
        seen.append(etas)
        return np.asarray(etas) * 1e-14

    monkeypatch.setattr(homogenizer, "nonadditive_conservation_residual", residual)
    checks, _ = experiment_homogenize(RunConfig(eta_points=5, budget=0))
    grid = np.linspace(math.pi / 32, math.pi / 2, 5)
    assert len(seen) == 1 and np.array_equal(seen[0], grid)
    (check,) = [c for c in checks if c.name == "partial-swap-conserves-nonadditive"]
    assert check.value == grid.max() * 1e-14


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
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ContractViolation):
        homogenize_step(bad, qubit_state((1, 0, 0)), 0.3)
    # run validates its two input states once, before the first collision
    for rho0, xi in ((bad, XI), (RHO0, bad)):
        with pytest.raises(ContractViolation):
            run(0.3, 1, rho0, xi)


def test_config_validation():
    with pytest.raises(ContractViolation):
        run(0.5, 20, rho0=np.diag([2.0, -1.0]).astype(complex))


def test_single_full_swap_reaches_reservoir_state():
    states, _ = run(math.pi / 2, 1)
    assert np.allclose(states[-1], XI, atol=1e-14)
    assert trace_distance(states[-1], XI) == pytest.approx(0.0, abs=1e-14)


def test_xi_coefficient_law():
    for eta in (0.2, 0.5, 1.0):
        states, _ = run(eta, 30)
        assert len(states) == 31
        for n, rho in enumerate(states):
            pred = 1 - math.cos(eta) ** (2 * n)
            assert xi_coefficient(rho, XI) == pytest.approx(pred, abs=1e-10)


def test_trajectory_distances_monotone_and_states_positive():
    rng = np.random.default_rng(4)
    for eta in (0.2, 0.4, 1.0):
        # also try a non-default initial state
        vec = rng.normal(size=3)
        vec = 0.8 * vec / np.linalg.norm(vec)
        states, used = run(eta, 20, rho0=qubit_state(tuple(vec)))
        distances = [trace_distance(rho, XI) for rho in states]
        for a, b in zip(distances, distances[1:]):
            assert b <= a + 1e-12
        for state in states:
            assert np.linalg.eigvalsh(state).min() >= -1e-12
        for out in used:
            assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_used_reservoir_state_matches_closed_form():
    states, used = run(0.5, 3)
    assert len(used) == 3
    for n, out in enumerate(used):
        _, expected = step_recursion(states[n], XI, 0.5)
        assert np.abs(out - expected).max() < 1e-12


def test_fresh_ancilla_steps_match_full_joint_simulation():
    # two collisions computed on the full three-qubit joint state
    eta = 0.45
    states, _ = run(eta, 2)
    p = to_dense(partial_swap(eta))
    u1 = np.kron(p, np.eye(2))          # acts on (Q, M1), M2 idle
    # P on (Q, M2) with M1 idle: permute the SWAP embedding
    perm = np.zeros((8, 8))
    for q in range(2):
        for m1 in range(2):
            for m2 in range(2):
                perm[q * 4 + m2 * 2 + m1, q * 4 + m1 * 2 + m2] = 1
    u2 = perm @ np.kron(p, np.eye(2)) @ perm
    joint0 = np.kron(np.kron(RHO0, XI), XI)
    joint = u2 @ (u1 @ joint0 @ u1.conj().T) @ u2.conj().T
    rho_final = partial_trace(joint, (2, 2, 2), keep=(0,))
    assert np.abs(rho_final - states[-1]).max() < 1e-12


@pytest.mark.parametrize(
    "eta, n_steps, calls", [(0.4, 20, 80), (0.5, 20, 60), (0.4, 3, 12)]
)
def test_experiment_steps_each_collision_once(monkeypatch, eta, n_steps, calls):
    # one trajectory per distinct eta in (0.2, 0.5, 1.0, eta), all advanced
    # by one stacked collision per step, which takes two partial traces (the
    # system and the used reservoir qubit); ``calls`` counts the eta slices
    # the collisions advance.  The recursion check reuses the run's own
    # collisions instead of stepping again
    slices = []
    trace = homogenizer.partial_trace

    def counted(joint, dims, keep):
        slices.append(math.prod(joint.shape[:-2]))
        return trace(joint, dims, keep=keep)

    monkeypatch.setattr(homogenizer, "partial_trace", counted)
    checks, _ = experiment_homogenize(RunConfig(eta=eta, n_steps=n_steps, budget=0))
    assert sum(slices) == 2 * calls
    assert len(slices) == 2 * n_steps
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("n_steps", [1, 3, 20, 40])
@pytest.mark.parametrize("eta", [0.4, 0.5, 1.0, 2.7])
def test_stacked_run_equals_the_per_eta_runs(eta, n_steps):
    # the CLI's eta list: 0.5 and 1.0 repeat a fixed eta, so three trajectories
    etas = list(dict.fromkeys((0.2, 0.5, 1.0, eta)))
    rho0 = qubit_state((0.3, -0.5, 0.6))
    for start in (RHO0, rho0):
        states, used = run(np.array(etas), n_steps, rho0=start)
        assert len(states) == n_steps + 1 and len(used) == n_steps
        assert all(s.shape == (len(etas), 2, 2) for s in (*states, *used))
        for k, e in enumerate(etas):
            one_states, one_used = run(e, n_steps, rho0=start)
            assert all(np.array_equal(a[k], b) for a, b in zip(states, one_states))
            assert all(np.array_equal(a[k], b) for a, b in zip(used, one_used))


def test_run_builds_each_partial_swap_once(monkeypatch):
    # P(eta) is built once per eta, before the first collision, whatever
    # the number of steps
    built = []

    def counted(eta):
        built.append(eta)
        return partial_swap(eta)

    monkeypatch.setattr(homogenizer, "partial_swap", counted)
    etas = [0.2, 0.5, 1.0, 0.4]
    for n_steps in (0, 1, 5, 40):
        built.clear()
        run(0.4, n_steps)
        assert built == [0.4]
        built.clear()
        run(np.array(etas), n_steps)
        assert built == etas
    built.clear()
    homogenize_step(RHO0, XI, 0.7)
    assert built == [0.7]


def test_xi_coefficient_degenerate_reservoir_state():
    assert math.isnan(xi_coefficient(qubit_state((0, 0, 1)), np.eye(2) / 2))
    stacked = xi_coefficient(np.stack([RHO0, XI, RHO0]), np.eye(2) / 2)
    assert stacked.shape == (3,) and np.isnan(stacked).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_xi_coefficients_equal_one_state_at_a_time(seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(9, 3))
    vecs *= rng.uniform(0.0, 1.0, size=(9, 1)) / np.linalg.norm(vecs, axis=1, keepdims=True)
    states = np.array([qubit_state(tuple(v)) for v in vecs])
    xi = states[0]
    stacked = xi_coefficient(states.reshape(3, 3, 2, 2), xi).reshape(9)
    for k in range(9):
        assert stacked[k] == xi_coefficient(states[k], xi)


@pytest.mark.parametrize(
    "config", [{}, {"eta": 1.3, "n_steps": 3}, {"eta": 0.2, "n_steps": 1}, {"n_steps": 40}]
)
def test_homogenize_rows_equal_the_per_state_loop(config):
    cfg = RunConfig(budget=0, **config)
    _checks, files = experiment_homogenize(cfg)
    _header, rows = files["homogenizer_trajectory.csv"]
    assert rows == homogenize_rows_loop(cfg)


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
    draws = surface_rows(rng, 500)
    assert draws.shape == (500, 4)
    assert _admissible(_from_free(draws)).all()
    # the same rows as free parameters of the family the search maps
    blocks = draws @ zm_sector_maps(classical_filtered_family()).astype(float)
    assert (_sector_involution_residual(blocks) <= 1e-7).all()


@pytest.mark.parametrize("budget", [1, 3000, 4097, 10_000, 40_000])
def test_surface_draws_in_blocks_equal_the_one_call_draws(budget):
    # the signs first, then the normals block by block: the blocks continue
    # one normal stream, so they hold the one-call rows bit for bit
    step = _BLOCK_CELLS // 4
    blocks = list(_admissible_surface_draws(np.random.default_rng(7), budget, step))
    assert [len(b) for b in blocks] == [step] * (budget // step) + [budget % step] * (
        budget % step > 0
    )
    got = np.concatenate(blocks)
    want = one_call_surface_draws(np.random.default_rng(7), budget)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_involution_mask_agrees_with_closed_form():
    rng = np.random.default_rng(21)
    params = np.vstack(
        [
            rng.uniform(-2, 2, size=(200, 4)),
            _from_free(surface_rows(rng, 200)),
            np.array([[0.5, 0.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0]]),
        ]
    )
    generic = _involution_mask(_dense_family_members(params))
    closed = _admissible(params, tol=1e-7)
    assert (generic == closed).all()


def test_reservoir_check_budget_zero_is_unproven():
    report = classical_reservoir_check(**reservoir_arguments(budget=0))
    assert report.verdict == "UNPROVEN"
    assert report.checks == []


def test_reservoir_check_without_an_admissible_sample_is_unproven(monkeypatch):
    # H = 0 is no involution, and neither is the one grid point (-2, -2, -2, -2)
    monkeypatch.setattr(
        homogenizer, "_admissible_surface_draws", lambda rng, count, step: [np.zeros((count, 4))]
    )
    report = classical_reservoir_check(**reservoir_arguments(budget=50, grid_points=1))
    assert report.verdict == "UNPROVEN"
    assert report.checks == []
    assert report.findings["skipped"] == {"grid": 1, "surface": 50}
    assert report.findings["admissible_samples"] == 0
    assert "min_final_trace_distance" not in report.findings


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
    report = classical_reservoir_check(**reservoir_arguments(budget=300, seed=5, n_steps=4))
    assert report.verdict == "POSITIVE-GAP"
    assert report.findings["skipped"]["surface"] == 0
    assert report.findings["min_final_trace_distance"] == pytest.approx(
        1 / math.sqrt(2), abs=1e-9
    )
    assert report.findings["min_image_distance"] >= 2.0 - 1e-9


def test_reservoir_check_deterministic():
    kwargs = reservoir_arguments(budget=100, seed=9, n_steps=3)
    a = classical_reservoir_check(**kwargs)
    b = classical_reservoir_check(**kwargs)
    assert a == b


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
    # every (eta, sample) entry of the sector kernels against 4x4 collisions;
    # the streamed scan reads the same kernels (see the matrix oracle test)
    kwargs = reservoir_arguments(
        eta_grid=eta_grid, n_steps=n_steps, budget=budget, seed=seed, grid_points=grid_points
    )
    masks, free, dist, gap = _matrix_reservoir_scan(**kwargs)
    ref_masks, ref_free, ref_dist, ref_gap = _dense_reservoir_scan(**kwargs)
    assert masks.keys() == ref_masks.keys()
    for name in masks:
        assert np.array_equal(masks[name], ref_masks[name])
    assert np.array_equal(free, ref_free)
    assert dist.shape == ref_dist.shape == (len(eta_grid), len(free))
    assert np.abs(dist - ref_dist).max() <= 1e-13
    assert np.abs(gap - ref_gap).max() <= 1e-13
    skipped, admissible, dist_min, gap_best = _reservoir_scan(_default_maps(), **kwargs)
    assert skipped == {name: int((~m).sum()) for name, m in ref_masks.items()}
    assert admissible == len(ref_free)
    assert abs(dist_min - ref_dist.min()) <= 1e-13
    assert abs(gap_best[0] - ref_gap.min()) <= 1e-13
    for k in range(len(eta_grid)):  # each eta's minimum, one eta per scan
        one_eta = {**kwargs, "eta_grid": eta_grid[k : k + 1]}
        assert abs(_reservoir_scan(_default_maps(), **one_eta)[2] - ref_dist[k].min()) <= 1e-13
    report = classical_reservoir_check(**kwargs)
    assert report.findings["skipped"] == skipped
    assert report.findings["admissible_samples"] == len(ref_free)


def test_default_reservoir_search_sits_on_the_closed_form():
    # the Z_M = +1 block of every admissible member is (gamma + c) Z = +-Z, so
    # each collision only rotates Q about z and |+> stays at D = 1/sqrt(2)
    kwargs = reservoir_arguments()
    _, _, dist, _ = _matrix_reservoir_scan(**kwargs)
    assert dist.shape == (len(kwargs["eta_grid"]), 10012)
    assert np.abs(dist - 1 / math.sqrt(2)).max() <= 1e-12
    report = classical_reservoir_check(**kwargs)
    assert report.findings["min_final_trace_distance"] == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )
    assert report.findings["skipped"] == {"grid": 6549, "surface": 0}
    assert report.findings["admissible_samples"] == 10012


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # the CLI's default check: 6561 grid rows and 10,000 draws
        dict(budget=5000, seed=5, grid_points=5),  # 5000 draws: a ragged last block
        dict(budget=1000, seed=6, grid_points=3),  # less than one block per source
        dict(budget=700, seed=9, grid_points=1),  # a single, inadmissible grid point
        dict(budget=3000, seed=4, eta_grid=np.array([0.9])),  # a single eta
        # repeated etas give equal rows, so the minimum ties across eta
        dict(budget=6000, seed=8, n_steps=3, eta_grid=np.array([0.4, 1.1, 0.4, 1.1])),
    ],
)
def test_streamed_reservoir_check_matches_matrix_oracle(monkeypatch, kwargs):
    # exact equality: blocks, the running distance minimum and the single
    # gap best change no value, argument or tie-break of the one-pass
    # (eta, sample) matrix; only the scan is swapped; ``kwargs`` override the
    # CLI's default check
    arguments = reservoir_arguments(**kwargs)
    streamed = classical_reservoir_check(**arguments)
    seen = {}

    def matrix_scan(maps, *args):
        assert np.array_equal(maps, _default_maps())
        seen["args"] = args
        return _bests_of_matrix(*_matrix_reservoir_scan(*args))

    monkeypatch.setattr(homogenizer, "_reservoir_scan", matrix_scan)
    assert streamed == classical_reservoir_check(**arguments)
    assert streamed.verdict == "POSITIVE-GAP"
    # the check hands the scan its own arguments, in the scan's order
    eta_grid, *rest = seen["args"]
    assert eta_grid is arguments["eta_grid"]
    assert rest == [
        arguments[k] for k in ("n_steps", "budget", "seed", "grid_points", "param_range")
    ]


def test_reservoir_scan_ties_go_to_the_first_occurrence(monkeypatch):
    # a crafted image-gap kernel: the first sample of the smallest gap wins,
    # across three blocks; the distance keeps no argument, so it has no tie
    eta_grid = np.array([0.3, 0.9])
    rows = _BLOCK_CELLS // 4
    budget = 2 * rows + 100  # three surface blocks; the one grid point is inadmissible
    kwargs = reservoir_arguments(eta_grid=eta_grid, budget=budget, seed=3, grid_points=1)
    free = _matrix_reservoir_scan(**kwargs)[1]
    assert len(free) == budget
    gap = np.full(budget, 3.0)
    gap[[9, rows + 2, 2 * rows + 50]] = 2.0
    served = {}

    def crafted_gap(blocks):
        start = served.get("gap", 0)
        served["gap"] = start + blocks.shape[1]
        return gap[start : start + blocks.shape[1]]

    monkeypatch.setattr(homogenizer, "_sector_image_gap", crafted_gap)
    skipped, admissible, _, gap_best = _reservoir_scan(_default_maps(), **kwargs)
    assert (skipped, admissible) == ({"grid": 1, "surface": 0}, budget)
    assert gap_best == (2.0, free[9].tolist())

    served.clear()
    report = classical_reservoir_check(**kwargs)
    names = classical_filtered_family().free_params()
    assert report.findings["argmin_image_distance"] == dict(zip(names, free[9].tolist()))


def test_reservoir_scan_runs_the_kernels_on_each_admissible_block(monkeypatch):
    # the gap kernel runs once per source block on its admissible rows: the
    # grid's 12 admissible points (of 6,561) sit 11 and 1 in its two blocks;
    # a block without one is skipped.  The distance walk runs once, after the
    # stream, on the distinct n_z of every admissible row: -1 and +1
    sizes, walks = [], []
    distances, image_gap = homogenizer._final_distances, homogenizer._sector_image_gap

    def recorded_distances(nz, eta_grid, n_steps):
        walks.append(nz.tolist())
        return distances(nz, eta_grid, n_steps)

    def recorded_gap(blocks):
        sizes.append(blocks.shape[1])
        return image_gap(blocks)

    monkeypatch.setattr(homogenizer, "_final_distances", recorded_distances)
    monkeypatch.setattr(homogenizer, "_sector_image_gap", recorded_gap)
    rows = _BLOCK_CELLS // 4
    skipped, admissible, _, _ = _reservoir_scan(_default_maps(), **reservoir_arguments())
    assert (skipped, admissible) == ({"grid": 6549, "surface": 0}, 10012)
    assert sizes == [11, 1, rows, rows, 10000 - 2 * rows]
    assert walks == [[-1.0, 1.0]]
    # the one grid point (-2, -2, -2, -2) is inadmissible: its block is skipped
    sizes.clear()
    walks.clear()
    skipped, admissible, _, _ = _reservoir_scan(
        _default_maps(), **reservoir_arguments(budget=rows + 5, grid_points=1)
    )
    assert (skipped, admissible) == ({"grid": 1, "surface": 0}, rows + 5)
    assert sizes == [rows, 5]
    assert walks == [[-1.0, 1.0]]
    # every n_z of a block counts, not only its first: one block of draws
    # ordered with n_z = +1 first, then -1
    walks.clear()
    draws = surface_rows(np.random.default_rng(3), 40)
    ordered = draws[np.argsort(-(draws[:, 0] + draws[:, 3]), kind="stable")]
    monkeypatch.setattr(
        homogenizer, "_admissible_surface_draws", lambda rng, count, step: [ordered]
    )
    _reservoir_scan(_default_maps(), **reservoir_arguments(budget=40, grid_points=1))
    assert walks == [[-1.0, 1.0]]


def test_reservoir_check_peak_memory_is_bounded():
    # blocks of _BLOCK_CELLS // 4 samples, drawn block by block, a single
    # running best and one walk over the distinct n_z keep the check's
    # temporaries small; the one-pass (16, 10012) distance matrix of the
    # CLI's default check and its masks peak at about 4.7 MiB, and sources
    # drawn at full size at about 9.4 MiB at budget 100,000
    for budget in (10_000, 100_000):
        kwargs = reservoir_arguments(budget=budget)
        classical_reservoir_check(**kwargs)
        tracemalloc.start()
        try:
            classical_reservoir_check(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, budget


def test_sector_kernels_match_dense_on_generic_blocks():
    # the family's Z_M = +1 block is always n_z Z; exercise every block entry
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
    etas = (0.3, 1.1, 2.9)
    # the distance walk takes the n_z of plus blocks n_z Z, beside any minus
    # involution; the scan refuses any other plus block (the guard test below)
    # (U is unitary only for an involution, so the plus block is +-Z here;
    # other n_z meet the two-recurrence walk in the bitwise test below)
    z_axis = np.array([[0, 0, 0, 1.0], [0, 0, 0, -1.0]])
    invol[0] = z_axis[np.arange(60) % 2]
    assert (_sector_involution_residual(invol) <= 1e-7).all()
    h = _dense_from_blocks(invol)
    for n_steps in (0, 1, 3, 8):
        got = _final_distances(invol[0, :, 3], etas, n_steps)
        assert got.shape == (len(etas), 60)
        for eta, row in zip(etas, got):
            assert np.abs(row - _dense_collisions(h, eta, n_steps)).max() <= 1e-13


@pytest.mark.parametrize("part", [0, 1, 2])
def test_reservoir_scan_refuses_a_plus_block_with_an_i_x_or_y_part(part):
    # sector maps that send gamma to an I, X or Y part of the plus block keep
    # it an involution, so the admissible rows reach the guard: a whole part
    # (the plus block +-I, +-X or +-Y) and one of 1e-300 per unit of gamma,
    # whose square underflows, both raise
    kwargs = reservoir_arguments(budget=300, seed=4)
    whole, tiny = _default_maps(), _default_maps()
    whole[0, :, [part, 3]] = whole[0, :, [3, part]]
    tiny[0, 0, part] = 1e-300
    for maps in (whole, tiny):
        with pytest.raises(StructuralError, match="I, X or Y part"):
            _reservoir_scan(maps, **kwargs)


@pytest.mark.parametrize("n_steps", [1, 8, 20])
def test_final_distances_equal_the_two_recurrence_walk_bit_for_bit(n_steps):
    # psi1 = conj(psi0) bit for bit, so d01 = psi0 * psi0 loses nothing, and
    # the distance depends on a row only through n_z: each row's distance,
    # read from one walk over the distinct n_z, equals the two-recurrence
    # walk of that row with == and signbit, on the CLI's admissible blocks
    # and on pure n_z Z blocks, signed zeros included
    kwargs = reservoir_arguments()
    etas = np.concatenate([kwargs["eta_grid"], [0.3, 1.1, 2.9, -0.7]])
    default = _matrix_reservoir_scan(**kwargs)[1] @ _default_maps()[0]
    pure = np.zeros((12, 4))
    pure[:, 3] = np.tile([0.3, -2.7, 1.0, -1.0, 0.0, -0.0], 2)
    pure[6:, :3] = -0.0
    for plus, distinct in ((default, [-1.0, 1.0]), (pure, [-2.7, -1.0, 0.0, 0.3, 1.0])):
        nz = homogenizer._distinct(plus[:, 3])
        assert nz.tolist() == distinct
        got = _final_distances(nz, etas, n_steps)[:, np.searchsorted(nz, plus[:, 3])]
        want = np.array(list(two_recurrence_distances(plus, etas, n_steps)))
        assert got.shape == want.shape == (len(etas), len(plus))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
