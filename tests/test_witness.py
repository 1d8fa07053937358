import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.circuit import evolve_descriptors, witness_circuit
from qwitness.dense import PAULI_MATS
from qwitness.errors import ContractViolation, StructuralError
from qwitness.paulis import signed_single_label
from qwitness.witness import (
    EXCHANGE_INTERACTION,
    SWAP_INTERACTION,
    WITNESS_FRAME_MAP,
    _sector_kernel,
    axis_constraint_report,
    classical_impossibility_search,
    coherence,
    conjugation_image,
    exchange_hamiltonian,
    quantum_demo,
    roots_intersection,
    solve_generator_system,
)

from operator_helpers import is_zero

GEN = {"x": PAULI_MATS["X"], "y": PAULI_MATS["Y"], "z": PAULI_MATS["Z"]}


def rotation_unitary(axis, theta):
    """Dense 2x2 rotation matrix cos(t/2) I - i sin(t/2) n.sigma."""
    n_sigma = sum(a * GEN[c] for a, c in zip(axis, "xyz"))
    return math.cos(theta / 2) * PAULI_MATS["I"] - 1j * math.sin(theta / 2) * n_sigma


def _batched_rotations(axes, times):
    """Rotation matrices of exp(-i t n.sigma) conjugation, batched (Rodrigues).

    axes: (B, 3); times: (T,).  Returns (B, T, 3, 3); axes shorter than
    1e-100 give the identity map.
    """
    r = np.linalg.norm(axes, axis=-1)
    degenerate = r < 1e-100  # includes exact zeros; avoids denormal blowup
    safe = np.where(degenerate, 1.0, r)
    unit = axes / safe[:, None]
    theta = 2.0 * r[:, None] * times[None, :]  # (B, T)
    cos = np.cos(theta)[..., None, None]
    sin = np.sin(theta)[..., None, None]
    eye = np.eye(3)
    # cross-product matrix K with K[:, j] = e_j x n  equals -[n]_x
    kx = np.zeros(axes.shape[:1] + (3, 3))
    kx[:, 0, 1], kx[:, 0, 2] = unit[:, 2], -unit[:, 1]
    kx[:, 1, 0], kx[:, 1, 2] = -unit[:, 2], unit[:, 0]
    kx[:, 2, 0], kx[:, 2, 1] = unit[:, 1], -unit[:, 0]
    outer = unit[:, :, None] * unit[:, None, :]
    rot = (
        cos * eye
        + sin * kx[:, None, :, :]
        + (1 - cos) * outer[:, None, :, :]
    )
    rot[degenerate] = eye
    return rot


def dense_conjugation_image(axis, theta, generator):
    """Independent oracle: expand R† sigma_j R in the Pauli basis."""
    r = rotation_unitary(axis, theta)
    conj = r.conj().T @ GEN[generator] @ r
    return np.array([np.trace(PAULI_MATS[c] @ conj).real / 2 for c in "XYZ"])


def test_rotation_about_own_axis_is_identity():
    assert np.allclose(conjugation_image((0.0, 0.0, 1.0), 1.234, "z"), [0, 0, 1], atol=1e-14)


def test_rotation_sign_convention_fixed_by_dense_oracle():
    # quarter turn about +y maps z to -x under R = cos - i sin n.sigma
    image = conjugation_image((0.0, 1.0, 0.0), math.pi / 2, "z")
    assert np.allclose(image, [-1, 0, 0], atol=1e-12)
    assert np.allclose(dense_conjugation_image((0, 1, 0), math.pi / 2, "z"), [-1, 0, 0])


def test_rotation_about_minus_y_sends_z_to_plus_x():
    image = conjugation_image((0.0, -1.0, 0.0), math.pi / 2, "z")
    assert image[0] == pytest.approx(1.0)
    assert np.allclose(image, [1, 0, 0], atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: sum(x * x for x in v) > 1e-4),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
    st.sampled_from("xyz"),
)
def test_rotation_image_matches_dense_conjugation(raw_axis, theta, generator):
    axis = np.array(raw_axis) / np.linalg.norm(raw_axis)
    assert np.allclose(
        conjugation_image(axis, theta, generator),
        dense_conjugation_image(axis, theta, generator),
        atol=1e-12,
    )


def test_rotation_image_matches_dense_on_many_seeded_draws():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        g = "xyz"[rng.integers(3)]
        assert np.abs(
            conjugation_image(axis, theta, g) - dense_conjugation_image(axis, theta, g)
        ).max() < 1e-12


def test_conjugation_image_handles_non_unit_axes():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = rng.normal(size=3)
        theta = rng.uniform(0, 2 * math.pi)
        for g in "xyz":
            # oracle: build the (generally non-unitary) R and expand R† P R
            n_sigma = sum(n[i] * GEN[c] for i, c in enumerate("xyz"))
            r = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * n_sigma
            conj = r.conj().T @ GEN[g] @ r
            oracle = np.array([np.trace(PAULI_MATS[c] @ conj).real / 2 for c in "XYZ"])
            assert np.allclose(conjugation_image(n, theta, g), oracle, atol=1e-10)


def test_target_map_matrix_and_determinant():
    # the search's target is the frame map the six-gate network realises:
    # column j is the final Heisenberg image of q_j, read as a signed label
    final = evolve_descriptors(witness_circuit())[-1]
    columns = []
    for expr in final.triples["Q"]:
        signed = signed_single_label(expr)
        assert signed[2] == "I"  # the image stays on Q
        sign = -1.0 if signed[0] == "-" else 1.0
        columns.append([sign * (signed[1] == c) for c in "XYZ"])
    assert np.array_equal(WITNESS_FRAME_MAP, np.array(columns).T)
    assert np.allclose(WITNESS_FRAME_MAP.T @ WITNESS_FRAME_MAP, np.eye(3), atol=1e-15)
    assert np.linalg.det(WITNESS_FRAME_MAP) == pytest.approx(1.0)


def test_z_system_root_set():
    res = solve_generator_system("z", (1.0, 0.0, 0.0))
    assert res.acceptable_roots == [(0.0, -1.0, 0.0)]
    assert res.max_equation_residual < 1e-10


def test_x_system_root_set():
    res = solve_generator_system("x", (0.0, 0.0, 1.0))
    assert res.acceptable_roots == [(0.0, 1.0, 0.0)]
    assert res.max_equation_residual < 1e-10


def test_y_system_under_both_right_hand_sides():
    # target reading (image -q_y): no real roots at all
    target = solve_generator_system("y", (0.0, -1.0, 0.0))
    assert target.acceptable_roots == []
    # sign-flipped reading (+q_y): the two unit roots on the y axis
    flipped = solve_generator_system("y", (0.0, 1.0, 0.0))
    assert flipped.acceptable_roots == [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)]


def test_roots_satisfy_their_systems_after_substitution():
    for gen, image in (("z", (1.0, 0.0, 0.0)), ("x", (0.0, 0.0, 1.0))):
        res = solve_generator_system(gen, image)
        for root in res.acceptable_roots:
            got = conjugation_image(np.array(root), math.pi / 2, gen)
            assert np.allclose(got, image, atol=1e-10)


def test_axis_systems_have_empty_intersection():
    results = {
        g: solve_generator_system(g, tuple(WITNESS_FRAME_MAP[:, j]))
        for j, g in enumerate("xyz")
    }
    assert roots_intersection(results) == []


def test_axis_constraint_report_verdict():
    report = axis_constraint_report()
    assert report.verdict == "NO-CONSISTENT-AXIS"
    assert report.root_sets["z"] == [(0.0, -1.0, 0.0)]
    assert report.root_sets["x"] == [(0.0, 1.0, 0.0)]
    assert report.root_sets["y_target"] == []
    assert sorted(report.root_sets["y_sign_flipped"]) == [
        (0.0, -1.0, 0.0),
        (0.0, 1.0, 0.0),
    ]
    assert report.all_passed()


def test_batched_rotations_match_dense_conjugation():
    rng = np.random.default_rng(23)
    axes = rng.normal(size=(8, 3))
    times = rng.uniform(0, 2 * math.pi, size=5)
    rots = _batched_rotations(axes, times)
    for i, axis in enumerate(axes):
        r = np.linalg.norm(axis)
        unit = axis / r
        for j, t in enumerate(times):
            expected = np.column_stack(
                [dense_conjugation_image(unit, 2 * r * t, g) for g in "xyz"]
            )
            assert np.allclose(rots[i, j], expected, atol=1e-10)


def test_sector_reduction_matches_joint_evolution():
    # the search works on 2x2 mediator sectors; confirm the family-derived
    # axis maps against the full 4x4 evolution of constrained members
    from qwitness.dense import expm_hermitian, to_dense
    from qwitness.paulis import OperatorExpr
    from qwitness.conservation import classical_filtered_family, zm_sector_maps

    family = classical_filtered_family()
    expand = family.expansion_matrix()
    maps = zm_sector_maps(family)
    free = family.free_params()
    rng = np.random.default_rng(37)
    q_ops = {g: to_dense(OperatorExpr.from_label(l))
             for g, l in (("x", "XI"), ("y", "YI"), ("z", "ZI"))}
    for _ in range(10):
        free_vals = rng.uniform(-2, 2, size=len(free))
        t = rng.uniform(0, 2 * math.pi)
        full = free_vals @ expand
        h = family.member(dict(zip(family.params, full)))
        u = expm_hermitian(to_dense(h), t)
        rots = [
            _batched_rotations((free_vals @ maps[m])[None, 1:], np.array([t]))[0, 0]
            for m in range(2)
        ]
        for j, g in enumerate("xyz"):
            img = u.conj().T @ q_ops[g] @ u
            for m, rot in enumerate(rots):
                # mediator sector m occupies rows/cols {m, 2+m} in |qm> order
                block = img[np.ix_([m, 2 + m], [m, 2 + m])]
                expected = sum(
                    rot[i, j] * GEN[comp] for i, comp in enumerate("xyz")
                )
                assert np.abs(block - expected).max() < 1e-10
            # sectors never mix: the cross block vanishes
            assert np.abs(img[np.ix_([0, 2], [1, 3])]).max() < 1e-12


def test_batched_rotations_zero_axis_is_identity():
    rots = _batched_rotations(np.zeros((1, 3)), np.array([0.3, 0.9]))
    assert np.allclose(rots[0, 0], np.eye(3))
    assert np.allclose(rots[0, 1], np.eye(3))


def test_sector_kernel_matches_rotation_tensor():
    # the closed form against the Rodrigues tensor and the coherence of
    # R|0> written out from its diagonal entries, on the search's time grid
    times = np.linspace(0.0, 2 * math.pi, 64)
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    reach = math.pi / 2 / times[16]  # r t = pi/2 on a grid point: res^2 = 0
    axes = np.vstack([
        np.random.default_rng(29).normal(size=(40, 3)),
        np.zeros(3),
        np.full(3, 1e-120),
        reach * diag,
        -reach * diag,
        [0.0, 0.0, 1.3],
        [0.0, 0.0, -0.7],
    ])
    res_sq, coh = _sector_kernel(axes, times)
    diff = _batched_rotations(axes, times) - WITNESS_FRAME_MAP
    assert np.abs(res_sq - 2.0 * np.sum(diff * diff, axis=(-2, -1))).max() <= 1e-12
    r = np.linalg.norm(axes, axis=-1)
    unit = axes / np.where(r < 1e-100, 1.0, r)[:, None]
    phase = r[:, None] * times[None, :]
    a00 = np.cos(phase) ** 2 + np.sin(phase) ** 2 * unit[:, None, 2] ** 2
    a10 = np.sin(phase) ** 2 * (unit[:, None, 0] ** 2 + unit[:, None, 1] ** 2)
    assert np.abs(coh - 2.0 * np.sqrt(a00 * a10)).max() <= 1e-12
    assert res_sq.min() >= 0.0
    assert res_sq[-4, 16] <= 1e-12 and res_sq[-3, 16] <= 1e-12
    assert np.all(res_sq[-6:-4] == 16.0)


def test_impossibility_search_budget_zero_is_unproven():
    report = classical_impossibility_search(budget=0)
    assert report.verdict == "UNPROVEN"
    assert report.checks == []


def test_impossibility_search_reports_positive_gap():
    report = classical_impossibility_search(
        budget=500, seed=3, grid_points=5, time_points=32
    )
    assert report.verdict == "POSITIVE-GAP"
    # the |0>-sector only reaches z-rotations, so 2*sqrt(2) bounds its
    # residual from below; the grid approaches it from above
    plus = report.findings["min_residual_mediator_plus"]
    assert plus >= 2 * math.sqrt(2) - 1e-9
    assert plus == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert report.findings["min_residual_joint"] >= 2 * math.sqrt(2) - 1e-9
    # state-level transfer is achievable in the |1> sector
    assert report.coherence_maxima["state_level_best"] > 0.9


def test_impossibility_search_is_deterministic():
    # 81 grid points + 5000 draws span three 2048-sample chunks
    kwargs = dict(budget=5000, seed=11, grid_points=3, time_points=16)
    a = classical_impossibility_search(**kwargs)
    b = classical_impossibility_search(**kwargs)
    assert a.to_json_dict() == b.to_json_dict()


def test_classical_family_members_never_move_the_mediator():
    # [H, Z_M] = 0 exactly in symbolic form for every filtered member
    from qwitness.paulis import OperatorExpr, commutator
    from qwitness.conservation import classical_filtered_family

    family = classical_filtered_family()
    rng = np.random.default_rng(29)
    z_m = OperatorExpr.from_label("IZ")
    for _ in range(50):
        member, _vec = family.random_member(rng)
        assert is_zero(commutator(member, z_m))


def test_exchange_hamiltonian_is_twice_xx_plus_yy():
    h = exchange_hamiltonian()
    assert h.coeff("XX") == pytest.approx(2.0)
    assert h.coeff("YY") == pytest.approx(2.0)
    assert len(h.labels()) == 2


def test_quantum_demo_swap():
    report = quantum_demo(SWAP_INTERACTION)
    assert report.all_passed()
    assert np.allclose(report.findings["bloch_plus"], [1, 0, 0], atol=1e-12)
    assert np.allclose(report.findings["bloch_minus"], [-1, 0, 0], atol=1e-12)


def test_quantum_demo_exchange():
    report = quantum_demo(EXCHANGE_INTERACTION)
    assert report.all_passed()
    # H = 2(XX + YY) on |0>|+> gives coherence |sin(4t)|: full at t = pi/8
    traj = report.findings["trajectory"]
    coh = {t: math.hypot(x, y) for t, x, y, _ in traj}
    assert max(coh.values()) == pytest.approx(1.0, abs=1e-12)
    assert coh[0.0] == pytest.approx(0.0, abs=1e-12)
    for t, x, y, _ in traj:
        assert math.hypot(x, y) == pytest.approx(abs(math.sin(4 * t)), abs=1e-10)


def test_quantum_demo_unknown_interaction():
    with pytest.raises(StructuralError):
        quantum_demo("teleport")


def test_coherence_examples():
    assert coherence(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    plus = 0.5 * (PAULI_MATS["I"] + PAULI_MATS["X"])
    assert coherence(plus) == pytest.approx(1.0)
    assert coherence(np.eye(2) / 2) == pytest.approx(0.0)
    with pytest.raises(ContractViolation):
        coherence(np.diag([2.0, -1.0]).astype(complex))


def test_coherence_invariant_under_z_rotations():
    rng = np.random.default_rng(6)
    for _ in range(25):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        rho = np.outer(amp, amp.conj())
        phi = rng.uniform(0, 2 * math.pi)
        u = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
        assert coherence(u @ rho @ u.conj().T) == pytest.approx(coherence(rho), abs=1e-12)
