import math

import numpy as np
import pytest

from qwitness.circuit import network_hamiltonian
from qwitness.dense import expm_hermitian, partial_trace, to_dense
from qwitness.errors import StructuralError
from qwitness.oscillator import (
    fock_ops,
    hp_hamiltonian,
    hp_qubit,
    hp_substitute,
    identity_free_difference,
    oscillator_witness_run,
)
from qwitness.paulis import OperatorExpr

from operator_helpers import oscillator_run_loop


def test_fock_ops_two_levels():
    a, number = fock_ops(2)
    assert np.allclose(a, [[0, 1], [0, 0]])
    assert np.allclose(number, np.diag([0, 1]))


def test_fock_ops_number_diagonal():
    assert np.allclose(fock_ops(3)[1], np.diag([0, 1, 2]))
    assert np.allclose(np.diag(fock_ops(6)[1]).real, np.arange(6))


def test_fock_commutator_defect_sits_on_top_level():
    for d in (2, 3, 5, 8):
        a, _ = fock_ops(d)
        comm = a @ a.conj().T - a.conj().T @ a
        defect = comm - np.eye(d)
        expected = np.zeros((d, d))
        expected[d - 1, d - 1] = -d  # [a, a†] = I - d |d-1><d-1|
        assert np.allclose(defect, expected, atol=1e-12)


def test_fock_ops_rejects_tiny_dims():
    with pytest.raises(StructuralError):
        fock_ops(1)


def test_hp_qubit_two_levels_is_half_pauli_triple():
    q_x, q_y, q_z = hp_qubit(2)
    assert np.allclose(q_z, np.diag([0.5, -0.5]))
    assert np.allclose(q_x, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(q_y, np.array([[0, -0.5j], [0.5j, 0]]))


def test_hp_qubit_su2_at_two_levels():
    q_x, q_y, q_z = hp_qubit(2)
    for a, b, c in ((q_x, q_y, q_z), (q_y, q_z, q_x), (q_z, q_x, q_y)):
        assert np.linalg.norm(a @ b - b @ a - 1j * c) < 1e-12


def test_hp_qubit_truncation_artifact_reported_at_higher_dims():
    # the clamped square root breaks the algebra away from two levels;
    # the residual is a finding, it just has to be visibly nonzero
    q_x, q_y, q_z = hp_qubit(4)
    residual = np.linalg.norm(q_x @ q_y - q_y @ q_x - 1j * q_z)
    assert residual > 0.1
    for m in (q_x, q_y, q_z):
        assert np.linalg.norm(m - m.conj().T) < 1e-14  # clamping keeps Hermiticity


def test_hp_hamiltonian_hermitian_at_all_truncations():
    for d_b in (2, 3, 8):
        h = hp_hamiltonian(d_b)
        assert h.shape == (2 * d_b, 2 * d_b)
        assert np.linalg.norm(h - h.conj().T) < 1e-12


def test_hp_hamiltonian_evolution_unitary():
    for d_b in (2, 3, 8):
        u = expm_hermitian(hp_hamiltonian(d_b), 0.9)
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) < 1e-10


def test_two_level_reduction_matches_substituted_network():
    h = hp_hamiltonian(2)
    mapped = hp_substitute(network_hamiltonian(), 2)
    assert identity_free_difference(h, mapped) < 1e-12
    # identity parts genuinely differ (constants were dropped), so the raw
    # difference is a multiple of the identity
    diff = h - mapped
    assert np.linalg.norm(diff - np.trace(diff) / 4 * np.eye(4)) < 1e-12


def test_hp_substitute_halves_single_letter_weights():
    mapped = hp_substitute(OperatorExpr.from_label("ZI"), 2)
    assert np.allclose(mapped, np.kron(np.diag([0.5, -0.5]), np.eye(2)))


def test_number_operator_not_conserved():
    # the hopping term moves quanta; the commutator is reported, not asserted
    for d_b in (2, 4):
        h = hp_hamiltonian(d_b)
        b_num = np.kron(np.eye(2), fock_ops(d_b)[1])
        assert np.linalg.norm(h @ b_num - b_num @ h) > 0.1


def test_charge_image_commutator_is_a_finding():
    h = hp_hamiltonian(2)
    charge = hp_substitute(OperatorExpr({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}), 2)
    residual = np.linalg.norm(h @ charge - charge @ h)
    assert math.isfinite(residual)


def test_two_level_image_conserves_no_z_family_law():
    # the half-Pauli letter map is not multiplicative, so no nonzero
    # c1 Z_Q + c2 Z_M + c3 Z_Q Z_M commutes with the d = 2 image (smallest
    # singular value of the commutator map: 0.594)
    h = hp_hamiltonian(2)
    columns = []
    for label in ("ZI", "IZ", "ZZ"):
        z = to_dense(OperatorExpr.from_label(label))
        columns.append((h @ z - z @ h).ravel())
    singular = np.linalg.svd(np.column_stack(columns), compute_uv=False)
    assert singular.min() > 0.5
    # the network Hamiltonian itself conserves Z_Q + Z_M + Z_Q Z_M exactly
    net = to_dense(network_hamiltonian())
    charge = to_dense(OperatorExpr({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}))
    assert np.linalg.norm(net @ charge - charge @ net) < 1e-12


def test_oscillator_witness_trajectories():
    trajs = oscillator_witness_run(2)
    assert set(trajs) == {0, 1}
    for level, points in trajs.items():
        assert points[0][1] == pytest.approx(0.0, abs=1e-12)  # Z-sharp start
        assert all(0 <= c <= 1 + 1e-12 for _, c in points)
    assert max(c for _, c in trajs[1]) > 0.1  # witnessing occurs


def _joint_matrix_coherence(d_b):
    """Reference for oscillator_witness_run: rho_Q from the full joint state.

    Each point builds |psi><psi| on (Q, M) and traces M out with the general
    partial_trace, then reads 2|rho_Q[0, 1]|.
    """
    t_grid = np.linspace(0.0, 2 * math.pi, 64)
    evals, vecs = np.linalg.eigh(hp_hamiltonian(d_b))
    trajectories = {}
    for level in range(d_b):
        psi0 = np.zeros(2 * d_b, dtype=complex)
        psi0[level] = 1.0
        coeff = vecs.conj().T @ psi0
        points = []
        for t in t_grid:
            psi = vecs @ (np.exp(-1j * t * evals) * coeff)
            rho_q = partial_trace(np.outer(psi, psi.conj()), (2, d_b), keep=(0,))
            points.append((float(t), float(2 * abs(rho_q[0, 1]))))
        trajectories[level] = points
    return trajectories


@pytest.mark.parametrize("d_b", [2, 3, 8, 32])
def test_oscillator_witness_run_matches_joint_matrix_reference(d_b):
    got = oscillator_witness_run(d_b)
    ref = _joint_matrix_coherence(d_b)
    assert list(got) == list(ref) == list(range(d_b))
    for level in ref:
        assert [t for t, _ in got[level]] == [t for t, _ in ref[level]]
        diffs = [abs(c - r) for (_, c), (_, r) in zip(got[level], ref[level])]
        assert len(diffs) == 64 and max(diffs) <= 1e-12


@pytest.mark.parametrize("d_b", [2, 3, 4, 8, 32, 33])
def test_oscillator_witness_run_equals_the_per_time_loop(d_b):
    assert oscillator_witness_run(d_b) == oscillator_run_loop(d_b)


def test_reduced_states_stay_physical_along_trajectories():
    d_b = 3
    h = hp_hamiltonian(d_b)
    evals, vecs = np.linalg.eigh(h)
    psi0 = np.zeros(2 * d_b, dtype=complex)
    psi0[1] = 1.0  # |0>_Q x |1>_M
    coeff = vecs.conj().T @ psi0
    for t in np.linspace(0, 3, 16):
        psi = vecs @ (np.exp(-1j * t * evals) * coeff)
        rho_q = partial_trace(np.outer(psi, psi.conj()), (2, d_b), keep=(0,))
        assert np.trace(rho_q).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho_q).min() >= -1e-12


def test_hp_hamiltonian_rejects_tiny_truncation():
    with pytest.raises(StructuralError):
        hp_hamiltonian(1)
