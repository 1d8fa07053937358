import math

import numpy as np
import pytest

from qwitness.circuit import (
    CNOT_MQ,
    COMPONENTS,
    CPHASE_MQ,
    PARTIAL_SWAP,
    REFERENCE_DESCRIPTOR_TABLE,
    RY_M,
    SUBSYSTEMS,
    SWAP,
    Circuit,
    GateSpec,
    composite_unitary,
    evolve_descriptors,
    gate_expr,
    gate_unitary,
    initial_frame,
    network_hamiltonian,
    witness_circuit,
    witness_state_check,
)
from qwitness.conservation import ConservedQuantity, conservation_residual
from qwitness.dense import qubit_state, to_dense
from qwitness.errors import ContractViolation, StructuralError
from qwitness.paulis import OperatorExpr, commutator, signed_single_label

from operator_helpers import approx_equal, evolve_descriptors_stepwise, is_hermitian, is_unitary


def test_gate_spec_validation():
    with pytest.raises(StructuralError):
        GateSpec("hadamard")
    with pytest.raises(StructuralError):
        GateSpec(RY_M)  # angle required
    with pytest.raises(StructuralError):
        GateSpec(SWAP, 0.3)  # no angle allowed
    with pytest.raises(StructuralError):
        Circuit(())


def test_swap_unitary_swaps_basis_states():
    u = gate_unitary(GateSpec(SWAP))
    ket01 = np.zeros(4)
    ket01[1] = 1  # |q=0, m=1>
    ket10 = np.zeros(4)
    ket10[2] = 1
    assert np.allclose(u @ ket01, ket10)


def test_cnot_flips_q_when_m_is_one():
    u = gate_unitary(GateSpec(CNOT_MQ))
    ket = np.zeros(4)
    ket[1] = 1  # |q=0, m=1>
    expected = np.zeros(4)
    expected[3] = 1  # |q=1, m=1>
    assert np.allclose(u @ ket, expected)
    # m=0 leaves q alone
    ket0 = np.zeros(4)
    ket0[0] = 1
    assert np.allclose(u @ ket0, ket0)


def test_ry_half_pi_matrix():
    u = gate_unitary(GateSpec(RY_M, math.pi / 2))
    y_m = to_dense(OperatorExpr.from_label("IY"))
    expected = (math.sqrt(2) / 2) * (np.eye(4) - 1j * y_m)
    assert np.allclose(u, expected, atol=1e-14)


def test_cphase_matrix():
    u = gate_unitary(GateSpec(CPHASE_MQ))
    assert np.allclose(u, np.diag([1, 1, 1, -1]))


def test_all_gates_are_unitary():
    for spec in (
        GateSpec(CNOT_MQ),
        GateSpec(CPHASE_MQ),
        GateSpec(SWAP),
        GateSpec(RY_M, 0.7),
        GateSpec(PARTIAL_SWAP, 0.4),
    ):
        assert is_unitary(gate_unitary(spec), tol=1e-12)


def test_descriptor_table_reproduced_cell_by_cell():
    frames = evolve_descriptors(witness_circuit())
    assert len(frames) == 7
    for frame in frames:
        for sub in SUBSYSTEMS:
            for comp_idx, comp in enumerate(COMPONENTS):
                expected = REFERENCE_DESCRIPTOR_TABLE[frame.time_index][sub][comp_idx]
                assert signed_single_label(frame.component(sub, comp)) == expected


def test_stepwise_and_composite_frames_agree():
    circuit = witness_circuit()
    direct = evolve_descriptors(circuit)
    stepwise = evolve_descriptors_stepwise(circuit)
    for a, b in zip(direct, stepwise):
        for sub in SUBSYSTEMS:
            for comp in COMPONENTS:
                assert approx_equal(a.component(sub, comp), b.component(sub, comp), tol=1e-12)


def test_single_swap_circuit_swaps_the_triples():
    frames = evolve_descriptors(Circuit((GateSpec(SWAP),)))
    start = initial_frame()
    for comp in COMPONENTS:
        assert approx_equal(frames[1].component("Q", comp), start.component("M", comp))
        assert approx_equal(frames[1].component("M", comp), start.component("Q", comp))


def test_frames_satisfy_su2_relations_and_involution():
    # [q_x, q_y] = 2i q_z cyclically, and q^2 = I, at every slice
    frames = evolve_descriptors(witness_circuit())
    for frame in frames:
        for sub in SUBSYSTEMS:
            qx, qy, qz = (frame.component(sub, c) for c in COMPONENTS)
            for a, b, c in ((qx, qy, qz), (qy, qz, qx), (qz, qx, qy)):
                assert approx_equal(commutator(a, b), 2j * c, tol=1e-12)
                assert approx_equal(a @ a, OperatorExpr.identity(2), tol=1e-12)
                assert is_hermitian(a, tol=1e-12)


def test_partial_swap_gate_expr():
    eta = 0.37
    expr = gate_expr(GateSpec(PARTIAL_SWAP, eta))
    swap = gate_expr(GateSpec(SWAP))
    expected = math.cos(eta) * OperatorExpr.identity(2) + (1j * math.sin(eta)) * swap
    assert approx_equal(expr, expected, tol=1e-14)


def test_network_hamiltonian_coefficients():
    h = network_hamiltonian()
    assert is_hermitian(h, tol=1e-13)
    # the swap gate contributes the only X_QX_M weight
    assert h.coeff("XX").real == pytest.approx(0.5)
    assert h.coeff("YY").real == pytest.approx(0.5)
    assert h.coeff("ZZ") == 0  # cphase and swap ZZ parts cancel
    assert h.coeff("II").real == pytest.approx(2 + math.sqrt(2))
    # the two opposite-angle rotations sum to sqrt(2) times the identity
    ry_sum = gate_expr(GateSpec(RY_M, math.pi / 2)) + gate_expr(GateSpec(RY_M, -math.pi / 2))
    assert approx_equal(ry_sum, math.sqrt(2) * OperatorExpr.identity(2), tol=1e-14)


def test_network_hamiltonian_conserves_nonadditive_charge_symbolically():
    h = network_hamiltonian()
    charge = ConservedQuantity.nonadditive().expr
    assert commutator(h, charge).max_coeff() < 1e-13


def test_composite_circuit_residual_is_reported_not_zero():
    # the sequential product maps the conserved quantity to a different
    # operator; its residual is a finding with a known exact value
    u = composite_unitary(witness_circuit())
    residual = conservation_residual(u, ConservedQuantity.nonadditive())
    assert residual == pytest.approx(math.sqrt(24), abs=1e-10)


def test_witness_state_check_basis_and_mixed_states():
    out = witness_state_check([qubit_state(b) for b in ((0, 0, 1), (0, 0, -1), (0, 0, 0))])
    assert out.shape == (3, 3)
    assert np.allclose(out, [1, 0, 0], atol=1e-12)


def test_witness_state_check_haar_random_states():
    rng = np.random.default_rng(42)
    states = []
    for _ in range(100):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        states.append(np.outer(amp, amp.conj()))
    out = witness_state_check(states)
    assert np.abs(out - np.array([1, 0, 0])).max() < 1e-10


def test_witness_state_check_rejects_invalid_states():
    with pytest.raises(ContractViolation):
        witness_state_check([np.diag([1.2, -0.2]).astype(complex)])
    with pytest.raises(ContractViolation):
        witness_state_check([qubit_state((1, 0, 0)), np.diag([0.8, 0.8]).astype(complex)])


def test_heisenberg_route_matches_schroedinger_expectation():
    # <q_x(t6)> in the initial state equals <X> of the evolved reduced state
    rng = np.random.default_rng(8)
    frames = evolve_descriptors(witness_circuit())
    qx_t6 = to_dense(frames[-1].component("Q", "x"))
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        rho_m = np.outer(amp, amp.conj())
        joint0 = np.kron(qubit_state((0, 0, 1)), rho_m)
        heisenberg = np.trace(joint0 @ qx_t6).real
        schroedinger = witness_state_check([rho_m])[0, 0]
        assert heisenberg == pytest.approx(schroedinger, abs=1e-12)
