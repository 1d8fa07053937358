import math

import numpy as np
import pytest

from qwitness.circuit import (
    REFERENCE_DESCRIPTOR_TABLE,
    cnot_mq,
    composite_unitary,
    cphase_mq,
    evolve_descriptors,
    mediator_independence_check,
    network_hamiltonian,
    partial_swap,
    ry_m,
    swap,
    witness_circuit,
    witness_state_check,
)
from qwitness.conservation import ConservedQuantity, conservation_residual
from qwitness.dense import qubit_state, to_dense
from qwitness.errors import ContractViolation, StructuralError
from qwitness.paulis import OperatorExpr, commutator, signed_single_label

from operator_helpers import (
    SUBSYSTEMS,
    approx_equal,
    evolve_descriptors_stepwise,
    haar_mediator_states_loop,
    is_hermitian,
    is_unitary,
    witness_state_loop,
)


@pytest.mark.parametrize("builder", [ry_m, partial_swap])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_a_structural_error(builder, angle):
    # checked before math.cos, which would raise a plain ValueError on inf
    with pytest.raises(StructuralError, match="finite"):
        builder(angle)


def test_empty_gate_sequence_is_the_identity():
    assert np.array_equal(composite_unitary(()), np.eye(4))
    (row,) = evolve_descriptors([])
    assert [signed_single_label(e) for e in row["Q"]] == ["+XI", "+YI", "+ZI"]
    assert [signed_single_label(e) for e in row["M"]] == ["+IX", "+IY", "+IZ"]


def test_swap_unitary_swaps_basis_states():
    u = to_dense(swap())
    ket01 = np.zeros(4)
    ket01[1] = 1  # |q=0, m=1>
    ket10 = np.zeros(4)
    ket10[2] = 1
    assert np.allclose(u @ ket01, ket10)


def test_cnot_flips_q_when_m_is_one():
    u = to_dense(cnot_mq())
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
    u = to_dense(ry_m(math.pi / 2))
    y_m = to_dense(OperatorExpr.from_label("IY"))
    expected = (math.sqrt(2) / 2) * (np.eye(4) - 1j * y_m)
    assert np.allclose(u, expected, atol=1e-14)


def test_cphase_matrix():
    u = to_dense(cphase_mq())
    assert np.allclose(u, np.diag([1, 1, 1, -1]))


def test_all_gates_are_unitary():
    for gate in (cnot_mq(), cphase_mq(), swap(), ry_m(0.7), partial_swap(0.4)):
        assert is_unitary(to_dense(gate), tol=1e-12)


def test_descriptor_table_reproduced_cell_by_cell():
    rows = evolve_descriptors(witness_circuit())
    assert len(rows) == 7
    for t, row in enumerate(rows):
        assert list(row) == list(SUBSYSTEMS)
        for sub in SUBSYSTEMS:
            labels = tuple(signed_single_label(e) for e in row[sub])
            assert labels == REFERENCE_DESCRIPTOR_TABLE[t][sub]


def test_stepwise_and_composite_frames_agree():
    gates = witness_circuit()
    direct = evolve_descriptors(gates)
    stepwise = evolve_descriptors_stepwise(gates)
    assert len(direct) == len(stepwise) == 7
    for a, b in zip(direct, stepwise):
        for sub in SUBSYSTEMS:
            for x, y in zip(a[sub], b[sub], strict=True):
                assert approx_equal(x, y, tol=1e-12)


def test_single_swap_circuit_swaps_the_triples():
    start, swapped = evolve_descriptors([swap()])
    assert [signed_single_label(e) for e in start["Q"]] == ["+XI", "+YI", "+ZI"]
    assert [signed_single_label(e) for e in start["M"]] == ["+IX", "+IY", "+IZ"]
    for q, m in zip(swapped["Q"], start["M"], strict=True):
        assert approx_equal(q, m)
    for m, q in zip(swapped["M"], start["Q"], strict=True):
        assert approx_equal(m, q)


def test_frames_satisfy_su2_relations_and_involution():
    # [q_x, q_y] = 2i q_z cyclically, and q^2 = I, at every slice
    rows = evolve_descriptors(witness_circuit())
    for row in rows:
        for sub in SUBSYSTEMS:
            qx, qy, qz = row[sub]
            for a, b, c in ((qx, qy, qz), (qy, qz, qx), (qz, qx, qy)):
                assert approx_equal(commutator(a, b), 2j * c, tol=1e-12)
                assert approx_equal(a @ a, OperatorExpr.identity(2), tol=1e-12)
                assert is_hermitian(a, tol=1e-12)


def test_partial_swap_expression():
    eta = 0.37
    expected = math.cos(eta) * OperatorExpr.identity(2) + (1j * math.sin(eta)) * swap()
    assert approx_equal(partial_swap(eta), expected, tol=1e-14)


def test_network_hamiltonian_coefficients():
    h = network_hamiltonian()
    assert is_hermitian(h, tol=1e-13)
    # the swap gate contributes the only X_QX_M weight
    assert h.coeff("XX").real == pytest.approx(0.5)
    assert h.coeff("YY").real == pytest.approx(0.5)
    assert h.coeff("ZZ") == 0  # cphase and swap ZZ parts cancel
    assert h.coeff("II").real == pytest.approx(2 + math.sqrt(2))
    # the two opposite-angle rotations sum to sqrt(2) times the identity
    ry_sum = ry_m(math.pi / 2) + ry_m(-math.pi / 2)
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
    out = witness_state_check(haar_mediator_states_loop(42))
    assert np.abs(out - np.array([1, 0, 0])).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 7, 41, 42, 99])
def test_mediator_check_equals_the_per_state_loop(seed):
    states = haar_mediator_states_loop(seed)
    want = witness_state_loop(states)
    assert (witness_state_check(np.array(states)) == want).all()
    worst = float(np.abs(want - np.array([1.0, 0.0, 0.0])).max())
    assert mediator_independence_check(seed).value == worst


def test_witness_state_check_rejects_invalid_states():
    with pytest.raises(ContractViolation):
        witness_state_check([np.diag([1.2, -0.2]).astype(complex)])
    with pytest.raises(ContractViolation):
        witness_state_check([qubit_state((1, 0, 0)), np.diag([0.8, 0.8]).astype(complex)])


def test_heisenberg_route_matches_schroedinger_expectation():
    # <q_x(t6)> in the initial state equals <X> of the evolved reduced state
    rng = np.random.default_rng(8)
    qx_t6 = to_dense(evolve_descriptors(witness_circuit())[-1]["Q"][0])
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        rho_m = np.outer(amp, amp.conj())
        joint0 = np.kron(qubit_state((0, 0, 1)), rho_m)
        heisenberg = np.trace(joint0 @ qx_t6).real
        schroedinger = witness_state_check([rho_m])[0, 0]
        assert heisenberg == pytest.approx(schroedinger, abs=1e-12)
