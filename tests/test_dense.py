import math

import numpy as np
import pytest

from qwitness.dense import (
    assert_density_matrix,
    bloch_vector,
    expm_hermitian,
    frobenius_norm,
    partial_trace,
    pauli_decompose,
    qubit_state,
    to_dense,
    trace_distance,
)
from qwitness.errors import ContractViolation, StructuralError
from qwitness.paulis import OperatorExpr

from operator_helpers import approx_equal

CNOT_ON_M = np.array(
    # |q m> ordering; flips q when m = 1 (enumerated by hand from the action
    # |00>->|00>, |01>->|11>, |10>->|10>, |11>->|01>)
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_to_dense_identity_and_z():
    assert np.allclose(to_dense(OperatorExpr.from_label("II")), np.eye(4))
    assert np.allclose(to_dense(OperatorExpr.from_label("Z")), np.diag([1, -1]))


def test_to_dense_projector_form_gives_cnot_controlled_on_m():
    one = OperatorExpr.identity(2)
    mz = OperatorExpr.from_label("IZ")
    qx = OperatorExpr.from_label("XI")
    cnot = 0.5 * (one + mz) + 0.5 * ((one - mz) @ qx)
    assert np.allclose(to_dense(cnot), CNOT_ON_M)


def test_pauli_decompose_identity():
    expr = pauli_decompose(np.eye(4, dtype=complex))
    assert expr.labels() == ["II"]
    assert expr.coeff("II") == pytest.approx(1.0)


def test_pauli_decompose_swap():
    expr = pauli_decompose(SWAP)
    for label in ("II", "XX", "YY", "ZZ"):
        assert expr.coeff(label) == pytest.approx(0.5)
    assert len(expr.labels()) == 4


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = rng.integers(1, 4)
        labels = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(rng.integers(1, 5))]
        coeffs = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        expr = OperatorExpr(dict(zip(labels, coeffs)), n_sites=n)
        back = pauli_decompose(to_dense(expr))
        assert approx_equal(back, expr, tol=1e-13)


def test_decompose_hermitian_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (m + m.conj().T) / 2
    rebuilt = to_dense(pauli_decompose(h))
    assert np.allclose(rebuilt, h, atol=1e-13)


def test_pauli_decompose_rejects_non_qubit_dims():
    with pytest.raises(StructuralError):
        pauli_decompose(np.eye(3, dtype=complex))


def test_partial_trace_product_state():
    rho = qubit_state((0.2, -0.3, 0.4))
    xi = qubit_state((0.0, 1.0, 0.0))
    joint = np.kron(rho, xi)
    assert np.allclose(partial_trace(joint, (2, 2), keep=(0,)), rho, atol=1e-14)
    assert np.allclose(partial_trace(joint, (2, 2), keep=(1,)), xi, atol=1e-14)


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    joint = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(joint, (2, 2), keep=(1,)), np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dims = (2, 2, 2)
    keep = (0, 2)
    ta = partial_trace(a, dims, keep)
    tb = partial_trace(b, dims, keep)
    assert np.trace(ta) == pytest.approx(np.trace(a))
    combined = partial_trace(2.0 * a - 1j * b, dims, keep)
    assert np.allclose(combined, 2.0 * ta - 1j * tb, atol=1e-12)


def test_partial_trace_structural_errors():
    d = np.eye(4, dtype=complex)
    with pytest.raises(StructuralError):
        partial_trace(d, (2, 2), keep=())
    with pytest.raises(StructuralError):
        partial_trace(d, (2, 2), keep=(2,))
    with pytest.raises(StructuralError):
        partial_trace(d, (2, 3), keep=(0,))


def test_expm_zero_is_identity():
    h = np.zeros((2, 2), dtype=complex)
    assert np.allclose(expm_hermitian(h, 1.0), np.eye(2))


def test_expm_y_rotation_closed_form():
    y = to_dense(OperatorExpr.from_label("Y"))
    u = expm_hermitian((math.pi / 2) * y, 1.0)
    # exp(-i (pi/2) Y) = cos(pi/2) I - i sin(pi/2) Y = -iY
    expected = math.cos(math.pi / 2) * np.eye(2) - 1j * math.sin(math.pi / 2) * y
    assert np.allclose(u, expected, atol=1e-14)


def test_expm_random_hermitian_is_unitary():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u = expm_hermitian((m + m.conj().T) / 2, rng.uniform(0, 10))
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-10


def test_expm_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_density_matrix_validation():
    assert_density_matrix(qubit_state((0, 0, 1)))
    with pytest.raises(ContractViolation):
        assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ContractViolation):
        assert_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ContractViolation):
        qubit_state((1.0, 1.0, 0.0))


def test_bloch_vector_and_trace_distance():
    plus = qubit_state((1, 0, 0))
    zero = qubit_state((0, 0, 1))
    assert np.allclose(bloch_vector(plus), [1, 0, 0])
    # half the Bloch-vector Euclidean distance for qubit states
    assert trace_distance(plus, zero) == pytest.approx(math.sqrt(2) / 2)
    assert trace_distance(plus, plus) == pytest.approx(0.0, abs=1e-15)


# -- stacks: each slice equals the 2-D result, bit for bit -------------------


def _random_matrices(rng, k, n):
    return rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))


def _random_states(rng, k, n):
    m = _random_matrices(rng, k, n)
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_stacked_exponentials_equal_one_matrix_at_a_time(seed, n):
    rng = np.random.default_rng(seed)
    m = _random_matrices(rng, 6, n)
    h = (m + m.conj().swapaxes(-1, -2)) / 2
    times = rng.uniform(0.0, 10.0, size=6)
    stacked = expm_hermitian(h, times)
    shared = expm_hermitian(h[0], times)
    one_time = expm_hermitian(h, times[0])
    for k in range(6):
        assert (stacked[k] == expm_hermitian(h[k], times[k])).all()
        assert (shared[k] == expm_hermitian(h[0], times[k])).all()
        assert (one_time[k] == expm_hermitian(h[k], times[0])).all()
    assert (expm_hermitian(h.reshape(2, 3, n, n), times.reshape(2, 3)).reshape(6, n, n)
            == stacked).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_stacked_norms_and_distances_equal_one_matrix_at_a_time(seed, n):
    rng = np.random.default_rng(seed)
    m = _random_matrices(rng, 8, n) * 10.0 ** rng.uniform(-16, 2, size=(8, 1, 1))
    rho = _random_states(rng, 8, n)
    norms = frobenius_norm(m)
    distances = trace_distance(rho, rho[0])
    for k in range(8):
        assert norms[k] == np.linalg.norm(m[k]) == frobenius_norm(m[k])
        assert distances[k] == trace_distance(rho[k], rho[0])
    assert isinstance(frobenius_norm(m[0]), float)
    assert isinstance(trace_distance(rho[1], rho[0]), float)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    ("dims", "keep"),
    [((2, 2), (0,)), ((2, 2), (1,)), ((2, 3), (0,)), ((2, 8), (0,)), ((2, 8), (1,)),
     ((2, 32), (0,)), ((2, 2, 2), (0, 2)), ((2, 2, 2), (1,))],
)
def test_stacked_partial_traces_equal_one_matrix_at_a_time(seed, dims, keep):
    rng = np.random.default_rng(seed)
    m = _random_matrices(rng, 5, math.prod(dims))
    stacked = partial_trace(m, dims, keep)
    for k in range(5):
        assert (stacked[k] == partial_trace(m[k], dims, keep)).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_bloch_vectors_equal_one_state_at_a_time(seed):
    rng = np.random.default_rng(seed)
    rho = _random_states(rng, 7, 2).reshape(7, 1, 2, 2)
    stacked = bloch_vector(rho)
    assert stacked.shape == (7, 1, 3)
    for k in range(7):
        assert (stacked[k, 0] == bloch_vector(rho[k, 0])).all()
    assert_density_matrix(rho)


def _invalid_states():
    nonhermitian = qubit_state((0.0, 0.0, 0.2))
    nonhermitian[0, 1] += 1e-3
    return [
        nonhermitian,
        np.diag([0.7, 0.7]).astype(complex),
        np.diag([1.5, -0.5]).astype(complex),
    ]


@pytest.mark.parametrize("index", [0, 3, 6])
@pytest.mark.parametrize("bad", range(3))
def test_stack_with_one_invalid_state_raises_that_states_error(index, bad):
    state = _invalid_states()[bad]
    with pytest.raises(ContractViolation) as alone:
        assert_density_matrix(state)
    stack = _random_states(np.random.default_rng(bad), 7, 2)
    stack[index] = state
    with pytest.raises(ContractViolation) as stacked:
        assert_density_matrix(stack)
    assert str(stacked.value) == str(alone.value)


def test_stack_with_one_non_hermitian_generator_raises_its_error():
    rng = np.random.default_rng(4)
    m = _random_matrices(rng, 5, 4)
    h = (m + m.conj().swapaxes(-1, -2)) / 2
    h[2, 0, 1] += 1e-6
    with pytest.raises(ContractViolation) as alone:
        expm_hermitian(h[2])
    with pytest.raises(ContractViolation) as stacked:
        expm_hermitian(h, np.arange(5.0))
    assert str(stacked.value) == str(alone.value)


def test_stacked_shape_errors_match_one_matrix():
    stack = np.stack([np.eye(4, dtype=complex)] * 3) / 4
    for keep in ((), (2,)):
        with pytest.raises(StructuralError) as alone:
            partial_trace(stack[0], (2, 2), keep=keep)
        with pytest.raises(StructuralError) as stacked:
            partial_trace(stack, (2, 2), keep=keep)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(StructuralError):
        partial_trace(stack, (2, 3), keep=(0,))
    with pytest.raises(ContractViolation):
        assert_density_matrix(np.ones((3, 2, 4), dtype=complex))
