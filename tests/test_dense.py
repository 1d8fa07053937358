import math

import numpy as np
import pytest

from qwitness.dense import (
    DenseOperator,
    assert_density_matrix,
    bloch_vector,
    expm_hermitian,
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
    assert np.allclose(to_dense(OperatorExpr.from_label("II")).mat, np.eye(4))
    assert np.allclose(to_dense(OperatorExpr.from_label("Z")).mat, np.diag([1, -1]))


def test_to_dense_projector_form_gives_cnot_controlled_on_m():
    one = OperatorExpr.identity(2)
    mz = OperatorExpr.from_label("IZ")
    qx = OperatorExpr.from_label("XI")
    cnot = 0.5 * (one + mz) + 0.5 * ((one - mz) @ qx)
    assert np.allclose(to_dense(cnot).mat, CNOT_ON_M)


def test_pauli_decompose_identity():
    expr = pauli_decompose(DenseOperator((2, 2), np.eye(4, dtype=complex)))
    assert expr.labels() == ["II"]
    assert expr.coeff("II") == pytest.approx(1.0)


def test_pauli_decompose_swap():
    expr = pauli_decompose(DenseOperator((2, 2), SWAP))
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
    rebuilt = to_dense(pauli_decompose(DenseOperator((2, 2), h))).mat
    assert np.allclose(rebuilt, h, atol=1e-13)


def test_pauli_decompose_rejects_non_qubit_dims():
    with pytest.raises(StructuralError):
        pauli_decompose(DenseOperator((3,), np.eye(3, dtype=complex)))


def test_partial_trace_product_state():
    rho = qubit_state((0.2, -0.3, 0.4))
    xi = qubit_state((0.0, 1.0, 0.0))
    joint = DenseOperator((2, 2), np.kron(rho, xi))
    assert np.allclose(partial_trace(joint, keep=(0,)).mat, rho, atol=1e-14)
    assert np.allclose(partial_trace(joint, keep=(1,)).mat, xi, atol=1e-14)


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    joint = DenseOperator((2, 2), np.outer(bell, bell.conj()))
    assert np.allclose(partial_trace(joint, keep=(1,)).mat, np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    da = DenseOperator((2, 2, 2), a)
    db = DenseOperator((2, 2, 2), b)
    keep = (0, 2)
    ta = partial_trace(da, keep)
    tb = partial_trace(db, keep)
    assert np.trace(ta.mat) == pytest.approx(np.trace(a))
    combined = partial_trace(DenseOperator((2, 2, 2), 2.0 * a - 1j * b), keep)
    assert np.allclose(combined.mat, 2.0 * ta.mat - 1j * tb.mat, atol=1e-12)


def test_partial_trace_structural_errors():
    d = DenseOperator((2, 2), np.eye(4, dtype=complex))
    with pytest.raises(StructuralError):
        partial_trace(d, keep=())
    with pytest.raises(StructuralError):
        partial_trace(d, keep=(2,))


def test_expm_zero_is_identity():
    h = DenseOperator((2,), np.zeros((2, 2), dtype=complex))
    assert np.allclose(expm_hermitian(h, 1.0).mat, np.eye(2))


def test_expm_y_rotation_closed_form():
    y = to_dense(OperatorExpr.from_label("Y"))
    u = expm_hermitian(DenseOperator(y.dims, (math.pi / 2) * y.mat), 1.0)
    # exp(-i (pi/2) Y) = cos(pi/2) I - i sin(pi/2) Y = -iY
    expected = math.cos(math.pi / 2) * np.eye(2) - 1j * math.sin(math.pi / 2) * y.mat
    assert np.allclose(u.mat, expected, atol=1e-14)


def test_expm_random_hermitian_is_unitary():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = DenseOperator((2, 2, 2), (m + m.conj().T) / 2)
        u = expm_hermitian(h, rng.uniform(0, 10))
        assert np.linalg.norm(u.mat.conj().T @ u.mat - np.eye(8)) < 1e-10


def test_expm_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        expm_hermitian(DenseOperator((2,), np.array([[0, 1], [0, 0]], dtype=complex)))


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
