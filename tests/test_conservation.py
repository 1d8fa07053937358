import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwitness.circuit import GateSpec, SWAP, gate_unitary, network_hamiltonian
from qwitness.conservation import (
    ConservedQuantity,
    HamiltonianFamily,
    _commutator_constraint_matrix,
    _null_space,
    additive_commutant_reference,
    channel_extension_family,
    classical_filtered_family,
    classical_mediator_family,
    commutant_basis,
    conservation_residual,
    constrain_family,
    family_to_json,
    pauli_operator_basis,
    span_projection_residual,
    zm_sector_maps,
)
from qwitness.dense import expm_hermitian, to_dense
from qwitness.errors import StructuralError
from qwitness.paulis import OperatorExpr

from operator_helpers import approx_equal, is_hermitian


def constrained_classical_hamiltonian(alpha, beta, gamma, c):
    """Constrained classical family member written out by hand (a = -alpha, b = -beta)."""
    return OperatorExpr(
        {"XI": alpha, "YI": beta, "ZI": gamma, "XZ": -alpha, "YZ": -beta, "ZZ": c}
    )


def test_conserved_quantity_constructors_are_hermitian():
    for c in (ConservedQuantity.additive(), ConservedQuantity.nonadditive(), ConservedQuantity.channel3()):
        assert is_hermitian(c.expr)


def test_additive_commutant_is_six_dimensional_and_matches_reference():
    basis = commutant_basis(ConservedQuantity.additive(), pauli_operator_basis(2))
    assert len(basis) == 6
    reference = additive_commutant_reference()
    assert span_projection_residual(basis, reference) < 1e-12
    assert span_projection_residual(reference, basis) < 1e-12
    c_dense = to_dense(ConservedQuantity.additive().expr)
    for b in basis:
        m = to_dense(b)
        assert np.linalg.norm(m @ c_dense - c_dense @ m) < 1e-12


def test_identity_conserved_quantity_returns_full_ambient_with_warning():
    ident = ConservedQuantity("degenerate", OperatorExpr.identity(2))
    with pytest.warns(UserWarning):
        basis = commutant_basis(ident, pauli_operator_basis(2))
    assert len(basis) == 16


def test_nonadditive_commutant_dimension_matches_rank():
    ambient = pauli_operator_basis(2)
    c = ConservedQuantity.nonadditive()
    basis = commutant_basis(c, ambient)
    rows, _ = _commutator_constraint_matrix(ambient, c)
    # independent exact rank through integer arithmetic
    as_int = np.rint(rows).astype(int)
    assert np.abs(rows - as_int).max() < 1e-12
    rank = sympy.Matrix(as_int).rank()
    assert len(basis) == len(ambient) - rank
    # eigenvalue blocks of diag(3,-1,-1,-1) give 1 + 9 commuting directions
    assert len(basis) == 10
    # independent dense route: rank of the vectorised [B_j, C] system
    c_dense = to_dense(c.expr)
    columns = []
    for b in ambient:
        m = to_dense(b)
        columns.append((m @ c_dense - c_dense @ m).reshape(-1))
    dense_rank = np.linalg.matrix_rank(np.array(columns).T, tol=1e-10)
    assert len(basis) == len(ambient) - dense_rank


# small integer matrices, like the commutator rows of unit Pauli expressions
integer_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=8).map(
        lambda rows: np.array(rows, dtype=float).reshape(len(rows), n)
    )
)


@settings(max_examples=200, deadline=None)
@given(integer_matrices)
@example(np.zeros((0, 4)))
@example(np.zeros((3, 4)))
def test_null_space_is_an_orthonormal_kernel(a):
    n = a.shape[1]
    kernel = _null_space(a)
    assert kernel.shape == (n, n - np.linalg.matrix_rank(a))
    assert np.abs(kernel.T @ kernel - np.eye(kernel.shape[1])).max(initial=0.0) < 1e-12
    assert np.abs(a @ kernel).max(initial=0.0) < 1e-12
    if not a.any():  # no constraint at all: every direction is free
        assert np.array_equal(kernel, np.eye(n))


def test_empty_ambient_is_rejected():
    with pytest.raises(StructuralError):
        commutant_basis(ConservedQuantity.additive(), [])


def test_constrain_family_yields_alpha_a_and_beta_b_relations():
    family = constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())
    assert family.constraints == [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]
    assert len(family.constraints) == 2  # rank of the constraint system
    # gamma and c are unconstrained
    named = {name for rel in family.constraints for name in rel}
    assert "gamma" not in named and "c" not in named


def test_constrain_family_no_constraints_for_diagonal_terms():
    family = HamiltonianFamily(
        basis=[OperatorExpr.from_label("ZI"), OperatorExpr.from_label("IZ")],
        params=("u", "v"),
    )
    out = constrain_family(family, ConservedQuantity.additive())
    assert out.constraints == []
    assert len(out.basis) == 2


def test_constrain_family_with_no_surviving_member_is_empty():
    family = HamiltonianFamily(basis=[OperatorExpr.from_label("XI")], params=("w",))
    out = constrain_family(family, ConservedQuantity.nonadditive())
    assert not out.basis
    assert out.constraints == [{"w": 1.0}]


def test_channel_extension_keeps_mediator_mediator_coupling_free():
    family = constrain_family(channel_extension_family(), ConservedQuantity.channel3())
    assert family.constraints == [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]
    named = {name for rel in family.constraints for name in rel}
    assert "a_mm" not in named


def test_classical_filtered_family_defaults_to_nonadditive_law():
    family = classical_filtered_family()
    assert family.conserved.kind == "nonadditive"
    assert family.free_params() == ("gamma", "a", "b", "c")
    assert family.constraints == [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]


def test_zm_sector_maps_reproduce_dense_blocks():
    # includes Q-identity terms, whose sector constants c_m the map keeps
    labels = ("II", "IZ", "XI", "YZ", "ZI", "ZZ", "XZ")
    family = HamiltonianFamily(
        basis=[OperatorExpr.from_label(l) for l in labels],
        params=tuple(f"p{i}" for i in range(len(labels))),
    )
    w = zm_sector_maps(family)
    assert w.shape == (2, len(labels), 4)
    paulis = [to_dense(OperatorExpr.from_label(k)) for k in "IXYZ"]
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=len(labels))
        h = to_dense(family.member(dict(zip(family.params, x))))
        for m in range(2):
            # mediator sector m occupies rows/cols {m, 2+m} in |qm> order
            block = h[np.ix_([m, 2 + m], [m, 2 + m])]
            coords = x @ w[m]
            assert np.abs(block - sum(c * p for c, p in zip(coords, paulis))).max() < 1e-12
        assert np.abs(h[np.ix_([0, 2], [1, 3])]).max() == 0.0
    # a constrained family's map takes its free parameters only
    family = classical_filtered_family()
    w = zm_sector_maps(family)
    assert w.shape == (2, len(family.free_params()), 4)
    for _ in range(20):
        free = rng.uniform(-2, 2, size=len(family.free_params()))
        full = free @ family.expansion_matrix()
        h = to_dense(family.member(dict(zip(family.params, full))))
        for m in range(2):
            block = h[np.ix_([m, 2 + m], [m, 2 + m])]
            coords = free @ w[m]
            assert np.abs(block - sum(c * p for c, p in zip(coords, paulis))).max() < 1e-12
    quantum = HamiltonianFamily(basis=[OperatorExpr.from_label("XX")], params=("p",))
    with pytest.raises(StructuralError):
        zm_sector_maps(quantum)
    with pytest.raises(StructuralError):
        zm_sector_maps(HamiltonianFamily(basis=[OperatorExpr.from_label("X")], params=("p",)))


def test_conservation_residual_examples():
    c_non = ConservedQuantity.nonadditive()
    c_add = ConservedQuantity.additive()
    swap = gate_unitary(GateSpec(SWAP))
    assert conservation_residual(swap, c_non) < 1e-12
    assert conservation_residual(OperatorExpr.from_label("XI"), c_add) > 1.0
    assert conservation_residual(network_hamiltonian(), c_non) < 1e-12
    with pytest.raises(StructuralError):
        conservation_residual(to_dense(OperatorExpr.from_label("X")), c_non)


def test_random_constrained_members_generate_conserving_unitaries():
    rng = np.random.default_rng(17)
    family = constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())
    c_non = ConservedQuantity.nonadditive()
    for _ in range(100):
        member, vec = family.random_member(rng)
        assert family.constraint_matrix() @ vec == pytest.approx(np.zeros(2), abs=1e-12)
        u = expm_hermitian(to_dense(member), rng.uniform(0, 2 * math.pi))
        assert conservation_residual(u, c_non) < 1e-10


def test_constrained_classical_hamiltonian_matches_family_member():
    family = classical_filtered_family()
    values = {"alpha": 0.4, "beta": -1.1, "gamma": 0.2, "a": -0.4, "b": 1.1, "c": 0.9}
    member = family.member(values)
    direct = constrained_classical_hamiltonian(0.4, -1.1, 0.2, 0.9)
    assert approx_equal(member, direct, tol=1e-12)
    with pytest.raises(StructuralError):
        family.member({**values, "a": 0.4})  # violates a = -alpha


def test_family_json_roundtrippable_fields():
    family = constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())
    payload = family_to_json(family)
    assert payload["params"] == list(family.params)
    assert payload["constraints"] == [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]
    assert payload["conserved"] == "nonadditive"
