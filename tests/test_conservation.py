import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwitness.circuit import network_hamiltonian, swap
from qwitness.conservation import (
    _BLOCK_CELLS,
    ConservedQuantity,
    HamiltonianFamily,
    _commutator_constraint_matrix,
    _sector_blocks,
    additive_commutant_reference,
    channel_extension_family,
    classical_filtered_family,
    classical_mediator_family,
    commutant_basis,
    commutant_dimension,
    conservation_residual,
    constrain_family,
    family_to_json,
    pauli_operator_basis,
    rref,
    span_projection_residual,
    zm_sector_maps,
)
from qwitness.cli import RunConfig, experiment_conservation, main
from qwitness.dense import expm_hermitian, to_dense
from qwitness.errors import StructuralError
from qwitness.paulis import COEFF_TOL, OperatorExpr

from operator_helpers import (
    approx_equal,
    is_hermitian,
    member,
    member_residual_loop,
    random_member,
)


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
    assert span_projection_residual(basis, reference) == 0.0
    assert span_projection_residual(reference, basis) == 0.0
    c_dense = to_dense(ConservedQuantity.additive().expr)
    for b in basis:
        m = to_dense(b)
        assert np.linalg.norm(m @ c_dense - c_dense @ m) < 1e-12


ADDITIVE_BASIS = [  # II, IZ, ZI, ZZ, XX + YY and YX - XY
    {"II": 1}, {"IZ": 1}, {"ZI": 1}, {"ZZ": 1}, {"XX": 1, "YY": 1}, {"YX": 1, "XY": -1},
]
NONADDITIVE_EXTRA = [  # XZ - XI, YZ - YI, ZX - IX and ZY - IY
    {"XZ": 1, "XI": -1}, {"YZ": 1, "YI": -1}, {"ZX": 1, "IX": -1}, {"ZY": 1, "IY": -1},
]


def test_commutant_artifacts_hold_the_integer_bases(tmp_path):
    # read from the files as written, in any environment: every coefficient
    # is exactly +1 or -1, with no imaginary part
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["conservation", "--out", str(tmp_path)]) == 0

    def written(name):
        payload = json.loads((tmp_path / name).read_text())
        basis = [{label: complex(*c) for label, c in b.items()} for b in payload["basis"]]
        assert payload["dimension"] == len(basis)
        return sorted(basis, key=sorted), payload

    additive, _ = written("commutant_additive.json")
    assert additive == sorted(ADDITIVE_BASIS, key=sorted)
    nonadditive, payload = written("commutant_nonadditive.json")
    assert nonadditive == sorted(ADDITIVE_BASIS + NONADDITIVE_EXTRA, key=sorted)
    assert payload["constraint_rank"] == 6
    assert all(c in (1, -1) for b in additive + nonadditive for c in b.values())


def test_identity_conserved_quantity_returns_full_ambient_with_warning():
    ident = ConservedQuantity("degenerate", OperatorExpr.identity(2))
    with pytest.warns(UserWarning):
        basis = commutant_basis(ident, pauli_operator_basis(2))
    assert len(basis) == 16


def test_nonadditive_commutant_dimension_matches_rank():
    ambient = pauli_operator_basis(2)
    c = ConservedQuantity.nonadditive()
    basis = commutant_basis(c, ambient)
    rows = _commutator_constraint_matrix(ambient, c)
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


@pytest.mark.parametrize(
    ("conserved", "n_sites", "dimension"),
    [
        (ConservedQuantity.additive(), 2, 6),  # eigenvalues 2, 0, -2 with m = 1, 2, 1
        (ConservedQuantity.nonadditive(), 2, 10),  # 3, -1 with m = 1, 3
        (ConservedQuantity.channel3(), 3, 22),  # 5, 1, -1, -3 with m = 1, 2, 4, 1
    ],
)
def test_commutant_dimension_is_sum_of_squared_multiplicities(conserved, n_sites, dimension):
    basis = commutant_basis(conserved, pauli_operator_basis(n_sites))
    assert len(basis) == commutant_dimension(conserved) == dimension


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
def test_expansion_matrix_is_the_exact_kernel_of_the_constraint_rows(a):
    # the constraint rows a, as constrain_family reduces them, through E
    n = a.shape[1]
    family = HamiltonianFamily([OperatorExpr.from_label("I")] * n, tuple(map(str, range(n))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qwitness.conservation._commutator_constraint_matrix", lambda *_: a)
        expand = constrain_family(family, ConservedQuantity.additive()).expansion_matrix()
    exact = np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)
    assert all(x == 0 and type(x) is Fraction for x in (exact @ expand.T).flat)
    assert expand.shape == (n - sympy.Matrix(*a.shape, a.ravel().tolist()).rank(), n)
    if not a.any():  # no constraint at all: every direction is free
        assert expand.tolist() == np.eye(n).tolist()


def assert_rref_matches_sympy(matrix):
    reduced, pivots = rref(matrix)
    exact = [sympy.Rational(x) for x in matrix.ravel().tolist()]  # a float is a dyadic rational
    want, want_pivots = sympy.Matrix(*matrix.shape, exact).rref()
    assert pivots == want_pivots
    assert reduced == [
        [Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(want.rows)
    ]


@pytest.mark.parametrize(
    ("basis", "conserved"),
    [
        (classical_mediator_family().basis, ConservedQuantity.nonadditive()),
        (channel_extension_family().basis, ConservedQuantity.channel3()),
        (pauli_operator_basis(2), ConservedQuantity.additive()),
        (pauli_operator_basis(2), ConservedQuantity.nonadditive()),
    ],
    ids=["classical", "channel3", "additive-ambient", "nonadditive-ambient"],
)
def test_rref_matches_sympy_on_the_cli_constraint_matrices(basis, conserved):
    assert_rref_matches_sympy(_commutator_constraint_matrix(basis, conserved))


@settings(max_examples=100, deadline=None)
@given(st.one_of(integer_matrices, integer_matrices.map(lambda a: a / 4)))  # dyadic reals too
@example(np.zeros((0, 4)))  # no constraint row at all
@example(np.zeros((3, 4)))
@example(np.array([[0.25, -0.5, 0.75], [0.5, 0.25, 0.0]]))  # entries that round to 0 or 1
def test_rref_matches_sympy_on_small_integer_matrices(a):
    assert_rref_matches_sympy(a)


def test_empty_ambient_is_rejected():
    with pytest.raises(StructuralError):
        commutant_basis(ConservedQuantity.additive(), [])


def test_non_hermitian_ambient_is_rejected():
    # i X_Q has a real commutator with the charge, which no Hermitian span gives
    with pytest.raises(StructuralError, match="non-imaginary commutator coefficient"):
        commutant_basis(ConservedQuantity.nonadditive(), [OperatorExpr({"XI": 1j})])


def test_family_needs_one_parameter_name_per_basis_element():
    with pytest.raises(StructuralError, match="one parameter name per basis element"):
        HamiltonianFamily(basis=[OperatorExpr.from_label("XI")], params=("p", "q"))


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
    assert out.constraints == [{"w": 1.0}]
    assert out.free_params() == ()
    assert out.expansion_matrix().shape == (0, 1)
    assert member(out, {"w": 0.0}) == OperatorExpr.zero(2)


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
        h = to_dense(member(family, dict(zip(family.params, x))))
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
        h = to_dense(member(family, dict(zip(family.params, full))))
        for m in range(2):
            block = h[np.ix_([m, 2 + m], [m, 2 + m])]
            coords = free @ w[m]
            assert np.abs(block - sum(c * p for c, p in zip(coords, paulis))).max() < 1e-12
    quantum = HamiltonianFamily(basis=[OperatorExpr.from_label("XX")], params=("p",))
    with pytest.raises(StructuralError):
        zm_sector_maps(quantum)
    with pytest.raises(StructuralError):
        zm_sector_maps(HamiltonianFamily(basis=[OperatorExpr.from_label("X")], params=("p",)))


@pytest.mark.parametrize(
    "terms, message",
    [
        ({"XZI": 1.0}, "two-system"),  # a three-site family
        ({"XZ": 1.0, "ZI": 1.0}, "single Pauli products"),  # a two-term basis element
        ({"ZX": 1.0}, "not classical"),  # an X on the mediator
        ({"XZ": 1 + 1.5e-13j}, "Hermitian"),  # past the 1e-13 Hermiticity cut
    ],
)
def test_zm_sector_maps_rejects_each_malformed_basis(terms, message):
    family = HamiltonianFamily(basis=[OperatorExpr(terms)], params=("p",))
    with pytest.raises(StructuralError, match=message):
        zm_sector_maps(family)


def test_zm_sector_maps_accepts_an_imaginary_part_within_the_cut():
    family = HamiltonianFamily(basis=[OperatorExpr({"XZ": 1 + 0.5e-13j})], params=("p",))
    assert zm_sector_maps(family).tolist() == [[[0.0, 1.0, 0.0, 0.0]], [[0.0, -1.0, 0.0, 0.0]]]


def test_expansion_matrix_maps_each_pivot_to_minus_the_rest_of_its_row():
    # rows (gamma, a, b, c), columns (alpha, beta, gamma, a, b, c): alpha = -a, beta = -b
    expand = classical_filtered_family().expansion_matrix()
    assert expand.tolist() == [
        [0, 0, 1, 0, 0, 0], [-1, 0, 0, 1, 0, 0], [0, -1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
    ]
    assert all(type(x) is Fraction for x in expand.flat)


@pytest.mark.parametrize(
    "constraints",
    [
        [{"alpha": 2.0, "a": 1.0}],  # lead 2: E would map alpha to -1.0 a, not -0.5 a
        [{"alpha": 1, "a": 1}, {"a": 1, "b": 1}],  # a pivot in another relation
        [{"alpha": 1, "a": 1}, {"alpha": 1, "b": 1}],  # one pivot, two relations
    ],
    ids=["lead-two", "pivot-in-another-row", "repeated-pivot"],
)
def test_expansion_matrix_refuses_constraints_that_are_not_reduced_rows(constraints):
    family = classical_mediator_family()
    family.constraints = constraints
    with pytest.raises(StructuralError, match="not a reduced row with lead 1"):
        family.expansion_matrix()


def test_rref_fills_in_entries_that_start_at_zero():
    # row 1 has a 0 where the pivot row has a 1: the elimination must write
    # -1 there, and a pivot row with lead -2 is divided through
    reduced, pivots = rref(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert (reduced, pivots) == ([[1, 0], [0, 1]], (0, 1))
    reduced, pivots = rref(np.array([[-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    assert (reduced, pivots) == ([[1, Fraction(-1, 2), 0], [0, 0, 1]], (0, 2))


def test_classical_sector_table_is_exact_small_and_sparse():
    # the premise of the searches' float blocks: entries 0, +-1 or +-2 with at
    # most two nonzeros per (sector, component) column, so that rows @ maps
    # rounds alike in any block; and the plus block is n_z Z exactly
    maps = zm_sector_maps(classical_filtered_family())
    assert maps.shape == (2, 4, 4)
    assert all(type(x) is Fraction and x in (0, 1, -1, 2, -2) for x in maps.flat)
    assert all(np.count_nonzero(maps[m, :, k]) <= 2 for m in range(2) for k in range(4))
    assert all(x == Fraction(0) for x in maps[0, :, :3].flat)
    assert maps[0, :, 3].tolist() == [1, 0, 0, 1]  # n_z = gamma + c
    assert maps.astype(float).tolist() == maps.tolist()  # float == Fraction compares exactly


def test_a_non_integer_family_constrains_exactly():
    # 0.3 X_Q makes the row -0.6 alpha - 2 a = 0; the rref keeps alpha = -(2 / 0.6) a
    # exactly, so the plus sector's X entry cancels to an exact 0.  In floats
    # the pivot's coefficient is 3.3333333333333335, and 1 - 3.3333333333333335
    # * 0.3 is -7.4e-18 before rounding: a fused multiply-add keeps it
    labels = ("XI", "YI", "ZI", "XZ", "YZ", "ZZ")
    basis = [OperatorExpr({l: 0.3 if l == "XI" else 1.0}) for l in labels]
    family = constrain_family(
        HamiltonianFamily(basis=basis, params=classical_mediator_family().params),
        ConservedQuantity.nonadditive(),
    )
    assert family.constraints == [{"alpha": 1, "a": 2 / Fraction(0.6)}, {"beta": 1, "b": 1}]
    maps = zm_sector_maps(family)
    assert family.free_params() == ("gamma", "a", "b", "c")
    assert all(x == Fraction(0) for x in maps[0, :, :3].flat)
    assert maps[1, 1, 1] == -2


@pytest.mark.parametrize(
    "cells_per_sample, step",
    [(4, 4096), (48, 341), (64, 256), (_BLOCK_CELLS + 1, 1)],
)
def test_sector_blocks_stream_each_source_in_order(cells_per_sample, step):
    # a ragged last block, an empty source and a source shorter than one block
    maps = zm_sector_maps(classical_filtered_family()).astype(float)
    rng = np.random.default_rng(41)
    ragged, empty, short = (
        rng.uniform(-2.0, 2.0, (2 * step + step // 2 + 1, 4)),
        np.zeros((0, 4)),
        rng.uniform(-2.0, 2.0, (step // 2 + 1, 4)),
    )
    for samples in (ragged, empty, short):
        expected = [min(step, len(samples) - start) for start in range(0, len(samples), step)]
        if samples is ragged:
            assert expected[-1] == step // 2 + 1
        got = list(_sector_blocks(samples, maps, cells_per_sample))
        assert [len(rows) for rows, _ in got] == expected
        for rows, blocks in got:
            assert blocks.shape == (2, len(rows), 4)
            assert np.array_equal(blocks, rows @ maps)
        streamed = [rows for rows, _ in got]
        assert np.array_equal(np.concatenate(streamed or [np.zeros((0, 4))]), samples)


def test_conservation_residual_examples():
    c_non = ConservedQuantity.nonadditive()
    c_add = ConservedQuantity.additive()
    assert conservation_residual(to_dense(swap()), c_non) < 1e-12
    assert conservation_residual(OperatorExpr.from_label("XI"), c_add) > 1.0
    assert conservation_residual(network_hamiltonian(), c_non) < 1e-12
    with pytest.raises(StructuralError):
        conservation_residual(to_dense(OperatorExpr.from_label("X")), c_non)


def test_random_constrained_members_generate_conserving_unitaries():
    rng = np.random.default_rng(17)
    family = constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())
    c_non = ConservedQuantity.nonadditive()
    for _ in range(100):
        h, vec = random_member(family, rng)
        assert family.constraint_matrix() @ vec == pytest.approx(np.zeros(2), abs=1e-12)
        u = expm_hermitian(to_dense(h), rng.uniform(0, 2 * math.pi))
        assert conservation_residual(u, c_non) < 1e-10


@pytest.mark.parametrize("seed", [0, 7, 41, 42, 99])
def test_constrained_member_check_equals_the_per_member_loop(seed):
    checks, _files = experiment_conservation(RunConfig(seed=seed))
    (check,) = [c for c in checks if c.name == "constrained-members-generate-conserving-unitaries"]
    assert check.value == member_residual_loop(seed)


def conservation_checks(monkeypatch, name, replacement):
    """Checks of ``experiment_conservation`` with one function of the module replaced."""
    monkeypatch.setattr(f"qwitness.conservation.{name}", replacement)
    checks, _files = experiment_conservation(RunConfig())
    return {c.name: c for c in checks}


def test_commutant_projection_fails_on_a_generator_off_the_reference_span(monkeypatch):
    def plus_xq(conserved, ambient):  # X_Q does not commute with Z_Q + Z_M
        basis = commutant_basis(conserved, ambient)
        return basis + [OperatorExpr.from_label("XI")] if conserved.kind == "additive" else basis

    checks = conservation_checks(monkeypatch, "commutant_basis", plus_xq)
    assert checks["additive-commutant-projection"].value == 1.0
    assert not checks["additive-commutant-projection"].passed
    assert checks["additive-reference-projection"].passed


def test_reference_projection_fails_without_the_exchange_generator(monkeypatch):
    exchange = OperatorExpr({"XX": 1.0, "YY": 1.0})

    def without_exchange(conserved, ambient):
        return [b for b in commutant_basis(conserved, ambient) if b != exchange]

    checks = conservation_checks(monkeypatch, "commutant_basis", without_exchange)
    assert checks["additive-reference-projection"].value == 1.0
    assert not checks["additive-reference-projection"].passed
    assert checks["additive-commutant-projection"].passed


def test_member_check_fails_on_the_unconstrained_family(monkeypatch):
    # a = -alpha and b = -beta no longer hold, so exp(-iHt) moves the charge
    checks = conservation_checks(
        monkeypatch, "classical_filtered_family", classical_mediator_family
    )
    check = checks["constrained-members-generate-conserving-unitaries"]
    assert check.value > 1e-10
    assert not check.passed


@pytest.mark.parametrize(
    "family",
    [classical_filtered_family(), classical_mediator_family(),
     constrain_family(channel_extension_family(), ConservedQuantity.channel3())],
)
def test_dense_members_equal_each_members_dense_matrix(family):
    rng = np.random.default_rng(3)
    expand = family.expansion_matrix().astype(float)
    vecs = rng.uniform(-2.0, 2.0, size=(12, len(expand))) @ expand
    vecs[1] = 0.0
    # a free coordinate below the canonical tolerance is dropped, as member() drops it
    free = family.params.index(family.free_params()[-1])
    vecs[2, free] = 0.5 * COEFF_TOL
    vecs[3, free] = -COEFF_TOL
    stacked = family.dense_members(vecs.reshape(3, 4, -1))
    for k, vec in enumerate(vecs):
        dense = to_dense(member(family, dict(zip(family.params, vec))))
        assert (stacked[k // 4, k % 4] == dense).all()
        assert (family.dense_members(vec) == dense).all()


def test_dense_members_reject_what_member_rejects():
    family = classical_filtered_family()
    values = np.zeros(len(family.params))
    values[family.params.index("a")] = 0.4  # a = -alpha is violated
    with pytest.raises(StructuralError):
        family.dense_members(values[None, :])
    shared = HamiltonianFamily(
        basis=[OperatorExpr.from_label("XI"), OperatorExpr({"XI": 1.0, "ZZ": 1.0})],
        params=("u", "v"),
    )
    with pytest.raises(StructuralError):
        shared.dense_members(np.ones((1, 2)))


def test_conservation_residual_of_a_stack_is_one_residual_per_matrix():
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    c_non = ConservedQuantity.nonadditive()
    stacked = conservation_residual(mats, c_non)
    assert stacked.shape == (6,)
    for k in range(6):
        assert stacked[k] == conservation_residual(mats[k], c_non)


def test_constrained_classical_hamiltonian_matches_family_member():
    family = classical_filtered_family()
    values = {"alpha": 0.4, "beta": -1.1, "gamma": 0.2, "a": -0.4, "b": 1.1, "c": 0.9}
    h = member(family, values)
    direct = constrained_classical_hamiltonian(0.4, -1.1, 0.2, 0.9)
    assert approx_equal(h, direct, tol=1e-12)
    with pytest.raises(StructuralError):
        member(family, {**values, "a": 0.4})  # violates a = -alpha


def test_family_json_roundtrippable_fields():
    family = constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())
    payload = family_to_json(family)
    assert payload["params"] == list(family.params)
    assert payload["constraints"] == [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]
    assert payload["conserved"] == "nonadditive"
