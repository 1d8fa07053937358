import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import StructuralError
from qwitness.paulis import (
    COEFF_TOL,
    OperatorExpr,
    PauliString,
    anticommutator,
    commutator,
    pauli_mul,
    signed_single_label,
)

# independent 2x2 oracle matrices
MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(label: str, coeff: complex = 1.0) -> np.ndarray:
    m = np.array([[coeff]])
    for c in label:
        m = np.kron(m, MATS[c])
    return m


def expr_dense(expr: OperatorExpr) -> np.ndarray:
    out = np.zeros((2**expr.n_sites, 2**expr.n_sites), dtype=complex)
    for label, coeff in expr:
        out += dense(label, coeff)
    return out


def test_single_site_group_table_matches_dense_products():
    # all 16 ordered pairs against literal 2x2 multiplication
    for a in "IXYZ":
        for b in "IXYZ":
            prod = pauli_mul(PauliString(a), PauliString(b))
            expected = MATS[a] @ MATS[b]
            assert np.allclose(dense(prod.label, prod.coeff), expected, atol=1e-15)


def test_pauli_mul_examples():
    assert pauli_mul(PauliString("X"), PauliString("Y")) == PauliString("Z", 1j)
    assert pauli_mul(PauliString("ZI"), PauliString("ZI")) == PauliString("II", 1.0)
    # two-site product against the 4x4 oracle
    prod = pauli_mul(PauliString("XZ"), PauliString("YZ"))
    oracle = dense("XZ") @ dense("YZ")
    assert np.allclose(dense(prod.label, prod.coeff), oracle)
    assert prod == PauliString("ZI", 1j)


def test_operator_product_equals_pauli_mul_exactly():
    # exact equality, not a tolerance: all 256 ordered two-site label pairs
    # with complex weights must give pauli_mul's bits
    rng = np.random.default_rng(5)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    for la in labels:
        for lb in labels:
            wa, wb = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            got = OperatorExpr.from_label(la, wa) @ OperatorExpr.from_label(lb, wb)
            want = pauli_mul(PauliString(la, wa), PauliString(lb, wb))
            assert got == OperatorExpr.from_pauli(want)


def test_pauli_mul_rejects_mismatched_site_counts():
    with pytest.raises(StructuralError):
        pauli_mul(PauliString("X"), PauliString("XY"))


def test_unit_strings_have_unit_modulus_products():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = "".join(rng.choice(list("IXYZ"), size=3))
        b = "".join(rng.choice(list("IXYZ"), size=3))
        prod = pauli_mul(PauliString(a), PauliString(b))
        assert abs(abs(prod.coeff) - 1.0) < 1e-15


def test_commutator_examples():
    x = OperatorExpr.from_label("X")
    y = OperatorExpr.from_label("Y")
    assert commutator(x, y).approx_equal(OperatorExpr({"Z": 2j}))

    zz = OperatorExpr.from_label("ZZ")
    diag = OperatorExpr({"ZI": 1.0, "IZ": 1.0})
    assert commutator(zz, diag).is_zero()

    exchange = OperatorExpr({"XX": 1.0, "YY": 1.0})
    comm = commutator(exchange, diag)
    assert comm.is_zero()
    # dense 4x4 confirmation
    oracle = expr_dense(exchange) @ expr_dense(diag) - expr_dense(diag) @ expr_dense(exchange)
    assert np.allclose(oracle, 0)


def test_expr_cancellation_is_exact():
    a = OperatorExpr({"XI": 1.0, "YZ": 0.5})
    assert (a - a).is_zero()
    assert (a + (-1.0) * a).is_zero()


def test_terms_below_tolerance_are_dropped():
    e = OperatorExpr({"X": 1.0, "Y": COEFF_TOL / 10})
    assert e.labels() == ["X"]


def test_hermiticity_is_realness_of_coefficients():
    assert OperatorExpr({"XI": 1.0, "ZZ": -2.0}).is_hermitian()
    assert not OperatorExpr({"XI": 1j}).is_hermitian()


def test_dagger_conjugates_coefficients():
    e = OperatorExpr({"XY": 1 + 2j})
    assert e.dagger().coeff("XY") == 1 - 2j


def test_signed_single_label():
    assert signed_single_label(OperatorExpr({"XI": 1.0})) == "+XI"
    assert signed_single_label(OperatorExpr({"ZY": -1.0})) == "-ZY"
    with pytest.raises(StructuralError):
        signed_single_label(OperatorExpr({"XI": 0.5}))
    with pytest.raises(StructuralError):
        signed_single_label(OperatorExpr({"XI": 1.0, "YI": 1.0}))


def test_structural_errors():
    with pytest.raises(StructuralError):
        PauliString("Q")
    with pytest.raises(StructuralError):
        OperatorExpr({"XI": 1.0, "X": 1.0})
    with pytest.raises(StructuralError):
        OperatorExpr({})  # no way to infer the site count
    assert OperatorExpr({}, n_sites=2).is_zero()


@st.composite
def small_exprs(draw, n_sites: int):
    labels = st.text(alphabet="IXYZ", min_size=n_sites, max_size=n_sites)
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        coeff = complex(
            draw(st.floats(-2, 2, allow_nan=False)),
            draw(st.floats(-2, 2, allow_nan=False)),
        )
        terms[draw(labels)] = coeff
    return OperatorExpr(terms, n_sites=n_sites)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(small_exprs(n), small_exprs(n))))
def test_symbolic_product_matches_dense(pair):
    a, b = pair
    assert np.allclose(expr_dense(a @ b), expr_dense(a) @ expr_dense(b), atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(small_exprs(n), small_exprs(n))))
def test_symbolic_commutator_matches_dense(pair):
    a, b = pair
    lhs = expr_dense(commutator(a, b))
    rhs = expr_dense(a) @ expr_dense(b) - expr_dense(b) @ expr_dense(a)
    assert np.linalg.norm(lhs - rhs) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(small_exprs(n), small_exprs(n), small_exprs(n))))
def test_product_is_associative(triple):
    a, b, c = triple
    assert ((a @ b) @ c).approx_equal(a @ (b @ c), tol=1e-9)


def test_anticommutator_of_anticommuting_paulis_vanishes():
    assert anticommutator(OperatorExpr.from_label("X"), OperatorExpr.from_label("Z")).is_zero()
