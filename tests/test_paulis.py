import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import StructuralError
from qwitness.paulis import (
    COEFF_TOL,
    OperatorExpr,
    commutator,
    signed_single_label,
)

from operator_helpers import approx_equal, dagger, is_hermitian, is_zero

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


def site_product(a: str, b: str) -> tuple[complex, str]:
    """(phase, c) with MATS[a] @ MATS[b] = phase * MATS[c], read off the 2x2 matrix."""
    m = MATS[a] @ MATS[b]
    for c in "IXYZ":
        phase = complex(np.trace(MATS[c] @ m) / 2)
        if phase:
            return phase, c
    raise AssertionError(f"{a}{b} is not a Pauli product")


def unit(label: str, coeff: complex = 1.0) -> OperatorExpr:
    return OperatorExpr({label: coeff})


def test_single_site_group_table_matches_dense_products():
    # all 16 ordered pairs against literal 2x2 multiplication
    for a in "IXYZ":
        for b in "IXYZ":
            ((label, coeff),) = unit(a) @ unit(b)
            expected = MATS[a] @ MATS[b]
            assert np.allclose(dense(label, coeff), expected, atol=1e-15)


def test_pauli_mul_examples():
    assert unit("X") @ unit("Y") == unit("Z", 1j)
    assert unit("ZI") @ unit("ZI") == unit("II")
    # two-site product against the 4x4 oracle
    prod = unit("XZ") @ unit("YZ")
    assert np.allclose(expr_dense(prod), dense("XZ") @ dense("YZ"))
    assert prod == unit("ZI", 1j)


def test_operator_product_equals_pauli_mul_exactly():
    # exact equality, not a tolerance: all 256 ordered two-site label pairs
    # with complex weights must give the weight product times the site
    # phases read from the dense 2x2 products, bit for bit
    rng = np.random.default_rng(5)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    for la in labels:
        for lb in labels:
            wa, wb = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            (p0, c0), (p1, c1) = site_product(la[0], lb[0]), site_product(la[1], lb[1])
            assert unit(la, wa) @ unit(lb, wb) == unit(c0 + c1, wa * wb * (p0 * p1))


def test_pauli_mul_rejects_mismatched_site_counts():
    with pytest.raises(StructuralError):
        unit("X") @ unit("XY")


def test_unit_strings_have_unit_modulus_products():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = "".join(rng.choice(list("IXYZ"), size=3))
        b = "".join(rng.choice(list("IXYZ"), size=3))
        ((_, coeff),) = unit(a) @ unit(b)
        assert abs(abs(coeff) - 1.0) < 1e-15


def test_commutator_examples():
    x = OperatorExpr.from_label("X")
    y = OperatorExpr.from_label("Y")
    assert approx_equal(commutator(x, y), OperatorExpr({"Z": 2j}))

    zz = OperatorExpr.from_label("ZZ")
    diag = OperatorExpr({"ZI": 1.0, "IZ": 1.0})
    assert is_zero(commutator(zz, diag))

    exchange = OperatorExpr({"XX": 1.0, "YY": 1.0})
    comm = commutator(exchange, diag)
    assert is_zero(comm)
    # dense 4x4 confirmation
    oracle = expr_dense(exchange) @ expr_dense(diag) - expr_dense(diag) @ expr_dense(exchange)
    assert np.allclose(oracle, 0)


def test_expr_cancellation_is_exact():
    a = OperatorExpr({"XI": 1.0, "YZ": 0.5})
    assert is_zero(a - a)
    assert is_zero(a + (-1.0) * a)


def test_terms_below_tolerance_are_dropped():
    e = OperatorExpr({"X": 1.0, "Y": COEFF_TOL / 10})
    assert e.labels() == ["X"]


def test_hermiticity_is_realness_of_coefficients():
    assert is_hermitian(OperatorExpr({"XI": 1.0, "ZZ": -2.0}))
    assert not is_hermitian(OperatorExpr({"XI": 1j}))


def test_dagger_conjugates_coefficients():
    e = OperatorExpr({"XY": 1 + 2j})
    assert dagger(e).coeff("XY") == 1 - 2j


def test_signed_single_label():
    assert signed_single_label(OperatorExpr({"XI": 1.0})) == "+XI"
    assert signed_single_label(OperatorExpr({"ZY": -1.0})) == "-ZY"
    with pytest.raises(StructuralError):
        signed_single_label(OperatorExpr({"XI": 0.5}))
    with pytest.raises(StructuralError):
        signed_single_label(OperatorExpr({"XI": 1.0, "YI": 1.0}))


def test_structural_errors():
    # a bad letter between good ones, lower case and the empty label
    for label in ("Q", "XQX", "xi", ""):
        with pytest.raises(StructuralError, match="invalid Pauli label"):
            OperatorExpr.from_label(label)
    for label in ("I", "Z", "XYZ", "ZIZ", "ZZZZ"):  # every letter, at either end
        assert OperatorExpr.from_label(label).labels() == [label]
    with pytest.raises(StructuralError):
        OperatorExpr({"XI": 1.0, "X": 1.0})
    with pytest.raises(StructuralError):
        OperatorExpr({})  # no way to infer the site count
    assert is_zero(OperatorExpr({}, n_sites=2))


@pytest.mark.parametrize(
    "coeff", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(1.0, math.nan)]
)
def test_non_finite_coefficients_are_rejected(coeff):
    # a NaN must not be dropped as "below tolerance", nor an inf kept
    with pytest.raises(StructuralError, match="non-finite"):
        OperatorExpr({"XI": 1.0, "ZZ": coeff})
    with pytest.raises(StructuralError, match="non-finite"):
        unit("XI") * coeff


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
    assert approx_equal((a @ b) @ c, a @ (b @ c), tol=1e-9)


def test_anticommutator_of_anticommuting_paulis_vanishes():
    x, z = OperatorExpr.from_label("X"), OperatorExpr.from_label("Z")
    assert is_zero(x @ z + z @ x)
