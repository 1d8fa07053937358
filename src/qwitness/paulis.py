"""Exact Pauli-string algebra on a fixed register of qubits.

Operators are weighted sums of multi-site Pauli products with complex
coefficients.  Sums, products and commutators are exact up to floating-point
arithmetic on the coefficients; terms whose magnitude drops below
``COEFF_TOL`` are removed during canonicalisation, so an expression whose
terms all cancel compares equal to the zero operator.

Labels are strings over the alphabet ``IXYZ``, one character per site, with
site 0 leftmost.  Throughout the package site 0 is the probe qubit Q and
site 1 the mediator M.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from .errors import StructuralError

PAULI_CHARS = "IXYZ"

#: coefficients below this magnitude are dropped during canonicalisation
COEFF_TOL = 1e-13

# Single-site group table: (a, b) -> (phase, a*b).
_SITE_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"),
    ("I", "X"): (1, "X"),
    ("I", "Y"): (1, "Y"),
    ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"),
    ("X", "X"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Y"): (1, "I"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"),
    ("Z", "X"): (1j, "Y"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "Z"): (1, "I"),
}


def _check_label(label: str) -> str:
    if not label or label.strip(PAULI_CHARS):
        raise StructuralError(f"invalid Pauli label {label!r}")
    return label


def _label_product(la: str, lb: str) -> tuple[complex, str]:
    """(phase, label) of the unit product P_la P_lb; labels of equal length."""
    phase: complex = 1
    chars = []
    for ca, cb in zip(la, lb):
        p, c = _SITE_PRODUCT[(ca, cb)]
        phase *= p
        chars.append(c)
    return phase, "".join(chars)


class OperatorExpr:
    """Canonical weighted sum of Pauli products on a fixed site count.

    Coefficients must be finite; a single Pauli product is a one-term
    expression.  Supports ``+``, ``-``, scalar ``*`` and operator ``@``; all
    operations return new canonical expressions.  Instances are treated as
    immutable.
    """

    __slots__ = ("n_sites", "_terms")

    def __init__(self, terms: Mapping[str, complex], n_sites: int | None = None):
        cleaned: dict[str, complex] = {}
        for label, coeff in terms.items():
            _check_label(label)
            if n_sites is None:
                n_sites = len(label)
            elif len(label) != n_sites:
                raise StructuralError("mixed site counts in one expression")
            magnitude = abs(coeff)
            if not math.isfinite(magnitude):
                raise StructuralError(f"non-finite coefficient {coeff!r} on {label}")
            if magnitude >= COEFF_TOL:
                cleaned[label] = complex(coeff)
        if n_sites is None:
            raise StructuralError("site count unknown for empty expression")
        self.n_sites = n_sites
        self._terms = cleaned

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n_sites: int) -> "OperatorExpr":
        return cls({}, n_sites)

    @classmethod
    def identity(cls, n_sites: int) -> "OperatorExpr":
        return cls({"I" * n_sites: 1.0})

    @classmethod
    def from_label(cls, label: str) -> "OperatorExpr":
        return cls({label: 1.0})

    # -- inspection --------------------------------------------------------

    def coeff(self, label: str) -> complex:
        return self._terms.get(label, 0j)

    def labels(self) -> list[str]:
        return sorted(self._terms)

    def __iter__(self) -> Iterator[tuple[str, complex]]:
        return iter(sorted(self._terms.items()))

    def max_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- algebra -----------------------------------------------------------

    def _require_same_sites(self, other: "OperatorExpr") -> None:
        if self.n_sites != other.n_sites:
            raise StructuralError(
                f"site count mismatch: {self.n_sites} vs {other.n_sites}"
            )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._require_same_sites(other)
        out = dict(self._terms)
        for label, coeff in other._terms.items():
            out[label] = out.get(label, 0j) + coeff
        return OperatorExpr(out, self.n_sites)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr(
            {l: -c for l, c in self._terms.items()}, self.n_sites
        )

    def __mul__(self, scalar: complex) -> "OperatorExpr":
        if isinstance(scalar, OperatorExpr):
            raise TypeError("use @ for operator products")
        return OperatorExpr(
            {l: c * scalar for l, c in self._terms.items()}, self.n_sites
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        self._require_same_sites(other)
        out: dict[str, complex] = {}
        for la, ca in self._terms.items():
            for lb, cb in other._terms.items():
                phase, key = _label_product(la, lb)
                out[key] = out.get(key, 0j) + ca * cb * phase
        return OperatorExpr(out, self.n_sites)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.n_sites == other.n_sites and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return f"OperatorExpr(0, n_sites={self.n_sites})"
        parts = [f"({c:.6g})*{l}" for l, c in sorted(self._terms.items())]
        return " + ".join(parts)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = a@b - b@a in canonical form; exact zero when terms cancel."""
    return a @ b - b @ a


def signed_single_label(expr: OperatorExpr) -> str:
    """Render an expression that is a single +/-1 Pauli product, e.g. ``-ZY``.

    Raises ``StructuralError`` if the expression is not of that shape; used
    when serialising descriptor tables whose cells must be signed products.
    """
    tol = 1e-12
    terms = [(l, c) for l, c in expr if abs(c) > tol]
    if len(terms) != 1:
        raise StructuralError(f"not a single Pauli product: {expr!r}")
    label, coeff = terms[0]
    if abs(coeff.imag) > tol or abs(abs(coeff.real) - 1.0) > tol:
        raise StructuralError(f"coefficient not +/-1: {coeff!r}")
    sign = "+" if coeff.real > 0 else "-"
    return sign + label
