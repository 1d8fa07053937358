"""Conserved quantities, commutant bases and constrained Hamiltonian families.

Given a conserved Hermitian operator C, the allowed generators are the
Hermitian operators H with [H, C] = 0.  Within a real span of Hermitian
Pauli expressions this is a linear condition, solved here as a null-space
problem on the (purely imaginary) commutator coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import sympy

from .dense import to_dense
from .errors import StructuralError
from .paulis import PAULI_CHARS, OperatorExpr, commutator

ADDITIVE = "additive"
NONADDITIVE = "nonadditive"
CHANNEL3 = "channel3"


@dataclass(frozen=True)
class ConservedQuantity:
    kind: str
    expr: OperatorExpr

    @classmethod
    def additive(cls) -> "ConservedQuantity":
        """Z_Q + Z_M on two qubits."""
        return cls(ADDITIVE, OperatorExpr({"ZI": 1.0, "IZ": 1.0}))

    @classmethod
    def nonadditive(cls) -> "ConservedQuantity":
        """Z_Q + Z_M + Z_Q Z_M on two qubits."""
        return cls(NONADDITIVE, OperatorExpr({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}))

    @classmethod
    def channel3(cls) -> "ConservedQuantity":
        """Z_Q + Z_M + Z_M' + Z_Q Z_M' + Z_M Z_M' on (Q, M, M')."""
        return cls(
            CHANNEL3,
            OperatorExpr(
                {"ZII": 1.0, "IZI": 1.0, "IIZ": 1.0, "ZIZ": 1.0, "IZZ": 1.0}
            ),
        )


@dataclass
class HamiltonianFamily:
    """A real-parametrised span of Hermitian expressions with linear constraints.

    ``constraints`` is a list of homogeneous relations, each a mapping from
    parameter name to coefficient meaning ``sum(coeff * param) = 0``.
    A member is any real assignment of ``params`` satisfying them all.
    """

    basis: list[OperatorExpr]
    params: tuple[str, ...]
    constraints: list[dict[str, float]] = field(default_factory=list)
    conserved: ConservedQuantity | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.params):
            raise StructuralError("one parameter name per basis element required")

    def constraint_matrix(self) -> np.ndarray:
        rows = np.zeros((len(self.constraints), len(self.params)))
        for i, rel in enumerate(self.constraints):
            for name, coeff in rel.items():
                rows[i, self.params.index(name)] = coeff
        return rows

    def pivot_params(self) -> tuple[str, ...]:
        """Leading parameter of each reduced constraint row."""
        return tuple(
            min(rel, key=lambda name: self.params.index(name))
            for rel in self.constraints
        )

    def free_params(self) -> tuple[str, ...]:
        """Parameters that remain free once the constraints are solved."""
        pivots = set(self.pivot_params())
        return tuple(p for p in self.params if p not in pivots)

    def expansion_matrix(self) -> np.ndarray:
        """Matrix E with full = free @ E, solving each constraint for its pivot.

        Rows are indexed by :meth:`free_params`, columns by ``params``; valid
        because the constraints are kept in reduced row-echelon form, so
        pivot parameters never appear in each other's rows.
        """
        free = self.free_params()
        expand = np.zeros((len(free), len(self.params)))
        for i, name in enumerate(free):
            expand[i, self.params.index(name)] = 1.0
        for rel, pivot in zip(self.constraints, self.pivot_params()):
            lead = rel[pivot]
            for name, coeff in rel.items():
                if name != pivot:
                    expand[free.index(name), self.params.index(pivot)] = -coeff / lead
        return expand

    def member(self, values: dict[str, float]) -> OperatorExpr:
        """Expression for a parameter assignment; constraints must hold to 1e-9."""
        vec = np.array([values[p] for p in self.params], dtype=float)
        if self.constraints:
            resid = np.abs(self.constraint_matrix() @ vec).max()
            if resid > 1e-9:
                raise StructuralError(f"parameters violate constraints (residual {resid:.3g})")
        out = OperatorExpr.zero(self.basis[0].n_sites)
        for c, b in zip(vec, self.basis):
            out = out + float(c) * b
        return out

    def random_member(self, rng: np.random.Generator) -> tuple[OperatorExpr, np.ndarray]:
        """Random constrained member; returns (expression, parameter vector).

        Coordinates along an orthonormal basis of the parameter directions the
        constraints allow are uniform on [-2, 2].
        """
        dirs = _null_space(self.constraint_matrix())
        coeffs = rng.uniform(-2.0, 2.0, size=dirs.shape[1])
        vec = dirs @ coeffs
        out = OperatorExpr.zero(self.basis[0].n_sites)
        for c, b in zip(vec, self.basis):
            out = out + float(c) * b
        return out, vec


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of {x : a @ x = 0} for a real matrix a.

    Taken from a full SVD; singular values at most 1e-10 times the largest
    count as zero, so with no rows, or only zero rows, every direction is free.
    """
    _u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * np.amax(s, initial=0.0)))
    return vh[rank:].T


def pauli_operator_basis(n_sites: int) -> list[OperatorExpr]:
    """All 4**n unit-coefficient Pauli products as expressions."""
    return [
        OperatorExpr.from_label("".join(p))
        for p in product(PAULI_CHARS, repeat=n_sites)
    ]


def _commutator_constraint_matrix(
    elements: list[OperatorExpr], conserved: ConservedQuantity
) -> tuple[np.ndarray, list[str]]:
    """Real matrix whose null space is {x : [sum x_j B_j, C] = 0}.

    Commutators of Hermitian Pauli expressions have purely imaginary
    coefficients, so the imaginary parts carry the full constraint.
    """
    comms = [commutator(b, conserved.expr) for b in elements]
    labels = sorted({l for c in comms for l in c.labels()})
    rows = np.zeros((len(labels), len(elements)))
    for j, comm in enumerate(comms):
        for i, label in enumerate(labels):
            coeff = comm.coeff(label)
            if abs(coeff.real) > 1e-10:
                raise StructuralError(
                    "non-imaginary commutator coefficient; ambient basis not Hermitian?"
                )
            rows[i, j] = coeff.imag
    return rows, labels


def commutant_basis(
    conserved: ConservedQuantity, ambient: list[OperatorExpr]
) -> list[OperatorExpr]:
    """Basis of {H in span(ambient) : [H, C] = 0} over the reals.

    The ambient elements must be Hermitian and linearly independent.  If C
    commutes with the whole ambient span (e.g. C proportional to identity)
    the full ambient list is returned and a warning is emitted.
    """
    if not ambient:
        raise StructuralError("ambient basis must be nonempty")
    rows, _ = _commutator_constraint_matrix(ambient, conserved)
    if rows.size == 0 or np.abs(rows).max() < 1e-13:
        warnings.warn(
            "conserved quantity commutes with the entire ambient span; "
            "returning the full ambient basis",
            stacklevel=2,
        )
        return list(ambient)
    kernel = _null_space(rows)
    out = []
    for col in kernel.T:
        expr = OperatorExpr.zero(ambient[0].n_sites)
        for c, b in zip(col, ambient):
            if abs(c) > 1e-12:
                expr = expr + float(c) * b
        out.append(expr)
    return out


def constrain_family(
    family: HamiltonianFamily, conserved: ConservedQuantity
) -> HamiltonianFamily:
    """Family with the explicit linear constraints imposed by [H, C] = 0.

    Constraints are returned in reduced row-echelon form over the rationals
    (the commutator coefficients of unit Pauli expressions are integers).
    If only the zero member survives, the returned family is empty.
    """
    rows, _ = _commutator_constraint_matrix(family.basis, conserved)
    if rows.size == 0:
        return HamiltonianFamily(
            basis=list(family.basis),
            params=family.params,
            constraints=[],
            conserved=conserved,
            notes=family.notes,
        )
    as_int = np.rint(rows)
    if np.abs(rows - as_int).max() > 1e-9:
        raise StructuralError("constraint matrix is not integer-valued")
    reduced, pivots = sympy.Matrix(as_int.astype(int)).rref()
    constraints: list[dict[str, float]] = []
    for i in range(len(pivots)):
        rel = {
            family.params[j]: float(reduced[i, j])
            for j in range(len(family.params))
            if reduced[i, j] != 0
        }
        constraints.append(rel)
    n_free = len(family.params) - len(pivots)
    if n_free == 0:
        return HamiltonianFamily(
            basis=[],
            params=(),
            constraints=constraints,
            conserved=conserved,
            notes="no nonzero member commutes with the conserved quantity",
        )
    return HamiltonianFamily(
        basis=list(family.basis),
        params=family.params,
        constraints=constraints,
        conserved=conserved,
        notes=family.notes,
    )


def zm_sector_maps(family: HamiltonianFamily) -> np.ndarray:
    """Z_M-sector blocks of a classical (Q, M) family, linear in its free parameters.

    Because every mediator factor is I or Z, a member H = sum_p x_p B_p is
    block diagonal in Z_M: H = H_+ (x) |0><0| + H_- (x) |1><1| with 2x2 blocks
    ``H_m = c_m I + n_m . sigma`` on Q.  Returns W of shape (2, n_free, 4)
    with ``(c_m, n_m) = f @ W[m]`` in (I, X, Y, Z) coordinates, where ``f``
    holds the values of :meth:`HamiltonianFamily.free_params` (the constraints
    are solved through :meth:`HamiltonianFamily.expansion_matrix`); m = 0 is
    the Z_M = +1 sector.
    """
    if not family.basis or family.basis[0].n_sites != 2:
        raise StructuralError("sector reduction needs a two-system (Q, M) family")
    w = np.zeros((2, len(family.params), 4))
    for p_idx, b in enumerate(family.basis):
        terms = list(b)
        if len(terms) != 1:
            raise StructuralError("family basis must be single Pauli products")
        ((label, coeff),) = terms
        if label[1] not in "IZ":
            raise StructuralError(f"mediator factor of {label} is not classical")
        if abs(coeff.imag) > 1e-13:
            raise StructuralError("family basis must be Hermitian")
        comp = PAULI_CHARS.index(label[0])
        w[0, p_idx, comp] = coeff.real
        w[1, p_idx, comp] = -coeff.real if label[1] == "Z" else coeff.real
    return family.expansion_matrix() @ w


def box_samples(
    rng: np.random.Generator, n_free: int, grid_points: int, param_range: float, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample points of a classical-mediator search over free parameters.

    Returns the regular grid of ``grid_points`` values per coordinate on
    ``[-param_range, param_range]`` (``grid_points**n_free`` rows) and
    ``budget`` uniform draws from the same box, taken from ``rng``.
    """
    half = float(param_range)  # an int beyond int64 would make object arrays
    axis_vals = np.linspace(-half, half, grid_points)
    grid = np.array(np.meshgrid(*[axis_vals] * n_free, indexing="ij")).reshape(n_free, -1).T
    draws = rng.uniform(-half, half, size=(budget, n_free))
    return grid, draws


def conservation_residual(
    target: OperatorExpr | np.ndarray, conserved: ConservedQuantity
) -> float:
    """Frobenius norm of [target, C] in dense form; ~0 means conserved.

    ``target`` may be a generator or an evolution operator; the residual
    formula is the same for both.
    """
    if isinstance(target, OperatorExpr):
        target = to_dense(target)
    c_dense = to_dense(conserved.expr)
    if target.shape != c_dense.shape:
        raise StructuralError(f"shape mismatch: {target.shape} vs {c_dense.shape}")
    comm = target @ c_dense - c_dense @ target
    return float(np.linalg.norm(comm))


# -- named families ------------------------------------------------------


def classical_mediator_family() -> HamiltonianFamily:
    """General Q-M interaction whose mediator side exposes only Z.

    Span of {X_Q, Y_Q, Z_Q, X_Q Z_M, Y_Q Z_M, Z_Q Z_M} with parameters
    (alpha, beta, gamma, a, b, c).  The gamma term multiplies Z_Q; see the
    module report emitted by the CLI for the alternative reading flag.
    """
    return HamiltonianFamily(
        basis=[
            OperatorExpr.from_label("XI"),
            OperatorExpr.from_label("YI"),
            OperatorExpr.from_label("ZI"),
            OperatorExpr.from_label("XZ"),
            OperatorExpr.from_label("YZ"),
            OperatorExpr.from_label("ZZ"),
        ],
        params=("alpha", "beta", "gamma", "a", "b", "c"),
    )


def classical_filtered_family() -> HamiltonianFamily:
    """Classical mediator family constrained by the non-additive law.

    The law bakes in a = -alpha and b = -beta; every mediator factor is I or Z.
    """
    return constrain_family(classical_mediator_family(), ConservedQuantity.nonadditive())


def channel_extension_family() -> HamiltonianFamily:
    """Three-system family for the channel extension on (Q, M, M').

    Span of {X_Q, Y_Q, Z_Q, X_Q Z_M', Y_Q Z_M', Z_Q Z_M', Z_M Z_M'} with
    parameters (alpha, beta, gamma, a, b, c, a_mm).
    """
    return HamiltonianFamily(
        basis=[
            OperatorExpr.from_label("XII"),
            OperatorExpr.from_label("YII"),
            OperatorExpr.from_label("ZII"),
            OperatorExpr.from_label("XIZ"),
            OperatorExpr.from_label("YIZ"),
            OperatorExpr.from_label("ZIZ"),
            OperatorExpr.from_label("IZZ"),
        ],
        params=("alpha", "beta", "gamma", "a", "b", "c", "a_mm"),
    )


def additive_commutant_reference() -> list[OperatorExpr]:
    """The six allowed generators under the additive law on two qubits."""
    return [
        OperatorExpr.from_label("II"),
        OperatorExpr.from_label("ZI"),
        OperatorExpr.from_label("IZ"),
        OperatorExpr.from_label("ZZ"),
        OperatorExpr({"XX": 1.0, "YY": 1.0}),
        OperatorExpr({"XY": 1.0, "YX": -1.0}),
    ]


def span_projection_residual(
    candidates: list[OperatorExpr], reference: list[OperatorExpr]
) -> float:
    """Largest norm left after projecting each candidate onto span(reference).

    Expressions are embedded as real coefficient vectors over the union of
    their Pauli labels (all inputs must be Hermitian).
    """
    labels = sorted(
        {l for e in candidates for l in e.labels()}
        | {l for e in reference for l in e.labels()}
    )

    def vec(e: OperatorExpr) -> np.ndarray:
        return np.array([e.coeff(l).real for l in labels])

    ref = np.array([vec(e) for e in reference]).T
    q, _ = np.linalg.qr(ref)
    worst = 0.0
    for e in candidates:
        v = vec(e)
        resid = v - q @ (q.T @ v)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def family_to_json(family: HamiltonianFamily) -> dict:
    """JSON-ready description of a family (basis labels + constraints)."""
    return {
        "params": list(family.params),
        "basis": [
            {label: [coeff.real, coeff.imag] for label, coeff in b}
            for b in family.basis
        ],
        "constraints": [
            {name: coeff for name, coeff in rel.items()}
            for rel in family.constraints
        ],
        "conserved": family.conserved.kind if family.conserved else None,
        "notes": family.notes,
    }
