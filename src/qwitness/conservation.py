"""Conserved quantities, commutant bases and constrained Hamiltonian families.

Given a conserved Hermitian operator C, the allowed generators are the
Hermitian operators H with [H, C] = 0.  Within a real span of Hermitian
Pauli expressions this is a linear condition on the (purely imaginary)
commutator coefficients, solved here by one exact elimination, :func:`rref`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .dense import frobenius_norm, pauli_basis_stack, to_dense
from .errors import StructuralError
from .paulis import COEFF_TOL, PAULI_CHARS, OperatorExpr, commutator
from .reports import WitnessReport

ADDITIVE = "additive"
NONADDITIVE = "nonadditive"
CHANNEL3 = "channel3"
_ZERO = Fraction(0)


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

    ``constraints`` holds homogeneous relations ``sum(coeff * param) = 0``,
    the reduced rows of :func:`constrain_family` keyed pivot first.  A member
    is any real assignment of ``params`` satisfying them all.
    """

    basis: list[OperatorExpr]
    params: tuple[str, ...]
    constraints: list[dict[str, Fraction]] = field(default_factory=list)
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

    def free_params(self) -> tuple[str, ...]:
        """Parameters that remain free once the constraints are solved."""
        pivots = {next(iter(rel)) for rel in self.constraints}
        return tuple(p for p in self.params if p not in pivots)

    def expansion_matrix(self) -> np.ndarray:
        """Exact matrix E with full = free @ E, an object array of ``Fraction``.

        Rows are indexed by :meth:`free_params`, columns by ``params``.  Each
        free parameter maps to itself and each pivot to minus the rest of its
        row.  So the constraints must be reduced rows, pivot first with lead 1,
        each pivot in its own row only; any other relation is refused.
        """
        for rel in self.constraints:
            pivot = next(iter(rel))
            if rel[pivot] != 1 or sum(pivot in other for other in self.constraints) > 1:
                raise StructuralError(f"{rel} is not a reduced row with lead 1 on {pivot}")
        free = self.free_params()
        expand = np.full((len(free), len(self.params)), Fraction(0), dtype=object)
        for i, name in enumerate(free):
            expand[i, self.params.index(name)] = Fraction(1)
        for rel in self.constraints:
            pivot, *others = rel
            for name in others:
                expand[free.index(name), self.params.index(pivot)] = -rel[name]
        return expand

    def dense_members(self, vecs: np.ndarray) -> np.ndarray:
        """Dense members for the parameter vectors ``vecs`` (..., n_params), stacked.

        Each slice equals the dense matrix of the summed expression (the test
        oracle ``tests/operator_helpers.member``) bit for bit: with a basis of
        distinct single Pauli products, that is each term of magnitude at
        least ``COEFF_TOL`` added to zero in label order.
        """
        terms = [list(b) for b in self.basis]
        if any(len(t) != 1 for t in terms) or len({t[0][0] for t in terms}) != len(terms):
            raise StructuralError("dense members need distinct single Pauli products")
        resid = np.abs(vecs @ self.constraint_matrix().T).max(initial=0.0)
        if resid > 1e-9:
            raise StructuralError(f"parameters violate constraints (residual {resid:.3g})")
        n = self.basis[0].n_sites
        stack, labels = pauli_basis_stack(n)
        out = np.zeros(vecs.shape[:-1] + (2**n, 2**n), dtype=complex)
        for label, j, coeff in sorted((t[0][0], j, t[0][1]) for j, t in enumerate(terms)):
            c = np.where(np.abs(vecs[..., j]) >= COEFF_TOL, vecs[..., j], 0.0) * coeff
            out += c[..., None, None] * stack[labels.index(label)]
        return out


def pauli_operator_basis(n_sites: int) -> list[OperatorExpr]:
    """All 4**n unit-coefficient Pauli products as expressions."""
    return [
        OperatorExpr.from_label("".join(p))
        for p in product(PAULI_CHARS, repeat=n_sites)
    ]


def _commutator_constraint_matrix(
    elements: list[OperatorExpr], conserved: ConservedQuantity
) -> np.ndarray:
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
    return rows


def commutant_basis(
    conserved: ConservedQuantity, ambient: list[OperatorExpr]
) -> list[OperatorExpr]:
    """Basis of {H in span(ambient) : [H, C] = 0} over the reals.

    The ambient elements must be Hermitian and linearly independent.  Each
    row of the expansion matrix of :func:`constrain_family` on the ambient
    span gives one element, with exact rational coefficients.  If C commutes
    with the whole ambient span (e.g. C proportional to identity) the full
    ambient list is returned and a warning is emitted.
    """
    if not ambient:
        raise StructuralError("ambient basis must be nonempty")
    params = tuple(map(str, range(len(ambient))))
    family = constrain_family(HamiltonianFamily(list(ambient), params), conserved)
    if not family.constraints:
        warnings.warn(
            "conserved quantity commutes with the entire ambient span; "
            "returning the full ambient basis",
            stacklevel=2,
        )
        return list(ambient)
    zero = OperatorExpr.zero(ambient[0].n_sites)
    return [sum((float(c) * b for c, b in zip(row, ambient) if c), zero)
            for row in family.expansion_matrix()]


def commutant_dimension(conserved: ConservedQuantity) -> int:
    """Real dimension of the Hermitian operators commuting with C.

    An operator commutes with C exactly when it is block-diagonal in C's
    eigenspaces, so the dimension is the sum of m_lambda^2 over C's eigenvalue
    multiplicities m_lambda; read off the dense spectrum, independently of
    the Pauli structure constants behind :func:`commutant_basis`.
    """
    eigenvalues = np.linalg.eigvalsh(to_dense(conserved.expr))
    _, multiplicities = np.unique(np.round(eigenvalues, 9), return_counts=True)
    return int(np.sum(multiplicities**2))


def rref(matrix: np.ndarray) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row-echelon form of a real matrix over the rationals.

    Gauss-Jordan elimination in ``Fraction``, which holds each float entry
    exactly; returns the rows and the pivot columns.  The form is unique, so
    it is the one any exact rref gives.  Zero entries are never converted,
    divided or subtracted, and a lead of 1 is not divided by.
    """
    rows = [[Fraction(x) if x else _ZERO for x in row] for row in matrix.tolist()]
    pivots: list[int] = []
    for j in range(matrix.shape[1]):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][j]
        if lead != 1:
            rows[r] = [x / lead if x else x for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[j]
            if i != r and f:
                rows[i] = [x - f * y if y else x for x, y in zip(row, rows[r])]
        pivots.append(j)
    return rows, tuple(pivots)


def constrain_family(
    family: HamiltonianFamily, conserved: ConservedQuantity
) -> HamiltonianFamily:
    """Family with the explicit linear constraints imposed by [H, C] = 0.

    Constraints are the nonzero rows of the exact :func:`rref` of the
    commutator coefficients, kept as ``Fraction`` coefficients keyed pivot
    first.  The basis and parameter names are kept; if only the zero member
    survives, the returned family has no free parameter.
    """
    reduced, pivots = rref(_commutator_constraint_matrix(family.basis, conserved))
    constraints = [
        {family.params[j]: c for j, c in enumerate(reduced[i]) if c}
        for i in range(len(pivots))
    ]
    notes = family.notes
    if len(pivots) == len(family.params):
        notes = "no nonzero member commutes with the conserved quantity"
    return HamiltonianFamily(
        basis=list(family.basis),
        params=family.params,
        constraints=constraints,
        conserved=conserved,
        notes=notes,
    )


def zm_sector_maps(family: HamiltonianFamily) -> np.ndarray:
    """Z_M-sector blocks of a classical (Q, M) family, linear in its free parameters.

    Because every mediator factor is I or Z, a member H = sum_p x_p B_p is
    block diagonal in Z_M: H = H_+ (x) |0><0| + H_- (x) |1><1| with 2x2 blocks
    ``H_m = c_m I + n_m . sigma`` on Q.  Returns the exact (2, n_free, 4) table
    W of ``Fraction`` with ``(c_m, n_m) = f @ W[m]`` in (I, X, Y, Z) coordinates,
    where ``f`` holds the values of :meth:`HamiltonianFamily.free_params` (solved
    through :meth:`HamiltonianFamily.expansion_matrix`); m = 0 is Z_M = +1.
    """
    if not family.basis or family.basis[0].n_sites != 2:
        raise StructuralError("sector reduction needs a two-system (Q, M) family")
    expand = family.expansion_matrix()
    w = np.full((2, len(expand), 4), Fraction(0), dtype=object)
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
        real = Fraction(coeff.real)
        for i, e in enumerate(expand[:, p_idx]):
            if e:
                term = e * real
                w[0, i, comp] += term
                w[1, i, comp] += -term if label[1] == "Z" else term
    return w


def box_grid(n_free: int, grid_points: int, param_range: float) -> np.ndarray:
    """Regular grid of a classical-mediator search over free parameters.

    ``grid_points`` values per coordinate on ``[-param_range, param_range]``,
    so ``grid_points**n_free`` rows.
    """
    half = float(param_range)  # an int beyond int64 would make object arrays
    axis_vals = np.linspace(-half, half, grid_points)
    return np.array(np.meshgrid(*[axis_vals] * n_free, indexing="ij")).reshape(n_free, -1).T


#: Cells both classical-mediator searches hold per block.  A cell is one
#: float of a sample's working state: one per time point in the impossibility
#: search's kernel, 16 in its certificate pass, four in the reservoir scan,
#: whose blocks hold the drawn rows, their sector blocks and the image gaps;
#: its distance walk runs once after the stream, over the distinct n_z.  At
#: 2^14 cells a block's (block, T) arrays stay at 128 KiB each.
_BLOCK_CELLS = 2**14


def _sector_blocks(
    samples: np.ndarray | Callable[[int], Iterable[np.ndarray]],
    maps: np.ndarray,
    cells_per_sample: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Search samples with their Z_M-sector blocks.

    Yields ``(rows, rows @ maps)`` for the free-parameter rows of one source,
    in row order, in blocks of ``step = max(1, _BLOCK_CELLS // cells_per_sample)``
    rows; ``maps`` is :func:`zm_sector_maps` of the family, so the sector
    blocks are (2, B, 4).  A source is an array of rows, or a function of
    ``step`` that yields its rows in blocks of at most ``step``, so that they
    need not exist at once.
    """
    step = max(1, _BLOCK_CELLS // cells_per_sample)
    if callable(samples):
        blocks = samples(step)
    else:
        blocks = (samples[start : start + step] for start in range(0, len(samples), step))
    for rows in blocks:
        yield rows, rows @ maps


def _search_report(
    task: str, search: Callable[[WitnessReport, np.ndarray, tuple[str, ...]], None], *,
    seed: int, budget: int, grid_points: int, param_range: float, parameters: dict,
) -> WitnessReport:
    """Report skeleton of the classical-mediator searches.

    Both search :func:`classical_filtered_family`; the report's parameters are
    its free parameters, the sampling settings and the search's own
    ``parameters``.  ``search(report, maps, names)`` gets the family's
    :func:`zm_sector_maps`, as floats (its one conversion), and free parameter
    names, runs only for a positive ``budget`` and adds the findings, and the
    checks once a sample counts.  The verdict stays unproven without checks,
    then tells whether every check passed.
    """
    family = classical_filtered_family()
    names = family.free_params()
    parameters = {"free_params": list(names), "budget": budget, "grid_points": grid_points,
                  "param_range": param_range, **parameters}
    report = WitnessReport(task=task, seed=seed, parameters=parameters)
    report.findings["note"] = (
        "bounded search: evidence only; the algebraic root systems carry the proof"
    )
    report.verdict = "UNPROVEN"
    if budget > 0:
        search(report, zm_sector_maps(family).astype(float), names)
    if report.checks:
        report.verdict = "POSITIVE-GAP" if report.all_passed() else "GAP-NOT-OBSERVED"
    return report


def conservation_residual(
    target: OperatorExpr | np.ndarray, conserved: ConservedQuantity
) -> float:
    """Frobenius norm of [target, C] in dense form; ~0 means conserved.

    ``target`` may be a generator or an evolution operator; the residual
    formula is the same for both.  A (..., n, n) stack of matrices gives one
    residual per matrix.
    """
    if isinstance(target, OperatorExpr):
        target = to_dense(target)
    c_dense = to_dense(conserved.expr)
    if target.shape[-2:] != c_dense.shape:
        raise StructuralError(f"shape mismatch: {target.shape} vs {c_dense.shape}")
    return frobenius_norm(target @ c_dense - c_dense @ target)


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
    """Rank the candidates add to span(reference): 0 exactly when each lies in it.

    Expressions are embedded as real coefficient vectors over the union of
    their Pauli labels (all inputs must be Hermitian), and each rank is read
    off one exact :func:`rref`.
    """
    labels = sorted({l for e in candidates + reference for l in e.labels()})

    def rank(exprs: list[OperatorExpr]) -> int:
        return len(rref(np.array([[e.coeff(l).real for l in labels] for e in exprs]))[1])

    return float(rank(reference + candidates) - rank(reference))


def family_to_json(family: HamiltonianFamily) -> dict:
    """JSON-ready description of a family (basis labels + constraints)."""
    return {
        "params": list(family.params),
        "basis": [dict(b) for b in family.basis],
        "constraints": [{name: float(c) for name, c in rel.items()} for rel in family.constraints],
        "conserved": family.conserved.kind if family.conserved else None,
        "notes": family.notes,
    }
