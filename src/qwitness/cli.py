"""Deterministic experiment runner.

Every subcommand evaluates a fixed set of named checks and exits 0 only when
all checks pass, 1 when a check fails and 2 on a usage, config or output
error (a run too large for memory or numpy's index range is a config error).
Artifacts (CSV/JSON) are written once every experiment has returned: exit 1
writes all of them, exit 2 none, though the output directory may already
have been created.
Identical configs produce byte-identical outputs.

Config files are JSON with a ``schema_version`` field; unknown keys are
rejected so typos in tolerances cannot pass silently, and a file's
``experiment`` must match the subcommand if it names one.  Every field is
checked for type and range (:meth:`RunConfig.validate`) before a run starts.
The output directory resolves as: ``--out`` flag, then the QWITNESS_OUT
environment variable, then the config value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import circuit as circuit_mod
from . import conservation as cons
from . import homogenizer as homog
from . import oscillator as osc
from . import witness as wit
from .dense import expm_hermitian, to_dense, trace_distance
from .errors import StructuralError
from .paulis import OperatorExpr, commutator, signed_single_label
from .reports import Check, write_csv, write_json

SCHEMA_VERSION = 1

# Accepted types per annotated field type, and the smallest accepted value of
# each integer field.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
_INT_MINIMUM = {
    "seed": 0, "n_steps": 1, "d_b": 2, "budget": 0,
    "grid_points": 1, "time_points": 2, "eta_points": 1, "reservoir_steps": 1,
}
#: numpy raises ValueError, not MemoryError, for an array size past its index
#: range; these fragments tell its messages from other ValueErrors.
_NUMPY_SIZE_ERRORS = ("Maximum allowed", "array is too big", "dimensions too large")
#: Largest search box half-width; squares of sector axes stay far from overflow.
_PARAM_RANGE_MAX = 1e50


@dataclass
class RunConfig:
    """Full specification of one run; equal configs give identical outputs."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "all"
    seed: int = 7
    out_dir: str = "out"
    eta: float = 0.4
    n_steps: int = 20
    d_b: int = 4
    budget: int = 10_000
    grid_points: int = 9
    param_range: float = 2.0
    time_points: int = 64
    eta_points: int = 16
    reservoir_steps: int = 8

    @classmethod
    def from_json(cls, path: Path, experiment: str) -> "RunConfig":
        """Load a config file for the subcommand ``experiment``.

        Unknown keys are rejected; the file may omit its ``experiment`` field
        but must not name another.
        """
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StructuralError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise StructuralError(f"{path}: not UTF-8 text: {exc.reason}")
        if not isinstance(payload, dict):
            raise StructuralError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise StructuralError(f"{path}: unknown config keys {unknown}")
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise StructuralError(
                f"{path}: unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )
        if payload.setdefault("experiment", experiment) != experiment:
            raise StructuralError(
                f"{path}: experiment {payload['experiment']!r} differs from "
                f"the subcommand {experiment!r}"
            )
        return cls(**payload)

    def validate(self) -> None:
        """Raise ``StructuralError`` on a field of the wrong type or out of range.

        Values are rejected, never rewritten, so a valid config is written to
        ``summary.json`` exactly as given.  ``bool`` does not count as an int.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise StructuralError(f"{f.name} must be {f.type}, got {value!r}")
        for name, minimum in _INT_MINIMUM.items():
            value = getattr(self, name)
            if value < minimum:
                raise StructuralError(f"{name} must be >= {minimum}, got {value}")
        if not _finite(self.eta):
            raise StructuralError(f"eta must be finite, got {self.eta!r}")
        if not (_finite(self.param_range) and 0 < self.param_range <= _PARAM_RANGE_MAX):
            raise StructuralError(
                f"param_range must be > 0 and <= {_PARAM_RANGE_MAX:g}, got {self.param_range!r}"
            )


def _finite(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


# -- individual experiments --------------------------------------------------


def experiment_table1(cfg: RunConfig) -> tuple[list[Check], dict]:
    """Compare all 42 descriptor cells, t0 included, with the reference table."""
    rows = []
    diff_rows = []
    mismatches = 0
    worst = 0.0
    for t, row in enumerate(circuit_mod.evolve_descriptors(circuit_mod.witness_circuit())):
        for sub, triple in row.items():
            expected_triple = circuit_mod.REFERENCE_DESCRIPTOR_TABLE[t][sub]
            for comp, expr, expected in zip(circuit_mod.COMPONENTS, triple, expected_triple):
                sign = 1.0 if expected[0] == "+" else -1.0
                deviation = max(
                    abs(expr.coeff(l) - (sign if l == expected[1:] else 0.0))
                    for l in set(expr.labels()) | {expected[1:]}
                )
                worst = max(worst, deviation)
                ok = deviation < 1e-12
                mismatches += 0 if ok else 1
                label = signed_single_label(expr) if ok else repr(expr)
                rows.append((f"t{t}", sub, comp, label))
                diff_rows.append((f"t{t}", sub, comp, expected, label, deviation))
    return [
        Check.compare(
            "descriptor-cells-mismatching", float(mismatches), "<=", 0.0,
            "all 42 descriptor cells (t0 included) are signed single Pauli products",
        ),
        Check.compare(
            "descriptor-worst-deviation", worst, "<", 1e-12,
            "cell coefficients are +/-1 with nothing else above 1e-12",
        ),
    ], {
        "descriptors.csv": (("time", "subsystem", "component", "label"), rows),
        "table1_diff.csv": (
            ("time", "subsystem", "component", "expected", "computed", "deviation"),
            diff_rows,
        ),
    }


def experiment_conservation(cfg: RunConfig) -> tuple[list[Check], dict]:
    """Commutant bases, constraint derivations and conservation residuals."""
    checks: list[Check] = []
    rng = np.random.default_rng(cfg.seed)

    c_add = cons.ConservedQuantity.additive()
    c_non = cons.ConservedQuantity.nonadditive()
    ambient = cons.pauli_operator_basis(2)

    basis_add = cons.commutant_basis(c_add, ambient)
    reference = cons.additive_commutant_reference()
    checks.append(Check.compare(
        "additive-commutant-dimension", float(len(basis_add)), "<=", 6.0,
        "allowed generators under Z_Q + Z_M span six directions",
    ))
    checks.append(Check.compare(
        "additive-commutant-dimension-lower", float(len(basis_add)), ">=", 6.0,
        "allowed generators under Z_Q + Z_M span six directions",
    ))
    checks.append(Check.compare(
        "additive-commutant-projection",
        cons.span_projection_residual(basis_add, reference),
        "<", 1e-12,
        "computed commutant sits inside span{I, Z_Q, Z_M, Z_QZ_M, XX+YY, XY-YX}",
    ))
    checks.append(Check.compare(
        "additive-reference-projection",
        cons.span_projection_residual(reference, basis_add),
        "<", 1e-12,
        "each reference generator sits inside the computed commutant",
    ))

    basis_non = cons.commutant_basis(c_non, ambient)
    checks.append(Check.compare(
        "nonadditive-commutant-rank-consistency",
        float(abs(len(basis_non) - cons.commutant_dimension(c_non))), "<=", 0.0,
        "commutant dimension equals the sum of squared eigenvalue multiplicities of the charge",
    ))

    family = cons.classical_filtered_family()
    expected = [{"alpha": 1.0, "a": 1.0}, {"beta": 1.0, "b": 1.0}]
    match = float(0 if family.constraints == expected else 1)
    checks.append(Check.compare(
        "classical-family-constraints", match, "<=", 0.0,
        "conservation forces a = -alpha and b = -beta, gamma and c stay free",
    ))

    channel = cons.constrain_family(cons.channel_extension_family(), cons.ConservedQuantity.channel3())
    ch_match = float(0 if channel.constraints == expected else 1)
    checks.append(Check.compare(
        "channel-family-constraints", ch_match, "<=", 0.0,
        "three-system extension adds only the free mediator-mediator term",
    ))

    # residual table
    swap_u = to_dense(circuit_mod.swap())
    h_net = circuit_mod.network_hamiltonian()
    residual_rows = [
        ("swap-vs-nonadditive", cons.conservation_residual(swap_u, c_non)),
        ("xq-vs-additive", cons.conservation_residual(OperatorExpr.from_label("XI"), c_add)),
        ("network-hamiltonian-vs-nonadditive", cons.conservation_residual(h_net, c_non)),
        (
            "composite-circuit-vs-nonadditive",
            cons.conservation_residual(
                circuit_mod.composite_unitary(circuit_mod.witness_circuit()), c_non
            ),
        ),
    ]
    checks.append(Check.compare(
        "swap-conserves-nonadditive", residual_rows[0][1], "<", 1e-12,
        "[SWAP, Z_Q + Z_M + Z_QZ_M] = 0",
    ))
    checks.append(Check.compare(
        "xq-breaks-additive", residual_rows[1][1], ">", 1.0,
        "X_Q anticommutes with Z_Q, so it is not an allowed generator",
    ))
    symbolic = commutator(h_net, c_non.expr)
    checks.append(Check.compare(
        "network-hamiltonian-symbolic-conservation", symbolic.max_coeff(), "<", 1e-13,
        "[2cnot + ry+ + ry- + cphase + swap, Z_Q + Z_M + Z_QZ_M] cancels term by term",
    ))
    # the composite circuit residual is a finding, not an assertion

    # random constrained members generate conserving unitaries; the draws
    # keep their order, each member's coordinates then its time
    expand = family.expansion_matrix().astype(float)
    draws = [(rng.uniform(-2.0, 2.0, size=len(expand)), rng.uniform(0.0, 2 * math.pi))
             for _ in range(100)]
    coords, times = (np.array(d) for d in zip(*draws))
    members = family.dense_members(coords @ expand)
    worst = float(cons.conservation_residual(expm_hermitian(members, times), c_non).max())
    checks.append(Check.compare(
        "constrained-members-generate-conserving-unitaries", worst, "<", 1e-10,
        "exp(-iHt) commutes with the conserved quantity for every member",
    ))

    return checks, {
        "conservation_residuals.csv": (("target", "frobenius_residual"), residual_rows),
        "commutant_additive.json": {
            "dimension": len(basis_add),
            "basis": [dict(b) for b in basis_add],
        },
        "commutant_nonadditive.json": {
            "dimension": len(basis_non),
            "constraint_rank": len(ambient) - len(basis_non),
            "basis": [dict(b) for b in basis_non],
        },
        "constrained_families.json": {
            "classical_mediator": cons.family_to_json(family),
            "channel_extension": cons.family_to_json(channel),
            "reading_flag": "single-probe gamma term taken on Z_Q (matches the constrained "
                            "form; the unconstrained listing can also be read with gamma on Y_Q)",
            "composite_circuit_residual": residual_rows[3][1],
        },
    }


def experiment_witness(cfg: RunConfig) -> tuple[list[Check], dict]:
    """Axis-constraint roots, bounded searches and qubit-mediator demos."""
    checks: list[Check] = []
    axis_report = wit.axis_constraint_report()
    checks.extend(axis_report.checks)

    def root_deviation(found, expected) -> float:
        if len(found) != len(expected):
            return float("inf")
        return max(
            (max(abs(a - b) for a, b in zip(f, e)) for f, e in zip(sorted(found), sorted(expected))),
            default=0.0,
        )

    checks.append(Check.compare(
        "z-system-root-set",
        root_deviation(axis_report.root_sets["z"], [(0.0, -1.0, 0.0)]),
        "<", 1e-10,
        "z-generator system has the single unit root (0, -1, 0)",
    ))
    checks.append(Check.compare(
        "x-system-root-set",
        root_deviation(axis_report.root_sets["x"], [(0.0, 1.0, 0.0)]),
        "<", 1e-10,
        "x-generator system has the single unit root (0, 1, 0)",
    ))
    root_rows = []
    for system, roots in axis_report.root_sets.items():
        if system == "intersection":
            continue
        for k, root in enumerate(roots):
            root_rows.append((system, k, root[0], root[1], root[2]))

    search = wit.classical_impossibility_search(
        budget=cfg.budget, seed=cfg.seed, grid_points=cfg.grid_points,
        param_range=cfg.param_range, time_points=cfg.time_points,
    )
    checks.extend(search.checks)

    swap_demo, exchange_demo = wit.quantum_demo()
    checks.extend(swap_demo.checks)
    checks.extend(exchange_demo.checks)

    checks.append(circuit_mod.mediator_independence_check(cfg.seed))
    return checks, {
        "axis_roots.csv": (("system", "index", "n_x", "n_y", "n_z"), root_rows),
        "axis_systems.json": axis_report,
        "impossibility_search.json": search,
        "quantum_demo_swap.json": swap_demo,
        "quantum_demo_exchange.json": exchange_demo,
        "exchange_trajectory.csv": (
            ("time", "bloch_x", "bloch_y", "bloch_z"), exchange_demo.findings["trajectory"],
        ),
    }


def experiment_homogenize(cfg: RunConfig) -> tuple[list[Check], dict]:
    """Trajectories, the coefficient law and the classical-reservoir gap."""
    checks: list[Check] = []
    rows = []
    law_worst = 0.0
    monotone_worst = 0.0
    recursion_worst = 0.0
    etas = list(dict.fromkeys((0.2, 0.5, 1.0, cfg.eta)))
    # one stacked run: state n of eta k is states[n][k]
    states, used = homog.run(np.array(etas, dtype=float), cfg.n_steps)
    stacked = np.array(states)
    distances = trace_distance(stacked, homog.XI).T.tolist()
    kappas = homog.xi_coefficient(stacked, homog.XI).T.tolist()
    for k, eta in enumerate(etas):
        for n, kappa in enumerate(kappas[k]):
            predicted = 1.0 - math.cos(eta) ** (2 * n)
            rows.append((eta, n, distances[k][n], kappa, predicted))
            law_worst = max(law_worst, abs(kappa - predicted))
        monotone_worst = max(monotone_worst, max(
            (b - a for a, b in zip(distances[k], distances[k][1:])), default=0.0
        ))
        # the closed form against the run's own first collisions
        for n in range(min(5, cfg.n_steps)):
            closed = homog.step_recursion(states[n][k], homog.XI, eta)
            recursion_worst = max(
                recursion_worst,
                float(np.abs(states[n + 1][k] - closed[0]).max()),
                float(np.abs(used[n][k] - closed[1]).max()),
            )
    checks.append(Check.compare(
        "xi-coefficient-law", law_worst, "<", 1e-10,
        "weight of xi after n collisions equals 1 - cos(eta)^(2n)",
    ))
    checks.append(Check.compare(
        "trace-distance-monotone", monotone_worst, "<=", 1e-12,
        "collisions never increase the distance to the reservoir state",
    ))
    checks.append(Check.compare(
        "recursion-matches-exact-step", recursion_worst, "<", 1e-12,
        "closed-form collision step equals the partial-trace computation",
    ))
    eta_grid = np.linspace(math.pi / 32, math.pi / 2, cfg.eta_points)
    conservation_worst = float(homog.nonadditive_conservation_residual(eta_grid).max())
    checks.append(Check.compare(
        "partial-swap-conserves-nonadditive", conservation_worst, "<", 1e-12,
        "[P(eta), Z_Q + Z_M + Z_QZ_M] = 0 for all couplings",
    ))

    reservoir = homog.classical_reservoir_check(
        eta_grid=eta_grid, n_steps=cfg.reservoir_steps, budget=cfg.budget, seed=cfg.seed,
        grid_points=cfg.grid_points, param_range=cfg.param_range,
    )
    checks.extend(reservoir.checks)
    return checks, {
        "homogenizer_trajectory.csv": (
            ("eta", "step", "trace_distance", "xi_coefficient", "predicted_coefficient"),
            rows,
        ),
        "classical_reservoir.json": reservoir,
    }


def experiment_oscillator(cfg: RunConfig) -> tuple[list[Check], dict]:
    """Bosonic-image construction checks and coherence trajectories."""
    checks: list[Check] = []
    herm_worst = 0.0
    unitary_worst = 0.0
    findings = {}
    for d_b in (2, 3, 8):
        h = osc.hp_hamiltonian(d_b)
        herm_worst = max(herm_worst, float(np.linalg.norm(h - h.conj().T)))
        u = expm_hermitian(h, 1.3)
        unitary_worst = max(
            unitary_worst, float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
        )
        b_num = np.kron(np.eye(2), osc.fock_ops(d_b)[1])
        findings[f"number_commutator_residual_db{d_b}"] = float(
            np.linalg.norm(h @ b_num - b_num @ h)
        )
        charge = osc.hp_substitute(
            OperatorExpr({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}), d_b
        )
        findings[f"nonadditive_image_residual_db{d_b}"] = float(
            np.linalg.norm(h @ charge - charge @ h)
        )
    checks.append(Check.compare(
        "bosonic-hamiltonian-hermitian", herm_worst, "<", 1e-12,
        "construction is symmetric at every truncation",
    ))
    checks.append(Check.compare(
        "bosonic-evolution-unitary", unitary_worst, "<", 1e-10,
        "exp(-iHt) preserves norm at every truncation",
    ))

    q_x, q_y, q_z = osc.hp_qubit(2)
    su2_worst = max(
        float(np.linalg.norm(q_x @ q_y - q_y @ q_x - 1j * q_z)),
        float(np.linalg.norm(q_y @ q_z - q_z @ q_y - 1j * q_x)),
        float(np.linalg.norm(q_z @ q_x - q_x @ q_z - 1j * q_y)),
    )
    checks.append(Check.compare(
        "two-level-generators-close-su2", su2_worst, "<", 1e-12,
        "[q_i, q_j] = i eps_ijk q_k at the two-level truncation",
    ))

    h2 = osc.hp_hamiltonian(2)
    mapped = osc.hp_substitute(circuit_mod.network_hamiltonian(), 2)
    reduction_residual = osc.identity_free_difference(h2, mapped)
    checks.append(Check.compare(
        "two-level-reduction-matches-network", reduction_residual, "<", 1e-12,
        "bosonic Hamiltonian equals the substituted network Hamiltonian up to identity",
    ))
    findings["two_level_reduction_residual"] = reduction_residual

    trajectories = osc.oscillator_witness_run(cfg.d_b)
    rows = []
    maxima = {}
    for level, points in trajectories.items():
        # str keys: json sorts int keys numerically, the artifact sorts them as text
        maxima[str(level)] = max(c for _, c in points)
        for t, c in points:
            rows.append((t, level, c))
    checks.append(Check.compare(
        "oscillator-induces-coherence", max(maxima.values()), ">", 0.0,
        "some mediator level rotates Q out of the Z basis",
    ))
    checks.append(Check.compare(
        "coherence-bounded", max(maxima.values()), "<=", 1.0 + 1e-12,
        "Bloch-ball bound on Z-basis coherence",
    ))
    return checks, {
        "oscillator_checks.json": {
            "findings": findings,
            "note": "number-operator and conserved-image commutators are reported, not asserted",
        },
        "oscillator_coherence.csv": (("time", "mediator_level", "coherence"), rows),
        "oscillator_coherence_maxima.json": maxima,
    }


_RUNNERS = {
    "table1": experiment_table1,
    "conservation": experiment_conservation,
    "witness": experiment_witness,
    "homogenize": experiment_homogenize,
    "oscillator": experiment_oscillator,
}
EXPERIMENTS = (*_RUNNERS, "all")


def run_experiment(cfg: RunConfig) -> tuple[int, list[Check]]:
    """Run one experiment (or all), then write its artifacts and a summary.

    Each experiment returns ``(checks, files)``; ``files`` maps an artifact
    name to ``(header, rows)`` for a ``.csv`` or to a ``.json`` payload.
    Nothing is written until every experiment has returned.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(_RUNNERS) if cfg.experiment == "all" else [cfg.experiment]
    checks: list[Check] = []
    files: dict = {}
    for name in names:
        more_checks, more_files = _RUNNERS[name](cfg)
        checks.extend(more_checks)
        files.update(more_files)
    passed = all(c.passed for c in checks)
    files["summary.json"] = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "checks": checks,
        "n_passed": sum(c.passed for c in checks),
        "n_failed": sum(not c.passed for c in checks),
        "verdict": "PASS" if passed else "FAIL",
    }
    for name, content in files.items():
        if name.endswith(".csv"):
            write_csv(out / name, *content)
        else:
            write_json(out / name, content)
    return (0 if passed else 1), checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwitness",
        description="verification runs for conservation-constrained mediated dynamics",
    )
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", type=Path, help="JSON config file")
    options.add_argument("--seed", type=int, help="RNG seed (>= 0)")
    options.add_argument("--out", type=Path, help="output directory")
    options.add_argument("--eta", type=float, help="coupling strength")
    options.add_argument(
        "--n", dest="n_steps", metavar="N", type=int, help="reservoir size / steps"
    )
    options.add_argument("--db", dest="d_b", metavar="DB", type=int, help="mediator truncation")
    options.add_argument("--budget", type=int, help="random search draws")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub.add_parser(name, parents=[options], help=f"run the {name} checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = RunConfig.from_json(args.config, args.experiment)
        else:
            cfg = RunConfig(experiment=args.experiment)
        for name in ("seed", "eta", "n_steps", "d_b", "budget"):
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        if args.out is not None:
            cfg.out_dir = str(args.out)
        elif os.environ.get("QWITNESS_OUT"):
            cfg.out_dir = os.environ["QWITNESS_OUT"]
        cfg.validate()
    except (StructuralError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, checks = run_experiment(cfg)
    except OSError as exc:  # creating or writing the output directory
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:  # e.g. a search budget no machine can hold
        if isinstance(exc, ValueError) and not any(t in str(exc) for t in _NUMPY_SIZE_ERRORS):
            raise  # a fault, not a size
        print(f"config error: run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        state = "PASS" if check.passed else "FAIL"
        print(f"[{state}] {check.name}: {check.value:.6g} {check.op} {check.threshold:.6g}")
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return code


if __name__ == "__main__":
    sys.exit(main())
