"""Acceptance suite: one test per top-level criterion.

Criteria assert by name the checks that the CLI experiments return, so each
tolerance lives in its check; a literal tolerance appears only where a
criterion checks more than the CLI does.  Each test prints a single
``[criterion NN] name: PASS/FAIL`` line (visible with ``pytest -s`` or in
failure output) and enforces its runtime budget.  Expected values marked as
frozen were first computed by the stated independent route and are asserted
as regression constants.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from qwitness.circuit import mediator_independence_check
from qwitness.cli import (
    RunConfig, experiment_conservation, experiment_homogenize, experiment_oscillator,
    experiment_table1,
)
from qwitness.conservation import (
    ConservedQuantity, classical_filtered_family, classical_mediator_family, constrain_family,
)
from qwitness.dense import expm_hermitian, to_dense
from qwitness.homogenizer import (
    HomogenizerConfig, classical_reservoir_check, homogenize_step, step_recursion,
)
from qwitness.oscillator import hp_hamiltonian
from qwitness.paulis import OperatorExpr
from qwitness.witness import (
    EXCHANGE_INTERACTION, SWAP_INTERACTION, axis_constraint_report, quantum_demo,
)

# first computation of the classical-reservoir search minimum (seed 7, full
# documented grid); the analytic sector argument puts it at 1/sqrt(2)
FROZEN_RESERVOIR_DISTANCE = 0.707106781


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.2f}s exceeds the {budget_seconds}s budget"
        )
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:02d}] {name}: {status} ({elapsed:.2f}s)")


def assert_passed(checks, *names):
    """Assert that each named check is present and passed; return them by name."""
    by_name = {c.name: c for c in checks}
    for name in names:
        assert by_name[name].passed, by_name[name]
    return by_name


def test_criterion_01_descriptor_table_reproduction():
    with criterion(1, "descriptor table, 36 signed cells", 1.0):
        checks, files = experiment_table1(RunConfig())
        assert_passed(checks, "descriptor-cells-mismatching", "descriptor-worst-deviation")
        _header, rows = files["table1_diff.csv"]
        assert sum(row[0] != "t0" for row in rows) == 36  # 6 slices x 6 cells


def test_criterion_02_additive_commutant():
    with criterion(2, "additive commutant: dimension 6 and span", 1.0):
        checks, _files = experiment_conservation(RunConfig())
        assert_passed(
            checks, "additive-commutant-dimension", "additive-commutant-dimension-lower",
            "additive-commutant-projection", "additive-reference-projection",
        )


def test_criterion_03_constraint_derivation():
    with criterion(3, "constraint set {a=-alpha, b=-beta}", 1.0):
        checks, _files = experiment_conservation(RunConfig())
        assert_passed(checks, "classical-family-constraints")
        family = constrain_family(
            classical_mediator_family(), ConservedQuantity.nonadditive()
        )
        assert np.linalg.matrix_rank(family.constraint_matrix()) == 2


def test_criterion_04_axis_root_sets():
    with criterion(4, "axis root sets and empty intersection", 1.0):
        report = axis_constraint_report()
        assert report.root_sets["z"] == [(0.0, -1.0, 0.0)]
        assert report.root_sets["x"] == [(0.0, 1.0, 0.0)]
        assert_passed(report.checks, "z-system-residual", "x-system-residual")
        assert report.root_sets["intersection"] == []
        # both right-hand-side readings of the y system are present
        assert report.root_sets["y_target"] == []
        assert sorted(report.root_sets["y_sign_flipped"]) == [
            (0.0, -1.0, 0.0),
            (0.0, 1.0, 0.0),
        ]


def test_criterion_05_classical_mediator_never_evolves():
    with criterion(5, "classical family leaves Z_M invariant", 1.0):
        rng = np.random.default_rng(7)
        z_m = to_dense(OperatorExpr.from_label("IZ"))
        family = classical_filtered_family()
        for _ in range(100):
            alpha, beta, gamma, c = rng.uniform(-2, 2, size=4)
            h = family.member(
                {"alpha": alpha, "beta": beta, "gamma": gamma, "a": -alpha, "b": -beta, "c": c}
            )
            u = expm_hermitian(to_dense(h), rng.uniform(0, 2 * math.pi))
            assert np.linalg.norm(u.conj().T @ z_m @ u - z_m) < 1e-10


def test_criterion_06_witness_independence_of_mediator():
    with criterion(6, "witness output independent of mediator state", 1.0):
        # the check experiment_witness runs, without its axis solve
        check = mediator_independence_check(RunConfig().seed)
        assert_passed([check], "witness-independent-of-mediator")


def test_criterion_07_homogenizer_law():
    with criterion(7, "homogenizer coefficient law and contraction", 5.0):
        checks, _files = experiment_homogenize(RunConfig(n_steps=30, budget=0))
        assert_passed(
            checks, "xi-coefficient-law", "trace-distance-monotone", "recursion-matches-exact-step"
        )
        # the experiment compares five collisions; the criterion asks for ten
        for eta in (0.2, 0.5, 1.0):
            config = HomogenizerConfig(n_steps=30, eta=eta)
            rho = config.rho0
            for _ in range(10):
                exact = homogenize_step(rho, config.xi, eta)
                closed = step_recursion(rho, config.xi, eta)
                assert np.abs(exact[0] - closed[0]).max() < 1e-12
                assert np.abs(exact[1] - closed[1]).max() < 1e-12
                rho = exact[0]


def test_criterion_08_partial_swap_conservation():
    with criterion(8, "partial swap conserves the non-additive charge", 1.0):
        checks, _files = experiment_homogenize(RunConfig(budget=0))
        assert_passed(checks, "partial-swap-conserves-nonadditive")


def test_criterion_09_network_hamiltonian_conservation(capsys):
    with criterion(9, "network Hamiltonian symbolic conservation", 1.0):
        checks, files = experiment_conservation(RunConfig())
        assert_passed(checks, "network-hamiltonian-symbolic-conservation")
        # the sequential circuit's composite residual is reported, not asserted
        composite = files["constrained_families.json"]["composite_circuit_residual"]
        print(f"composite-circuit residual (reported): {composite:.12f}")
        assert math.isfinite(composite)


def test_criterion_10_quantum_demo():
    with criterion(10, "swap and exchange demos with a qubit mediator", 1.0):
        assert_passed(
            quantum_demo(SWAP_INTERACTION).checks, "swap-maps-to-plus", "swap-maps-to-minus"
        )
        assert_passed(
            quantum_demo(EXCHANGE_INTERACTION).checks, "exchange-conserves-additive-charge"
        )


def test_criterion_11_bosonic_reduction():
    with criterion(11, "bosonic image: reduction, Hermiticity, unitarity", 2.0):
        checks, _files = experiment_oscillator(RunConfig())
        reduction = assert_passed(
            checks, "two-level-reduction-matches-network", "bosonic-hamiltonian-hermitian",
            "bosonic-evolution-unitary",
        )["two-level-reduction-matches-network"]
        print(f"two-level reduction residual (reported): {reduction.value:.3e}")
        # the experiment checks unitarity at t = 1.3; the criterion adds t = 1.1
        for d_b in (2, 3, 8):
            u = expm_hermitian(hp_hamiltonian(d_b), 1.1)
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) < 1e-10


def test_criterion_12_classical_reservoir_gap():
    with criterion(12, "classical reservoir distance gap", 60.0):
        report = classical_reservoir_check(
            n_steps=8, budget=10_000, seed=7, grid_points=9
        )
        measured = report.findings["min_final_trace_distance"]
        print(f"minimal final trace distance over the search: {measured!r}")
        assert measured > FROZEN_RESERVOIR_DISTANCE
        assert report.verdict == "POSITIVE-GAP"
