"""Acceptance suite: one test per top-level criterion, at pinned tolerances.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line (visible
with ``pytest -s`` or in failure output) and enforces its runtime budget.
Expected values marked as frozen were first computed by the stated
independent route and are asserted as regression constants.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qwitness.circuit import (
    COMPONENTS,
    REFERENCE_DESCRIPTOR_TABLE,
    SUBSYSTEMS,
    composite_unitary,
    evolve_descriptors,
    network_hamiltonian,
    witness_circuit,
    witness_state_check,
)
from qwitness.conservation import (
    ConservedQuantity,
    additive_commutant_reference,
    classical_filtered_family,
    classical_mediator_family,
    commutant_basis,
    conservation_residual,
    constrain_family,
    pauli_operator_basis,
    span_projection_residual,
)
from qwitness.dense import expm_hermitian, to_dense
from qwitness.homogenizer import (
    HomogenizerConfig,
    classical_reservoir_check,
    homogenize_step,
    nonadditive_conservation_residual,
    run,
    step_recursion,
)
from qwitness.oscillator import hp_hamiltonian, hp_substitute, identity_free_difference
from qwitness.paulis import OperatorExpr, commutator
from qwitness.witness import (
    EXCHANGE_INTERACTION,
    SWAP_INTERACTION,
    axis_constraint_report,
    quantum_demo,
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


def test_criterion_01_descriptor_table_reproduction():
    with criterion(1, "descriptor table, 36 signed cells", 1.0):
        frames = evolve_descriptors(witness_circuit())
        cells = 0
        for frame in frames[1:]:  # 6 slices x 6 cells
            for sub in SUBSYSTEMS:
                for comp_idx, comp in enumerate(COMPONENTS):
                    expected = REFERENCE_DESCRIPTOR_TABLE[frame.time_index][sub][comp_idx]
                    sign = 1.0 if expected[0] == "+" else -1.0
                    expr = frame.component(sub, comp)
                    assert abs(expr.coeff(expected[1:]) - sign) < 1e-12
                    for label, coeff in expr:
                        if label != expected[1:]:
                            assert abs(coeff) < 1e-12
                    cells += 1
        assert cells == 36


def test_criterion_02_additive_commutant():
    with criterion(2, "additive commutant: dimension 6 and span", 1.0):
        basis = commutant_basis(ConservedQuantity.additive(), pauli_operator_basis(2))
        assert len(basis) == 6
        reference = additive_commutant_reference()
        assert span_projection_residual(basis, reference) < 1e-12
        assert span_projection_residual(reference, basis) < 1e-12


def test_criterion_03_constraint_derivation():
    with criterion(3, "constraint set {a=-alpha, b=-beta}", 1.0):
        family = constrain_family(
            classical_mediator_family(), ConservedQuantity.nonadditive()
        )
        assert family.constraints == [
            {"alpha": 1.0, "a": 1.0},
            {"beta": 1.0, "b": 1.0},
        ]
        assert np.linalg.matrix_rank(family.constraint_matrix()) == 2


def test_criterion_04_axis_root_sets():
    with criterion(4, "axis root sets and empty intersection", 1.0):
        report = axis_constraint_report()
        assert report.root_sets["z"] == [(0.0, -1.0, 0.0)]
        assert report.root_sets["x"] == [(0.0, 1.0, 0.0)]
        for check in report.checks:
            if check.name.endswith("residual"):
                assert check.value < 1e-10
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
        z_m = to_dense(OperatorExpr.from_label("IZ")).mat
        family = classical_filtered_family()
        for _ in range(100):
            alpha, beta, gamma, c = rng.uniform(-2, 2, size=4)
            h = family.member(
                {"alpha": alpha, "beta": beta, "gamma": gamma, "a": -alpha, "b": -beta, "c": c}
            )
            u = expm_hermitian(to_dense(h), rng.uniform(0, 2 * math.pi)).mat
            assert np.linalg.norm(u.conj().T @ z_m @ u - z_m) < 1e-10


def test_criterion_06_witness_independence_of_mediator():
    with criterion(6, "witness output independent of mediator state", 1.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp /= np.linalg.norm(amp)
            bloch = witness_state_check(np.outer(amp, amp.conj()))
            assert np.abs(bloch - np.array([1.0, 0.0, 0.0])).max() < 1e-10


def test_criterion_07_homogenizer_law():
    with criterion(7, "homogenizer coefficient law and contraction", 5.0):
        for eta in (0.2, 0.5, 1.0):
            traj = run(HomogenizerConfig(n_steps=30, eta=eta))
            for n in range(31):
                assert abs(
                    traj.xi_coefficients[n] - (1 - math.cos(eta) ** (2 * n))
                ) < 1e-10
            for a, b in zip(traj.trace_distances, traj.trace_distances[1:]):
                assert b <= a + 1e-12
            rho = traj.config.rho0
            for _ in range(10):
                exact = homogenize_step(rho, traj.config.xi, eta)
                closed = step_recursion(rho, traj.config.xi, eta)
                assert np.abs(exact[0] - closed[0]).max() < 1e-12
                assert np.abs(exact[1] - closed[1]).max() < 1e-12
                rho = exact[0]


def test_criterion_08_partial_swap_conservation():
    with criterion(8, "partial swap conserves the non-additive charge", 1.0):
        for eta in np.linspace(0.0, math.pi / 2, 16):
            assert nonadditive_conservation_residual(float(eta)) < 1e-12


def test_criterion_09_network_hamiltonian_conservation(capsys):
    with criterion(9, "network Hamiltonian symbolic conservation", 1.0):
        h_net = network_hamiltonian()
        charge = ConservedQuantity.nonadditive()
        assert commutator(h_net, charge.expr).max_coeff() < 1e-13
        # the sequential circuit's composite residual is reported, not asserted
        composite = conservation_residual(composite_unitary(witness_circuit()), charge)
        print(f"composite-circuit residual (reported): {composite:.12f}")
        assert math.isfinite(composite)


def test_criterion_10_quantum_demo():
    with criterion(10, "swap and exchange demos with a qubit mediator", 1.0):
        swap_report = quantum_demo(SWAP_INTERACTION)
        for name in ("swap-maps-to-plus", "swap-maps-to-minus"):
            check = next(c for c in swap_report.checks if c.name == name)
            assert check.value < 1e-10
        exchange_report = quantum_demo(EXCHANGE_INTERACTION)
        check = next(
            c
            for c in exchange_report.checks
            if c.name == "exchange-conserves-additive-charge"
        )
        assert check.value < 1e-12


def test_criterion_11_bosonic_reduction():
    with criterion(11, "bosonic image: reduction, Hermiticity, unitarity", 2.0):
        reduction = identity_free_difference(
            hp_hamiltonian(2), hp_substitute(network_hamiltonian(), 2)
        )
        print(f"two-level reduction residual (reported): {reduction:.3e}")
        assert reduction < 1e-12
        for d_b in (2, 3, 8):
            h = hp_hamiltonian(d_b)
            assert np.linalg.norm(h.mat - h.mat.conj().T) < 1e-12
            u = expm_hermitian(h, 1.1)
            assert np.linalg.norm(u.mat.conj().T @ u.mat - np.eye(u.side)) < 1e-10


def test_criterion_12_classical_reservoir_gap():
    with criterion(12, "classical reservoir distance gap", 60.0):
        report = classical_reservoir_check(
            n_steps=8, budget=10_000, seed=7, grid_points=9
        )
        measured = report.findings["min_final_trace_distance"]
        print(f"minimal final trace distance over the search: {measured!r}")
        assert measured > FROZEN_RESERVOIR_DISTANCE
        assert report.verdict == "POSITIVE-GAP"
