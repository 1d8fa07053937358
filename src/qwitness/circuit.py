"""Two-qubit gate network and Heisenberg-picture descriptor evolution.

The network acts on the probe Q (site 0) and mediator M (site 1).  Gates are
defined as exact Pauli expressions; controlled gates use the projector
convention ``(I - Z_M)/2``, i.e. the control fires on ``|1>`` of M.  The
default six-gate sequence drives Q from a Z-sharp state to an X-sharp state
for every initial mediator state, while its gate-expression sum commutes with
the non-additive conserved quantity ``Z_Q + Z_M + Z_Q Z_M``.

Descriptor rows hold, for each subsystem, the Heisenberg images of the
generator triple (q_x, q_y, q_z) expressed in the time-zero Pauli basis.
After k gates the image of a generator P is ``W† P W`` with
``W = G_k ... G_1`` (first-applied gate rightmost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import (
    assert_density_matrix,
    bloch_vector,
    partial_trace,
    pauli_decompose,
    to_dense,
)
from .errors import StructuralError
from .paulis import OperatorExpr
from .reports import Check

SUBSYSTEMS = ("Q", "M")
COMPONENTS = ("x", "y", "z")

CNOT_MQ = "cnot_mq"
CPHASE_MQ = "cphase_mq"
RY_M = "ry_m"
SWAP = "swap"
PARTIAL_SWAP = "partial_swap"

_ANGLED_KINDS = {RY_M, PARTIAL_SWAP}
_KINDS = {CNOT_MQ, CPHASE_MQ, RY_M, SWAP, PARTIAL_SWAP}


@dataclass(frozen=True)
class GateSpec:
    """One gate of the network; ``angle`` (radians) only for RY_M/PARTIAL_SWAP."""

    kind: str
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise StructuralError(f"unknown gate kind {self.kind!r}")
        if self.kind in _ANGLED_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise StructuralError(f"{self.kind} requires a finite angle")
        elif self.angle is not None:
            raise StructuralError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    gates: tuple[GateSpec, ...]

    def __post_init__(self) -> None:
        if not self.gates:
            raise StructuralError("circuit must contain at least one gate")


def witness_circuit() -> Circuit:
    """The six-gate sequence: CNOT, RY(+pi/2) on M, CPHASE, SWAP, RY(-pi/2), CNOT."""
    return Circuit(
        (
            GateSpec(CNOT_MQ),
            GateSpec(RY_M, math.pi / 2),
            GateSpec(CPHASE_MQ),
            GateSpec(SWAP),
            GateSpec(RY_M, -math.pi / 2),
            GateSpec(CNOT_MQ),
        )
    )


def gate_expr(gate: GateSpec) -> OperatorExpr:
    """Gate expression in the t0 Pauli basis."""
    one = OperatorExpr.identity(2)
    qx, qy, qz, mx, my, mz = (
        OperatorExpr.from_label(l) for l in ("XI", "YI", "ZI", "IX", "IY", "IZ")
    )
    if gate.kind == CNOT_MQ:
        return 0.5 * (one + mz) + 0.5 * ((one - mz) @ qx)
    if gate.kind == CPHASE_MQ:
        return 0.5 * (one + mz) + 0.5 * ((one - mz) @ qz)
    if gate.kind == RY_M:
        half = gate.angle / 2
        return math.cos(half) * one - (1j * math.sin(half)) * my
    swap = 0.5 * (one + qx @ mx + qy @ my + qz @ mz)
    if gate.kind == SWAP:
        return swap
    # PARTIAL_SWAP: GateSpec admits no other kind
    return math.cos(gate.angle) * one + (1j * math.sin(gate.angle)) * swap


def gate_unitary(gate: GateSpec) -> np.ndarray:
    """Dense unitary of a gate under the package conventions."""
    return to_dense(gate_expr(gate))


def composite_unitary(circuit: Circuit) -> np.ndarray:
    """Product G_k ... G_1 of the circuit's gates (first gate rightmost)."""
    total = gate_unitary(circuit.gates[0])
    for gate in circuit.gates[1:]:
        total = gate_unitary(gate) @ total
    return total


def evolve_descriptors(
    circuit: Circuit,
) -> list[dict[str, tuple[OperatorExpr, OperatorExpr, OperatorExpr]]]:
    """Descriptor rows at t_0 .. t_k from conjugation by the accumulated gate product.

    Row t maps each subsystem to its (x, y, z) generator images in the t0
    Pauli basis, the shape of :data:`REFERENCE_DESCRIPTOR_TABLE`.
    """
    rows = [{
        "Q": tuple(OperatorExpr.from_label(l) for l in ("XI", "YI", "ZI")),
        "M": tuple(OperatorExpr.from_label(l) for l in ("IX", "IY", "IZ")),
    }]
    acc = np.eye(4, dtype=complex)
    for gate in circuit.gates:
        acc = gate_unitary(gate) @ acc
        rows.append({
            sub: tuple(pauli_decompose(acc.conj().T @ to_dense(p) @ acc) for p in row)
            for sub, row in rows[0].items()
        })
    return rows


def network_hamiltonian() -> OperatorExpr:
    """Weighted sum of the gate expressions in the t0 basis.

    ``2*cnot + ry(+pi/2) + ry(-pi/2) + cphase + swap``; Hermitian, and it
    commutes exactly with the non-additive conserved quantity.
    """
    return (
        2.0 * gate_expr(GateSpec(CNOT_MQ))
        + gate_expr(GateSpec(RY_M, math.pi / 2))
        + gate_expr(GateSpec(RY_M, -math.pi / 2))
        + gate_expr(GateSpec(CPHASE_MQ))
        + gate_expr(GateSpec(SWAP))
    )


def witness_state_check(mediator_states: list[np.ndarray]) -> np.ndarray:
    """Final Bloch vectors of Q after the witness circuit, Q starting in |0>.

    Row k holds (<X>, <Y>, <Z>) of ``Tr_M[U (|0><0| x rho_k) U†]`` for the
    k-th mediator state; the circuit is built so every row is (1, 0, 0).
    """
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    u = composite_unitary(witness_circuit())
    blochs = []
    for rho_m in mediator_states:
        assert_density_matrix(rho_m)
        joint = np.kron(ket0, np.asarray(rho_m, dtype=complex))
        rho_q = partial_trace(u @ joint @ u.conj().T, (2, 2), keep=(0,))
        blochs.append(bloch_vector(rho_q))
    return np.array(blochs)


def mediator_independence_check(seed: int) -> Check:
    """Check that Q ends X-sharp for 100 seeded Haar-random pure mediator states.

    The value is the worst deviation of :func:`witness_state_check` from (1, 0, 0).
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(100):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        states.append(np.outer(amp, amp.conj()))
    blochs = witness_state_check(states)
    worst = float(np.abs(blochs - np.array([1.0, 0.0, 0.0])).max())
    return Check.compare(
        "witness-independent-of-mediator", worst, "<", 1e-10,
        "final Bloch vector of Q is (1, 0, 0) for every mediator state",
    )


# Reference descriptor table for the six-gate network: 42 signed Pauli
# products, row t_k, columns (subsystem, component), all in the t0 basis.
REFERENCE_DESCRIPTOR_TABLE: dict[int, dict[str, tuple[str, str, str]]] = {
    0: {"Q": ("+XI", "+YI", "+ZI"), "M": ("+IX", "+IY", "+IZ")},
    1: {"Q": ("+XI", "+YZ", "+ZZ"), "M": ("+XX", "+XY", "+IZ")},
    2: {"Q": ("+XI", "+YZ", "+ZZ"), "M": ("+IZ", "+XY", "-XX")},
    3: {"Q": ("-IX", "-ZY", "+ZZ"), "M": ("+ZI", "+YX", "-XX")},
    4: {"Q": ("+ZI", "+YX", "-XX"), "M": ("-IX", "-ZY", "+ZZ")},
    5: {"Q": ("+ZI", "+YX", "-XX"), "M": ("-ZZ", "-ZY", "-IX")},
    6: {"Q": ("+ZI", "-YI", "+XI"), "M": ("-IZ", "-IY", "-IX")},
}
