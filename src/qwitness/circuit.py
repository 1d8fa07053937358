"""Two-qubit gate network and Heisenberg-picture descriptor evolution.

The network acts on the probe Q (site 0) and mediator M (site 1).  Each
gate is an exact Pauli expression (:class:`OperatorExpr`) from one of the
builders :func:`cnot_mq`, :func:`cphase_mq`, :func:`ry_m`, :func:`swap` and
:func:`partial_swap`; controlled gates use the projector convention
``(I - Z_M)/2``, i.e. the control fires on ``|1>`` of M.  The
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
from typing import Sequence

import numpy as np

from .dense import (
    assert_density_matrix,
    bloch_vector,
    frobenius_norm,
    partial_trace,
    pauli_decompose,
    to_dense,
)
from .errors import StructuralError
from .paulis import OperatorExpr
from .reports import Check

COMPONENTS = ("x", "y", "z")


def _finite_angle(angle: float) -> float:
    """``angle`` itself; a NaN or infinite gate angle is a StructuralError."""
    if not math.isfinite(angle):
        raise StructuralError(f"gate angle must be finite, got {angle!r}")
    return angle


def _controlled(target: str) -> OperatorExpr:
    """``target`` on Q when M is |1>: ``(I + Z_M)/2 + (I - Z_M)/2 target``."""
    one = OperatorExpr.identity(2)
    mz = OperatorExpr.from_label("IZ")
    return 0.5 * (one + mz) + 0.5 * ((one - mz) @ OperatorExpr.from_label(target))


def cnot_mq() -> OperatorExpr:
    """CNOT controlled by M, flipping Q."""
    return _controlled("XI")


def cphase_mq() -> OperatorExpr:
    """Controlled-Z, controlled by M."""
    return _controlled("ZI")


def ry_m(angle: float) -> OperatorExpr:
    """``exp(-i angle Y_M / 2)``, a Y rotation of M by ``angle`` radians."""
    half = _finite_angle(angle) / 2
    my = OperatorExpr.from_label("IY")
    return math.cos(half) * OperatorExpr.identity(2) - (1j * math.sin(half)) * my


def swap() -> OperatorExpr:
    """``(I + XX + YY + ZZ)/2``, exchanging Q and M."""
    return 0.5 * OperatorExpr({"II": 1.0, "XX": 1.0, "YY": 1.0, "ZZ": 1.0})


def partial_swap(eta: float) -> OperatorExpr:
    """``P(eta) = cos(eta) I + i sin(eta) S`` with S the swap."""
    eta = _finite_angle(eta)
    return math.cos(eta) * OperatorExpr.identity(2) + (1j * math.sin(eta)) * swap()


def witness_circuit() -> tuple[OperatorExpr, ...]:
    """The six-gate sequence: CNOT, RY(+pi/2) on M, CPHASE, SWAP, RY(-pi/2), CNOT."""
    return (cnot_mq(), ry_m(math.pi / 2), cphase_mq(), swap(), ry_m(-math.pi / 2), cnot_mq())


def composite_unitary(gates: Sequence[OperatorExpr]) -> np.ndarray:
    """Product G_k ... G_1 of the gates (first gate rightmost); I for no gates."""
    total = np.eye(4, dtype=complex)
    for gate in gates:
        total = to_dense(gate) @ total
    return total


def evolve_descriptors(
    gates: Sequence[OperatorExpr],
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
    for gate in gates:
        acc = to_dense(gate) @ acc
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
    return 2.0 * cnot_mq() + ry_m(math.pi / 2) + ry_m(-math.pi / 2) + cphase_mq() + swap()


def witness_state_check(mediator_states: np.ndarray) -> np.ndarray:
    """Final Bloch vectors of Q after the witness circuit, Q starting in |0>.

    ``mediator_states`` is a (k, 2, 2) stack; row k of the result holds
    (<X>, <Y>, <Z>) of ``Tr_M[U (|0><0| x rho_k) U†]``.  The circuit is
    built so every row is (1, 0, 0).
    """
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    u = composite_unitary(witness_circuit())
    rho_m = np.asarray(mediator_states, dtype=complex)
    assert_density_matrix(rho_m)
    joint = np.kron(ket0, rho_m)
    rho_q = partial_trace(u @ joint @ u.conj().T, (2, 2), keep=(0,))
    return bloch_vector(rho_q)


def mediator_independence_check(seed: int) -> Check:
    """Check that Q ends X-sharp for 100 seeded Haar-random pure mediator states.

    The value is the worst deviation of :func:`witness_state_check` from (1, 0, 0).
    """
    rng = np.random.default_rng(seed)
    amps = np.array([rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(100)])
    amps /= frobenius_norm(amps[:, None, :])[:, None]  # each 1 x 2 slice: norm(amp)
    blochs = witness_state_check(amps[:, :, None] * amps.conj()[:, None, :])
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
