import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, ring
from sympy.polys.rootisolation import dup_count_real_roots

from qwitness.circuit import evolve_descriptors, witness_circuit
from qwitness.dense import PAULI_MATS
from qwitness.errors import ContractViolation, StructuralError
from qwitness import witness
from qwitness.conservation import _BLOCK_CELLS, _sector_blocks
from qwitness.paulis import signed_single_label
from qwitness.witness import (
    WITNESS_FRAME_MAP,
    _axis_equations,
    _format_equation,
    _sector_certificates,
    _sector_kernel,
    axis_constraint_report,
    classical_impossibility_search,
    coherence,
    conjugation_image,
    exchange_hamiltonian,
    quantum_demo,
    real_axis_roots,
)

from operator_helpers import (
    broadcast_certificates,
    cli_search_arguments,
    exchange_trajectory_loop,
    is_zero,
    member,
    random_member,
)

GEN = {"x": PAULI_MATS["X"], "y": PAULI_MATS["Y"], "z": PAULI_MATS["Z"]}


def search_arguments(**overrides):
    """The CLI's default impossibility-search arguments, with ``overrides``."""
    return {**cli_search_arguments()["classical_impossibility_search"], **overrides}


def rotation_unitary(axis, theta):
    """Dense 2x2 rotation matrix cos(t/2) I - i sin(t/2) n.sigma."""
    n_sigma = sum(a * GEN[c] for a, c in zip(axis, "xyz"))
    return math.cos(theta / 2) * PAULI_MATS["I"] - 1j * math.sin(theta / 2) * n_sigma


def _batched_rotations(axes, times):
    """Rotation matrices of exp(-i t n.sigma) conjugation, batched (Rodrigues).

    axes: (B, 3); times: (T,).  Returns (B, T, 3, 3); axes shorter than
    1e-100 give the identity map.
    """
    r = np.linalg.norm(axes, axis=-1)
    degenerate = r < 1e-100  # includes exact zeros; avoids denormal blowup
    safe = np.where(degenerate, 1.0, r)
    unit = axes / safe[:, None]
    theta = 2.0 * r[:, None] * times[None, :]  # (B, T)
    cos = np.cos(theta)[..., None, None]
    sin = np.sin(theta)[..., None, None]
    eye = np.eye(3)
    # cross-product matrix K with K[:, j] = e_j x n  equals -[n]_x
    kx = np.zeros(axes.shape[:1] + (3, 3))
    kx[:, 0, 1], kx[:, 0, 2] = unit[:, 2], -unit[:, 1]
    kx[:, 1, 0], kx[:, 1, 2] = -unit[:, 2], unit[:, 0]
    kx[:, 2, 0], kx[:, 2, 1] = unit[:, 1], -unit[:, 0]
    outer = unit[:, :, None] * unit[:, None, :]
    rot = (
        cos * eye
        + sin * kx[:, None, :, :]
        + (1 - cos) * outer[:, None, :, :]
    )
    rot[degenerate] = eye
    return rot


def dense_conjugation_image(axis, theta, generator):
    """Independent oracle: expand R† sigma_j R in the Pauli basis."""
    r = rotation_unitary(axis, theta)
    conj = r.conj().T @ GEN[generator] @ r
    return np.array([np.trace(PAULI_MATS[c] @ conj).real / 2 for c in "XYZ"])


def test_rotation_about_own_axis_is_identity():
    assert np.allclose(conjugation_image((0.0, 0.0, 1.0), 1.234, "z"), [0, 0, 1], atol=1e-14)


def test_rotation_sign_convention_fixed_by_dense_oracle():
    # quarter turn about +y maps z to -x under R = cos - i sin n.sigma
    image = conjugation_image((0.0, 1.0, 0.0), math.pi / 2, "z")
    assert np.allclose(image, [-1, 0, 0], atol=1e-12)
    assert np.allclose(dense_conjugation_image((0, 1, 0), math.pi / 2, "z"), [-1, 0, 0])


def test_rotation_about_minus_y_sends_z_to_plus_x():
    image = conjugation_image((0.0, -1.0, 0.0), math.pi / 2, "z")
    assert image[0] == pytest.approx(1.0)
    assert np.allclose(image, [1, 0, 0], atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: sum(x * x for x in v) > 1e-4),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
    st.sampled_from("xyz"),
)
def test_rotation_image_matches_dense_conjugation(raw_axis, theta, generator):
    axis = np.array(raw_axis) / np.linalg.norm(raw_axis)
    assert np.allclose(
        conjugation_image(axis, theta, generator),
        dense_conjugation_image(axis, theta, generator),
        atol=1e-12,
    )


def test_rotation_image_matches_dense_on_many_seeded_draws():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        g = "xyz"[rng.integers(3)]
        assert np.abs(
            conjugation_image(axis, theta, g) - dense_conjugation_image(axis, theta, g)
        ).max() < 1e-12


def test_conjugation_image_handles_non_unit_axes():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = rng.normal(size=3)
        theta = rng.uniform(0, 2 * math.pi)
        for g in "xyz":
            # oracle: build the (generally non-unitary) R and expand R† P R
            n_sigma = sum(n[i] * GEN[c] for i, c in enumerate("xyz"))
            r = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * n_sigma
            conj = r.conj().T @ GEN[g] @ r
            oracle = np.array([np.trace(PAULI_MATS[c] @ conj).real / 2 for c in "XYZ"])
            assert np.allclose(conjugation_image(n, theta, g), oracle, atol=1e-10)


def test_target_map_matrix_and_determinant():
    # the search's target is the frame map the six-gate network realises:
    # column j is the final Heisenberg image of q_j, read as a signed label
    final = evolve_descriptors(witness_circuit())[-1]
    columns = []
    for expr in final["Q"]:
        signed = signed_single_label(expr)
        assert signed[2] == "I"  # the image stays on Q
        sign = -1.0 if signed[0] == "-" else 1.0
        columns.append([sign * (signed[1] == c) for c in "XYZ"])
    assert np.array_equal(WITNESS_FRAME_MAP, np.array(columns).T)
    assert np.allclose(WITNESS_FRAME_MAP.T @ WITNESS_FRAME_MAP, np.eye(3), atol=1e-15)
    assert np.linalg.det(WITNESS_FRAME_MAP) == pytest.approx(1.0)


def exact(*coords):
    return tuple(Fraction(c) for c in coords)


def max_root_residual(generator, image):
    """Largest deviation of ``conjugation_image`` from the image over all roots."""
    return max(
        (
            np.abs(conjugation_image(np.array(root, dtype=float), math.pi / 2, generator)
                   - np.array(image)).max()
            for root in real_axis_roots(generator, image)
        ),
        default=0.0,
    )


def test_z_system_root_set():
    assert real_axis_roots("z", (1.0, 0.0, 0.0)) == [exact(0, -1, 0)]
    assert max_root_residual("z", (1.0, 0.0, 0.0)) < 1e-10


def test_x_system_root_set():
    assert real_axis_roots("x", (0.0, 0.0, 1.0)) == [exact(0, 1, 0)]
    assert max_root_residual("x", (0.0, 0.0, 1.0)) < 1e-10


def test_y_system_under_both_right_hand_sides():
    # target reading (image -q_y): no real roots at all
    assert real_axis_roots("y", (0.0, -1.0, 0.0)) == []
    # sign-flipped reading (+q_y): the two unit roots on the y axis
    assert real_axis_roots("y", (0.0, 1.0, 0.0)) == [exact(0, -1, 0), exact(0, 1, 0)]


def test_roots_satisfy_their_systems_after_substitution():
    for gen, image in (
        ("z", (1.0, 0.0, 0.0)),
        ("x", (0.0, 0.0, 1.0)),
        ("y", (0.0, 1.0, 0.0)),
        ("z", (-0.5, 0.5, 0.5)),  # irrational roots
    ):
        assert real_axis_roots(gen, image)
        assert max_root_residual(gen, image) < 1e-10


AXIS = sympy.symbols("n_x n_y n_z", real=True)


def oracle_equations(generator, image):
    """One axis system as expanded sympy expressions, built directly.

    ``(1 - n.n)/2 e_g + e_g x n + n_g n - image``, with the image entries as
    exact rationals.
    """
    n = sympy.Matrix(AXIS)
    e_g = sympy.Matrix([int(c == generator) for c in "xyz"])
    target = sympy.Matrix([sympy.Rational(v) for v in image])
    lhs = (1 - n.dot(n)) / 2 * e_g + e_g.cross(n) + n["xyz".index(generator)] * n
    return [sympy.expand(expr) for expr in lhs - target]


def solve_then_drop_complex(eqs):
    """Oracle: every root from ``sympy.solve``, then the non-real ones dropped."""
    roots = set()
    for sol in sympy.solve(eqs, list(AXIS), dict=True, check=False, simplify=False):
        vals = [complex(sympy.N(sol.get(v, 0))) for v in AXIS]
        if all(abs(v.imag) <= 1e-10 for v in vals):
            roots.add(tuple(round(v.real, 12) + 0.0 for v in vals))
    return roots


def groebner_real_solutions(polys):
    """Oracle: exact real solutions of a zero-dimensional system in a lex ring.

    The solve runs in the polynomial ring of ``polys`` (its first generator
    largest): the reduced lex Groebner basis, then back-substitution from the
    last generator to the first.  Each level's values are the real roots of
    the gcd of the basis elements in that generator and the ones already
    fixed, so complex branches are never followed.  Over a rational partial
    root the gcd is factored over QQ: a linear factor gives an exact ``QQ``
    root and a nonlinear factor with real (so irrational) roots goes through
    ``Poly.real_roots``; a level over an irrational partial root must be one
    element linear in its generator, solved as ``-c0/c1``.  A
    positive-dimensional system, or a nonlinear level over an irrational
    partial root, raises :class:`StructuralError`.
    """
    ring_ = polys[0].ring
    if ring_.order != lex:
        raise StructuralError(f"back-substitution needs lex order, not {ring_.order}")
    basis = groebner(polys, ring_)
    if basis == [ring_.one]:
        return []
    leading = [g.LM for g in basis]
    if not all(
        any(m[k] and sum(m) == m[k] for m in leading) for k in range(ring_.ngens)
    ):
        raise StructuralError(f"positive-dimensional system: {basis}")
    partials = [()]
    for k in range(ring_.ngens - 1, -1, -1):
        fixed = ring_.gens[k + 1 :]
        level = [
            g for g in basis
            if g.degree(k) > 0 and not any(g.degree(i) for i in range(k))
        ]
        extended = []
        for part in partials:
            if all(QQ.of_type(v) for v in part):
                at = list(zip(fixed, part))
                values = _rational_level_roots(
                    reduce(PolyElement.gcd, [g.subs(at) for g in level]), k
                )
            elif len(level) == 1 and level[0].degree(k) == 1:
                at = {
                    s: QQ.to_sympy(v) if QQ.of_type(v) else v
                    for s, v in zip(ring_.symbols[k + 1 :], part)
                }
                linear = sympy.Poly(level[0].as_expr(), ring_.symbols[k])
                c1, c0 = (c.subs(at) for c in linear.all_coeffs())
                value = -c0 / c1
                values = [QQ.from_sympy(value) if value.is_Rational else value]
            else:
                raise StructuralError(
                    f"nonlinear level in {ring_.symbols[k]} over an irrational root"
                )
            extended.extend((value, *part) for value in values)
        partials = extended
    return partials


def _rational_level_roots(poly, k):
    """Real roots of ``poly``, a polynomial in generator ``k`` alone, ascending."""
    values = []
    for factor, _ in poly.factor_list()[1]:
        coeffs = {m[k]: c for m, c in factor.terms()}
        if factor.degree(k) == 1:
            values.append(-coeffs.get(0, QQ.zero) / coeffs[1])
        else:
            dup = [coeffs.get(i, QQ.zero) for i in range(factor.degree(k), -1, -1)]
            if dup_count_real_roots(dup, QQ):
                values.extend(
                    sympy.Poly(factor.as_expr(), factor.ring.symbols[k]).real_roots()
                )
    return sorted(values, key=float)


def groebner_axis_roots(generator, eqs):
    """The Groebner oracle on one axis system, roots in (n_x, n_y, n_z) order.

    The ring puts n_g last, so back-substitution fixes n_g first.  Distinct
    roots of a system with a nonzero image have distinct n_g, so the levels
    above it are linear and an irrational n_g never meets a nonlinear level.
    """
    g = "xyz".index(generator)
    order = [i for i in range(3) if i != g] + [g]
    axis_ring = ring([AXIS[i] for i in order], QQ, lex)[0]
    roots = groebner_real_solutions([axis_ring(e) for e in eqs])
    return [tuple(root[order.index(i)] for i in range(3)) for root in roots]


def assert_same_roots(got, want):
    """Both root lists hold the same points, pointwise within 1e-9."""
    for root in got:
        assert any(max(abs(a - b) for a, b in zip(root, w)) <= 1e-9 for w in want)
    for w in want:
        assert any(max(abs(a - b) for a, b in zip(root, w)) <= 1e-9 for root in got)


def check_against_oracles(generator, image):
    """The closed form's equations and full real root set against both oracles.

    Returns the number of real roots.
    """
    eqs = oracle_equations(generator, image)
    # the equation strings are sympy's own printing of the expressions
    assert [_format_equation(e) for e in _axis_equations(generator, image)] == [
        str(e) + " = 0" for e in eqs
    ]
    # the full real root set
    got = [tuple(float(v) for v in root) for root in real_axis_roots(generator, image)]
    back_substituted = [
        tuple(float(v) for v in root) for root in groebner_axis_roots(generator, eqs)
    ]
    want = solve_then_drop_complex(eqs)
    assert len(got) == len(back_substituted) == len(want)
    assert_same_roots(got, want)
    assert_same_roots(got, back_substituted)
    return len(got)


@pytest.mark.parametrize(
    ("generator", "image", "count"),
    [
        ("z", (1.0, 0.0, 0.0), 1),
        ("x", (0.0, 0.0, 1.0), 1),
        ("y", (0.0, -1.0, 0.0), 0),
        ("y", (0.0, 1.0, 0.0), 2),
        ("z", (-0.5, 0.5, 0.5), 2),  # n_z^2 = (sqrt(3) - 1)/2
        ("y", (0.36, 0.48, 0.8), 2),  # irrational unit axes
        ("x", (1.0, 0.0, 0.0), 2),  # n = (+-1, 0, 0)
    ],
)
def test_real_solutions_match_solve_then_filter(generator, image, count):
    assert check_against_oracles(generator, image) == count


RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=4)
NONZERO_IMAGE = st.tuples(RATIONAL, RATIONAL, RATIONAL).filter(any)


# sympy.solve takes about a second per system, hence few examples here and
# many more against the Groebner oracle alone below
@settings(max_examples=5, deadline=None)
@given(generator=st.sampled_from("xyz"), image=NONZERO_IMAGE)
def test_real_solutions_match_solve_then_filter_on_rational_images(generator, image):
    check_against_oracles(generator, image)


@settings(max_examples=100, deadline=None)
@given(generator=st.sampled_from("xyz"), image=NONZERO_IMAGE)
def test_real_solutions_match_groebner_oracle_on_rational_images(generator, image):
    got = [tuple(float(v) for v in root) for root in real_axis_roots(generator, image)]
    want = [
        tuple(float(v) for v in root)
        for root in groebner_axis_roots(generator, oracle_equations(generator, image))
    ]
    assert len(got) == len(want)
    assert_same_roots(got, want)


def test_positive_dimensional_axis_system_is_rejected():
    # zero image: n_y = +-i leaves n_x free, a complex curve of solutions
    with pytest.raises(StructuralError):
        real_axis_roots("y", (0.0, 0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    generator=st.sampled_from("xyz"),
    a=st.fractions(min_value=-3, max_value=3, max_denominator=8),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=8),
    order=st.permutations(range(3)),
)
def test_real_roots_of_unit_images_are_unit_axes(generator, a, b, order):
    # s^2 = v_g and n_a^2 + n_b^2 = 1 - v_g: every real root of a unit image
    # is a unit axis, so no root needs a unit-norm filter
    q = a * a + b * b + 1
    stereographic = (2 * a / q, 2 * b / q, (q - 2) / q)
    image = tuple(stereographic[i] for i in order)
    assert sum(v * v for v in image) == 1
    for root in real_axis_roots(generator, image):
        if all(isinstance(v, Fraction) for v in root):
            assert sum(v * v for v in root) == 1
        else:
            assert abs(math.sqrt(sum(float(v) ** 2 for v in root)) - 1.0) <= 1e-12


def test_nonlinear_level_over_irrational_root_is_rejected():
    # x = +-sqrt(2) fixed first, then y^2 = 2 over it: not solved by -c0/c1
    _, y, x = ring("y x", QQ, lex)
    with pytest.raises(StructuralError):
        groebner_real_solutions([x**2 - 2, y**2 - 2])


@pytest.mark.parametrize("system", ["z", "x", "y_target", "y_sign_flipped"])
def test_real_solutions_are_exact_rationals_on_the_cli_systems(system):
    generator = system[0]
    image = WITNESS_FRAME_MAP[:, "xyz".index(generator)]
    if system == "y_sign_flipped":
        image = -image
    roots = real_axis_roots(generator, image)
    assert len(roots) == {"z": 1, "x": 1, "y_target": 0, "y_sign_flipped": 2}[system]
    for root in roots:
        for v in root:
            assert isinstance(v, Fraction) and v in (-1, 0, 1)


def test_axis_system_equations_are_exact_rationals():
    # pinned strings: exact halves and integers, never float digits
    assert axis_constraint_report().findings["equations"] == {
        "z": [
            "n_x*n_z - n_y - 1 = 0",
            "n_x + n_y*n_z = 0",
            "-n_x**2/2 - n_y**2/2 + n_z**2/2 + 1/2 = 0",
        ],
        "x": [
            "n_x**2/2 - n_y**2/2 - n_z**2/2 + 1/2 = 0",
            "n_x*n_y - n_z = 0",
            "n_x*n_z + n_y - 1 = 0",
        ],
        "y_target": [
            "n_x*n_y + n_z = 0",
            "-n_x**2/2 + n_y**2/2 - n_z**2/2 + 3/2 = 0",
            "-n_x + n_y*n_z = 0",
        ],
        "y_sign_flipped": [
            "n_x*n_y + n_z = 0",
            "-n_x**2/2 + n_y**2/2 - n_z**2/2 - 1/2 = 0",
            "-n_x + n_y*n_z = 0",
        ],
    }


def test_axis_constraint_report_verdict():
    report = axis_constraint_report()
    assert report.verdict == "NO-CONSISTENT-AXIS"
    assert report.root_sets["z"] == [(0.0, -1.0, 0.0)]
    assert report.root_sets["x"] == [(0.0, 1.0, 0.0)]
    assert report.root_sets["y_target"] == []
    assert sorted(report.root_sets["y_sign_flipped"]) == [
        (0.0, -1.0, 0.0),
        (0.0, 1.0, 0.0),
    ]
    assert report.all_passed()


def test_axis_residual_of_an_empty_root_set_is_zero(monkeypatch):
    # only the z and x residuals are checked; with no root there is nothing
    # to miss, so each reads 0.0 instead of raising on an empty maximum
    monkeypatch.setattr(witness, "real_axis_roots", lambda generator, image: [])
    report = axis_constraint_report()
    assert all(report.root_sets[s] == [] for s in ("z", "x", "y_target", "y_sign_flipped"))
    residuals = {c.name: c.value for c in report.checks if c.name.endswith("-residual")}
    assert residuals == {"z-system-residual": 0.0, "x-system-residual": 0.0}


def test_batched_rotations_match_dense_conjugation():
    rng = np.random.default_rng(23)
    axes = rng.normal(size=(8, 3))
    times = rng.uniform(0, 2 * math.pi, size=5)
    rots = _batched_rotations(axes, times)
    for i, axis in enumerate(axes):
        r = np.linalg.norm(axis)
        unit = axis / r
        for j, t in enumerate(times):
            expected = np.column_stack(
                [dense_conjugation_image(unit, 2 * r * t, g) for g in "xyz"]
            )
            assert np.allclose(rots[i, j], expected, atol=1e-10)


def test_sector_reduction_matches_joint_evolution():
    # the search works on 2x2 mediator sectors; confirm the family-derived
    # axis maps against the full 4x4 evolution of constrained members
    from qwitness.dense import expm_hermitian, to_dense
    from qwitness.paulis import OperatorExpr
    from qwitness.conservation import classical_filtered_family, zm_sector_maps

    family = classical_filtered_family()
    expand = family.expansion_matrix().astype(float)
    maps = zm_sector_maps(family).astype(float)
    free = family.free_params()
    rng = np.random.default_rng(37)
    q_ops = {g: to_dense(OperatorExpr.from_label(l))
             for g, l in (("x", "XI"), ("y", "YI"), ("z", "ZI"))}
    for _ in range(10):
        free_vals = rng.uniform(-2, 2, size=len(free))
        t = rng.uniform(0, 2 * math.pi)
        full = free_vals @ expand
        h = member(family, dict(zip(family.params, full)))
        u = expm_hermitian(to_dense(h), t)
        rots = [
            _batched_rotations((free_vals @ maps[m])[None, 1:], np.array([t]))[0, 0]
            for m in range(2)
        ]
        for j, g in enumerate("xyz"):
            img = u.conj().T @ q_ops[g] @ u
            for m, rot in enumerate(rots):
                # mediator sector m occupies rows/cols {m, 2+m} in |qm> order
                block = img[np.ix_([m, 2 + m], [m, 2 + m])]
                expected = sum(
                    rot[i, j] * GEN[comp] for i, comp in enumerate("xyz")
                )
                assert np.abs(block - expected).max() < 1e-10
            # sectors never mix: the cross block vanishes
            assert np.abs(img[np.ix_([0, 2], [1, 3])]).max() < 1e-12


def test_batched_rotations_zero_axis_is_identity():
    rots = _batched_rotations(np.zeros((1, 3)), np.array([0.3, 0.9]))
    assert np.allclose(rots[0, 0], np.eye(3))
    assert np.allclose(rots[0, 1], np.eye(3))


def chunked_sector_kernel(axes, times):
    """Scaled residual and coherence of one sector, (B, T) each, in one pass."""
    r = np.linalg.norm(axes, axis=-1)
    degenerate = r < 1e-100
    unit = axes / np.where(degenerate, 1.0, r)[:, None]
    unit[degenerate] = np.array([0.0, 0.0, 1.0])
    ux, uy, uz = unit.T[:, :, None]
    phase = r[:, None] * times[None, :]
    cos2, sin2 = np.cos(phase) ** 2, np.sin(phase) ** 2
    res_sq = 8.0 * (cos2 * (ux + uz) ** 2 + ((ux - uz) ** 2 + 2.0 * uy * uy))
    coh = 2.0 * np.sqrt((cos2 + sin2 * (uz * uz)) * (sin2 * (ux * ux + uy * uy)))
    return res_sq, coh


def chunked_search_scan(samples, times, maps):
    """Oracle for ``_search_scan``: full (2048, T) residual and coherence
    arrays per chunk of the samples, scaled before the arg-extrema are taken;
    returns (value, sample row, time index)."""
    best = {
        "joint": (np.inf, None, None),
        "sector_plus": (np.inf, None, None),
        "sector_minus": (np.inf, None, None),
        "state_level": (-np.inf, None, None),
    }
    chunk = 2048
    for start in range(0, len(samples), chunk):
        part = samples[start : start + chunk]
        (res_plus, coh_plus), (res_minus, coh_minus) = (
            chunked_sector_kernel((part @ maps[m])[:, 1:], times) for m in range(2)
        )
        for key, grid_vals in (
            ("joint", res_plus + res_minus),
            ("sector_plus", res_plus),
            ("sector_minus", res_minus),
        ):
            idx = np.unravel_index(np.argmin(grid_vals), grid_vals.shape)
            val = float(np.sqrt(grid_vals[idx]))
            if val < best[key][0]:
                best[key] = (val, samples[start + idx[0]].tolist(), int(idx[1]))
        for coh in (coh_plus, coh_minus):
            idx = np.unravel_index(np.argmax(coh), coh.shape)
            val = float(coh[idx])
            if val > best["state_level"][0]:
                best["state_level"] = (val, samples[start + idx[0]].tolist(), int(idx[1]))
    return best


def full_search_scan(samples, times, maps):
    """Oracle for ``_search_scan``: the kernel on every row of every
    ``_sector_blocks`` block, with the scan's update code; returns (value,
    sample row, time index)."""
    time_points = len(times)
    best = {
        "joint": (np.inf, None, 0),
        "sector_plus": (np.inf, None, 0),
        "sector_minus": (np.inf, None, 0),
        "state_level": (-np.inf, None, 0),
    }
    for rows, blocks in _sector_blocks(samples, maps, time_points):
        (res_plus, pop_plus), (res_minus, pop_minus) = (
            _sector_kernel(blocks[m][:, 1:], times) for m in range(2)
        )
        for key, res in (
            ("joint", res_plus + res_minus),
            ("sector_plus", res_plus),
            ("sector_minus", res_minus),
        ):
            flat = int(np.argmin(res))
            val = float(np.sqrt(8.0 * res.flat[flat]))
            if val < best[key][0]:
                i, j = divmod(flat, time_points)
                best[key] = (val, rows[i].tolist(), j)
        for pop in (pop_plus, pop_minus):
            coh = 2.0 * np.sqrt(pop)
            flat = int(np.argmax(coh))
            val = float(coh.flat[flat])
            if val > best["state_level"][0]:
                i, j = divmod(flat, time_points)
                best["state_level"] = (val, rows[i].tolist(), j)
    return best


def test_sector_kernel_matches_rotation_tensor():
    # the closed form against the Rodrigues tensor and the coherence of
    # R|0> written out from its diagonal entries, on the search's time grid
    times = np.linspace(0.0, 2 * math.pi, 64)
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    reach = math.pi / 2 / times[16]  # r t = pi/2 on a grid point: res^2 = 0
    axes = np.vstack([
        np.random.default_rng(29).normal(size=(40, 3)),
        np.zeros(3),
        np.full(3, 1e-120),
        reach * diag,
        -reach * diag,
        [0.0, 0.0, 1.3],
        [0.0, 0.0, -0.7],
    ])
    res, pop = _sector_kernel(axes, times)
    # the kernel leaves the factor 8 and the 2 sqrt to its callers
    res_sq, coh = 8.0 * res, 2.0 * np.sqrt(pop)
    diff = _batched_rotations(axes, times) - WITNESS_FRAME_MAP
    assert np.abs(res_sq - 2.0 * np.sum(diff * diff, axis=(-2, -1))).max() <= 1e-12
    r = np.linalg.norm(axes, axis=-1)
    unit = axes / np.where(r < 1e-100, 1.0, r)[:, None]
    phase = r[:, None] * times[None, :]
    a00 = np.cos(phase) ** 2 + np.sin(phase) ** 2 * unit[:, None, 2] ** 2
    a10 = np.sin(phase) ** 2 * (unit[:, None, 0] ** 2 + unit[:, None, 1] ** 2)
    assert np.abs(coh - 2.0 * np.sqrt(a00 * a10)).max() <= 1e-12
    assert res_sq.min() >= 0.0
    assert res_sq[-4, 16] <= 1e-12 and res_sq[-3, 16] <= 1e-12
    assert np.all(res_sq[-6:-4] == 16.0)


def test_sector_kernel_skips_coherence_of_z_axes():
    # z axes (and the degenerate ones, which stand for e_z) keep |0> sharp:
    # their coherence is exactly +0, with no shortcut
    times = np.linspace(0.0, 2 * math.pi, 64)
    axes = np.array([[0.0, 0.0, 1.3], [-0.0, 0.0, -0.7], [0.0, 0.0, 0.0]])
    res, pop = _sector_kernel(axes, times)
    assert pop.shape == (3, 64)
    assert np.all(pop == 0.0) and not np.signbit(pop).any()
    expected, coh = chunked_sector_kernel(axes, times)
    assert np.array_equal(8.0 * res, expected)
    assert np.all(coh == 0.0)


def state_level_of_crafted_pops(
    monkeypatch, pop_plus, pop_minus, shape, crafted_certificates=True
):
    """``_search_scan``'s state-level best over one block of ``shape`` cells
    whose two sectors return the given ``pop`` arrays (zeros: all z axes).
    Sample k is the row [k, 1], which the sector maps send to the axis
    (k, m, 0) of sector m, so the crafted kernel reads the sector and the
    samples from the axes it gets.  The crafted certificate keeps every row;
    with ``crafted_certificates=False`` the real certificates of those axes
    decide."""
    pops = (pop_plus, pop_minus)

    def kernel(axes, times):
        pop = pops[int(axes[0, 1])]
        return np.ones((len(axes), len(times))), pop[axes[:, 0].astype(int)]

    def certificates(blocks, times, out):
        out[:] = -1e300

    monkeypatch.setattr(witness, "_sector_kernel", kernel)
    monkeypatch.setattr(
        witness, "_sector_certificates",
        certificates if crafted_certificates else _sector_certificates,
    )
    rows, time_points = shape
    samples = np.column_stack((np.arange(rows, dtype=float), np.ones(rows)))
    maps = np.zeros((2, 2, 4))
    maps[:, 0, 1] = 1.0  # n_x = k
    maps[1, 1, 2] = 1.0  # n_y = m
    best = witness._search_scan(samples, np.zeros(time_points), maps)
    return best["state_level"]


def test_search_scan_takes_the_first_entry_with_the_maximal_rooted_coherence(monkeypatch):
    above = np.nextafter(0.25, 1.0)  # sqrt rounds it to 0.5, the root of 0.25
    assert above > 0.25 and np.sqrt(above) == 0.5
    pop = np.array([[0.1, 0.25], [above, 0.25]])
    z2, z3, z13 = np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((1, 3))
    # plain argmax(pop) would take `above` at (sample 1, time 0)
    assert state_level_of_crafted_pops(monkeypatch, z2, pop, (2, 2)) == (1.0, [0.0, 1.0], 1)
    assert state_level_of_crafted_pops(monkeypatch, pop, pop, (2, 2)) == (1.0, [0.0, 1.0], 1)
    assert state_level_of_crafted_pops(monkeypatch, z3, z3, (2, 3)) == (0.0, [0.0, 1.0], 0)
    assert state_level_of_crafted_pops(
        monkeypatch, np.array([[0.3, 0.2, 0.3]]), z13, (1, 3)
    ) == (2.0 * math.sqrt(0.3), [0.0, 1.0], 0)
    # the real certificates of those axes keep every row of a zero coherence
    # (each ceiling is at least 2 sqrt(_POP_SLACK) > 0), so an all-z search
    # still reports its first sample at time 0
    assert state_level_of_crafted_pops(
        monkeypatch, z3, z3, (2, 3), crafted_certificates=False
    ) == (0.0, [0.0, 1.0], 0)


def test_search_scan_keeps_every_row_of_an_all_zero_coherence(monkeypatch):
    # rows (gamma, 0, 0, c) of the family put a z axis in both sectors, so
    # every coherence is exactly +0 and the state-level incumbent is 0.0; the
    # real coherence certificates all lie below -0.0, so every row is kept
    # and the first sample at time 0 carries the state-level best
    from qwitness.conservation import classical_filtered_family, zm_sector_maps

    maps = zm_sector_maps(classical_filtered_family()).astype(float)
    times = np.linspace(0.0, 2 * math.pi, 64)
    rows = np.zeros((300, 4))
    rows[:, [0, 3]] = np.random.default_rng(37).uniform(-2.0, 2.0, (300, 2))
    rows[5] = 0.0  # both axes zero: the degenerate e_z
    certificates = np.empty((4, 300))
    _sector_certificates(rows @ maps, times, certificates)
    assert (certificates[3] < 0.0).all()
    sizes = recorded_scan_blocks(monkeypatch)
    best = witness._search_scan(rows, times, maps)
    assert sizes == [4, 256, 44]
    assert best["state_level"] == (0.0, rows[0].tolist(), 0)
    assert best == full_search_scan(rows, times, maps)


def test_impossibility_search_budget_zero_is_unproven():
    report = classical_impossibility_search(**search_arguments(budget=0))
    assert report.verdict == "UNPROVEN"
    assert report.checks == []


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_impossibility_search_reports_positive_gap(seed):
    # 625 grid points + 2000 draws at 32 time points span three certificate
    # blocks of at most 1,024 rows
    report = classical_impossibility_search(
        **search_arguments(budget=2000, seed=seed, grid_points=5, time_points=32)
    )
    assert report.verdict == "POSITIVE-GAP"
    # the |0>-sector only reaches z-rotations, so 2*sqrt(2) bounds its
    # residual from below; the grid approaches it from above
    plus = report.findings["min_residual_mediator_plus"]
    assert plus >= 2 * math.sqrt(2) - 1e-9
    assert plus == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert report.findings["min_residual_joint"] >= 2 * math.sqrt(2) - 1e-9
    assert report.findings["min_residual_mediator_minus"] >= 0.0
    # state-level transfer is achievable in the |1> sector
    best = report.coherence_maxima["state_level_best"]
    assert 0.9 < best <= 1.0 + 1e-12


def test_impossibility_search_is_deterministic():
    # 81 grid points + 5000 draws at 16 time points span four full
    # 1024-row blocks and a ragged fifth
    kwargs = search_arguments(budget=5000, seed=11, grid_points=3, time_points=16)
    a = classical_impossibility_search(**kwargs)
    b = classical_impossibility_search(**kwargs)
    assert a == b


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # the CLI's default search
        dict(budget=1000, seed=5, grid_points=3),  # 1081 rows: two part-filled blocks
        dict(budget=100, seed=6, grid_points=2),  # 116 rows: less than one block
        dict(budget=700, seed=9, grid_points=1),  # a single grid point
        dict(budget=9000, seed=12, grid_points=3, time_points=2),  # 8192-row kernel blocks
        # 48 does not divide _BLOCK_CELLS: 341-row blocks of 16,368 cells
        dict(budget=1500, seed=13, grid_points=3, time_points=48),
        dict(seed=41),
        dict(seed=42),
        dict(param_range=1e-9),  # phases below 1e-7: the residuals tie to rounding
        dict(param_range=1e3),  # phases up to about 4e4
        dict(time_points=1),  # the single time 0
        dict(budget=40_000),
        # every row kept, so the kernel streams all 16,561 in 341-row blocks
        dict(time_points=48, param_range=1e-9),
    ],
)
def test_streamed_search_matches_chunked_oracle(monkeypatch, kwargs):
    # exact equality: the certificates, the blocks and the deferred scaling
    # change no value, argument or tie-break; ``kwargs`` override the CLI's
    # default search
    arguments = search_arguments(**kwargs)
    streamed = classical_impossibility_search(**arguments)
    for oracle in (full_search_scan, chunked_search_scan):
        monkeypatch.setattr(witness, "_search_scan", oracle)
        assert streamed == classical_impossibility_search(**arguments)


def test_search_scan_ties_go_to_the_first_occurrence(monkeypatch):
    # a repeated sample set ties every extremum across kernel blocks (256
    # kept rows at T = 64) and across the end of the first copy, where a
    # grid would end and its draws begin; the first copy must win, as
    # in the chunked oracle.  A fifth column, mapped to zero, tags each copy,
    # so the winning row tells the copies apart.  The copies sit a kernel
    # block apart: 256 rows of each have the plus axis (0, 0, gamma) with
    # gamma t = pi/2 at times[16], so their plus certificate is the floor
    # 2 sqrt(2) that their residual reaches, and every one is kept
    from qwitness.conservation import classical_filtered_family, zm_sector_maps

    maps = zm_sector_maps(classical_filtered_family()).astype(float)
    tagged_maps = np.concatenate((maps, np.zeros((2, 1, 4))), axis=1)
    times = np.linspace(0.0, 2 * math.pi, 64)
    rng = np.random.default_rng(31)
    once = rng.uniform(-2.0, 2.0, (300, 4))
    reach = np.column_stack((np.full(256, math.pi / 2 / times[16]), once[:256, 1:3], np.zeros(256)))
    once = np.vstack((once, reach))
    copy = [np.column_stack((once, np.full(len(once), k))) for k in range(3)]
    samples = np.vstack(copy)
    sizes = recorded_scan_blocks(monkeypatch)
    best = witness._search_scan(samples, times, tagged_maps)
    assert sum(sizes[1:]) >= 3 * 256
    assert best == chunked_search_scan(samples, times, tagged_maps)
    assert best == witness._search_scan(copy[0], times, tagged_maps)
    assert all(row[-1] == 0.0 for _, row, _ in best.values())
    untagged = witness._search_scan(once, times, maps)
    assert {key: (val, row[:-1], j) for key, (val, row, j) in best.items()} == untagged


def test_search_scan_keeps_rows_whose_certificate_ties_the_optimum():
    # the sector axes are a sample's last three entries.  The tie axis
    # reaches r t = pi/2 at times[16], where cos^2 A vanishes next to B and
    # its residual is exactly B; its certificate sqrt(8 B) then equals that
    # minimum, and so does the incumbent taken on it.  Its T = 0.36 keeps
    # its coherence ceiling below the e_x row's coherence, so only a
    # non-strict residual test keeps it, and its first copy must win
    times = np.linspace(0.0, 2 * math.pi, 64)
    tie = [0.0, *(math.pi / 2 / times[16] * np.array([0.6, 0.0, 0.8]))]
    samples = np.array([[0.0, 1.3, 0.0, 0.0], tie, tie, tie])
    maps = np.stack((np.eye(4), np.eye(4)))
    best = witness._search_scan(samples, times, maps)
    assert best == full_search_scan(samples, times, maps)
    certificates = np.empty((4, 1))
    _sector_certificates(np.array([[tie], [tie]]), times, certificates)
    for k, key in enumerate(("joint", "sector_plus", "sector_minus")):
        assert best[key] == (certificates[k, 0], tie, 16)
    assert best["state_level"][1] == [0.0, 1.3, 0.0, 0.0]


def certificate_test_blocks(times):
    """Sector blocks (2, n, 4) of random axes of every scale and of adversarial
    ones; the minus sector holds the plus sector's axes in reverse order."""
    rng = np.random.default_rng(5)

    def transverse(axes):
        r = np.linalg.norm(axes, axis=-1)
        unit = axes / np.where(r < 1e-100, 1.0, r)[:, None]
        return unit[:, 0] ** 2 + unit[:, 1] ** 2

    # T exactly 1/2 and exactly 1, as the kernel rounds it
    cone = rng.normal(size=(2000, 3))
    cone[:, 2] = np.hypot(cone[:, 0], cone[:, 1])
    half = cone[transverse(cone) == 0.5][:8]
    flat = rng.normal(size=(2000, 3))
    flat[:, 2] = 0.0
    one = flat[transverse(flat) == 1.0][:8]
    assert len(half) == len(one) == 8
    # unit axes whose phase meets alpha or pi - alpha, where p = 1/2, on a
    # grid point, and the rotation-tensor test's axes with r t = pi/2 there
    tilted = rng.normal(size=(400, 3))
    tilted /= np.linalg.norm(tilted, axis=1)[:, None]
    tilted = tilted[transverse(tilted) >= 0.5]
    alpha = np.arcsin(np.sqrt(0.5 / transverse(tilted)))[:, None]
    reach = math.pi / 2 / times[16]
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)

    def unit(axes):
        return axes / np.linalg.norm(axes, axis=1)[:, None]

    axes = np.vstack([
        rng.normal(size=(300, 3)),
        rng.normal(size=(300, 3)) * 1e-9,
        rng.normal(size=(300, 3)) * 1e3,
        rng.normal(size=(50, 3)) * 1e8,
        np.zeros(3),
        np.full(3, 1e-120),
        reach * diag,
        -reach * diag,
        [reach, 0.0, 0.0],
        [0.0, reach, 0.0],
        half,
        7.3 * half,
        one,
        1e-3 * one,
        reach * unit(half),
        0.5 * reach * unit(one),
        tilted * alpha / times[16],
        tilted * (math.pi - alpha) / times[16],
    ])
    blocks = np.zeros((2, len(axes), 4))
    blocks[0, :, 1:], blocks[1, :, 1:] = axes, axes[::-1]
    return blocks


def test_sector_certificates_bound_every_kernel_cell():
    # lb below every residual cell and ub above every coherence cell of the
    # kernel, as the scan compares them (after the root)
    times = np.linspace(0.0, 2 * math.pi, 64)
    blocks = certificate_test_blocks(times)
    n = blocks.shape[1]
    # written through a column slice, as the scan writes one block
    store = np.full((4, n + 2), np.nan)
    _sector_certificates(blocks, times, store[:, 1:-1])
    assert np.isnan(store[:, [0, -1]]).all()
    lb_joint, lb_plus, lb_minus, neg_ub = store[:, 1:-1]
    (res_plus, pop_plus), (res_minus, pop_minus) = (
        _sector_kernel(blocks[m][:, 1:], times) for m in range(2)
    )
    assert np.all(lb_joint <= np.sqrt(8.0 * (res_plus + res_minus)).min(axis=1))
    assert np.all(lb_plus <= np.sqrt(8.0 * res_plus).min(axis=1))
    assert np.all(lb_minus <= np.sqrt(8.0 * res_minus).min(axis=1))
    coh = np.maximum(*(2.0 * np.sqrt(pop) for pop in (pop_plus, pop_minus)))
    assert coh.max() > 1.0  # rounding lifts some cells above the exact maximum
    assert np.all(-neg_ub >= coh.max(axis=1))


class _RecordedMaximum:
    """Stands in for the numpy module and records every ``maximum`` call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return np.maximum(*args, **kwargs)


def test_certificate_lattice_gap_is_below_its_50_digit_value(monkeypatch):
    # g = pi - 2 alpha - slack stands for min(2 alpha, pi - 2 alpha) - slack:
    # for T >= 1/2 the minimum is pi - 2 alpha, and where the float T rounds
    # above 1 the two differ by far less than the slack (at least 2^-44).
    # The referee is min(2 alpha, pi - 2 alpha) at 50 digits, from the exact
    # squares of the unit axis that the certificates use.
    rng = np.random.default_rng(8)
    theta = np.linspace(math.pi / 4, math.pi / 2, 42)[1:-1]  # T = sin^2(theta) in (1/2, 1)
    spread = np.column_stack([np.sin(theta), np.zeros(40), np.cos(theta)])
    spread *= rng.uniform(0.2, 3.0, size=(40, 1))
    planar = np.column_stack([rng.normal(size=(100_000, 2)), np.zeros(100_000)])
    _, unit = witness._sector_axes(planar)
    above = planar[np.argsort(unit[:, 0] * unit[:, 0] + unit[:, 1] * unit[:, 1])[-300:]]
    axes = np.vstack([
        [[0.5, 0.5, 0.7071067811865476], [-0.5, 0.5, -0.7071067811865477]],  # T = 1/2
        [[1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.25, 0.0], [-2.0, 0.0, 0.0]],  # T = 1
        spread,
        above,
    ])
    r, unit = witness._sector_axes(axes)
    transverse = unit[:, 0] * unit[:, 0] + unit[:, 1] * unit[:, 1]
    assert (transverse[:2] == 0.5).all() and (transverse[2:6] == 1.0).all()
    assert (transverse[-300:] > 1.0).all()
    with mpmath.workdps(50):
        exact_t = [mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2 for x, y in unit[:, :2].tolist()]
        assert min(exact_t) >= 0.5
        exact_alpha = [mpmath.asin(mpmath.sqrt(1 / (2 * t))) for t in exact_t]
        referee = [min(2 * a, mpmath.pi - 2 * a) for a in exact_alpha]
    # one time per row puts a phase on that row's lattice +-alpha + pi Z, so
    # its distance d is 0 and the recorded np.maximum(d, g - d) reads g
    times = np.array([float(a) for a in exact_alpha]) / r
    blocks = np.stack([np.column_stack([np.zeros(len(axes)), axes])] * 2)
    recorder = _RecordedMaximum()
    monkeypatch.setattr(witness, "np", recorder)
    _sector_certificates(blocks, times, np.empty((4, len(axes))))
    monkeypatch.undo()
    # the one call on two (2 B,) vectors that writes no out= buffer
    (d, g), = [
        args for args, kwargs in recorder.calls
        if not kwargs and np.shape(args[1]) == (2 * len(axes),)
    ]
    assert (d == 0.0).all()
    with mpmath.workdps(50):
        assert all(mpmath.mpf(x) <= ref for x, ref in zip(g.tolist(), referee * 2))
    # in float, min(2 alpha, pi - 2 alpha) is 2 alpha only on rows whose T
    # rounds above 1, and there by a few ulps of pi/2 at most
    alpha = np.arcsin(np.sqrt(0.5 / np.maximum(transverse, 0.5)))
    excess = (math.pi - 2.0 * alpha) - 2.0 * alpha
    assert (excess[: -300] <= 0.0).all()
    assert 0.0 < excess.max() <= 2.0**-49


def default_scan_inputs(monkeypatch):
    """The (samples, times, maps) the CLI's default search hands ``_search_scan``."""
    seen = []
    scan = witness._search_scan
    with monkeypatch.context() as mp:
        mp.setattr(witness, "_search_scan", lambda *args: seen.append(args) or scan(*args))
        classical_impossibility_search(**search_arguments())
    return seen[0]


def recorded_scan_blocks(monkeypatch):
    """A list that collects the row count of every ``_scan_block`` call."""
    sizes = []
    scan_block = witness._scan_block

    def recorded(best, rows, blocks, times):
        sizes.append(len(rows))
        scan_block(best, rows, blocks, times)

    monkeypatch.setattr(witness, "_scan_block", recorded)
    return sizes


def test_sector_certificates_equal_the_broadcast_certificates(monkeypatch):
    # the running extrema over time change no certificate: on the default
    # search's 16,561 rows in the scan's 1,024-row blocks, and on the bound
    # test's axes
    samples, times, maps = default_scan_inputs(monkeypatch)
    cases = [blocks for _, blocks in _sector_blocks(samples, maps, 16)]
    assert sum(b.shape[1] for b in cases) == 16_561 and cases[0].shape[1] == 1024
    cases.append(certificate_test_blocks(times))
    for blocks in cases:
        n = blocks.shape[1]
        got, want = np.empty((4, n)), np.empty((4, n))
        _sector_certificates(blocks, times, got)
        broadcast_certificates(blocks, times, want, np.empty((2, 2 * n * len(times))))
        assert np.array_equal(got, want)


def test_search_scan_runs_the_kernel_on_the_incumbents_then_the_kept_rows(monkeypatch):
    # the default search runs the kernel on its four incumbent rows, then on
    # the 151 rows whose certificate reaches or ties an incumbent
    samples, times, maps = default_scan_inputs(monkeypatch)
    sizes = recorded_scan_blocks(monkeypatch)
    witness._search_scan(samples, times, maps)
    assert sizes == [4, 151]


def test_search_scan_streams_every_kept_row_in_kernel_blocks(monkeypatch):
    # worst case: each of the default search's 16,561 rows is the tie row of
    # test_search_scan_keeps_rows_whose_certificate_ties_the_optimum, whose
    # certificates equal its incumbents, so every row is kept.  The kept rows
    # stream in 256-row kernel blocks at T = 64; one (T, 16,561) array would
    # take 8.1 MiB
    times = np.linspace(0.0, 2 * math.pi, 64)
    tie = [0.0, *(math.pi / 2 / times[16] * np.array([0.6, 0.0, 0.8]))]
    samples = np.tile(tie, (16_561, 1))
    maps = np.stack((np.eye(4), np.eye(4)))
    assert witness._search_scan(samples, times, maps) == full_search_scan(samples, times, maps)
    sizes = recorded_scan_blocks(monkeypatch)
    tracemalloc.start()
    try:
        witness._search_scan(samples, times, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    step = _BLOCK_CELLS // len(times)
    assert sizes == [4] + [step] * (16_561 // step) + [16_561 % step]
    assert peak <= 4 * 2**20


def test_impossibility_search_peak_memory_is_bounded():
    # blocks of _BLOCK_CELLS cells keep the search's temporaries small; the
    # (2048, 64) arrays of a one-pass evaluation of the CLI's default search
    # peak at about 13 MiB
    kwargs = search_arguments()
    classical_impossibility_search(**kwargs)
    tracemalloc.start()
    try:
        classical_impossibility_search(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_impossibility_search_holds_one_copy_of_its_samples():
    # at budget 100,000 the 106,561 samples and their (4, N) certificates
    # take 3.25 MiB each; the draws beside the samples would add 3.05 MiB
    # more (about 10.3 MiB in all)
    tracemalloc.start()
    try:
        classical_impossibility_search(**search_arguments(budget=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_classical_family_members_never_move_the_mediator():
    # [H, Z_M] = 0 exactly in symbolic form for every filtered member
    from qwitness.paulis import OperatorExpr, commutator
    from qwitness.conservation import classical_filtered_family

    family = classical_filtered_family()
    rng = np.random.default_rng(29)
    z_m = OperatorExpr.from_label("IZ")
    for _ in range(50):
        h, _vec = random_member(family, rng)
        assert is_zero(commutator(h, z_m))


def test_exchange_hamiltonian_is_twice_xx_plus_yy():
    h = exchange_hamiltonian()
    assert h.coeff("XX") == pytest.approx(2.0)
    assert h.coeff("YY") == pytest.approx(2.0)
    assert len(h.labels()) == 2


def test_quantum_demo_swap():
    report, _ = quantum_demo()
    assert report.all_passed()
    assert np.allclose(report.findings["bloch_plus"], [1, 0, 0], atol=1e-12)
    assert np.allclose(report.findings["bloch_minus"], [-1, 0, 0], atol=1e-12)


def test_exchange_trajectory_equals_the_per_time_loop():
    _, report = quantum_demo()
    assert report.findings["trajectory"] == exchange_trajectory_loop()


def test_quantum_demo_exchange():
    _, report = quantum_demo()
    assert report.all_passed()
    # H = 2(XX + YY) on |0>|+> gives coherence |sin(4t)|: full at t = pi/8
    traj = report.findings["trajectory"]
    coh = {t: math.hypot(x, y) for t, x, y, _ in traj}
    assert max(coh.values()) == pytest.approx(1.0, abs=1e-12)
    assert coh[0.0] == pytest.approx(0.0, abs=1e-12)
    for t, x, y, _ in traj:
        assert math.hypot(x, y) == pytest.approx(abs(math.sin(4 * t)), abs=1e-10)


def test_coherence_examples():
    assert coherence(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    plus = 0.5 * (PAULI_MATS["I"] + PAULI_MATS["X"])
    assert coherence(plus) == pytest.approx(1.0)
    assert coherence(np.eye(2) / 2) == pytest.approx(0.0)
    with pytest.raises(ContractViolation):
        coherence(np.diag([2.0, -1.0]).astype(complex))


def test_coherence_invariant_under_z_rotations():
    rng = np.random.default_rng(6)
    for _ in range(25):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        rho = np.outer(amp, amp.conj())
        phi = rng.uniform(0, 2 * math.pi)
        u = np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)])
        assert coherence(u @ rho @ u.conj().T) == pytest.approx(coherence(rho), abs=1e-12)
