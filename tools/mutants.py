"""Run each named source mutation against the tests that must kill it.

Usage: ``python tools/mutants.py`` from anywhere; it takes no flags.

For every mutant in ``MUTANTS`` the repository, without ``.git``, is copied
to a temporary directory, one exact ``old`` -> ``new`` string replacement is
made in one file under ``src/`` (``old`` must occur there exactly once), and
the mutant's tests run in that copy.  A mutant is killed when its tests fail
and survives when they pass; any other pytest outcome (a test that is not
found, a collection error, a skipped test) stops the script and names it.  The unmutated copy must pass
every named test first.  Results go to ``tools/mutants.json`` beside this
script, and the exit code is 1 when any mutant survived.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "mutants.json"

_CONFIG_PIN = "tests/test_cli.py::test_run_config_defaults_are_the_papers_settings"
_WIRING_PIN = "tests/test_cli.py::test_experiments_hand_the_drivers_their_config_fields"
_RESERVOIR_TIES = "tests/test_homogenizer.py::test_reservoir_scan_ties_go_to_the_first_occurrence"
_SEARCH_TIES = "tests/test_witness.py::test_search_scan_ties_go_to_the_first_occurrence"
_ROOTED_ARGMAX = (
    "tests/test_witness.py::"
    "test_search_scan_takes_the_first_entry_with_the_maximal_rooted_coherence"
)
_CERTIFICATE_TIES = (
    "tests/test_witness.py::test_search_scan_keeps_rows_whose_certificate_ties_the_optimum"
)
_CERTIFICATE_BOUNDS = "tests/test_witness.py::test_sector_certificates_bound_every_kernel_cell"
_OSCILLATOR_LOOP = "tests/test_oscillator.py::test_oscillator_witness_run_equals_the_per_time_loop"
_LEDGER = "tests/test_artifact_ledger.py::test_artifacts_keep_their_ledger_bytes"
_SEARCH_MEMORY = "tests/test_witness.py::test_impossibility_search_holds_one_copy_of_its_samples"
_PLUS_GUARD = (
    "tests/test_homogenizer.py::test_reservoir_scan_refuses_a_plus_block_with_an_i_x_or_y_part"
)

#: name, file under src/qwitness, old string, new string, tests that must fail
MUTANTS = [
    ("search-plain-argmax-of-pop", "witness.py",
     "flat = int(np.argmax(coh))", "flat = int(np.argmax(pop))", [_ROOTED_ARGMAX]),
    ("runconfig-budget-halved", "cli.py",
     "budget: int = 10_000", "budget: int = 5_000", [_CONFIG_PIN]),
    ("runconfig-time-points-halved", "cli.py",
     "time_points: int = 64", "time_points: int = 32", [_CONFIG_PIN]),
    ("runconfig-eta-points-halved", "cli.py",
     "eta_points: int = 16", "eta_points: int = 8", [_CONFIG_PIN]),
    ("reservoir-fed-n-steps", "cli.py",
     "n_steps=cfg.reservoir_steps", "n_steps=cfg.n_steps", [_WIRING_PIN]),
    ("reservoir-gap-best-le", "homogenizer.py",
     "if gap[i] < gap_best[0]:", "if gap[i] <= gap_best[0]:", [_RESERVOIR_TIES]),
    ("search-residual-best-le", "witness.py",
     "if val < best[key][0]:", "if val <= best[key][0]:", [_SEARCH_TIES]),
    ("search-state-level-best-ge", "witness.py",
     'if val > best["state_level"][0]:', 'if val >= best["state_level"][0]:', [_SEARCH_TIES]),
    ("search-report-runs-at-budget-zero", "conservation.py",
     "if budget > 0:", "if budget >= 0:",
     ["tests/test_witness.py::test_impossibility_search_budget_zero_is_unproven"]),
    ("search-draws-kept-alive", "witness.py",
     "        del draws  # the scan holds one copy of the samples\n", "", [_SEARCH_MEMORY]),
    ("search-certificate-keep-strict", "witness.py",
     "keep = (certificates <= limits", "keep = (certificates < limits", [_CERTIFICATE_TIES]),
    ("search-certificate-running-max-as-min", "witness.py",
     "np.maximum(f_max, np.abs(f, out=f), out=f_max)",
     "np.minimum(f_max, np.abs(f, out=f), out=f_max)", [_CERTIFICATE_BOUNDS]),
    ("search-certificate-phase-slack-dropped", "witness.py",
     "slack = _PHASE_SLACK * (", "slack = 0.0 * (", [_CERTIFICATE_BOUNDS]),
    ("search-certificate-pop-slack-dropped", "witness.py",
     "0.25 - m * m + _POP_SLACK", "0.25 - m * m", [_CERTIFICATE_BOUNDS]),
    ("search-certificate-gap-slack-dropped", "witness.py",
     "g = math.pi - 2.0 * alpha - slack", "g = math.pi - 2.0 * alpha",
     ["tests/test_witness.py::test_certificate_lattice_gap_is_below_its_50_digit_value"]),
    ("search-certificate-cos2-slack-dropped", "witness.py",
     "floor = np.sin(x) ** 2 * (1.0 - _COS2_SLACK)", "floor = np.sin(x) ** 2",
     ["tests/test_witness.py::test_sector_certificates_equal_the_broadcast_certificates"]),
    ("axis-residual-empty-default-one", "witness.py",
     "default=0.0,  # an empty root set has no residual",
     "default=1.0,  # an empty root set has no residual",
     ["tests/test_witness.py::test_axis_residual_of_an_empty_root_set_is_zero"]),
    ("search-kernel-cross-term-sign", "witness.py",
     "res = cos2 * (ux + uz) ** 2", "res = cos2 * (ux - uz) ** 2",
     ["tests/test_witness.py::test_sector_kernel_matches_rotation_tensor"]),
    ("axis-root-sign", "witness.py",
     "root[a], root[b] = (n_g * v_a + v_b) / w,", "root[a], root[b] = (n_g * v_a - v_b) / w,",
     ["tests/test_witness.py::test_x_system_root_set",
      "tests/test_witness.py::test_roots_satisfy_their_systems_after_substitution"]),
    ("rref-pivot-among-reduced-rows", "conservation.py",
     "for i in range(r, len(rows)) if rows[i][j]", "for i in range(len(rows)) if rows[i][j]",
     ["tests/test_conservation.py::test_rref_matches_sympy_on_small_integer_matrices"]),
    ("sector-map-hermiticity-cut-doubled", "conservation.py",
     "if abs(coeff.imag) > 1e-13:", "if abs(coeff.imag) > 2e-13:",
     ["tests/test_conservation.py::test_zm_sector_maps_rejects_each_malformed_basis"]),
    ("sector-map-sign", "conservation.py",
     '-term if label[1] == "Z" else term', 'term if label[1] == "Z" else -term',
     ["tests/test_conservation.py::test_zm_sector_maps_reproduce_dense_blocks"]),
    ("expansion-pivot-last", "conservation.py",
     "pivot, *others = rel", "*others, pivot = rel",
     ["tests/test_conservation.py::"
      "test_expansion_matrix_maps_each_pivot_to_minus_the_rest_of_its_row"]),
    ("rref-entries-rounded", "conservation.py",
     "Fraction(x) if x else", "Fraction(round(x)) if x else",
     ["tests/test_conservation.py::test_rref_matches_sympy_on_small_integer_matrices"]),
    ("rref-zero-skip-reads-x", "conservation.py",
     "x - f * y if y else x", "x - f * y if x else x",
     ["tests/test_conservation.py::test_rref_fills_in_entries_that_start_at_zero"]),
    ("span-rank-gap-absolute", "conservation.py",
     "return float(rank(reference + candidates) - rank(reference))",
     "return float(rank(reference + candidates))",
     ["tests/test_conservation.py::"
      "test_additive_commutant_is_six_dimensional_and_matches_reference"]),
    ("expansion-lead-guard-dropped", "conservation.py",
     "if rel[pivot] != 1 or sum(", "if sum(",
     ["tests/test_conservation.py::"
      "test_expansion_matrix_refuses_constraints_that_are_not_reduced_rows[lead-two]"]),
    ("z-convention-flipped", "dense.py",
     '"Z": np.array([[1, 0], [0, -1]], dtype=complex)',
     '"Z": np.array([[-1, 0], [0, 1]], dtype=complex)',
     ["tests/test_circuit.py::test_cphase_matrix"]),
    ("controlled-gate-projectors-swapped", "circuit.py",
     "0.5 * (one + mz) + 0.5 * ((one - mz) @", "0.5 * (one - mz) + 0.5 * ((one + mz) @",
     ["tests/test_circuit.py::test_cnot_flips_q_when_m_is_one"]),
    ("non-finite-angle-only-nan", "circuit.py",
     "if not math.isfinite(angle):", "if math.isnan(angle):",
     ["tests/test_circuit.py::test_non_finite_angle_is_a_structural_error"]),
    ("failed-check-exits-2", "cli.py",
     "return (0 if passed else 1), checks", "return (0 if passed else 2), checks",
     ["tests/test_cli.py::test_cli_failed_check_exits_1_and_writes_every_artifact"]),
    ("oscillator-coherence-np-abs", "oscillator.py",
     "coherence = 2 * np.hypot(rho_01.real, rho_01.imag)", "coherence = 2 * np.abs(rho_01)",
     [_OSCILLATOR_LOOP]),
    ("frobenius-norm-by-axis", "dense.py",
     "norm = np.sqrt(squares[..., 0, 0])", "norm = np.linalg.norm(mat, axis=(-2, -1))",
     ["tests/test_dense.py::test_stacked_norms_and_distances_equal_one_matrix_at_a_time[2-0]"]),
    ("homogenizer-stack-kron-transposed", "homogenizer.py",
     "kron = states[-1][..., :, None, :, None] * xi[..., None, :, None, :]",
     "kron = states[-1][..., None, :, None, :] * xi[..., :, None, :, None]",
     ["tests/test_homogenizer.py::test_homogenize_step_matches_closed_recursion"]),
    ("homogenizer-plus-guard-skips-i", "homogenizer.py",
     "if blocks[0, :, :3].any():", "if blocks[0, :, 1:3].any():", [f"{_PLUS_GUARD}[0]"]),
    ("homogenizer-plus-guard-i-only", "homogenizer.py",
     "if blocks[0, :, :3].any():", "if blocks[0, :, :1].any():", [f"{_PLUS_GUARD}[1]"]),
    ("reservoir-distinct-first-nz-only", "homogenizer.py",
     "nz = _distinct(np.concatenate((nz, blocks[0, :, 3])))",
     "nz = _distinct(np.concatenate((nz, blocks[0, :1, 3])))",
     ["tests/test_homogenizer.py::test_reservoir_scan_runs_the_kernels_on_each_admissible_block"]),
    ("surface-normals-before-signs", "homogenizer.py",
     "    sign = rng.choice([-1.0, 1.0], size=count)           # gamma + c\n"
     "    for start in range(0, count, step):\n"
     "        s = sign[start : start + step]\n"
     "        vec = rng.normal(size=(len(s), 3))\n",
     "    for start in range(0, count, step):\n"
     "        vec = rng.normal(size=(min(step, count - start), 3))\n"
     "        s = rng.choice([-1.0, 1.0], size=len(vec))\n",
     ["tests/test_homogenizer.py::test_surface_draws_in_blocks_equal_the_one_call_draws"]),
    ("homogenizer-walk-d01-conjugated", "homogenizer.py",
     "d01 = psi0 * psi0", "d01 = psi0 * psi0.conj()",
     ["tests/test_homogenizer.py::test_final_distances_equal_the_two_recurrence_walk_bit_for_bit"]),
    ("homogenizer-grid-residual-min", "cli.py",
     "homog.nonadditive_conservation_residual(eta_grid).max()",
     "homog.nonadditive_conservation_residual(eta_grid).min()",
     ["tests/test_homogenizer.py::test_conservation_check_reports_the_grid_maximum"]),
    ("pauli-label-strip-drops-z", "paulis.py",
     "label.strip(PAULI_CHARS)", 'label.strip("IXY")',
     ["tests/test_paulis.py::test_structural_errors"]),
    ("site-product-phase-flipped", "paulis.py",
     '("X", "Y"): (1j, "Z"),', '("X", "Y"): (-1j, "Z"),',
     ["tests/test_paulis.py::test_single_site_group_table_matches_dense_products"]),
    ("json-keys-unsorted", "reports.py",
     "indent=2, sort_keys=True,", "indent=2, sort_keys=False,",
     ["tests/test_reports.py::test_write_json_writes_a_report_with_its_checks"]),
    ("json-complex-parts-swapped", "reports.py",
     "return [obj.real, obj.imag]", "return [obj.imag, obj.real]",
     ["tests/test_reports.py::test_write_json_writes_a_report_with_its_checks"]),
    ("oscillator-maxima-int-keys", "cli.py",
     "maxima[str(level)] = ", "maxima[level] = ",
     ["tests/test_cli.py::test_oscillator_maxima_keys_are_written_in_text_order"]),
    ("descriptor-worst-deviation-threshold-doubled", "cli.py",
     '"descriptor-worst-deviation", worst, "<", 1e-12,',
     '"descriptor-worst-deviation", worst, "<", 2e-12,', [_LEDGER]),
    ("coherence-bounded-takes-the-min", "cli.py",
     '"coherence-bounded", max(maxima.values())', '"coherence-bounded", min(maxima.values())',
     [_LEDGER]),
    ("oscillator-charge-zq-weight-two", "cli.py",
     'OperatorExpr({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}), d_b',
     'OperatorExpr({"ZI": 2.0, "IZ": 1.0, "ZZ": 1.0}), d_b', [_LEDGER]),
    ("axis-residual-min-over-entries", "witness.py",
     "generator) - image).max()", "generator) - image).min()", [_LEDGER]),
    ("config-error-exits-1", "cli.py",
     'print(f"config error: {exc}", file=sys.stderr)\n        return 2',
     'print(f"config error: {exc}", file=sys.stderr)\n        return 1',
     ["tests/test_cli.py::test_cli_bad_config_returns_2"]),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(
        ROOT, dest,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_build",
        ),
    )


def _run_tests(tree: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    # a skipped test passes nothing: with exit code 0 it would record a survivor
    skipped = [line.partition(" SKIPPED")[0] for line in proc.stdout.splitlines()
               if " SKIPPED" in line]
    if skipped:
        sys.exit(f"pytest skipped {', '.join(skipped)} in {tree}:\n{proc.stdout}")
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else is no verdict
        sys.exit(f"pytest exited {proc.returncode} in {tree}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qwitness-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if _run_tests(clean, named) != 0:
            sys.exit("the unmutated tree fails a named test")
        results = []
        for name, path, old, new, tests in MUTANTS:
            tree = Path(tmp) / name
            _copy_tree(tree)
            source = tree / "src" / "qwitness" / path
            text = source.read_text()
            count = text.count(old)
            if count != 1:
                sys.exit(f"{name}: {old!r} occurs {count} times in src/qwitness/{path}")
            source.write_text(text.replace(old, new))
            outcome = "killed" if _run_tests(tree, tests) else "survived"
            shutil.rmtree(tree)
            print(f"{outcome:8} {name}")
            results.append({
                "name": name, "file": f"src/qwitness/{path}", "old": old, "new": new,
                "tests": tests, "result": outcome,
            })
    RECORD.write_text(json.dumps({"mutants": results}, indent=2) + "\n")
    survived = [r["name"] for r in results if r["result"] == "survived"]
    print(f"{len(results) - len(survived)}/{len(results)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
