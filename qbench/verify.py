"""Output validation for one ``qwitness all`` verification.

A verification passes when it exits 0, every check in ``summary.json``
passes, the check names are exactly the expected set, and both search minima
sit at or above their closed forms.  Values are never compared against
frozen last digits: a legitimate speed-up may move the 16th digit.  Across
repetitions at one seed the artifacts must be byte-identical apart from
``config.out_dir``; ``canonical_artifacts`` gives the bytes to compare.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SEARCH_CHECKS = frozenset({
    "joint-residual-gap", "plus-sector-residual-gap",
    "final-distance-gap", "operator-image-gap",
})
EXACT_CHECKS = frozenset({
    "descriptor-cells-mismatching", "descriptor-worst-deviation",
    "additive-commutant-dimension", "additive-commutant-dimension-lower",
    "additive-commutant-projection", "additive-reference-projection",
    "nonadditive-commutant-rank-consistency", "classical-family-constraints",
    "channel-family-constraints", "swap-conserves-nonadditive", "xq-breaks-additive",
    "network-hamiltonian-symbolic-conservation",
    "constrained-members-generate-conserving-unitaries",
    "z-system-residual", "x-system-residual", "no-common-axis",
    "z-system-root-set", "x-system-root-set",
    "swap-maps-to-plus", "swap-maps-to-minus", "swap-conserves-additive-charge",
    "exchange-conserves-additive-charge", "exchange-creates-coherence",
    "witness-independent-of-mediator", "xi-coefficient-law", "trace-distance-monotone",
    "recursion-matches-exact-step", "partial-swap-conserves-nonadditive",
    "bosonic-hamiltonian-hermitian", "bosonic-evolution-unitary",
    "two-level-generators-close-su2", "two-level-reduction-matches-network",
    "oscillator-induces-coherence", "coherence-bounded",
})

# |+> never leaves the equator under a classical reservoir: D >= 1/sqrt(2).
RESERVOIR_FLOOR = 1 / math.sqrt(2) - 1e-9
# In the Z_M = +1 sector the family only rotates Q about z: residual >= 2 sqrt(2).
PLUS_SECTOR_FLOOR = 2 * math.sqrt(2) - 1e-9


def expected_checks(searches: bool) -> frozenset[str]:
    """Check names of ``qwitness all``; the searches add four (budget > 0)."""
    return EXACT_CHECKS | SEARCH_CHECKS if searches else EXACT_CHECKS


def _load(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"


def validate(exit_code: int, out_dir: Path, searches: bool) -> list[str]:
    """Problems found in one verification's exit code and artifacts; [] if none."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    summary, err = _load(out_dir / "summary.json")
    if err:
        return problems + [err]
    try:
        names = [c["name"] for c in summary["checks"]]
    except (KeyError, TypeError):
        return problems + ["summary.json: malformed check list"]
    expected = expected_checks(searches)
    if len(names) != len(set(names)):
        problems.append("duplicate check names")
    if missing := sorted(expected - set(names)):
        problems.append(f"missing checks {missing}")
    if unexpected := sorted(set(names) - expected):
        problems.append(f"unexpected checks {unexpected}")
    if failing := [c["name"] for c in summary["checks"] if c.get("passed") is not True]:
        problems.append(f"failing checks {failing}")
    if summary.get("verdict") != "PASS":
        problems.append(f"verdict {summary.get('verdict')!r}")
    if searches:
        for filename, key, floor in (
            ("classical_reservoir.json", "min_final_trace_distance", RESERVOIR_FLOOR),
            ("impossibility_search.json", "min_residual_mediator_plus", PLUS_SECTOR_FLOOR),
        ):
            report, err = _load(out_dir / filename)
            value = report["findings"].get(key) if report else None
            if err:
                problems.append(err)
            elif not (isinstance(value, float) and value >= floor):
                problems.append(f"{key} = {value} below closed form {floor + 1e-9}")
    return problems


def counters(out_dir: Path) -> dict[str, int]:
    """Deterministic work counts read from the search reports' parameters and findings."""
    search, _ = _load(out_dir / "impossibility_search.json")
    reservoir, _ = _load(out_dir / "classical_reservoir.json")
    p = search["parameters"]
    points = 0
    if p["budget"] > 0:  # the search returns before sampling otherwise
        points = (p["grid_points"] ** len(p["free_params"]) + p["budget"]) * p["time_points"]
    found = reservoir["findings"]
    admissible = found.get("admissible_samples", 0)
    return {
        "witness.search.points": points,
        "homogenizer.reservoir.attempted": admissible + sum(found.get("skipped", {}).values()),
        "homogenizer.reservoir.admissible": admissible,
    }


def canonical_artifacts(out_dir: Path) -> dict[str, bytes]:
    """Every artifact's bytes, with ``config.out_dir`` dropped from the summary."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
    if "summary.json" in files:
        summary = json.loads(files["summary.json"])
        summary["config"].pop("out_dir", None)
        files["summary.json"] = json.dumps(summary, sort_keys=True).encode()
    return files
