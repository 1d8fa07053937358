"""The benchmark's output validator must reject broken verifications.

Without these, a validator that accepts everything would keep fail_ratio at 0
whatever the program did.
"""

import json
import math

import pytest

import verify


def write_outputs(out, searches=True, **findings):
    """A passing ``qwitness all`` artifact set, with search findings overridable."""
    out.mkdir()
    names = sorted(verify.expected_checks(searches))
    checks = [{"name": n, "passed": True, "value": 0.0, "threshold": 1.0, "op": "<",
               "anchor": n} for n in names]
    (out / "summary.json").write_text(json.dumps({
        "config": {"out_dir": str(out), "seed": 7},
        "checks": checks,
        "verdict": "PASS",
    }))
    budget = 10_000 if searches else 0
    reservoir = {"admissible_samples": 10_012,
                 "skipped": {"grid": 6549, "random": 10_000, "surface": 0},
                 "min_final_trace_distance": 0.7071067811865471}
    search = {"min_residual_mediator_plus": 2.8284271247462054}
    if not searches:
        reservoir, search = {}, {}
    reservoir.update({k: v for k, v in findings.items() if k in reservoir})
    search.update({k: v for k, v in findings.items() if k in search})
    (out / "classical_reservoir.json").write_text(json.dumps({"findings": reservoir}))
    (out / "impossibility_search.json").write_text(json.dumps({
        "findings": search,
        "parameters": {"budget": budget, "grid_points": 9, "time_points": 64,
                       "free_params": ["gamma", "a", "b", "c"]},
    }))
    return out


def edit_summary(out, edit):
    summary = json.loads((out / "summary.json").read_text())
    edit(summary)
    (out / "summary.json").write_text(json.dumps(summary))


@pytest.mark.parametrize("searches", [True, False])
def test_accepts_passing_outputs(tmp_path, searches):
    out = write_outputs(tmp_path / "out", searches)
    assert verify.validate(0, out, searches) == []
    assert len(verify.expected_checks(searches)) == (38 if searches else 34)


def test_rejects_nonzero_exit(tmp_path):
    out = write_outputs(tmp_path / "out")
    assert verify.validate(1, out, True) == ["exit code 1"]


def test_rejects_flipped_check(tmp_path):
    out = write_outputs(tmp_path / "out")
    edit_summary(out, lambda s: s["checks"][3].update(passed=False))
    problems = verify.validate(0, out, True)
    assert any("failing checks" in p for p in problems)


def test_rejects_missing_check(tmp_path):
    out = write_outputs(tmp_path / "out")
    edit_summary(out, lambda s: s["checks"].pop())
    problems = verify.validate(0, out, True)
    assert any("missing checks" in p for p in problems)


def test_rejects_search_checks_without_searches(tmp_path):
    out = write_outputs(tmp_path / "out", searches=True)
    problems = verify.validate(0, out, searches=False)
    assert any("unexpected checks" in p for p in problems)


@pytest.mark.parametrize("key, closed_form", [
    ("min_final_trace_distance", 1 / math.sqrt(2)),
    ("min_residual_mediator_plus", 2 * math.sqrt(2)),
])
def test_rejects_search_minimum_below_closed_form(tmp_path, key, closed_form):
    out = write_outputs(tmp_path / "out", **{key: closed_form - 1e-6})
    problems = verify.validate(0, out, True)
    assert len(problems) == 1 and key in problems[0]


def test_rejects_missing_summary(tmp_path):
    (tmp_path / "out").mkdir()
    assert verify.validate(0, tmp_path / "out", True)


def test_counters_from_search_reports(tmp_path):
    assert verify.counters(write_outputs(tmp_path / "a")) == {
        "witness.search.points": (9 ** 4 + 10_000) * 64,
        "homogenizer.reservoir.attempted": 26_561,
        "homogenizer.reservoir.admissible": 10_012,
    }
    assert set(verify.counters(write_outputs(tmp_path / "b", searches=False)).values()) == {0}


def test_canonical_artifacts_ignore_only_out_dir(tmp_path):
    a = verify.canonical_artifacts(write_outputs(tmp_path / "a"))
    b = verify.canonical_artifacts(write_outputs(tmp_path / "b"))
    assert a == b
    edit_summary(tmp_path / "b", lambda s: s["config"].update(seed=8))
    assert verify.canonical_artifacts(tmp_path / "b") != a


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
