import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.cli import EXPERIMENTS, RunConfig, main, run_experiment
from qwitness.errors import StructuralError


def small_config(tmp_path, **overrides):
    cfg = RunConfig(
        out_dir=str(tmp_path / "out"),
        budget=100,
        grid_points=3,
        time_points=16,
        eta_points=4,
        reservoir_steps=3,
        n_steps=10,
        d_b=2,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "seeed": 3}))
    with pytest.raises(StructuralError, match="seeed"):
        RunConfig.from_json(path, "all")


def test_config_rejects_bad_json_with_line_info(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": }')
    with pytest.raises(StructuralError, match="line 1"):
        RunConfig.from_json(path, "all")


def test_config_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(StructuralError, match="schema_version"):
        RunConfig.from_json(path, "all")


def test_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "eta": 0.25, "experiment": "table1"}))
    cfg = RunConfig.from_json(path, "table1")
    assert cfg.seed == 3 and cfg.eta == 0.25 and cfg.experiment == "table1"


def test_table1_experiment_writes_files_and_passes(tmp_path):
    cfg = small_config(tmp_path, experiment="table1")
    code, checks = run_experiment(cfg)
    assert code == 0
    assert all(c.passed for c in checks)
    out = tmp_path / "out"
    table = (out / "descriptors.csv").read_text().splitlines()
    assert table[0] == "time,subsystem,component,label"
    assert len(table) == 1 + 42  # 7 slices x 2 subsystems x 3 components
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert all("anchor" in c and "threshold" in c for c in summary["checks"])


def test_cli_exit_codes_and_determinism(tmp_path):
    out = tmp_path / "a"
    argv = ["table1", "--out", str(out), "--seed", "3"]
    assert main(argv) == 0
    first = (out / "summary.json").read_bytes()
    assert main(argv) == 0
    assert (out / "summary.json").read_bytes() == first


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2


def test_cli_bad_config_returns_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"bogus_key": 1}')
    assert main(["table1", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_cli_invalid_parameter_values(tmp_path):
    assert main(["oscillator", "--db", "1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["homogenize", "--eta", "nan"], None, "config error"),
        (["table1", "--eta", "nan"], None, "config error"),
        (["witness"], {"budget": "100"}, "config error"),
        (["homogenize"], {"eta_points": 0}, "config error"),
        (["table1", "--seed", "-1"], None, "config error"),
        (["witness"], {"grid_points": 0}, "config error"),
        (["witness"], {"time_points": 1}, "config error"),
        (["homogenize"], {"reservoir_steps": -3}, "config error"),
        (["table1"], b'{"seed": "\xff"}', "config error"),  # not UTF-8
        (["table1"], None, "output error"),  # --out below a regular file
        (["homogenize", "--budget", str(10**15)], None, "config error"),  # no machine holds it
        (["table1"], {"experiment": "oscillator"}, "config error"),  # not the subcommand
        (["witness", "--budget", str(10**15)], None, "config error"),  # after the axis solve
    ],
)
def test_cli_invalid_input_exits_2_without_a_summary(tmp_path, capsys, argv, config, message):
    """Exit 2 writes no file at all, even when the error comes late in the run."""
    out = tmp_path / "out"
    if message == "output error":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    argv = [*argv, "--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"{message}: ")
    assert not list(out.rglob("*"))


_WRONG_TYPE = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_INT_MINIMUM = {
    "seed": 0, "n_steps": 1, "d_b": 2, "budget": 0,
    "grid_points": 1, "time_points": 2, "eta_points": 1, "reservoir_steps": 1,
}
# (field, value) with exactly one field of the wrong type or out of range
_BAD_FIELD = st.one_of(
    *[
        st.tuples(st.just(name), st.one_of(
            _WRONG_TYPE, st.floats(), st.integers(max_value=minimum - 1),
        ))
        for name, minimum in _INT_MINIMUM.items()
    ],
    st.tuples(st.just("eta"), st.one_of(_WRONG_TYPE, _NON_FINITE)),
    st.tuples(st.just("param_range"), st.one_of(
        _WRONG_TYPE, _NON_FINITE, st.floats(max_value=0.0), st.integers(max_value=0),
    )),
    st.tuples(st.just("out_dir"), st.one_of(st.booleans(), st.none(), st.integers(), st.floats())),
    st.tuples(st.just("schema_version"), st.one_of(st.booleans(), st.floats(), st.text(max_size=3))),
    st.tuples(st.just("experiment"), st.one_of(
        st.none(), st.integers(), st.text(max_size=8).filter(lambda t: t not in EXPERIMENTS),
    )),
)


@settings(max_examples=150, deadline=None)
@given(_BAD_FIELD)
def test_cli_rejects_any_config_with_one_bad_field(bad):
    name, value = bad
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # a bad out_dir must not reach the working directory either
        mp.delenv("QWITNESS_OUT", raising=False)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"out_dir": str(Path(tmp) / "out"), name: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["table1", "--config", str(path)])
        assert code == 2
        assert err.getvalue().startswith("config error: ")
        assert not list(Path(tmp).rglob("summary.json"))


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QWITNESS_OUT", str(env_dir))
    assert main(["table1"]) == 0
    assert (env_dir / "summary.json").exists()


def test_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QWITNESS_OUT", str(tmp_path / "ignored"))
    target = tmp_path / "flagged"
    assert main(["table1", "--out", str(target)]) == 0
    assert (target / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_homogenize_zero_coupling_keeps_distances_constant(tmp_path):
    cfg = small_config(tmp_path, experiment="homogenize", eta=0.0, n_steps=5)
    code, checks = run_experiment(cfg)
    assert code == 0
    rows = (tmp_path / "out" / "homogenizer_trajectory.csv").read_text().splitlines()[1:]
    zero_rows = [r.split(",") for r in rows if float(r.split(",")[0]) == 0.0]
    assert len(zero_rows) == 6
    distances = {float(r[2]) for r in zero_rows}
    assert len(distances) == 1
    assert next(iter(distances)) == pytest.approx(math.sqrt(2) / 2)


def test_witness_experiment_passes_with_small_budget(tmp_path):
    cfg = small_config(tmp_path, experiment="witness")
    code, checks = run_experiment(cfg)
    assert code == 0
    payload = json.loads((tmp_path / "out" / "axis_systems.json").read_text())
    assert payload["root_sets"]["z"] == [[0.0, -1.0, 0.0]]
    assert payload["root_sets"]["intersection"] == []


def test_full_run_summary_structure(tmp_path):
    cfg = small_config(tmp_path, experiment="all")
    code, checks = run_experiment(cfg)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_failed"] == 0
    assert summary["n_passed"] == len(summary["checks"]) == len(checks)
    names = [c["name"] for c in summary["checks"]]
    assert len(names) == len(set(names))  # every check individually addressable
    for entry in summary["checks"]:
        assert set(entry) == {"name", "value", "threshold", "op", "anchor", "passed"}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "axis_roots.csv", "axis_systems.json", "classical_reservoir.json",
        "commutant_additive.json", "commutant_nonadditive.json",
        "conservation_residuals.csv", "constrained_families.json", "descriptors.csv",
        "exchange_trajectory.csv", "homogenizer_trajectory.csv",
        "impossibility_search.json", "oscillator_checks.json", "oscillator_coherence.csv",
        "oscillator_coherence_maxima.json", "quantum_demo_exchange.json",
        "quantum_demo_swap.json", "summary.json", "table1_diff.csv",
    ]
