import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness import cli
from qwitness.cli import EXPERIMENTS, RunConfig, main, run_experiment
from qwitness.errors import StructuralError
from qwitness.reports import Check, write_json

from operator_helpers import cli_search_arguments


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


def test_run_config_defaults_are_the_papers_settings():
    # the one place the tests state the run settings: `qwitness all` runs
    # these, and every test of the CLI's default search or check reads them
    # through the CLI's own wiring (cli_search_arguments)
    assert asdict(RunConfig()) == {
        "schema_version": 1, "experiment": "all", "seed": 7, "out_dir": "out",
        "eta": 0.4, "n_steps": 20, "d_b": 4, "budget": 10_000, "grid_points": 9,
        "param_range": 2.0, "time_points": 64, "eta_points": 16, "reservoir_steps": 8,
    }


def test_experiments_hand_the_drivers_their_config_fields():
    # pairwise distinct values, so no field can stand in for another
    # (reservoir_steps is not n_steps)
    config = dict(
        seed=3, budget=11, grid_points=2, param_range=1.5, time_points=5,
        eta_points=6, reservoir_steps=4, n_steps=7, d_b=8, eta=0.3,
    )
    cfg = RunConfig(**config)
    seen = cli_search_arguments(**config)
    assert seen["classical_impossibility_search"] == dict(
        budget=cfg.budget, seed=cfg.seed, grid_points=cfg.grid_points,
        param_range=cfg.param_range, time_points=cfg.time_points,
    )
    reservoir = dict(seen["classical_reservoir_check"])
    # the CLI's coupling grid, the one rule for it
    eta_grid = reservoir.pop("eta_grid")
    assert np.array_equal(eta_grid, np.linspace(math.pi / 32, math.pi / 2, cfg.eta_points))
    assert reservoir == dict(
        n_steps=cfg.reservoir_steps, budget=cfg.budget, seed=cfg.seed,
        grid_points=cfg.grid_points, param_range=cfg.param_range,
    )


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
    # every artifact of a full run, sampling searches included
    out = tmp_path / "all"
    argv = ["all", "--budget", "200", "--out", str(out)]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2


_TOP_HELP = """\
usage: qwitness [-h]
                {table1,conservation,witness,homogenize,oscillator,all} ...

verification runs for conservation-constrained mediated dynamics

positional arguments:
  {table1,conservation,witness,homogenize,oscillator,all}
    table1              run the table1 checks
    conservation        run the conservation checks
    witness             run the witness checks
    homogenize          run the homogenize checks
    oscillator          run the oscillator checks
    all                 run the all checks

options:
  -h, --help            show this help message and exit
"""

_SUBCOMMAND_USAGE = """\
usage: qwitness {name} [-h] [--config CONFIG] [--seed SEED] [--out OUT]
{indent}[--eta ETA] [--n N] [--db DB] [--budget BUDGET]
"""

_SUBCOMMAND_OPTIONS = """
options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON config file
  --seed SEED      RNG seed (>= 0)
  --out OUT        output directory
  --eta ETA        coupling strength
  --n N            reservoir size / steps
  --db DB          mediator truncation
  --budget BUDGET  random search draws
"""


def _parse_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_cli_help_and_usage_error_texts(monkeypatch, capsys):
    # argparse's text at 80 columns (Python 3.11), for the top level and
    # every subcommand, and one usage error
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse_output(["--help"], capsys) == (0, _TOP_HELP, "")
    for name in EXPERIMENTS:
        usage = _SUBCOMMAND_USAGE.format(name=name, indent=" " * len(f"usage: qwitness {name} "))
        assert _parse_output([name, "--help"], capsys) == (0, usage + _SUBCOMMAND_OPTIONS, "")
    usage = _SUBCOMMAND_USAGE.format(name="all", indent=" " * len("usage: qwitness all "))
    assert _parse_output(["all", "--seed", "x"], capsys) == (
        2, "", usage + "qwitness all: error: argument --seed: invalid int value: 'x'\n"
    )


def test_cli_bad_config_returns_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"bogus_key": 1}')
    assert main(["table1", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_witness_root_set_check_fails_on_an_extra_root(monkeypatch):
    # a root set of another length has no deviation to measure: it reads inf
    solve = cli.wit.axis_constraint_report

    def extra_z_root():
        report = solve()
        report.root_sets["z"] = [*report.root_sets["z"], (1.0, 0.0, 0.0)]
        return report

    monkeypatch.setattr(cli.wit, "axis_constraint_report", extra_z_root)
    checks, _ = cli.experiment_witness(RunConfig(experiment="witness", budget=0))
    by_name = {c.name: c for c in checks}
    assert by_name["z-system-root-set"].value == math.inf
    assert not by_name["z-system-root-set"].passed
    assert by_name["x-system-root-set"].passed


def test_module_entry_point_runs_and_exits_2_on_a_bad_config(tmp_path):
    # python -m qwitness.cli, as the README documents it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("QWITNESS_OUT", None)
    run = [sys.executable, "-m", "qwitness.cli", "table1", "--out", str(tmp_path / "o")]
    proc = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "summary.json").exists()
    (tmp_path / "cfg.json").write_text('{"bogus_key": 1}')
    proc = subprocess.run([*run, "--config", str(tmp_path / "cfg.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")


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
        (["witness"], {"param_range": 1e200}, "config error"),  # sector axes would overflow
        # sizes past numpy's index range, refused before anything is allocated
        (["witness", "--budget", str(10**19)], None, "config error"),
        (["oscillator", "--db", str(10**10)], None, "config error"),
        (["witness"], {"time_points": 10**19}, "config error"),
        (["homogenize"], {"eta_points": 10**19}, "config error"),
        (["witness"], {"grid_points": 100_000}, "config error"),
        (["table1"], [1, 2], "config error"),  # not a JSON object
        (["homogenize"], {"eta": 10**399}, "config error"),  # math.isfinite overflows
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


def test_cli_failed_check_exits_1_and_writes_every_artifact(tmp_path, monkeypatch):
    # exit 1 is a failed check, not a usage error: every artifact is written
    def failing(cfg):
        check = Check.compare("always-fails", 1.0, "<", 0.0, "a check that cannot pass")
        return [check], {"extra.json": {"x": 1}}

    monkeypatch.setitem(cli._RUNNERS, "table1", failing)
    out = tmp_path / "out"
    assert main(["table1", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["verdict"], summary["n_failed"]) == ("FAIL", 1)
    assert json.loads((out / "extra.json").read_text()) == {"x": 1}


def test_cli_other_value_errors_keep_their_traceback(tmp_path, monkeypatch):
    # only numpy's size errors are config errors; any other ValueError is a fault
    def broken(cfg):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli._RUNNERS, "table1", broken)
    with pytest.raises(ValueError, match="broadcast together"):
        main(["table1", "--out", str(tmp_path / "out")])


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
        st.floats(min_value=1e50, exclude_min=True), st.integers(min_value=int(1e50) + 1),
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


def test_cli_integer_param_range_beyond_int64_runs(tmp_path):
    # a valid int too large for int64 reaches the searches as a float
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"param_range": 10**30, "budget": 100, "grid_points": 2}))
    assert main(["witness", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["param_range"] == 10**30


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


@pytest.fixture(scope="module")
def modules_loaded_by_import_and_run(tmp_path_factory):
    # numpy is the only runtime dependency: sympy, and mpmath with it, is a
    # test-only dependency and scipy is not used at all; numpy.ma is not used
    # either, and plain np.unique would import it.  One fresh interpreter,
    # because this test process may have loaded them already; it lists the
    # loaded scipy, sympy, mpmath and numpy.ma modules after the import and
    # after the run.  Budget 200 runs both searches and the reservoir scan,
    # which 0 skips.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["all", "--budget", "200", "--db", "32", "--out", str(tmp_path_factory.mktemp("run"))]
    listing = (
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'sympy', 'mpmath') "
        "or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    code = (
        f"import sys, qwitness.cli; {listing}; "
        f"assert qwitness.cli.main({argv!r}) == 0; {listing}"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return {"import": ast.literal_eval(lines[0]), "run": ast.literal_eval(lines[-1])}


def loaded_under(modules, prefix):
    return [m for m in modules if m.split(".")[0] == prefix]


def test_cli_import_loads_no_scipy(modules_loaded_by_import_and_run):
    assert loaded_under(modules_loaded_by_import_and_run["import"], "scipy") == []
    assert loaded_under(modules_loaded_by_import_and_run["run"], "scipy") == []


@pytest.mark.parametrize("prefix", ["sympy", "mpmath"])
def test_cli_import_and_run_load_no_sympy(prefix, modules_loaded_by_import_and_run):
    assert loaded_under(modules_loaded_by_import_and_run["import"], prefix) == []
    assert loaded_under(modules_loaded_by_import_and_run["run"], prefix) == []


def test_cli_import_and_run_load_no_numpy_ma(modules_loaded_by_import_and_run):
    # numpy.ma costs 10-16 ms and about 1.6 MB of peak RSS in a cold process
    for phase in ("import", "run"):
        modules = modules_loaded_by_import_and_run[phase]
        assert [m for m in modules if m.split(".")[:2] == ["numpy", "ma"]] == [], phase


def test_write_json_converts_known_types_and_rejects_the_rest(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"c": 1.5 - 2j, "f": np.float64(0.25), "m": {2: "two"}})
    assert json.loads(path.read_text()) == {"c": [1.5, -2.0], "f": 0.25, "m": {"2": "two"}}
    # no artifact payload holds a numpy integer or array
    for value in (object(), np.int64(3), np.zeros(2)):
        with pytest.raises(TypeError):
            write_json(path, {"x": value})


def test_oscillator_maxima_keys_are_written_in_text_order(tmp_path):
    _, files = cli.experiment_oscillator(RunConfig(d_b=12))
    path = tmp_path / "maxima.json"
    write_json(path, files["oscillator_coherence_maxima.json"])
    keys = list(json.loads(path.read_text()))
    assert keys == ["0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"]


def test_benchmark_span_names_are_public_functions():
    # the benchmark's tracer wraps each module's public functions by name and
    # attributes per-layer time through SPAN_METRIC; a renamed function would
    # silently drop out of its layer
    source = (Path(__file__).resolve().parents[1] / "qbench" / "run.py").read_text()
    assignment = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SPAN_METRIC" for t in node.targets)
    )
    span_metric = ast.literal_eval(assignment.value)
    assert span_metric
    for span in span_metric:
        layer, name = span.split(".")
        module = importlib.import_module(f"qwitness.{layer}")
        func = getattr(module, name, None)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, span
        assert not name.startswith("_"), span
