"""qwitness benchmark: time to verdict, set-up and memory of fresh verifications.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One driver process starts one child
at a time (``child.py``), each a fresh interpreter, because users pay the
cold costs (interpreter, imports, sympy's cache) on every CLI run.  A child
times ``import qwitness.cli`` and then ``qwitness.cli.main(argv)`` and reports
its own peak RSS.  Every verification gets the benchmark's ``--seed`` and its
outputs are validated (``verify.py``): a failed validation, a nonzero exit or
artifacts that differ from the run's first verification count into
``fail_ratio``.

Workloads (closed loop, one verification in flight):
  default-all  ``qwitness all`` at the default config, the paper reproduction
               users run; the two seeded searches dominate it.
  exact-only   ``qwitness all --budget 0 --db 32``: both searches return before
               sampling, so import, the sympy axis solve, Pauli/commutant algebra
               and dense oscillator work remain.  A search optimisation must
               show no change here; an import or symbolic one shows most here.
The search layers run only in default-all; a third workload with a 4x search
budget (``--budget 40000``) was left out because its run-to-run spread on a
shared 2-vCPU host (quartile spread over ten seeds 0.13-0.27 of the median)
reached the verdict_s bound.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over the
verifications plus ``SETUP_CHILDREN`` import-only children), ``verdict_s``
and ``peak_rss_mb``.  ``--trace 1`` alternates plain and traced verifications
and reports the per-layer metrics: busy time is span self time, charged to
the outermost enclosing span of the same module, so that the layers plus
``cli.self_s`` partition each experiment span.  Import times come from
``python -X importtime`` in the traced children.  The last line of standard
output is the result as one JSON object; the full record, environment
included, goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (qwitness arguments, whether the searches sample)
WORKLOADS = {
    "default-all": (["all"], True),
    "exact-only": (["all", "--budget", "0", "--db", "32"], False),
}
SETUP_CHILDREN = 3
MIN_REPS = 2  # byte-identity needs two verifications at the same seed
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Spans whose module has several per-layer metrics; other spans of a module
# go to "<module>.busy_s", and experiment spans to "cli.self_s".
SPAN_METRIC = {
    "witness.axis_constraint_report": "witness.axis_solve_s",
    "witness.quantum_demo": "witness.demo_s",
    "witness.classical_impossibility_search": "witness.search_s",
    "homogenizer.run": "homogenizer.trajectory_s",
    "homogenizer.homogenize_step": "homogenizer.trajectory_s",
    "homogenizer.step_recursion": "homogenizer.trajectory_s",
    "homogenizer.classical_reservoir_check": "homogenizer.reservoir_s",
    "homogenizer.nonadditive_conservation_residual": "homogenizer.conservation_s",
}
BUSY_METRIC = {"reports": "reports.write_s", "experiment": "cli.self_s"}
SPAN_BUSY = (
    "paulis.busy_s", "dense.busy_s", "circuit.busy_s", "conservation.busy_s",
    *dict.fromkeys(SPAN_METRIC.values()), "oscillator.busy_s", "reports.write_s", "cli.self_s",
)
COUNTED_LAYERS = ("paulis", "dense")
# -X importtime self times, by top-level package; mpmath is sympy's own dependency.
IMPORT_METRIC = {
    "numpy": "import.numpy_s", "scipy": "import.scipy_s", "sympy": "import.sympy_s",
    "mpmath": "import.sympy_s", "qwitness": "import.qwitness_self_s",
}
END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.numpy_s": "s", "import.scipy_s": "s", "import.sympy_s": "s",
    "import.qwitness_self_s": "s",
    "paulis.calls": "count", "paulis.busy_s": "s",
    "dense.calls": "count", "dense.busy_s": "s",
    "circuit.busy_s": "s", "conservation.busy_s": "s",
    "witness.axis_solve_s": "s", "witness.demo_s": "s", "witness.search_s": "s",
    "witness.search.points": "count", "witness.search.points_per_s": "1/s",
    "homogenizer.trajectory_s": "s", "homogenizer.conservation_s": "s",
    "homogenizer.reservoir_s": "s",
    "homogenizer.reservoir.attempted": "count", "homogenizer.reservoir.admissible": "count",
    "homogenizer.reservoir.useful_ratio": "ratio",
    "oscillator.busy_s": "s", "reports.write_s": "s", "reports.bytes": "B",
    "cli.self_s": "s",
    "trace.verdict_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}

sys.path.insert(0, str(HERE))
import verify  # noqa: E402


def run_child(cmd: list[str], env: dict, stderr_path: Path) -> int:
    """Run one child to completion, killing it after CHILD_TIMEOUT_S; returns its exit code."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:  # the timeout, or the driver being interrupted
        proc.kill()
        proc.wait()
        raise


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of -X importtime self time per reported package."""
    out = dict.fromkeys(IMPORT_METRIC.values(), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        key = IMPORT_METRIC.get(name.strip().split(".")[0])
        if key:
            out[key] += int(self_us) / 1e6
    return out


def span_metrics(spans: list[list]) -> tuple[dict[str, float], list[str]]:
    """Per-layer busy times and call counts from one traced verification.

    Returns the metrics and the problems found checking that the spans nest
    and that their self times account for every experiment span.  A span with
    no metric of its own (a function this table does not know) still counts
    towards the experiment but lowers ``trace.coverage``.
    """
    metrics = dict.fromkeys(SPAN_BUSY, 0.0)
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = 0
    child_time = [0.0] * len(spans)
    owner = list(range(len(spans)))
    in_experiment = [False] * len(spans)
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".")[0]
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {name} not inside {p_name}")
            child_time[parent] += end - start
            if p_name.split(".")[0] == layer:
                owner[i] = owner[parent]
            in_experiment[i] = in_experiment[parent]
        in_experiment[i] = in_experiment[i] or layer == "experiment"
        if layer in COUNTED_LAYERS:
            metrics[f"{layer}.calls"] += 1
    inside = experiments = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        owner_name = spans[owner[i]][0]
        layer = owner_name.split(".")[0]
        metric = SPAN_METRIC.get(owner_name) or BUSY_METRIC.get(layer, f"{layer}.busy_s")
        self_s = (end - start) - child_time[i]
        if metric in metrics:
            metrics[metric] += self_s
        if in_experiment[i]:
            inside += self_s
        if layer == "experiment":
            experiments += end - start
    if not math.isclose(inside, experiments, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"layers account for {inside:.6f} s of {experiments:.6f} s")
    return metrics, problems


class Run:
    """One benchmark run: a sequence of fresh verifications at one seed."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.argv, self.searches = WORKLOADS[workload]
        self.work = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.setups: list[float] = []
        self.reps: list[dict] = []
        self.reference: dict[str, bytes] | None = None
        self.reference_counters: dict[str, int] | None = None

    def child(self, tag: str, mode: str, qwitness_argv=()) -> tuple[dict | None, str, int | str]:
        rep_dir = self.work / tag
        rep_dir.mkdir(parents=True)
        result_path = rep_dir / "result.json"
        flags = ["-X", "importtime"] if mode == "--trace" else []
        cmd = [sys.executable, *flags, str(HERE / "child.py"), str(result_path), mode,
               "--", *qwitness_argv]
        try:
            code = run_child(cmd, self.env, rep_dir / "stderr.txt")
        except subprocess.TimeoutExpired:
            code = f"killed after {CHILD_TIMEOUT_S:g} s"
        stderr = (rep_dir / "stderr.txt").read_text(errors="replace")
        result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
        if result is not None and Path(result["module"]).resolve() != ROOT / "src/qwitness/cli.py":
            sys.exit(f"qbench: imported {result['module']}, not this checkout's src/")
        return result, stderr, code

    def setup_only(self, k: int) -> None:
        result, stderr, code = self.child(f"setup-{k}", "--import-only")
        if result is None:
            sys.exit(f"qbench: import-only child exited {code}:\n{stderr[-2000:]}")
        self.setups.append(result["setup_s"])

    def verification(self, k: int, traced: bool) -> None:
        out = self.work / f"rep-{k}" / "out"
        argv = [*self.argv, "--seed", str(self.seed), "--out", str(out)]
        result, stderr, code = self.child(f"rep-{k}", "--trace" if traced else "--plain", argv)
        rep = {"index": k, "traced": traced, "problems": []}
        self.reps.append(rep)
        if result is None:
            rep["problems"].append(f"child exited {code}: {stderr[-2000:]}")
            return
        rep.update(setup_s=result["setup_s"], verdict_s=result["verdict_s"],
                   peak_rss_mb=result["peak_rss_mb"], exit_code=result["exit_code"])
        rep["problems"] += verify.validate(result["exit_code"], out, self.searches)
        if not out.is_dir():
            return
        artifacts = verify.canonical_artifacts(out)
        rep["bytes"] = sum(len(b) for b in artifacts.values())
        try:
            rep["counters"] = verify.counters(out)
        except (KeyError, TypeError) as exc:
            rep["problems"].append(f"counters unreadable: {exc!r}")
            return
        if self.reference is None and not rep["problems"]:
            self.reference, self.reference_counters = artifacts, rep["counters"]
        elif self.reference is not None:
            if rep["counters"] != self.reference_counters:
                rep["problems"].append(f"counters {rep['counters']} != {self.reference_counters}")
            differ = sorted(n for n in artifacts.keys() | self.reference.keys()
                            if artifacts.get(n) != self.reference.get(n))
            if differ:
                rep["problems"].append(f"artifacts differ from the first verification: {differ}")
        if traced:
            layers, problems = span_metrics(result["spans"])
            rep["problems"] += problems
            layers["trace.coverage"] = sum(layers[m] for m in SPAN_BUSY) / result["verdict_s"]
            rep["layers"] = {**layers, **import_times(stderr)}
        shutil.rmtree(out)

    def measure(self, seconds: float) -> None:
        if not self.trace:
            for k in range(SETUP_CHILDREN):
                self.setup_only(k)
        # Start another verification only if at least half of it fits.
        deadline = time.perf_counter() + seconds
        k, last = 0, 0.0
        while k < MIN_REPS or time.perf_counter() + last / 2 < deadline:
            began = time.perf_counter()
            self.verification(k, traced=self.trace and k % 2 == 1)
            last = time.perf_counter() - began
            k += 1

    def complete(self) -> bool:
        """Whether the reps give every metric: a timed plain one and, if traced, a traced one."""
        return (any("verdict_s" in r and not r["traced"] for r in self.reps)
                and (not self.trace or any("layers" in r for r in self.reps)))

    def metrics(self) -> dict[str, tuple[float, str, list[float]]]:
        """name -> (value, unit, samples) for the reported metric set."""
        timed = [r for r in self.reps if "verdict_s" in r]
        plain = [r for r in timed if not r["traced"]]
        if not self.trace:
            samples = {
                "setup_s": self.setups + [r["setup_s"] for r in timed],
                "verdict_s": [r["verdict_s"] for r in timed],
                "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            }
            return {m: (statistics.median(v), END_TO_END[m], v) for m, v in samples.items()}
        traced = [r for r in timed if r["traced"] and "layers" in r]
        samples = {m: [r["layers"][m] for r in traced] for m in traced[0]["layers"]}
        for name in traced[0]["counters"]:
            samples[name] = [r["counters"][name] for r in traced]
        samples["reports.bytes"] = [r["bytes"] for r in traced]
        samples["trace.verdict_s"] = [r["verdict_s"] for r in traced]
        out = {m: (statistics.median(v), PER_LAYER[m], v) for m, v in samples.items()}
        search_s = out["witness.search_s"][0]
        points = out["witness.search.points"][0]
        attempted = out["homogenizer.reservoir.attempted"][0]
        out["witness.search.points_per_s"] = (points / search_s if search_s > 0 else 0.0, "1/s", [])
        out["homogenizer.reservoir.useful_ratio"] = (
            out["homogenizer.reservoir.admissible"][0] / attempted if attempted else 0.0, "ratio", [])
        overhead = out["trace.verdict_s"][0] - statistics.median(r["verdict_s"] for r in plain)
        out["trace.overhead_s"] = (overhead, "s", [])
        return {m: out[m] for m in PER_LAYER}


def tail_percentile(values: list[float]) -> str:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return f"p{p:g}={sorted(values)[rank - 1]:.6g}"
    return "too few samples for a tail percentile"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated driver still kills and reaps its running child (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qwitness" / "cli.py").is_file():
        print(f"qbench: no qwitness source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    env = environment()
    env["seed"] = args.seed
    env["loadavg_before"] = os.getloadavg()
    try:
        run.measure(args.seconds)
    finally:
        env["loadavg_after"] = os.getloadavg()
        shutil.rmtree(run.work, ignore_errors=True)

    attempted = len(run.reps)
    failed = sum(bool(r["problems"]) for r in run.reps)
    for r in run.reps:
        for problem in r["problems"]:
            print(f"rep {r['index']}: {problem}", file=sys.stderr)
    if not run.complete():
        print("qbench: no verification produced a result", file=sys.stderr)
        return 1
    metrics = run.metrics()

    print(f"qbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  fail_ratio = {failed / attempted:.6g}  ({failed} failed of {attempted} verifications)")
    for name, (value, unit, samples) in metrics.items():
        detail = (f"median of n={len(samples)}, {tail_percentile(samples)}" if samples
                  else "derived from medians")
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}  ({detail})")
    record = {
        "workload": args.workload, "environment": env, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u, "samples": s} for m, (v, u, s) in metrics.items()},
        "reps": run.reps,
    }
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
