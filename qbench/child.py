"""One verification, timed in a fresh interpreter.

    python child.py RESULT_JSON --import-only | --plain | --trace -- QWITNESS_ARGS...

Times ``import qwitness.cli`` (setup) and then ``qwitness.cli.main(argv)``
(verdict, from config to exit code, artifacts included) and writes both, the
exit code, the peak resident memory and the imported module's path to
RESULT_JSON.  With ``--trace`` the public functions of each qwitness module
are wrapped before ``main`` runs, and every call is recorded as a span
``[name, start, end, parent]`` (``parent`` indexes the enclosing span, -1 for
none).  Spans stay in memory and are written out with the result once
``main`` returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Modules whose public functions are traced; each one is a layer.
LAYERS = ("paulis", "dense", "circuit", "conservation", "witness", "homogenizer",
          "oscillator", "reports")


class Tracer:
    """Records nested call spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                open_.pop()

        return traced

    def install(self, cli) -> None:
        """Wrap each layer's public functions where their callers look them up.

        Callers reach a function through its module attribute, through a name
        they imported from it (``from .dense import to_dense``) or, for the
        experiments, through ``cli._RUNNERS``; all three are rebound.
        """
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qwitness"]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"qwitness.{layer}")
            if mod is None:  # not imported with qwitness.cli: left untraced
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        expr = getattr(sys.modules.get("qwitness.paulis"), "OperatorExpr", None)
        if expr is not None:
            expr.__matmul__ = self.wrap("paulis.OperatorExpr.__matmul__", expr.__matmul__)
        runners = getattr(cli, "_RUNNERS", {})
        for name, runner in list(runners.items()):
            runners[name] = self.wrap(f"experiment.{name}", runner)


def peak_rss_mb() -> float:
    """This process's resident high-water mark since exec.

    ``wait4``'s ``ru_maxrss`` would also count the driver's resident set, which
    the child inherits through fork before exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, mode = argv[0], argv[1]
    t0 = time.perf_counter()
    import qwitness.cli as cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "module": cli.__file__}
    if mode != "--import-only":
        qwitness_argv = argv[argv.index("--") + 1:]
        tracer = Tracer() if mode == "--trace" else None
        if tracer is not None:
            tracer.install(cli)
        t1 = time.perf_counter()
        result["exit_code"] = cli.main(qwitness_argv)
        t2 = time.perf_counter()
        result["verdict_s"] = t2 - t1
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["spans"] = [[n, s - t1, e - t1, p] for n, s, e, p in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
