"""Every artifact of ``qwitness all`` keeps its recorded bytes at six configs.

``artifact_ledger.json`` holds the sha256 of each file that ``qwitness all``
writes at each config in ``CONFIGS``, with ``summary.json`` canonicalised as
``qbench/verify.canonical_artifacts`` does (``config.out_dir`` dropped).  The
hashes hold for the environment recorded beside them: the Python minor
version, the numpy version and the SIMD extensions numpy dispatches to at run
time, since the dispatch can move a ``np.sin``/``np.cos`` result by an ulp.
Elsewhere the test skips and names both environments.

A change that means to move bytes rewrites the ledger in the same commit:

    PYTHONPATH=src python tests/test_artifact_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qwitness.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().parent / "artifact_ledger.json"
CONFIGS = (
    "--seed 7", "--seed 41", "--seed 42", "--seed 1 --budget 3000",
    "--seed 99 --budget 40000", "--budget 0 --db 32",
)


def _canonical_artifacts():
    spec = importlib.util.spec_from_file_location("verify", ROOT / "qbench" / "verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.canonical_artifacts


def environment() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "simd": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]],
    }


def artifact_hashes(work: Path) -> dict:
    """``{config: {file: sha256}}`` of ``qwitness all`` run in process at each config."""
    canonical = _canonical_artifacts()
    hashes = {}
    for k, config in enumerate(CONFIGS):
        out = work / str(k)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["all", *config.split(), "--out", str(out)]) == 0, config
        hashes[config] = {
            name: hashlib.sha256(data).hexdigest() for name, data in canonical(out).items()
        }
    return hashes


def test_artifacts_keep_their_ledger_bytes(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    if environment() != ledger["environment"]:
        pytest.skip(f"ledger recorded in {ledger['environment']}, running in {environment()}")
    hashes = artifact_hashes(tmp_path)
    differing = [
        f"{config}: {name}"
        for config, recorded in ledger["configs"].items()
        for name in sorted(set(recorded) | set(hashes[config]))
        if recorded.get(name) != hashes[config].get(name)
    ]
    assert list(ledger["configs"]) == list(CONFIGS)
    assert differing == []


def test_ci_installs_the_numpy_the_ledger_records():
    numpy = json.loads(LEDGER.read_text())["environment"]["numpy"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert f'numpy: "numpy=={numpy}"' in workflow


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        payload = {"environment": environment(), "configs": artifact_hashes(Path(work))}
    LEDGER.write_text(json.dumps(payload, indent=2) + "\n")
