"""Every artifact of ``qwitness all`` keeps its recorded bytes at six configs.

``artifact_ledger.json`` holds the sha256 of each file that ``qwitness all``
writes at each config in ``CONFIGS``, as written.  Config k runs with
``--out k`` from a fresh working directory, so ``config.out_dir`` in
``summary.json`` reads the same on every run, and the summary's indent and key
order are hashed with the rest.  The hashes hold for the environment recorded
beside them: the Python minor version, the numpy version and the SIMD
extensions numpy dispatches to at run time, since the dispatch can move a
``np.sin``/``np.cos`` result by an ulp.  Elsewhere the test skips and names
both environments.

A change that means to move bytes rewrites the ledger in the same commit:

    PYTHONPATH=src python tests/test_artifact_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
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
    """``{config: {file: sha256}}`` of ``qwitness all`` run in process at each config.

    Runs from ``work`` as the working directory, config k into ``--out k``.
    """
    hashes = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for k, config in enumerate(CONFIGS):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["all", *config.split(), "--out", str(k)]) == 0, config
            hashes[config] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(str(k)).iterdir())
            }
    finally:
        os.chdir(cwd)
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
    # the 3.11 tests leg and the mutants job, whose ledger-only mutants
    # would otherwise meet a skip
    numpy = json.loads(LEDGER.read_text())["environment"]["numpy"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    tests, _, rest = workflow.partition("\n  runtime-dependencies:")
    _, _, mutants = rest.partition("\n  mutants:")
    assert f'numpy: "numpy=={numpy}"' in tests
    assert f'pip install ".[test]" "numpy=={numpy}"' in mutants


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        payload = {"environment": environment(), "configs": artifact_hashes(Path(work))}
    LEDGER.write_text(json.dumps(payload, indent=2) + "\n")
