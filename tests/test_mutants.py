"""``tools/mutants.py`` stays in step with the source and the tests it names.

The mutation run itself is slow and lives outside the suite; these checks read
its ``MUTANTS`` table, so a mutant whose source line moved or whose test was
renamed fails here at once, and run its test runner on one skipping test.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _test_names(path: Path) -> set[str]:
    """Test functions a pytest node id can name in ``path``, read from its AST."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)
            )
    return names


def test_every_mutant_targets_one_source_site_and_existing_tests():
    mutants = _tool().MUTANTS
    names = [m[0] for m in mutants]
    assert len(set(names)) == len(names)
    stale = []
    for name, path, old, new, tests in mutants:
        count = (ROOT / "src" / "qwitness" / path).read_text().count(old)
        if count != 1 or old == new:
            stale.append(f"{name}: its old string occurs {count} times in {path}")
        if not tests:
            stale.append(f"{name}: names no test")
        for test in tests:
            file, _, node = test.partition("::")
            if node.split("[")[0] not in _test_names(ROOT / file):
                stale.append(f"{name}: {test} does not exist")
    assert stale == []


def test_a_skipped_test_is_no_verdict(tmp_path):
    # a test that skips where the environment differs exits 0 with nothing
    # checked; the run stops and names it rather than record a survivor
    (tmp_path / "test_skips.py").write_text(
        "import pytest\n\n\ndef test_elsewhere():\n    pytest.skip('other environment')\n"
    )
    with pytest.raises(SystemExit, match=r"skipped test_skips\.py::test_elsewhere in"):
        _tool()._run_tests(tmp_path, ["test_skips.py::test_elsewhere"])
