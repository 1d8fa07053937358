import math
from dataclasses import asdict

import numpy as np
import pytest

from qwitness.reports import WitnessReport, _jsonable, format_float, write_csv

ROUND_TRIP = [0.1 + 0.2, 1 / 3, math.pi, 2.0**-1074, 1e300, -2.5e-16, 0.7071067811865475]


def test_format_float_is_the_shortest_round_trip_text():
    assert format_float(0.1 + 0.2) == "0.30000000000000004"
    for x in ROUND_TRIP:
        assert float(format_float(x)) == x


def test_csv_float_cells_read_back_exactly(tmp_path):
    path = tmp_path / "values.csv"
    write_csv(path, ("index", "value"), list(enumerate(ROUND_TRIP)))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value"
    assert [float(line.split(",")[1]) for line in lines[1:]] == ROUND_TRIP


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_format_float_writes_non_finite_values_as_python_does(x):
    assert format_float(x) == repr(x)


def test_report_json_dict_is_json_types_in_fresh_containers():
    report = WitnessReport(task="t", seed=3, parameters={"grid": (1, 2)})
    report.add_check("gap", 0.75, ">", 0.5, "anchor")
    report.findings.update(
        trajectory=[(0.0, np.float64(0.5))], state=np.eye(2) * (1 + 2j), rows={1: [np.int64(4)]}
    )
    report.root_sets["z"] = [(0.0, -1.0, 0.0)]
    out = report.to_json_dict()
    # the deep copy of asdict, then the walk of write_json, give the same dict
    assert out == _jsonable(asdict(report))
    assert out["findings"] == {
        "trajectory": [[0.0, 0.5]],
        "state": [[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 2.0]]],
        "rows": {"1": [4]},
    }
    assert out["checks"] == [asdict(report.checks[0])]
    # nothing in the result is shared with the report
    out["findings"]["trajectory"][0].append(1.0)
    out["root_sets"]["z"].clear()
    out["parameters"]["grid"].append(3)
    assert report.findings["trajectory"] == [(0.0, 0.5)]
    assert report.root_sets == {"z": [(0.0, -1.0, 0.0)]}
    assert report.parameters == {"grid": (1, 2)}
