import math

import pytest

from qwitness.reports import Check, WitnessReport, write_csv, write_json

ROUND_TRIP = [0.1 + 0.2, 1 / 3, math.pi, 2.0**-1074, 1e300, -2.5e-16, 0.7071067811865475]


def _csv_cells(path, values):
    write_csv(path, ("index", "value"), list(enumerate(values)))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value"
    return [line.split(",")[1] for line in lines[1:]]


def test_csv_float_cells_are_the_shortest_round_trip_text(tmp_path):
    cells = _csv_cells(tmp_path / "values.csv", [0.1, 0.1 + 0.2])
    assert cells == ["0.1", "0.30000000000000004"]


def test_csv_float_cells_read_back_exactly(tmp_path):
    cells = _csv_cells(tmp_path / "values.csv", ROUND_TRIP)
    assert [float(c) for c in cells] == ROUND_TRIP


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_format_float_writes_non_finite_values_as_python_does(tmp_path, x):
    # write_csv formats each float cell; a non-finite one is written as repr writes it
    assert _csv_cells(tmp_path / "values.csv", [x]) == [repr(x)]


def test_csv_non_finite_and_signed_zero_cells_read_back(tmp_path):
    cells = _csv_cells(tmp_path / "values.csv", [math.nan, math.inf, -0.0])
    assert cells == ["nan", "inf", "-0.0"]
    nan, inf, zero = (float(c) for c in cells)
    assert math.isnan(nan) and inf == math.inf
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0


def test_write_json_writes_a_report_with_its_checks(tmp_path):
    report = WitnessReport(task="t", verdict="ok", seed=3, parameters={"grid": (1, 2)})
    report.add_check("gap", 0.75, ">", 0.5, "anchor")
    report.findings["amplitude"] = 0.5 - 0.25j
    report.root_sets["z"] = [(0.0, -1.0, 0.0)]
    path = tmp_path / "report.json"
    write_json(path, report)
    # the text the converter walk of the previous writer gave for this report
    assert path.read_text() == """\
{
  "checks": [
    {
      "anchor": "anchor",
      "name": "gap",
      "op": ">",
      "passed": true,
      "threshold": 0.5,
      "value": 0.75
    }
  ],
  "coherence_maxima": {},
  "findings": {
    "amplitude": [
      0.5,
      -0.25
    ]
  },
  "parameters": {
    "grid": [
      1,
      2
    ]
  },
  "root_sets": {
    "z": [
      [
        0.0,
        -1.0,
        0.0
      ]
    ]
  },
  "seed": 3,
  "task": "t",
  "verdict": "ok"
}
"""
    # writing leaves the report as it was
    assert report.parameters == {"grid": (1, 2)}
    assert report.findings == {"amplitude": 0.5 - 0.25j}


def test_check_rejects_an_unknown_comparator():
    with pytest.raises(ValueError, match="unknown comparator '=<'"):
        Check.compare("c", 1.0, "=<", 2.0, "an anchor")
