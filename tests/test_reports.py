import math

import pytest

from qwitness.reports import format_float, write_csv

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
