"""Structured run reports and deterministic CSV/JSON serialisation.

Every numeric verdict is stored as a :class:`Check` carrying the measured
value, its threshold, the comparison direction and an ``anchor`` string that
names the identity or law being checked.  Floats are serialised with
``repr`` (17 significant digits) so repeated runs with equal configs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "==0": lambda v, t: v == 0,
}


@dataclass(frozen=True)
class Check:
    """One named pass/fail measurement with its tolerance."""

    name: str
    value: float
    threshold: float
    op: str
    anchor: str
    passed: bool

    @classmethod
    def compare(
        cls, name: str, value: float, op: str, threshold: float, anchor: str
    ) -> "Check":
        if op not in _OPS:
            raise ValueError(f"unknown comparator {op!r}")
        ok = bool(_OPS[op](value, threshold)) and math.isfinite(value)
        return cls(name, float(value), float(threshold), op, anchor, ok)


@dataclass
class WitnessReport:
    """Verdict container for a verification task.

    ``checks`` carry the pass/fail measurements; ``findings`` holds reported
    values that are recorded without assertion; ``root_sets`` and
    ``coherence_maxima`` are task-specific payloads.
    """

    task: str
    verdict: str = ""
    checks: list[Check] = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    root_sets: dict = field(default_factory=dict)
    coherence_maxima: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    seed: int | None = None

    def add_check(
        self, name: str, value: float, op: str, threshold: float, anchor: str
    ) -> Check:
        check = Check.compare(name, value, op, threshold, anchor)
        self.checks.append(check)
        return check

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        """The report's fields as JSON types (:func:`_jsonable`), for :func:`write_json`.

        The payloads are walked once, into fresh containers, without the
        deep copy of ``asdict``.  The result shares no container with the
        report, so the report's own payloads are freed with it: keeping them
        alive until the artifacts are written raised the peak RSS of
        ``qwitness all``.
        """
        return _jsonable({**vars(self), "checks": [asdict(c) for c in self.checks]})


def _jsonable(obj):
    """Recursively convert a payload to JSON types.

    numpy scalars and arrays become numbers and lists, tuples become lists,
    complex numbers ``[re, im]`` and dict keys ``str``; other values pass
    through unchanged.
    """
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def format_float(x: float) -> str:
    """Full-precision decimal text ('.' separator, 17 significant digits)."""
    return repr(float(x))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows deterministically, formatting floats at full precision."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON after :func:`_jsonable`.

    A value of any other type raises ``TypeError``, never a silent string.
    """
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
