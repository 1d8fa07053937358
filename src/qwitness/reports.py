"""Structured run reports and deterministic CSV/JSON serialisation.

Every numeric verdict is stored as a :class:`Check` carrying the measured
value, its threshold, the comparison direction and an ``anchor`` string that
names the identity or law being checked.  Floats are written as the shortest
text that reads back to the same double (``0.1``, not ``0.10000000000000001``),
so repeated runs with equal configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass
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


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows deterministically; ``str`` of a float is its shortest round-trip text."""
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    """A complex as ``[re, im]``, a dataclass instance as its fields, else ``TypeError``."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not written to JSON")


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as sorted JSON with a two-space indent; see :func:`_json_default`."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")
