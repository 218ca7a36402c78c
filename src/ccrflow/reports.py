"""Structured results for experiment-style checks.

A report's verdict is the conjunction of its named conditions, each a
measured number held against a bound in one sense: ``<=``, ``<`` or ``>=``.
The JSON shape is shared by the library and the command line:
``{check, params, measured, bound, pass, conditions, details}``, with each
condition as ``{name, measured, sense, bound, pass}``.  A report has at
least one condition, and its headline ``measured`` and ``bound`` are the
first one's.  Curve-style outputs (one dict per row) go to a companion CSV.
Each number is stated once: ``details`` hold only flat, non-boolean
values that no condition, param or curve column holds.  Serialization is
deterministic: sorted keys, no timestamps.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

__all__ = ["Condition", "ExperimentReport", "load_report"]

_SENSES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


class Condition(NamedTuple):
    """One part of a verdict: it holds when ``measured sense bound``."""
    name: str
    measured: float
    sense: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_SENSES[self.sense](self.measured, self.bound))

    def to_dict(self) -> dict:
        return {**self._asdict(), "pass": self.passed}


@dataclass(frozen=True)
class ExperimentReport:
    """Passes when every condition holds; its headline is the first one."""
    check: str
    params: dict
    conditions: tuple[Condition, ...]
    details: dict = field(default_factory=dict)
    curve: list[dict] | None = None

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.conditions:
            raise ValueError("a report needs at least one condition")
        if any(c.sense not in _SENSES for c in self.conditions):
            raise ValueError(f"a condition's sense is one of {list(_SENSES)}")

    @property
    def measured(self) -> float:
        return self.conditions[0].measured

    @property
    def bound(self) -> float:
        return self.conditions[0].bound

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "measured": self.measured,
            "bound": self.bound,
            "pass": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "details": self.details,
        }

    def save(self, base) -> None:
        """Write <base>.json, plus <base>.csv when a curve is attached."""
        base = Path(base)
        _write_json(base.with_suffix(".json"), self.to_dict())
        if self.curve:
            cols = list(self.curve[0].keys())
            with base.with_suffix(".csv").open("w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=cols)
                writer.writeheader()
                for row in self.curve:
                    writer.writerow({k: _csv_cell(row[k]) for k in cols})

    def summary_line(self) -> str:
        """The verdict with its first failing condition, else its first one."""
        verdict = "PASS" if self.passed else "FAIL"
        name, measured, sense, bound = next(
            (c for c in self.conditions if not c.passed), self.conditions[0])
        return f"[{verdict}] {self.check}: {name} {measured:.6g} vs bound {sense} {bound:.6g}"


def _json_fallback(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, data: dict) -> None:
    """Write data to path as sorted, indented JSON, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2, default=_json_fallback) + "\n",
                    encoding="utf-8")


def _csv_cell(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def load_report(base) -> ExperimentReport:
    base = Path(base)
    data = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    return ExperimentReport(
        check=data["check"],
        params=data["params"],
        conditions=[Condition(*map(c.get, Condition._fields)) for c in data["conditions"]],
        details=data.get("details", {}),
    )
