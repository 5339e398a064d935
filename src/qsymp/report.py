"""Pass/fail records emitted by the identity-checking suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


def jsonable(x: Any) -> Any:
    """Convert numpy scalars/arrays (recursively) into plain Python values."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, frozenset):
        return sorted(jsonable(v) for v in x)
    return x


@dataclass
class CheckResult:
    """One verified identity: what was compared and whether it held.

    ``lhs``/``rhs`` hold the compared values for single-instance checks;
    ``checked``/``failures`` summarize batched checks, with ``witness``
    describing the first failing instance if any.
    """

    identity: str
    passed: bool
    lhs: Any = None
    rhs: Any = None
    note: str | None = None
    checked: int | None = None
    failures: int | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"identity": self.identity, "pass": bool(self.passed)}
        for key in ("lhs", "rhs", "note", "checked", "failures", "witness"):
            val = getattr(self, key)
            if val is not None:
                out[key] = jsonable(val)
        return out


def all_pass(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
