"""Pass/fail records emitted by the identity-checking suites, and the two ways to count them.

A two-sided check is :func:`equal`, and a check whose hypotheses fail is
recorded by :func:`skipped`.  A verifier that checks one identity over many
items of its own (supports, profile steps, moment indices) folds them into
one result with :func:`batch`.  A suite that replays identities over many
instances accumulates per-identity counts in a :class:`Tally`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .symplectic import Subspace


def jsonable(x: Any) -> Any:
    """Spaces as their basis rows and tuples as lists, recursively through lists and dicts.

    The tuples matter beyond JSON: the CSV and table reports print ``str()``
    of each side, and a tuple would print as ``(...)``.
    """
    if isinstance(x, Subspace):
        return x.basis.tolist()
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
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


def equal(identity: str, lhs: Any, rhs: Any, note: str | None = None) -> CheckResult:
    """The check that ``lhs`` equals ``rhs``, both sides kept."""
    return CheckResult(identity, lhs == rhs, lhs=lhs, rhs=rhs, note=note)


def skipped(identity: str, reason: str) -> CheckResult:
    """The record of a check whose hypotheses fail: it passes, noted ``skipped: <reason>``."""
    return CheckResult(identity, True, note="skipped: " + reason)


def batch(
    identity: str, items: list, key: str | None = "instance", note=None, checked: int | None = None
) -> CheckResult:
    """One result for an identity checked on ``(tag, lhs, rhs, ok)`` items.

    The witness is the first failing item, its tag stored under ``key``;
    ``key=None`` records counts only.  ``checked`` counts the items checked
    when ``items`` holds only some of them, the failing ones included.
    """
    fails = [(tag, lhs, rhs) for tag, lhs, rhs, ok in items if not ok]
    witness = None
    if fails and key is not None:
        tag, lhs, rhs = fails[0]
        witness = {key: tag, "lhs": lhs, "rhs": rhs}
    if checked is None:
        checked = len(items)
    return CheckResult(
        identity, not fails, note=note, checked=checked, failures=len(fails), witness=witness
    )


class Tally:
    """Per-identity pass/fail counts with a first-failure witness, in first-seen order."""

    def __init__(self):
        self.counts: dict[str, list] = {}

    def add(self, identity: str, ok: bool, instance: str, **detail) -> None:
        """Count one check; an identity's first failure is its witness, led by the instance."""
        entry = self.counts.setdefault(identity, [0, 0, None])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            if entry[2] is None:
                entry[2] = {"instance": instance, **detail}

    def add_batch(self, result: CheckResult, instance: str) -> None:
        """Count a :func:`batch` result's items and failures, its witness led by the instance."""
        entry = self.counts.setdefault(result.identity, [0, 0, None])
        entry[0] += result.checked
        entry[1] += result.failures
        if result.witness and entry[2] is None:
            entry[2] = {"instance": instance, **result.witness}

    def add_results(self, results: list[CheckResult], instance: str) -> None:
        """Count each result once, with its own witness or else its two sides."""
        for r in results:
            self.add(r.identity, r.passed, instance, **(r.witness or {"lhs": r.lhs, "rhs": r.rhs}))

    def results(self) -> list[CheckResult]:
        return [
            CheckResult(identity, failed == 0, checked=checked, failures=failed, witness=witness)
            for identity, (checked, failed, witness) in self.counts.items()
        ]
