import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from qsymp import anticodes, codes, enumerators, invariants
from qsymp.codes import Code, random_stabilizer_code, repetition_code
from qsymp.errors import DEFAULT_BUDGET
from qsymp.invariants import profile_step_items
from qsymp.report import Tally, batch
from qsymp.suites import SUITE_NAMES, run_suites
from qsymp.symplectic import Subspace


def test_batch_counts_the_items_and_keeps_the_first_failure():
    items = [("a", 1, 1, True), ("b", 2, 3, False), ("c", 4, 5, False)]
    assert batch("x", items).to_dict() == {
        "identity": "x",
        "pass": False,
        "checked": 3,
        "failures": 2,
        "witness": {"instance": "b", "lhs": 2, "rhs": 3},
    }
    assert batch("x", items, key="support").witness == {"support": "b", "lhs": 2, "rhs": 3}
    assert batch("x", items, key=None).witness is None
    assert batch("x", [], note="n").to_dict() == {
        "identity": "x", "pass": True, "note": "n", "checked": 0, "failures": 0
    }


def test_tally_add_batch_keeps_the_first_failing_item():
    first = [([0], 1, 1, True), ([1], 2, 3, False), ([0, 1], 4, 5, False)]
    second = [([2], 6, 7, False)]
    tally, one_by_one = Tally(), Tally()
    tally.add_batch(batch("x", first, key="support"), "code-a")
    tally.add_batch(batch("x", second, key="support"), "code-b")
    for instance, items in (("code-a", first), ("code-b", second)):
        for s, lhs, rhs, ok in items:
            one_by_one.add("x", ok, instance, support=s, lhs=lhs, rhs=rhs)
    (result,) = tally.results()
    assert result.to_dict() == {
        "identity": "x",
        "pass": False,
        "checked": 4,
        "failures": 3,
        "witness": {"instance": "code-a", "support": [1], "lhs": 2, "rhs": 3},
    }
    assert [r.to_dict() for r in one_by_one.results()] == [result.to_dict()]


@pytest.fixture
def off_by_one_dual(monkeypatch):
    """Make the dual's column report one more dimension on the full support than there is."""
    real = invariants.dual_dims

    def wrong(code, budget=invariants.DEFAULT_BUDGET):
        column = real(code, budget)
        return _dual_faults(column, [range(len(column).bit_length() - 1)])

    monkeypatch.setattr(invariants, "dual_dims", wrong)
    monkeypatch.setattr(enumerators, "dual_dims", wrong)


def _dual_faults(column, supports):
    """The dual's column with one more dimension than there is on each given support."""
    dual = list(column)
    for s in supports:
        dual[sum(1 << j for j in s)] += 1
    return tuple(dual)


def test_witness_is_the_first_failure_by_size_then_lexicographic(monkeypatch):
    # {1, 2} is mask 6 and {0, 3} is mask 9: increasing masks meet {1, 2}
    # first, while the table order, by size then lexicographic, meets {0, 3}
    # first.  The per-anticode check reads each support's own dual entry,
    # the rank identity its complement's, and the two supports are each
    # other's complement, so both checks fail on both.
    real = invariants.dual_dims
    faults = [frozenset({1, 2}), frozenset({0, 3})]

    def wrong(code, budget=DEFAULT_BUDGET):
        return _dual_faults(real(code, budget), faults)

    monkeypatch.setattr(invariants, "dual_dims", wrong)
    monkeypatch.setattr(enumerators, "dual_dims", wrong)
    code = random_stabilizer_code(np.random.default_rng(4), 4)
    (per, *_) = enumerators.macwilliams_check(code)
    (rank,) = [c for c in invariants.verify_bounds(code) if c.identity == "duality-rank-identity"]
    assert per.identity == "macwilliams-per-anticode"
    for check in (per, rank):
        assert (check.checked, check.failures, check.witness["support"]) == (16, 2, [0, 3])


# sha256 of the failing reports, dumped with sorted keys: the counts, the
# first-failure witnesses and the entries without a witness are a contract
# just as the passing reports are.
PINNED_FAILURES = {
    "bounds": "1f167359fa176e1c875fb854ec1c8f28f2dc7d4c1211b9c7201f736f23bc7a67",
    "macwilliams": "51a808c7c85e0e89ab092e005a1eaafb27d4367a8a93e3776154a5675e3272bd",
}


@pytest.mark.parametrize("suite", sorted(PINNED_FAILURES))
def test_failing_report_is_pinned(suite, off_by_one_dual):
    report = run_suites(suite, seed=7)
    assert report["summary"]["pass"] is False
    dumped = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == PINNED_FAILURES[suite]


def _isorank_one_too_many(monkeypatch):
    monkeypatch.setattr(Subspace, "isorank", property(lambda w: w.dim_f - w.sym_dim + 1))


def _distance_one_too_many(monkeypatch):
    real = Code.distance

    def wrong(code, budget=DEFAULT_BUDGET):
        d = real(code, budget)
        return None if d is None else d + 1

    monkeypatch.setattr(Code, "distance", wrong)


def _poly_off_at_zero(monkeypatch):
    real = enumerators.poly_from_moments

    def wrong(moments):
        coeffs = real(moments)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(enumerators, "poly_from_moments", wrong)


def _shorten_punctures(monkeypatch):
    monkeypatch.setattr(anticodes, "shorten", anticodes.puncture)


# The failing reports of the other suites, each under a fault that reaches
# its witnesses: sha256 as in PINNED_FAILURES.
PINNED_FAULT_REPORTS = {
    "fixtures": (
        _isorank_one_too_many,
        "35d60d2d284d356fd8335fbe8b4a915e69837cd00710ae8ce55884c4646e8ad8",
    ),
    "identities": (
        _isorank_one_too_many,
        "598000ea5a37effb4e0af960bb11570bdf8eef6d014b785ec662b501f526aaff",
    ),
    "stabilizer": (
        _distance_one_too_many,
        "864896e698eb30c33719a5f9fa9fadc579a4fc11f1fa9bbcf3aaf4baa6c93ed4",
    ),
    "transforms": (
        _poly_off_at_zero,
        "8d7d844f9f50dd08aaa1b3d8ea1ca14e5903348137097a2826619ec56461a4cf",
    ),
    "oracle": (
        _isorank_one_too_many,
        "7a993ec22580ac1f0a447286f2f3764d0e7e8a9dcd30b156f17a70817e6e7429",
    ),
    "cleaning": (
        _shorten_punctures,
        "2e1c8ccc22be05688b0a5358d398cac212feec4c77e4815fc7b1a678702405e5",
    ),
}


@pytest.mark.parametrize("suite", sorted(PINNED_FAULT_REPORTS))
def test_failing_report_under_a_fault_is_pinned(suite, monkeypatch):
    fault, digest = PINNED_FAULT_REPORTS[suite]
    fault(monkeypatch)
    report = run_suites(suite, seed=7)
    assert report["summary"]["pass"] is False
    dumped = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == digest


def _column_faults(monkeypatch):
    """One more radical dimension on every support holding factor 1 but not
    factor 0, and one pair fewer on {0, 1}, in every reader of the table."""
    real = invariants.support_dims

    def wrong(code, budget=DEFAULT_BUDGET):
        table = real(code, budget)
        rad = [r + (mask & 3 == 2) for mask, r in enumerate(table.rad)]
        gram_rank = [g - 2 * (mask == 3) for mask, g in enumerate(table.gram_rank)]
        return replace(table, rad=tuple(rad), gram_rank=tuple(gram_rank))

    for module in (invariants, enumerators, codes):
        monkeypatch.setattr(module, "support_dims", wrong)


# The failing reports of the suites that read alpha, beta or the radical
# column, under the column faults above: sha256 as in PINNED_FAILURES.
PINNED_COLUMN_FAULT_REPORTS = {
    "identities": "a5f9f1720234906ad7f5f1b416540206e10618235c2386883acbaef4396f6302",
    "stabilizer": "84a30dc0d4e2409736a2a2e4c4036a64d1deb7030ed5e785fbd2932676f0b6b9",
    "bounds": "20ce05efd37ad9d28989e77417919da7959b432c9a7a383beac40486d6feb47b",
    "oracle": "66ac83e2c1296ca232f9d4bc7c11468cdbba04036f47e1485a3e06eebe51d67e",
}


@pytest.mark.parametrize("suite", sorted(PINNED_COLUMN_FAULT_REPORTS))
def test_failing_report_under_a_column_fault_is_pinned(suite, monkeypatch):
    _column_faults(monkeypatch)
    report = run_suites(suite, seed=7)
    assert report["summary"]["pass"] is False
    dumped = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == PINNED_COLUMN_FAULT_REPORTS[suite]


def test_column_faults_fail_exactly_the_identities_that_read_those_columns(monkeypatch):
    _column_faults(monkeypatch)
    failing = {
        check["identity"]
        for suite in PINNED_COLUMN_FAULT_REPORTS
        for section in run_suites(suite, seed=7)["sections"]
        for check in section["checks"]
        if not check["pass"]
    }
    per_support = {
        "alpha-le-beta",
        "weight-complementarity",
        "alpha-beta-difference-complement",
        "small-support-trivial",
        "macwilliams-dim-irk",
        "oracle-alpha-beta",
    }
    # The profiles and weights are read off the same columns.
    read_off_the_profiles = {"profile-steps", "weights-lower-bound", "anticode-distance"}
    assert failing == per_support | read_off_the_profiles


def test_a_level_no_support_reaches_is_reported_as_unattained(monkeypatch):
    # At n = 2 the fault leaves the full support one pair short of k = 1,
    # so no support reaches alpha = 1: a wrong table, which the bound
    # checks must report rather than raise on.
    _column_faults(monkeypatch)
    rep = repetition_code()
    assert invariants.invariant_table(rep).to_dict()["vartheta"] == ["unattained"]
    checks = invariants.verify_bounds(rep)
    assert not all(c.passed for c in checks)


@pytest.fixture(scope="module")
def all_sections():
    return {s["name"]: s for s in run_suites("all", seed=7)["sections"]}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_single_suite_equals_its_section_of_all(suite, all_sections):
    (section,) = run_suites(suite, seed=7)["sections"]
    assert section == all_sections[suite]


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suites("bogus")


def test_failing_bounds_witness_names_the_code_and_the_support(off_by_one_dual):
    (section,) = run_suites("bounds", seed=7)["sections"]
    failing = [c for c in section["checks"] if not c["pass"]]
    assert [c["identity"] for c in failing] == ["duality-rank-identity"]
    assert failing[0]["witness"] == {"instance": "repetition", "support": [], "lhs": 0, "rhs": 1}


def test_a_failing_profile_step_is_keyed_as_a_step():
    items = profile_step_items([0, 0, 3], [0, 1, 1])
    assert batch("profile-steps", items, key="step").witness == {
        "step": "theta[1->2]", "lhs": 3, "rhs": 2
    }
