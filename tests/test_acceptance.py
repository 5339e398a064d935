"""Acceptance gate: one test per criterion, printing a status line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.

Three checks assert circulated printed values that the algebra itself
refutes (the radical enumerator of the repetition code, the isorank of the
punctured transversal summands of the Shor code, and sub/supermodularity of
the pair-count/isorank invariants on arbitrary subspace pairs).  Those
three are expected to FAIL and say so loudly; companion assertions pin the
values actually forced by the definitions and pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qsymp
from qsymp.anticodes import Anticode, puncture, s_prime_decompose
from qsymp.codes import from_pauli, shor_stabilizer_rows
from qsymp.enumerators import binomial_moments, enumerator_polys
from qsymp.invariants import generalized_weights, profiles, verify_bounds
from qsymp.suites import (
    all_subspaces,
    exhaustive_small_suite,
    general_identity_suite,
    oracle_suite,
    stabilizer_suite,
    transforms_suite,
)

SEED = 20240917


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")


def assert_suite_clean(checks, criterion: str) -> None:
    failures = [c for c in checks if not c.passed]
    total = sum(c.checked or 1 for c in checks)
    report(criterion, not failures, f"{len(checks)} identities, {total} instances")
    assert not failures, [ (c.identity, c.failures, c.witness) for c in failures ]


# ---------------------------------------------------------------------------
# criterion 1: the repetition fixture


def test_criterion_1_repetition_fixture(repetition):
    ok = True
    p = repetition.params()
    assert (p.n, p.k, p.s, p.d) == (2, 1, 2, 1)
    a_poly, b_poly = enumerator_polys(repetition)
    assert b_poly == [1, 2, 5]  # y^2 + 2xy + 5x^2
    assert binomial_moments(repetition) == [1, 4, 8]
    dual_moments = binomial_moments(repetition.dual())
    assert dual_moments[1] == 2
    print(
        "NOTE criterion 1: the dual's first moment is 2, forced by the moment "
        "duality; a circulated value of 1 is inconsistent with the enumerator "
        "expansion."
    )
    report("1 (repetition fixture)", ok)


def test_criterion_1_radical_enumerator_as_printed(repetition):
    """Literal form of the stated radical enumerator; fails by necessity."""
    a_poly, _ = enumerator_polys(repetition)
    stated = [1, 0, 3]  # y^2 + 3x^2
    report(
        "1b (radical enumerator as printed, y^2 + 3x^2)",
        a_poly == stated,
        "definitions force y^2 + x^2",
    )
    assert a_poly == stated, (
        "the stated radical enumerator y^2 + 3x^2 needs a 4-element radical, "
        "but this code is 3-dimensional in a 4-dimensional ambient space, so "
        "its dual (and radical) is 1-dimensional with 2 elements; the "
        "enumerator forced by the definitions is y^2 + x^2, consistent with "
        "isorank 2, the moment duality, and the moment expansion "
        "(y-x)^2 + 2x(y-x) + 2x^2"
    )


# ---------------------------------------------------------------------------
# criterion 2: the 2x2 subsystem fixture


def test_criterion_2_bacon_shor_fixture(bacon_shor):
    assert bacon_shor.logical_count == 1
    assert bacon_shor.normalizer.distance() == 2
    theta, phi = profiles(bacon_shor.normalizer)
    assert theta == [0, 0, 0, 2, 2]
    assert phi == [0, 0, 2, 2, 2]
    assert phi[2] == phi[1] + 2 and theta[2] == theta[1]
    assert theta[3] == theta[2] + 2 and phi[3] == phi[2]
    steps = [c for c in verify_bounds(bacon_shor.normalizer) if c.identity == "profile-steps"]
    assert steps and all(c.passed for c in steps)
    report("2 (2x2 subsystem fixture)", True)


# ---------------------------------------------------------------------------
# criterion 3: the nine-factor fixture


def test_criterion_3_shor_fixture(shor):
    assert shor.distance() == 3
    _, varphi, _ = generalized_weights(shor)
    assert varphi[0] == 3
    front = Anticode(9, frozenset(range(4)))
    dec = s_prime_decompose(shor, front, radical_rows=shor_stabilizer_rows())
    assert dec.rad_in_a == from_pauli(["ZZIIIIIII", "IZZIIIIII"])
    assert dec.rad_in_aperp == from_pauli(["IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ"])
    assert dec.s_prime == from_pauli(["IIIZZIIII", "XXXXXXIII", "IIIXXXXXX"])
    pf = puncture(dec.s_prime, front)
    pb = puncture(dec.s_prime, front.complement())
    assert pf == from_pauli(["IIIZ", "XXXX", "IIIX"])
    assert pb == from_pauli(["ZIIII", "XXIII", "XXXXX"])
    assert pf.sym_dim == pb.sym_dim == 1
    assert pf.isorank == pb.isorank  # the complementarity identity itself
    assert pf.isorank == 2
    print(
        "NOTE criterion 3: each punctured summand is dim_F 3 with one pair "
        "and a 1-dimensional radical, so its isorank is 1 + 1 = 2 on both "
        "sides; the complementarity equality holds at that value."
    )
    report("3 (nine-factor fixture)", True)


def test_criterion_3_punctured_isorank_as_printed(shor):
    """Literal form of the stated punctured isorank; fails by necessity."""
    front = Anticode(9, frozenset(range(4)))
    dec = s_prime_decompose(shor, front, radical_rows=shor_stabilizer_rows())
    pf = puncture(dec.s_prime, front)
    report(
        "3b (punctured isorank as printed, 1)",
        pf.isorank == 1,
        "splitting bookkeeping forces 2",
    )
    assert pf.isorank == 1, (
        "the punctured transversal summand has dim_F 3 with exactly one "
        "symplectic pair and the stated 1-dimensional radical span{(e,e,e,0)}, "
        "and dim_F = pair count + isorank forces isorank = 2; the printed "
        "value 1 contradicts that bookkeeping (it matches the radical's "
        "dimension instead)"
    )


# ---------------------------------------------------------------------------
# criterion 4: identity suites over random and exhaustive scans


def test_criterion_4_identity_suites():
    rng = np.random.default_rng(SEED)
    checks = general_identity_suite(rng, trials=200)
    checks += exhaustive_small_suite()
    wanted = {
        "duality-rank-identity",
        "cleaning-shorten-dual",
        "cleaning-puncture-dual",
        "perp-dim",
        "perp-irk",
        "modularity-orthogonal-dim",
        "modularity-orthogonal-irk",
        "alpha-le-beta",
    }
    seen = {c.identity for c in checks}
    assert wanted <= seen
    assert_suite_clean(checks, "4 (identity suites, 200 random codes + exhaustive n<=2)")


def test_criterion_4_supermodularity_as_stated():
    """Literal sub/supermodularity over arbitrary pairs; fails by necessity."""
    violations = []
    spaces = all_subspaces(2, 2)
    for w1 in spaces:
        for w2 in spaces:
            s, m = w1 + w2, w1 & w2
            if s.sym_dim + m.sym_dim < w1.sym_dim + w2.sym_dim:
                violations.append((w1.basis.tolist(), w2.basis.tolist()))
            elif s.isorank + m.isorank > w1.isorank + w2.isorank:
                violations.append((w1.basis.tolist(), w2.basis.tolist()))
    report(
        "4b (sub/supermodularity on arbitrary pairs)",
        not violations,
        f"{len(violations)} of {len(spaces) ** 2} pairs violate it",
    )
    assert not violations, (
        f"pair-count supermodularity and isorank submodularity fail on "
        f"{len(violations)} of {len(spaces) ** 2} ordered pairs of subspaces "
        f"of the two-factor binary space; the smallest counterexample is "
        f"span{{e1,f1}} with span{{e1+e2,f1}}: the sum has one pair and the "
        f"intersection none, so 1 + 0 < 1 + 1 (the two pairs share f1 and "
        f"collapse in the sum); the inequalities do hold for orthogonal "
        f"pairs, where they sharpen to equalities"
    )


# ---------------------------------------------------------------------------
# criterion 5: stabilizer-conditional suites


def test_criterion_5_stabilizer_suites():
    rng = np.random.default_rng(SEED + 1)
    checks = stabilizer_suite(rng, trials=100)
    wanted = {
        "weight-complementarity",
        "macwilliams-dim-irk",
        "anticode-distance",
        "cleaning-below-distance",
        "singleton",
        "generalized-singleton-upper",
        "generalized-singleton-self-orthogonal",
        "delta-monotone",
        "weights-pair-step",
        "galois-connection",
    }
    seen = {c.identity for c in checks}
    assert wanted <= seen
    assert_suite_clean(checks, "5 (stabilizer suites, 100 random codes)")


# ---------------------------------------------------------------------------
# criterion 6: transform round-trips


def test_criterion_6_transform_round_trips():
    rng = np.random.default_rng(SEED + 2)
    checks = transforms_suite(rng, trials=100)
    seen = {c.identity for c in checks}
    assert {
        "moments-from-distribution",
        "distribution-from-moments",
        "enumerator-routes-agree",
        "transform-roundtrip-w",
        "transform-roundtrip-b",
    } <= seen
    assert_suite_clean(checks, "6 (transform round-trips, 100 random tables)")


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalence


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(SEED + 3)
    checks = oracle_suite(rng, trials=20)
    assert_suite_clean(checks, "7 (oracle equivalence)")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical verification reports


def test_criterion_8_deterministic_reports():
    cmd = [sys.executable, "-m", "qsymp", "verify", "--suite", "all", "--seed", "7"]
    # The child imports the same package as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(qsymp.__file__).resolve().parents[1])}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    identical = first.stdout == second.stdout
    report("8 (byte-identical verification reports)", identical)
    assert identical
    report_data = json.loads(first.stdout)
    assert report_data["summary"]["pass"] is True
