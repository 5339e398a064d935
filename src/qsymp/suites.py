"""Batched verification suites.

Each suite replays a family of identities over fixtures, seeded random
instances, or exhaustive small scans, and returns aggregated
:class:`~qsymp.report.CheckResult` entries (one per identity, with counts
and a first-failure witness).  The CLI wraps these; the acceptance tests
call them directly with their full instance counts.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import anticodes as ac
from . import enumerators as en
from . import invariants as iv
from . import oracle
from .codes import (
    Code,
    bacon_shor_code,
    from_pauli,
    random_code,
    random_stabilizer_code,
    random_subspace,
    repetition_code,
    shor_code,
    shor_stabilizer_rows,
)
from .errors import DEFAULT_BUDGET
from .report import CheckResult, Tally, batch, equal
from .symplectic import Subspace


def _basis_check(identity: str, space: Subspace, paulis: list[str]) -> CheckResult:
    """The canonical basis of ``space`` against that of the span of ``paulis``."""
    return equal(identity, space.basis.tolist(), from_pauli(paulis).basis.tolist())


def _fixture_codes() -> list[tuple[str, Code]]:
    """The named codes that the batched suites check before their random instances."""
    return [
        ("repetition", repetition_code()),
        ("bacon-shor-normalizer", bacon_shor_code().normalizer),
        ("shor", shor_code()),
    ]


# ---------------------------------------------------------------------------
# fixtures


def fixture_suite(budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """Golden values for the three named codes."""
    checks: list[CheckResult] = []

    # Two-factor repetition code.
    rep = repetition_code()
    checks.append(equal("repetition-params", tuple(rep.params(budget)), (2, 1, 2, 1, 2)))
    checks.append(_basis_check("repetition-dual-space", rep.space.perp(), ["ZZ"]))
    a_poly, b_poly = en.enumerator_polys(rep, budget)
    checks.append(equal("repetition-enumerator-full", b_poly, [1, 2, 5]))
    checks.append(
        equal(
            "repetition-enumerator-radical",
            a_poly,
            [1, 0, 1],
            note=(
                "the dual of this 3-dimensional code is 1-dimensional, so the "
                "radical holds 2 vectors and the enumerator is y^2 + x^2; a "
                "circulated value of y^2 + 3x^2 would need a 4-element radical, "
                "contradicting isorank 2"
            ),
        )
    )
    checks.append(equal("repetition-moments", en.binomial_moments(rep, budget), [1, 4, 8]))
    checks.append(
        equal(
            "repetition-dual-moments",
            en.binomial_moments(rep.dual(), budget),
            [1, 2, 2],
            note=(
                "index-1 value 2 is forced by the moment duality (a circulated "
                "value of 1 is inconsistent with it); index-2 equals the dual's "
                "cardinality 2^(2n - dim_F) = 2"
            ),
        )
    )
    theta, phi = iv.profiles(rep, budget)
    checks.append(
        equal(
            "repetition-profiles",
            (theta, phi),
            ([0, 0, 1], [0, 1, 1]),
            note=(
                "size-1 alpha-profile is 0 under the free-support convention: "
                "the isotropic span of (e,e) and (f,f) has pair count 0, so it "
                "is not an anticode even though its maximum weight is 2"
            ),
        )
    )
    _, varphi, delta = iv.generalized_weights(rep, budget)
    checks.append(equal("repetition-varphi-1", varphi[0], rep.distance(budget)))
    checks.append(equal("repetition-delta-1", delta[0], 2))

    # 2x2 Bacon-Shor subsystem code.
    bs = bacon_shor_code()
    checks.append(equal("bacon-shor-logical-count", bs.logical_count, 1))
    checks.append(_basis_check("bacon-shor-stabilizer", bs.stabilizer, ["XXXX", "ZZZZ"]))
    cnorm = bs.normalizer
    checks.append(equal("bacon-shor-params", tuple(cnorm.params(budget)), (4, 2, 4, 2, 4)))
    theta, phi = iv.profiles(cnorm, budget)
    checks.append(equal("bacon-shor-theta", theta, [0, 0, 0, 2, 2]))
    checks.append(equal("bacon-shor-phi", phi, [0, 0, 2, 2, 2]))
    pattern_ok = (
        phi[2] == phi[1] + 2
        and theta[2] == theta[1]
        and theta[3] == theta[2] + 2
        and phi[3] == phi[2]
    )
    checks.append(
        CheckResult(
            "bacon-shor-step-pattern",
            pattern_ok,
            lhs=(theta, phi),
            note="alternating +2 steps between the two profiles",
        )
    )
    checks.append(batch("bacon-shor-profile-steps", iv.profile_step_items(theta, phi), key=None))

    # Nine-factor Shor code.
    shor = shor_code()
    p = shor.params(budget)
    checks.append(equal("shor-params", (p.n, p.k, p.s, p.d), (9, 1, 9, 3)))
    _, varphi, _ = iv.generalized_weights(shor, budget)
    checks.append(equal("shor-varphi-1", varphi[0], 3))
    front = ac.Anticode(9, frozenset(range(4)))
    dec = ac.s_prime_decompose(shor, front, radical_rows=shor_stabilizer_rows())
    punct_front = ac.puncture(dec.s_prime, front)
    punct_back = ac.puncture(dec.s_prime, front.complement())
    for identity, space, paulis in (
        ("shor-radical-in-support", dec.rad_in_a, ["ZZIIIIIII", "IZZIIIIII"]),
        ("shor-radical-in-complement", dec.rad_in_aperp, ["IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ"]),
        ("shor-transversal-summand", dec.s_prime, ["IIIZZIIII", "XXXXXXIII", "IIIXXXXXX"]),
        ("shor-punctured-transversal-front", punct_front, ["IIIZ", "XXXX", "IIIX"]),
        ("shor-punctured-transversal-back", punct_back, ["ZIIII", "XXIII", "XXXXX"]),
    ):
        checks.append(_basis_check(identity, space, paulis))
    checks.append(
        equal("shor-punctured-dims", (punct_front.sym_dim, punct_back.sym_dim), (1, 1))
    )
    checks.append(
        equal(
            "shor-punctured-isoranks",
            (punct_front.isorank, punct_back.isorank),
            (2, 2),
            note=(
                "both punctured summands have one pair plus a one-dimensional "
                "radical (dim_F 3 = 1 + 2), so isorank 2 is forced by the "
                "splitting bookkeeping; a circulated value of 1 is "
                "inconsistent with it"
            ),
        )
    )
    two_support = ac.Anticode(9, frozenset({0, 1}))
    checks.append(
        equal(
            "shor-cleaning-below-distance",
            ac.puncture(shor, two_support).basis.tolist(),
            ac.puncture(shor.radical_space(), two_support).basis.tolist(),
            note="any support smaller than the distance is cleanable",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# general identities (random + exhaustive)


def _per_support_general(tally: Tally, code: Code, tag: str, budget: int) -> None:
    table = iv.support_dims(code, budget)
    tally.add_batch(iv.rank_identity(code.space, table, budget), tag)
    tally.add_batch(iv.support_check("alpha-le-beta", table.alpha, table.beta, at_most=True), tag)
    _cleaning_checks(tally, code.space, tag)


def _cleaning_checks(tally: Tally, space: Subspace, name: str) -> None:
    """The cleaning identities on every anticode of the space."""
    for a in ac.all_anticodes(space.n):
        tally.add_results(ac.verify_cleaning(space, a), f"{name} support={sorted(a.support)}")


def _pair_identities(tally: Tally, w1: Subspace, w2: Subspace, tag: str) -> None:
    # Pair count and isorank are checked as modular on orthogonal pairs and
    # monotone on nested pairs.  They are NOT super/submodular on arbitrary
    # pairs: span{e1,f1} against span{e1+e2,f1} violates both inequalities
    # (their pairs share f1 and collapse in the sum), so no such check runs.
    both = w1 + w2
    meet = w1 & w2
    lhs, rhs = both.dim_f + meet.dim_f, w1.dim_f + w2.dim_f
    tally.add("dim-f-modularity", lhs == rhs, tag, lhs=lhs, rhs=rhs)
    if w2.perp().contains_space(w1):
        ok = both.sym_dim + meet.sym_dim == w1.sym_dim + w2.sym_dim
        tally.add("modularity-orthogonal-dim", ok, tag)
        ok = both.isorank + meet.isorank == w1.isorank + w2.isorank
        tally.add("modularity-orthogonal-irk", ok, tag)
    if w2.contains_space(w1):
        tally.add("monotonicity-dim", w1.sym_dim <= w2.sym_dim, tag)
        tally.add("monotonicity-irk", w1.isorank <= w2.isorank, tag)


def _perp_identities(tally: Tally, w: Subspace, tag: str) -> None:
    p = w.perp()
    n = w.n
    tally.add("perp-dim", p.sym_dim == n - w.isorank, tag, lhs=p.sym_dim, rhs=n - w.isorank)
    tally.add("perp-irk", p.isorank == n - w.sym_dim, tag, lhs=p.isorank, rhs=n - w.sym_dim)
    tally.add("double-perp", p.perp() == w, tag)
    tally.add("radical-of-perp", p.radical() == w.radical(), tag)
    rad = w.radical()
    tally.add("radical-inside-perp", p.contains_space(rad), tag)
    tally.add("radical-equals-perp-iff-stabilizer", (rad == p) == w.is_stabilizer(), tag)
    # The rank route against an explicit splitting: pair count, and pair
    # count plus radical rows.
    split = w.orthogonal_split()
    lhs = [w.sym_dim, w.isorank]
    rhs = [split.pair_count, split.pair_count + split.radical_basis.shape[0]]
    tally.add("splitting-consistency", lhs == rhs, tag, lhs=lhs, rhs=rhs)


def _random_part(rng: np.random.Generator, space: Subspace) -> Subspace:
    """A random subspace of ``space``: the span of a random number of random combinations."""
    rows = int(rng.integers(0, space.dim_f + 1))
    coeffs = rng.integers(0, space.q, size=(rows, space.dim_f))
    return Subspace(coeffs @ space.basis, space.q, space.n)


def general_identity_suite(
    rng: np.random.Generator, trials: int = 36, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Random codes with n <= 4 over q = 2, 3, 5.

    Rank duality, cleaning, perp duality, modularity and alpha <= beta.
    """
    tally = Tally()
    for t in range(trials):
        q = (2, 3, 5)[t % 3]
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        tag = f"random[{t}] q={q} n={n}"
        _per_support_general(tally, code, tag, budget)
        _perp_identities(tally, code.space, tag)
        other = random_subspace(rng, q, n)
        _pair_identities(tally, code.space, other, tag)
        _pair_identities(tally, _random_part(rng, other.perp()), other, tag + " orthogonal")
        _pair_identities(tally, _random_part(rng, code.space), code.space, tag + " nested")
    return tally.results()


def all_subspaces(q: int, n: int) -> list[Subspace]:
    """Every subspace of the 2n-dimensional ambient space (small cases only)."""
    lines = [Subspace([v], q, n) for v in product(range(q), repeat=2 * n) if any(v)]
    zero = Subspace.zero(q, n)
    seen = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for w in frontier:
            for line in lines:
                if not w.contains_space(line):
                    bigger = w + line
                    if bigger not in seen:
                        seen.add(bigger)
                        fresh.append(bigger)
        frontier = fresh
    return sorted(seen, key=lambda s: (s.dim_f, s.basis.tobytes()))


def exhaustive_small_suite(budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """Every subspace (and every ordered pair) over the binary field, n <= 2."""
    tally = Tally()
    for n in (1, 2):
        spaces = all_subspaces(2, n)
        for i, w in enumerate(spaces):
            tag = f"exhaustive n={n} #{i}"
            _perp_identities(tally, w, tag)
            _per_support_general(tally, Code(w), tag, budget)
        for i, w1 in enumerate(spaces):
            for j, w2 in enumerate(spaces):
                _pair_identities(tally, w1, w2, f"exhaustive n={n} pair ({i},{j})")
    return tally.results()


# ---------------------------------------------------------------------------
# stabilizer-conditional identities


def stabilizer_suite(
    rng: np.random.Generator, trials: int = 24, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Identities whose proofs need the radical to equal the dual, on binary codes with n <= 5."""
    tally = Tally()
    for t in range(trials):
        n = int(rng.integers(1, 6))
        code = random_stabilizer_code(rng, n, 2)
        tag = f"stabilizer[{t}] q=2 n={n}"
        _stabilizer_code_checks(tally, code, tag, budget)
    return tally.results()


def _stabilizer_code_checks(tally: Tally, code: Code, tag: str, budget: int) -> None:
    space = code.space
    n = space.n
    rad = space.radical()
    d = code.distance(budget)
    tally.add_results(iv.verify_bounds(code, budget), tag)
    tally.add_results(en.macwilliams_check(code, budget), tag)
    # Pair count plus isorank of a part is its dim_F; the radical's part is
    # isotropic, so its isorank is its dim_F.
    table = iv.support_dims(code, budget)
    lhs = [n - m.bit_count() - d for m, d in enumerate(reversed(table.dim))]
    rhs = [m.bit_count() - r - space.sym_dim for m, r in enumerate(table.rad)]
    tally.add_batch(iv.support_check("macwilliams-dim-irk", lhs, rhs), tag)
    for a in ac.all_anticodes(n):
        s = sorted(a.support)
        if d is None or a.dim < d:
            ok = ac.puncture(space, a) == ac.puncture(rad, a)
            tally.add("cleaning-below-distance", ok, tag, support=s)
        tally.add_results(ac.complementarity_check(space, a), f"{tag} support={s}")


def bounds_suite(
    rng: np.random.Generator, trials: int = 12, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Bound checks on the fixtures plus a few random stabilizer codes."""
    tally = Tally()
    codes = _fixture_codes()
    for t in range(trials):
        n = int(rng.integers(1, 6))
        codes.append((f"random-stabilizer[{t}]", random_stabilizer_code(rng, n, 2)))
    for name, code in codes:
        tally.add_results(iv.verify_bounds(code, budget), name)
    return tally.results()


# ---------------------------------------------------------------------------
# transforms


def _transform_checks(tally: Tally, code: Code, tag: str, budget: int) -> None:
    w = oracle.brute_weight_distribution(code.space, budget)
    b = en.binomial_moments(code, budget)
    tally.add("moments-from-distribution", en.moments_from_distribution(w) == b, tag)
    tally.add("distribution-from-moments", en.distribution_from_moments(b) == w, tag)
    tally.add("enumerator-routes-agree", en.poly_from_moments(b) == w, tag)


def transforms_suite(
    rng: np.random.Generator, trials: int = 40, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Moment/distribution transforms invert each other; both enumerator routes agree.

    The distributions are counted by the oracle, never by the code's own
    weight tables, which on the support route are themselves the transform
    of the moments and would make these checks compare the moments with
    themselves.
    """
    tally = Tally()
    fixtures = _fixture_codes()
    fixtures.insert(1, ("repetition-dual", fixtures[0][1].dual()))
    for name, code in fixtures:
        _transform_checks(tally, code, name, budget)
    for t in range(trials):
        n = int(rng.integers(0, 7))
        table = [int(x) for x in rng.integers(0, 50, size=n + 1)]
        back = en.distribution_from_moments(en.moments_from_distribution(table))
        tally.add("transform-roundtrip-w", back == table, f"random-table[{t}]")
        back = en.moments_from_distribution(en.distribution_from_moments(table))
        tally.add("transform-roundtrip-b", back == table, f"random-table[{t}]")
        q = (2, 3)[t % 2]
        code = random_code(rng, q, int(rng.integers(1, 4)))
        _transform_checks(tally, code, f"random-code[{t}]", budget)
    return tally.results()


# ---------------------------------------------------------------------------
# oracle equivalence


def _oracle_code_checks(tally: Tally, code: Code, tag: str, budget: int, supports=None) -> None:
    """Compare one code's fast results with the literal routes of the oracle.

    ``oracle-distance`` and ``oracle-distribution`` compare different routes:
    the code's weight tables come from numpy codeword batches over the
    smaller of each space and its complement (so the repetition, Shor and
    every random code with dim_F > n cross-check the complement route), or
    from the support scan past :data:`qsymp.codes.SUPPORT_COST`, while the
    oracle counts every word of its literal enumeration.  Its words and radical are
    enumerated once per code and shared by its five brute routes, each of
    which still counts literally and checks the budget.
    """
    space = code.space
    distance = code.distance(budget)
    words = oracle.Codewords(space, budget)
    tally.add("oracle-distance", distance == oracle.brute_min_distance(words, budget), tag)
    ok = en.weight_distribution(code, budget) == oracle.brute_weight_distribution(words, budget)
    tally.add("oracle-distribution", ok, tag)
    ok = en.binomial_moments(code, budget) == oracle.brute_binomial_moments(words, budget)
    tally.add("oracle-moments", ok, tag)
    if supports is None:
        supports = [a.support for a in ac.all_anticodes(space.n)]
    table = iv.support_dims(code, budget)
    by_mask = list(zip(table.alpha, table.beta))
    items = []
    for s, brute in zip(supports, oracle.brute_alpha_beta(words, supports, budget)):
        ours = by_mask[sum(1 << j for j in s)]
        items.append((sorted(s), list(ours), list(brute), ours == brute))
    tally.add_batch(batch("oracle-alpha-beta", items, key="support"), tag)
    pairs, irk = oracle.brute_sym_dim_irk(words, budget)
    lhs, rhs = [space.sym_dim, space.isorank], [pairs, irk]
    tally.add("oracle-dim-irk", lhs == rhs, tag, lhs=lhs, rhs=rhs)


def oracle_suite(
    rng: np.random.Generator, trials: int = 10, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Fast paths against the literal brute-force reference."""
    tally = Tally()
    bs = bacon_shor_code()
    shor = shor_code()
    shor_supports = [
        frozenset(),
        frozenset({0}),
        frozenset(range(4)),
        frozenset(range(4, 9)),
        frozenset(range(9)),
    ]
    _oracle_code_checks(tally, repetition_code(), "repetition", budget)
    rep_words = sorted(oracle.brute_codeword_set(repetition_code().space, budget))
    expected = sorted(
        {
            (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1),
            (0, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1),
        }
    )
    tally.add("oracle-codeword-set", rep_words == expected, "repetition")
    _oracle_code_checks(tally, bs.gauge, "bacon-shor-gauge", budget)
    _oracle_code_checks(tally, bs.normalizer, "bacon-shor-normalizer", budget)
    _oracle_code_checks(tally, shor, "shor", budget, supports=shor_supports)
    for t in range(trials):
        q = (2, 3)[t % 2]
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        _oracle_code_checks(tally, code, f"random[{t}] q={q} n={n}", budget)
    return tally.results()


# ---------------------------------------------------------------------------
# focused convenience suites


def cleaning_suite(
    rng: np.random.Generator, trials: int = 20, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    tally = Tally()
    codes = _fixture_codes()
    for t in range(trials):
        q = (2, 3, 5)[t % 3]
        codes.append((f"random[{t}]", random_code(rng, q, int(rng.integers(1, 4)))))
    for name, code in codes:
        _cleaning_checks(tally, code.space, name)
    return tally.results()


def macwilliams_suite(
    rng: np.random.Generator, trials: int = 20, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    tally = Tally()
    codes = _fixture_codes()
    for t in range(trials):
        q = (2, 3)[t % 2]
        codes.append((f"random[{t}]", random_code(rng, q, int(rng.integers(1, 4)))))
    for name, code in codes:
        tally.add_results(en.macwilliams_check(code, budget), name)
    return tally.results()


# ---------------------------------------------------------------------------
# aggregation


# Each runner takes a fresh generator and the budget, and ``trials`` only
# when the caller overrides the suite's own instance count (the fixtures
# have none).
_RUNNERS = {
    "fixtures": lambda rng, budget, **_: fixture_suite(budget),
    "identities": lambda rng, budget, **kw: (
        general_identity_suite(rng, budget=budget, **kw) + exhaustive_small_suite(budget)
    ),
    "stabilizer": stabilizer_suite,
    "bounds": bounds_suite,
    "transforms": transforms_suite,
    "oracle": oracle_suite,
    "macwilliams": macwilliams_suite,
    "cleaning": cleaning_suite,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suites(
    suite: str = "all",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    trials: int | None = None,
) -> dict:
    """Run one suite (or all) and assemble a stable, JSON-ready report."""
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    if trials is not None and trials < 0:
        raise ValueError(f"the trial count must not be negative, got {trials}")
    override = {} if trials is None else {"trials": trials}
    sections = [
        (name, runner(np.random.default_rng(seed), budget=budget, **override))
        for name, runner in _RUNNERS.items()
        if suite in ("all", name)
    ]
    total = sum(len(checks) for _, checks in sections)
    failed = sum(1 for _, checks in sections for c in checks if not c.passed)
    return {
        "suite": suite,
        "seed": seed,
        "sections": [
            {"name": name, "checks": [c.to_dict() for c in checks]} for name, checks in sections
        ],
        "summary": {"identities": total, "failed": failed, "pass": failed == 0},
    }
