import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsymp import invariants
from qsymp.anticodes import Anticode, all_anticodes, intersect_with_anticode
from qsymp.codes import (
    Code,
    random_code,
    random_isotropic,
    random_stabilizer_code,
    shor_code,
    stabilizer_code_from_isotropic,
    weights_from_supports,
)
from qsymp.enumerators import binomial_moments, distribution_from_moments, macwilliams_check
from qsymp.errors import BudgetExceededError
from qsymp.invariants import (
    alpha,
    beta,
    generalized_weights,
    invariant_table,
    profiles,
    support_check,
    support_dims,
    verify_bounds,
)
from qsymp.report import batch
from qsymp.symplectic import Subspace


def by_identity(checks):
    return {c.identity: c for c in checks}


def mask_of(support):
    return sum(1 << j for j in support)


# ---------------------------------------------------------------------------
# the two maps


def test_alpha_examples(repetition, bacon_shor):
    assert alpha(bacon_shor.normalizer, Anticode(4, frozenset({0, 1, 2}))) == 2
    assert alpha(repetition, Anticode(2, frozenset())) == 0
    # the supported part span{(f,0)} is isotropic, so it has no pairs
    assert alpha(repetition, Anticode(2, frozenset({0}))) == 0


def test_beta_examples(repetition, bacon_shor):
    assert beta(repetition, Anticode(2, frozenset({0}))) == 1
    assert beta(repetition, Anticode(2, frozenset())) == 0
    assert beta(bacon_shor.normalizer, Anticode(4, frozenset(range(4)))) == 2


def test_alpha_beta_pointwise(rng):
    for _ in range(40):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        for a in all_anticodes(n):
            assert 0 <= alpha(code, a) <= beta(code, a)


def test_support_table_matches_pointwise_maps(rng):
    code = random_code(rng, 2, 3)
    table = support_dims(code)
    for a in all_anticodes(3):
        m = mask_of(a.support)
        assert (table.alpha[m], table.beta[m]) == (alpha(code, a), beta(code, a))


def test_alpha_and_beta_are_monotone_in_the_support(rng):
    # justifies scanning supports by increasing size when minimizing
    for _ in range(30):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 5))
        table = support_dims(random_code(rng, q, n))
        alphas, betas = table.alpha, table.beta
        for m1 in range(1 << n):
            for m2 in range(1 << n):
                if m1 != m2 and m1 & m2 == m1:
                    assert alphas[m1] <= alphas[m2]
                    assert betas[m1] <= betas[m2]


# ---------------------------------------------------------------------------
# profiles


def test_bacon_shor_profiles(bacon_shor):
    theta, phi = profiles(bacon_shor.normalizer)
    assert theta == [0, 0, 0, 2, 2]
    assert phi == [0, 0, 2, 2, 2]


def test_zero_code_profiles():
    theta, phi = profiles(Code(Subspace.zero(2, 3)))
    assert theta == [0, 0, 0, 0]
    assert phi == [0, 0, 0, 0]


def test_repetition_profiles(repetition):
    # The size-1 alpha-profile is 0: both single-factor anticodes meet the
    # code in isotropic lines.  The isotropic span of (e,e) and (f,f) would
    # give 1, but it is not an anticode (pair count 0, max weight 2), so the
    # free-support convention excludes it.
    theta, phi = profiles(repetition)
    assert theta == [0, 0, 1]
    assert phi == [0, 1, 1]


def test_profiles_bounded_by_support_size(rng):
    for t in range(30):
        code = random_code(rng, (2, 3, 5)[t % 3], int(rng.integers(1, 5)))
        theta, phi = profiles(code)
        table = support_dims(code)
        for b in range(code.n + 1):
            assert 0 <= theta[b] <= b
            assert theta[b] <= phi[b] <= b
            sized = [(table.alpha[m], table.beta[m]) for m in range(1 << code.n) if m.bit_count() == b]
            assert theta[b] == max(a for a, _ in sized)
            assert phi[b] == max(v for _, v in sized)


# ---------------------------------------------------------------------------
# generalized weights


def test_repetition_weights(repetition):
    vartheta, varphi, delta = generalized_weights(repetition)
    assert varphi == [1]  # equals the distance: the dual sits inside the code
    assert vartheta == [2]
    assert delta == [2]


def test_shor_weights(shor):
    _, varphi, _ = generalized_weights(shor)
    assert varphi[0] == 3 == shor.distance()


def test_weights_attained_within_bounds(rng):
    for _ in range(25):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)))
        vartheta, varphi, delta = generalized_weights(code)
        for xs in (vartheta, varphi, delta):
            assert len(xs) == code.k
            assert all(x is not None and 1 <= x <= code.n for x in xs)


def test_invariant_table_round_trip(bacon_shor):
    table = invariant_table(bacon_shor.normalizer)
    data = table.to_dict()
    assert data["theta"] == [0, 0, 0, 2, 2]
    assert data["phi"] == [0, 0, 2, 2, 2]
    assert data["k"] == 2
    text = table.format_table()
    assert "theta" in text and "delta" in text


def test_support_scan_budget_guard(shor):
    with pytest.raises(BudgetExceededError):
        profiles(Code(shor.space), budget=100)


@pytest.mark.parametrize(
    "entry",
    [
        support_dims,
        invariants.dual_dims,
        profiles,
        generalized_weights,
        invariant_table,
        binomial_moments,
        macwilliams_check,
        verify_bounds,
    ],
)
def test_budget_is_checked_before_the_shared_table(entry):
    # The table is cached on the space; a cached table must not let a call
    # with a smaller budget through.
    shor = shor_code()
    support_dims(shor)
    with pytest.raises(BudgetExceededError) as err:
        entry(shor, budget=1)
    assert (err.value.needed, err.value.task) == (512, "support scan")


def _first_hit_weights(code):
    """Generalized weights by a literal scan: supports by size, then
    lexicographic, stopping at the first that reaches each level; alpha and
    beta come pointwise from the intersected subspaces, not from the table."""
    values = [(a.dim, alpha(code, a), beta(code, a)) for a in all_anticodes(code.n)]
    tests = (
        lambda lvl, a, b: a >= lvl,
        lambda lvl, a, b: b >= lvl,
        lambda lvl, a, b: a + b >= 2 * lvl,
    )
    levels = range(1, code.k + 1)
    return tuple(
        [next((size for size, a, b in values if hit(lvl, a, b)), None) for lvl in levels]
        for hit in tests
    )


def test_weights_from_maxima_match_a_first_hit_scan(rng, repetition, bacon_shor, shor):
    codes = [repetition, bacon_shor.normalizer, bacon_shor.gauge, shor]
    for t in range(30):
        codes.append(random_code(rng, (2, 3, 5)[t % 3], int(rng.integers(1, 5))))
        codes.append(random_stabilizer_code(rng, int(rng.integers(1, 6))))
    for code in codes:
        assert tuple(generalized_weights(code)) == _first_hit_weights(code)


def test_a_complement_sits_at_the_mirrored_mask(rng):
    for q, n in ((2, 1), (3, 3), (5, 4), (2, 8)):
        code = random_code(rng, q, n)
        table = support_dims(code)
        supports = [a.support for a in all_anticodes(n)]
        columns = (table.dim, table.gram_rank, table.rad, invariants.dual_dims(code))
        assert len(supports) == 2**n and {len(column) for column in columns} == {2**n}
        for supp in supports:
            m, c = mask_of(supp), mask_of(j for j in range(n) if j not in supp)
            assert c == 2**n - 1 - m


def test_the_dual_column_is_the_duals_own_walk(rng):
    # General codes whose radical is not the dual: the column is C-perp's
    # dim column, checked against the literal intersections too.
    for q, n in ((2, 3), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3)):
        code = random_code(rng, q, n)
        while code.space.radical() == code.space.perp():
            code = random_code(rng, q, n)
        column, dual = invariants.dual_dims(code), code.space.perp()
        assert list(column) == list(support_dims(code.dual()).dim)
        for a in all_anticodes(n):
            assert column[mask_of(a.support)] == intersect_with_anticode(dual, a).dim_f, sorted(a.support)


def test_duality_checks_of_a_stabilizer_code_walk_no_dual(rng):
    # A stabilizer code's radical is its dual, so the dual's column is the
    # radical column of the code's own table, and C-perp gets no table.
    for q, n in ((2, 6), (3, 4), (5, 3)):
        code = random_stabilizer_code(rng, n, q)
        assert all(c.passed for c in macwilliams_check(code) + verify_bounds(code))
        assert "_support_dims" not in code.space.perp().__dict__
        assert invariants.dual_dims(code) == support_dims(code).rad


@pytest.mark.parametrize("q", [2, 3, 5])
def test_a_table_and_the_duals_column_build_no_radical(q):
    # The walk seeds the radical's part from the splitting, and the dual's
    # column reads the radical's dimension off the table's full support.
    rng = np.random.default_rng(q)
    for code in (random_stabilizer_code(rng, 4, q), random_code(rng, q, 4)):
        support_dims(code), invariants.dual_dims(code)
        assert "_radical" not in code.space.__dict__
    assert "_radical" not in code.space.perp().__dict__


@pytest.mark.parametrize("q", [2, 3, 5])
def test_verify_bounds_decides_self_orthogonality_with_no_dual(q):
    # A Lagrangian code is its own radical and its own dual: the pair count
    # decides that, and no complement is taken to compare them.
    rng = np.random.default_rng(q)
    code = stabilizer_code_from_isotropic(random_isotropic(rng, q, 3, 3))
    checks = by_identity(verify_bounds(code))
    assert checks["weight-complementarity"].passed
    assert "_perp" not in code.space.__dict__


def test_support_check_compares_by_mask_within_the_size_bound():
    # n = 2: masks 0..3 are the supports {}, {0}, {1} and {0, 1}.
    lhs, rhs = [0, 2, 1, 5], [0, 1, 1, 0]
    every = support_check("x", lhs, rhs)
    assert (every.checked, every.failures, every.witness) == (4, 2, {"support": [0], "lhs": 2, "rhs": 1})
    small = support_check("x", lhs, rhs, below=2)
    assert (small.checked, small.failures) == (3, 1)
    assert support_check("x", rhs, lhs, at_most=True).passed
    assert support_check("x", lhs, rhs, at_most=True).failures == 2


@pytest.mark.parametrize("n", range(11))
def test_complementation_reverses_the_table_order(n):
    order = [a.support for a in all_anticodes(n)]
    full = frozenset(range(n))
    assert [full - s for s in order] == order[::-1]


@st.composite
def table_spaces(draw):
    """Span of drawn rows over F_q, q in {2, 3, 5}, with n <= 7 factors."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 7))
    rows = draw(st.integers(0, 2 * n))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


@settings(max_examples=40, deadline=None)
@given(w=table_spaces())
def test_table_readers_match_literal_intersections(w):
    # Every reader against values recomputed support by support from
    # intersect_with_anticode, with no use of the shared table.
    q, n, k = w.q, w.n, w.sym_dim
    rad, dual = w.radical(), w.perp()
    parts = {}
    for a in all_anticodes(n):
        inner = intersect_with_anticode(w, a)
        rad_dim = intersect_with_anticode(rad, a).dim_f
        parts[a.support] = (inner, rad_dim, intersect_with_anticode(dual, a).dim_f)
    theta, phi, both = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    moments, rad_moments = [0] * (n + 1), [0] * (n + 1)
    for s, (inner, rad_dim, _) in parts.items():
        a, b = inner.sym_dim, inner.isorank - rad_dim
        theta[len(s)] = max(theta[len(s)], a)
        phi[len(s)] = max(phi[len(s)], b)
        both[len(s)] = max(both[len(s)], a + b)
        moments[len(s)] += q**inner.dim_f
        rad_moments[len(s)] += q**rad_dim
    first = lambda maxima, level: next(b for b, m in enumerate(maxima) if m >= level)
    table = invariant_table(w)
    assert (table.n, table.k, table.theta, table.phi) == (n, k, theta, phi)
    assert table.vartheta == [first(theta, a) for a in range(1, k + 1)]
    assert table.varphi == [first(phi, a) for a in range(1, k + 1)]
    assert table.delta == [first(both, 2 * a) for a in range(1, k + 1)]
    assert binomial_moments(w) == moments
    assert weights_from_supports(w) == (
        distribution_from_moments(moments),
        distribution_from_moments(rad_moments),
    )
    full = frozenset(range(n))
    items = []
    for s, (_, _, dual_dim) in parts.items():
        rhs = 2 * len(s) - w.dim_f + parts[full - s][0].dim_f
        items.append((sorted(s), dual_dim, rhs, dual_dim == rhs))
    checks = macwilliams_check(w)
    assert checks[0].to_dict() == batch("macwilliams-per-anticode", items, key="support").to_dict()
    assert all(c.passed for c in checks)
    assert [c.checked for c in checks[1:] if c.checked is not None] == [n + 1] * (
        2 if w.dim_f == 2 * k else 1
    )


def test_invariant_table_reads_the_table_once_and_verify_bounds_twice(monkeypatch):
    reads = []
    real = invariants.support_dims

    def counted(code, budget=invariants.DEFAULT_BUDGET):
        reads.append(code)
        return real(code, budget)

    monkeypatch.setattr(invariants, "support_dims", counted)
    code = shor_code()
    invariant_table(code)
    assert len(reads) == 1
    reads.clear()
    verify_bounds(code)
    assert len(reads) <= 2


# ---------------------------------------------------------------------------
# the bound suite


def test_repetition_bounds(repetition):
    checks = by_identity(verify_bounds(repetition))
    assert checks["singleton"].passed
    assert checks["singleton"].lhs == 0 and checks["singleton"].rhs == 1
    assert checks["anticode-distance"].passed
    assert all(c.passed for c in checks.values())


def test_bacon_shor_bounds(bacon_shor):
    checks = by_identity(verify_bounds(bacon_shor.normalizer))
    assert checks["profile-steps"].passed
    assert checks["singleton"].lhs == 2 and checks["singleton"].rhs == 2
    assert all(c.passed for c in checks.values())


def test_bounds_on_random_binary_stabilizer_codes(rng):
    for _ in range(50):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)), 2)
        checks = verify_bounds(code)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_flat_step_items_can_fail_beyond_the_binary_field():
    # A ternary stabilizer code where the maxima at sizes 1 and 2 are
    # attained by different supports: the beta-profile steps by 2 while the
    # alpha-profile steps by 1, so the flat-step implication fails.  The
    # remaining bound checks all hold.  (Oracle-confirmed support table.)
    w = Subspace(
        [
            [1, 0, 0, 0, 0, 0, 2, 2],
            [0, 1, 0, 0, 0, 0, 2, 1],
            [0, 0, 1, 0, 0, 0, 1, 2],
            [0, 0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, 0, 0, 2],
            [0, 0, 0, 0, 0, 1, 2, 0],
        ],
        3,
        4,
    )
    code = Code(w)
    assert code.is_stabilizer()
    theta, phi = profiles(code)
    assert theta == [0, 0, 1, 2, 2]
    assert phi == [0, 0, 2, 2, 2]
    assert phi[2] == phi[1] + 2 and theta[2] != theta[1]
    from qsymp.oracle import brute_alpha_beta

    assert brute_alpha_beta(w, [frozenset({0, 1}), frozenset({0, 3})]) == [(0, 2), (1, 1)]
    checks = by_identity(verify_bounds(code))
    assert not checks["profile-steps"].passed
    others = [c for c in checks.values() if c.identity != "profile-steps"]
    assert all(c.passed for c in others)


def test_weight_complementarity_is_conditional(rng):
    # a code whose radical differs from its dual must record it as skipped
    w = Subspace([[1, 0, 0, 0], [0, 1, 1, 0]], 2, 2)
    assert w.radical() != w.perp()
    checks = by_identity(verify_bounds(Code(w)))
    assert checks["weight-complementarity"].passed
    assert "skipped" in (checks["weight-complementarity"].note or "")


def test_weight_complementarity_on_stabilizer_codes(rng):
    for _ in range(20):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)))
        table = support_dims(code)
        full = 2**code.n - 1
        for m in range(full + 1):
            assert table.beta[m] + table.alpha[full ^ m] == code.k


def test_small_supports_are_trivial_below_distance(rng):
    for _ in range(20):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)))
        d = code.distance()
        if d is None:
            continue
        table = support_dims(code)
        for m in range(2**code.n):
            if m.bit_count() < d:
                assert (table.alpha[m], table.beta[m]) == (0, 0)


def test_galois_connections(rng):
    for _ in range(25):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)))
        theta, phi = profiles(code)
        vartheta, varphi, _ = generalized_weights(code)
        for a in range(1, code.k + 1):
            for b in range(1, code.n + 1):
                assert (a <= theta[b]) == (vartheta[a - 1] <= b)
                assert (a <= phi[b]) == (varphi[a - 1] <= b)


def test_distance_free_bounds_still_checked():
    checks = by_identity(verify_bounds(Code(Subspace([[0, 1, 0, 1]], 2, 2))))
    assert "skipped" in (checks["singleton"].note or "")
    assert all(c.passed for c in checks.values())


def test_singleton_bound_needs_the_stabilizer_property():
    # A non-stabilizer code with (n, k, d) = (4, 1, 3): the Singleton-type
    # bounds fail, and the suite reports that as entries, not exceptions.
    # (Parameters oracle-confirmed.)
    w = Subspace(
        [
            [1, 0, 0, 0, 1, 1, 0, 1],
            [0, 1, 0, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 1, 0, 1, 1],
            [0, 0, 0, 1, 0, 1, 0, 1],
        ],
        2,
        4,
    )
    code = Code(w)
    assert not code.is_stabilizer()
    assert (code.k, code.distance()) == (1, 3)
    from qsymp.oracle import brute_min_distance, brute_sym_dim_irk

    assert brute_min_distance(w) == 3
    assert brute_sym_dim_irk(w) == (1, 3)
    assert 2 * (3 - 1) > code.n - code.k
    checks = by_identity(verify_bounds(code))
    assert not checks["singleton"].passed
    assert not checks["generalized-singleton-upper"].passed
