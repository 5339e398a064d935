from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qsymp.codes import Code, random_code
from qsymp.enumerators import (
    binomial_moments,
    distance_from_enumerators,
    distribution_from_dual,
    distribution_from_moments,
    enumerator_polys,
    format_enumerator,
    macwilliams_check,
    moments_from_distribution,
    poly_from_moments,
    weight_distribution,
)
from qsymp.symplectic import Subspace


def by_identity(checks):
    return {c.identity: c for c in checks}


# ---------------------------------------------------------------------------
# distributions and moments


def test_repetition_weight_distribution(repetition):
    assert weight_distribution(repetition) == [1, 2, 5]


def test_repetition_radical_distribution(repetition):
    # the radical is the two-element dual, not the four-element isotropic
    # span that is sometimes quoted; dim_F forces 2n - 3 = 1
    assert weight_distribution(Code(repetition.radical_space())) == [1, 0, 1]


def test_zero_code_distribution():
    assert weight_distribution(Code(Subspace.zero(2, 3))) == [1, 0, 0, 0]


def test_repetition_moments(repetition):
    assert binomial_moments(repetition) == [1, 4, 8]


def test_repetition_dual_moments(repetition):
    # index 1: each single-factor part of the dual holds only the zero
    # vector... of the two single-factor supports each contributes 1, so 2.
    # index 2 equals the dual's cardinality 2^(4-3) = 2.
    assert binomial_moments(repetition.dual()) == [1, 2, 2]


def test_zero_code_moments():
    # each support contributes exactly the zero vector, so the size-b moment
    # counts the supports of size b
    assert binomial_moments(Code(Subspace.zero(2, 3))) == [1, 3, 3, 1]


# ---------------------------------------------------------------------------
# transforms


def test_round_trip_on_repetition_tables(repetition):
    w = weight_distribution(repetition)
    b = binomial_moments(repetition)
    assert moments_from_distribution(w) == b
    assert distribution_from_moments(b) == w


def test_zero_code_transform_pair():
    assert moments_from_distribution([1, 0, 0, 0]) == [1, 3, 3, 1]
    assert distribution_from_moments([1, 3, 3, 1]) == [1, 0, 0, 0]


def test_named_transform_value():
    assert moments_from_distribution([1, 2, 5]) == [1, 4, 8]


def test_transforms_are_mutually_inverse_on_arbitrary_tables(rng):
    for _ in range(100):
        n = int(rng.integers(0, 7))
        table = [int(x) for x in rng.integers(0, 60, size=n + 1)]
        assert distribution_from_moments(moments_from_distribution(table)) == table
        assert moments_from_distribution(distribution_from_moments(table)) == table


def _moments_by_comb(w):
    """The binomial transform written out term by term: the reference for the sweep."""
    n = len(w) - 1
    return [sum(comb(n - a, b - a) * w[a] for a in range(b + 1)) for b in range(n + 1)]


def _distribution_by_comb(b):
    """The inverse transform written out term by term: the reference for the sweep."""
    n = len(b) - 1
    return [
        sum((-1) ** (a - j) * comb(n - j, a - j) * b[j] for j in range(a + 1))
        for a in range(n + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(table=st.lists(st.integers(-(2**70), 2**70), max_size=41))
def test_sweeps_match_the_binomial_formulas(table):
    assert moments_from_distribution(table) == _moments_by_comb(table)
    assert distribution_from_moments(table) == _distribution_by_comb(table)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_dual_transform_between_zero_and_full_space(q, n):
    zero = [1] + [0] * n
    full = [comb(n, b) * (q * q - 1) ** b for b in range(n + 1)]
    assert distribution_from_dual(zero, q, 2 * n) == full
    assert distribution_from_dual(full, q, 0) == zero


def test_dual_transform_refuses_a_table_that_is_not_a_complement():
    # [1, 1] has moments [1, 2]; a zero-dimensional space would need 2 / 2**2
    with pytest.raises(ValueError):
        distribution_from_dual([1, 1], 2, 0)


def test_dual_transform_matches_the_dual_distribution(rng):
    for t in range(30):
        q = (2, 3, 5)[t % 3]
        code = random_code(rng, q, int(rng.integers(1, 4)))
        dual = weight_distribution(code.dual())
        assert distribution_from_dual(dual, q, code.dim_f) == weight_distribution(code)


# ---------------------------------------------------------------------------
# enumerator polynomials


def test_repetition_enumerators(repetition):
    a_poly, b_poly = enumerator_polys(repetition)
    assert b_poly == [1, 2, 5]
    assert a_poly == [1, 0, 1]
    assert format_enumerator(b_poly) == "y^2 + 2xy + 5x^2"
    assert format_enumerator(a_poly) == "y^2 + x^2"


def test_zero_code_enumerators():
    a_poly, b_poly = enumerator_polys(Code(Subspace.zero(2, 4)))
    assert a_poly == b_poly == [1, 0, 0, 0, 0]
    assert format_enumerator(a_poly) == "y^4"


def test_shor_enumerator_totals(shor):
    a_poly, b_poly = enumerator_polys(shor)
    assert sum(a_poly) == 2**8
    assert sum(b_poly) == 2**10


def test_both_enumerator_routes_agree(rng):
    for _ in range(100):
        q = int(rng.choice([2, 3]))
        code = random_code(rng, q, int(rng.integers(1, 4)))
        direct = weight_distribution(code)
        via_moments = poly_from_moments(binomial_moments(code))
        assert direct == via_moments


def test_trailing_degree_is_the_distance(repetition, shor):
    a_poly, b_poly = enumerator_polys(repetition)
    assert distance_from_enumerators(a_poly, b_poly) == 1 == repetition.distance()
    a_poly, b_poly = enumerator_polys(shor)
    assert distance_from_enumerators(a_poly, b_poly) == 3 == shor.distance()


def test_trailing_degree_of_identical_polys_is_none():
    assert distance_from_enumerators([1, 0, 3], [1, 0, 3]) is None
    with pytest.raises(ValueError):
        distance_from_enumerators([1, 0], [1, 0, 0])


def test_codewords_below_distance_are_radical(rng):
    for _ in range(25):
        code = random_code(rng, 2, int(rng.integers(1, 4)))
        d = code.distance()
        if d is None:
            continue
        full = weight_distribution(code)
        rad = weight_distribution(Code(code.space.radical()))
        for a in range(1, d):
            assert full[a] == rad[a]


# ---------------------------------------------------------------------------
# duality


def test_repetition_moment_duality_value(repetition):
    # shifted exponent: q^(2*1 - 3) * 4 = 2 matches the dual's first moment
    b_self = binomial_moments(repetition)
    b_dual = binomial_moments(repetition.dual())
    q, dim_f = 2, repetition.dim_f
    assert b_dual[1] * q**dim_f == q**2 * b_self[1]
    assert b_dual[1] == 2


def test_macwilliams_checks_pass(repetition, bacon_shor, shor, rng):
    for code in (repetition, bacon_shor.normalizer, shor):
        assert all(c.passed for c in macwilliams_check(code))
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        code = random_code(rng, q, int(rng.integers(1, 4)))
        assert all(c.passed for c in macwilliams_check(code))


def test_unshifted_exponent_applies_only_without_radical(rng):
    # trivial radical: the unshifted form is checked and holds
    w = Subspace([[1, 0, 0, 0], [0, 1, 0, 0]], 2, 2)
    assert w.radical().dim_f == 0
    checks = by_identity(macwilliams_check(Code(w)))
    assert checks["macwilliams-moments-unshifted"].passed
    assert checks["macwilliams-moments-unshifted"].checked is not None
    # nontrivial radical: recorded as skipped, with the shifted form asserted
    checks = by_identity(macwilliams_check(Code(Subspace([[0, 1, 0, 1]], 2, 2))))
    assert "skipped" in (checks["macwilliams-moments-unshifted"].note or "")
    assert checks["macwilliams-moments"].passed


def test_unshifted_exponent_on_random_trivial_radical_codes(rng):
    # the pair part of any splitting has no radical, so it exercises the
    # unshifted form on every draw
    checked = 0
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        seed_code = random_code(rng, q, int(rng.integers(1, 4)))
        split = seed_code.space.orthogonal_split()
        if not split.pairs:
            continue
        rows = [v for pair in split.pairs for v in pair]
        w = Subspace(rows, q, seed_code.n)
        assert w.radical().dim_f == 0
        result = by_identity(macwilliams_check(Code(w)))["macwilliams-moments-unshifted"]
        assert result.passed and result.checked
        checked += 1
    assert checked > 0


def test_last_moment_is_the_cardinality(rng):
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        code = random_code(rng, q, int(rng.integers(1, 4)))
        moments = binomial_moments(code)
        assert moments[-1] == q**code.dim_f
        assert moments[0] == 1
