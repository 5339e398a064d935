import ast
import inspect
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsymp import oracle
from qsymp.anticodes import Anticode, all_anticodes, intersect_with_anticode, puncture, shorten
from qsymp.codes import Code, from_pauli, random_code, weights_from_codewords, weights_from_supports
from qsymp.enumerators import binomial_moments, distance_from_enumerators, weight_distribution
from qsymp.errors import BudgetExceededError
from qsymp.invariants import alpha, beta, dual_dims, support_dims
from qsymp.oracle import (
    brute_alpha_beta,
    brute_binomial_moments,
    brute_codeword_set,
    brute_min_distance,
    brute_sym_dim_irk,
    brute_weight_distribution,
    enumerate_codewords,
)
from qsymp.symplectic import Subspace


def test_enumeration_of_repetition_matches_listed_codewords(repetition):
    words = list(enumerate_codewords(repetition))
    assert len(words) == 8
    assert len(set(words)) == 8
    assert set(words) == {
        (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1),
        (0, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1),
    }


@pytest.mark.parametrize("q, n, rows", [(2, 3, 5), (3, 2, 4), (5, 2, 3)])
def test_counter_enumeration_follows_the_digit_formula(q, n, rows):
    space = Subspace(np.random.default_rng(rows).integers(0, q, size=(rows, 2 * n)), q, n)
    basis = space.basis.tolist()
    k = len(basis)
    expected = []
    for idx in range(q**k):
        digits = [idx // q**t % q for t in range(k)]
        expected.append(
            tuple(sum(c * row[j] for c, row in zip(digits, basis)) % q for j in range(2 * n))
        )
    assert list(enumerate_codewords(space)) == expected


def test_enumeration_of_zero_code():
    assert list(enumerate_codewords(Subspace.zero(2, 2))) == [(0, 0, 0, 0)]


def test_enumeration_count_of_shor(shor):
    assert sum(1 for _ in enumerate_codewords(shor)) == 1024


def test_enumeration_budget_guard(shor):
    with pytest.raises(BudgetExceededError):
        list(enumerate_codewords(shor, budget=1000))


def test_brute_distance_on_fixtures(repetition, bacon_shor, shor):
    assert brute_min_distance(repetition.space) == 1
    assert brute_min_distance(bacon_shor.normalizer.space) == 2
    assert brute_min_distance(shor.space) == 3
    assert brute_min_distance(Subspace([[0, 1, 0, 1]], 2, 2)) is None


def test_brute_moments_of_zero_code():
    # one vector inside each of the binom(3, b) supports of size b
    assert brute_binomial_moments(Subspace.zero(2, 3)) == [1, 3, 3, 1]


def test_brute_matches_fast_paths_on_fixtures(repetition, bacon_shor):
    for code in (repetition, bacon_shor.normalizer, bacon_shor.gauge):
        assert brute_min_distance(code.space) == code.distance()
        assert brute_weight_distribution(code.space) == weight_distribution(code)
        assert brute_binomial_moments(code.space) == binomial_moments(code)
        assert brute_sym_dim_irk(code.space) == (code.k, code.s)
        anticodes = list(all_anticodes(code.n))
        brute = brute_alpha_beta(code.space, [a.support for a in anticodes])
        assert brute == [(alpha(code, a), beta(code, a)) for a in anticodes]


def test_brute_matches_fast_paths_on_random_codes(rng):
    for t in range(60):
        q = (2, 3)[t % 2]
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        assert brute_min_distance(code.space) == code.distance()
        assert brute_weight_distribution(code.space) == weight_distribution(code)
        assert brute_binomial_moments(code.space) == binomial_moments(code)
        assert brute_sym_dim_irk(code.space) == (code.k, code.s)
        anticodes = list(all_anticodes(n))
        brute = brute_alpha_beta(code.space, [a.support for a in anticodes])
        assert brute == [(alpha(code, a), beta(code, a)) for a in anticodes]


def test_brute_shor_support_values(shor):
    front = frozenset(range(4))
    a = Anticode(9, front)
    assert brute_alpha_beta(shor.space, [front]) == [(alpha(shor, a), beta(shor, a))]


def test_codeword_set_is_a_subspace(rng):
    code = random_code(rng, 3, 2)
    words = brute_codeword_set(code.space)
    assert len(words) == 3**code.dim_f


def test_a_set_size_off_the_powers_of_q_is_refused():
    assert oracle._log_size(8, 2) == 3
    with pytest.raises(AssertionError, match="not a power of 2"):
        oracle._log_size(6, 2)


# ---------------------------------------------------------------------------
# the rank route and the shared support table against the counting route


@st.composite
def small_spaces(draw):
    """Span of drawn rows over F_q, q in {2, 3, 5}, with n <= 3 factors."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 2 * n))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


@st.composite
def route_spaces(draw):
    """Span of drawn rows over F_q, q in {2, 3, 5}, n <= 4, q**dim_F <= 2**12.

    Half the draws take more than n rows, so dim_F > n, where the weight
    table is counted on the complement, is drawn at every q.
    """
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    most = min(2 * n, {2: 12, 3: 7, 5: 5}[q])
    rows = draw(st.integers(n + 1 if draw(st.booleans()) and most > n else 0, most))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


@settings(max_examples=80, deadline=None)
@given(w=small_spaces())
def test_rank_route_matches_counting_route(w):
    assert (w.sym_dim, w.isorank) == brute_sym_dim_irk(w)


@settings(max_examples=40, deadline=None)
@given(w=route_spaces())
def test_support_table_matches_oracle_and_literal_intersections(w):
    dims, dual_column = support_dims(w), dual_dims(w)
    supports = [a.support for a in all_anticodes(w.n)]
    rad, dual = w.radical(), w.perp()
    brute = brute_alpha_beta(w, supports)
    for a, pair in zip(all_anticodes(w.n), brute):
        m = sum(1 << j for j in a.support)
        inner = intersect_with_anticode(w, a)
        assert dims.dim[m] == inner.dim_f
        assert dims.gram_rank[m] == 2 * inner.orthogonal_split().pair_count
        assert dims.rad[m] == intersect_with_anticode(rad, a).dim_f
        assert dual_column[m] == intersect_with_anticode(dual, a).dim_f
        assert (dims.alpha[m], dims.beta[m]) == pair


# ---------------------------------------------------------------------------
# both weight-table routes against the counting route


@settings(max_examples=60, deadline=None)
@given(w=route_spaces())
@example(w=Subspace(np.eye(6, dtype=np.int64), 2, 3))
@example(w=Subspace(np.eye(4, dtype=np.int64), 3, 2))
@example(w=Subspace(np.eye(4, dtype=np.int64), 5, 2))
def test_weight_routes_match_counting_route(w):
    expected = (brute_weight_distribution(w), brute_weight_distribution(w.radical()))
    d = brute_min_distance(w)
    for route in (weights_from_supports, weights_from_codewords):
        all_counts, rad_counts = route(w)
        assert (all_counts, rad_counts) == expected, route.__name__
        assert all(type(c) is int for c in all_counts + rad_counts), route.__name__
        assert distance_from_enumerators(rad_counts, all_counts) == d, route.__name__
    assert Code(w).distance() == d


# ---------------------------------------------------------------------------
# every packed operation against literal codeword sets


@st.composite
def field_pairs(draw):
    """Two spans of drawn rows over F_q, q in {2, 3, 5, 7}, on the same n <= 3 factors.

    The ambient space has at most 5**6 vectors (n <= 2 at q=7), and the row
    counts keep every codeword set, and every sum of two words, to a few
    thousand words.
    """
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2 if q == 7 else 3))
    most = min(2 * n, {2: 6, 3: 4, 5: 3, 7: 2}[q])

    def space():
        rows = draw(st.integers(0, most))
        cells = draw(st.lists(st.integers(0, q - 1), min_size=rows * 2 * n, max_size=rows * 2 * n))
        return Subspace(np.array(cells, dtype=np.int64).reshape(rows, 2 * n), q, n)

    return space(), space(), frozenset(draw(st.sets(st.integers(0, n - 1))))


def _orthogonal(u, v, q=2):
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2)) % q == 0


def _inside(v, support):
    return all(v[2 * j] == v[2 * j + 1] == 0 for j in range(len(v) // 2) if j not in support)


def _project(v, support):
    return tuple(x for j in sorted(support) for x in v[2 * j : 2 * j + 2])


@settings(max_examples=80, deadline=None)
@given(case=field_pairs())
@example(case=(Subspace([[1, 2, 0, 1]], 3, 2), Subspace([[2, 1, 1, 0], [0, 1, 2, 2]], 3, 2), frozenset({1})))
@example(case=(Subspace([[1, 0, 3, 0, 4, 2]], 5, 3), Subspace([[0, 1, 4, 0, 0, 4]], 5, 3), frozenset({0, 2})))
def test_packed_operations_match_codeword_sets(case):
    a, b, support = case
    q, n = a.q, a.n
    words_a, words_b = brute_codeword_set(a), brute_codeword_set(b)
    ambient = set(product(range(q), repeat=2 * n))
    sums = {tuple((x + y) % q for x, y in zip(u, v)) for u in words_a for v in words_b}
    assert brute_codeword_set(a + b) == sums
    assert brute_codeword_set(a & b) == words_a & words_b
    perp = {v for v in ambient if all(_orthogonal(u, v, q) for u in words_a)}
    assert brute_codeword_set(a.perp()) == perp
    assert brute_codeword_set(a.radical()) == {
        v for v in words_a if all(_orthogonal(u, v, q) for u in words_a)
    }
    # Past a few thousand vectors, membership is asked of every word named
    # above: the words of both spaces, their sums and the complement.
    asked = ambient if len(ambient) <= 4096 else words_a | words_b | sums | perp
    assert {v for v in asked if v in a} == words_a & asked
    assert a.contains_space(b) == (words_b <= words_a)
    anticode = Anticode(n, support)
    inner = {v for v in words_a if _inside(v, support)}
    assert brute_codeword_set(intersect_with_anticode(a, anticode)) == inner
    assert brute_codeword_set(puncture(a, anticode)) == {_project(v, support) for v in words_a}
    assert brute_codeword_set(shorten(a, anticode)) == {_project(v, support) for v in inner}


# ---------------------------------------------------------------------------
# the array routes against the definitions, on literal codeword sets


@st.composite
def definition_spaces(draw):
    """Span of drawn rows over F_q, q in {2, 3, 5, 7}, n <= 3, at most 2**7 words."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(0, min(2 * n, {2: 7, 3: 4, 5: 3, 7: 2}[q])))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


def _log(count, q):
    m = 0
    while q**m < count:
        m += 1
    assert q**m == count
    return m


def _pairs_irk(words, q):
    """(pair count, isorank) of a codeword set, its radical filtered pair by pair."""
    radical = {v for v in words if all(_orthogonal(u, v, q) for u in words)}
    rad_dim = _log(len(radical), q)
    pairs = (_log(len(words), q) - rad_dim) // 2
    return pairs, pairs + rad_dim


@settings(max_examples=60, deadline=None)
@given(w=definition_spaces())
def test_array_routes_match_the_definitions(w):
    q, n = w.q, w.n
    words = brute_codeword_set(w)
    assert all(type(x) is int for v in words for x in v)
    radical = {v for v in words if all(_orthogonal(u, v, q) for u in words)}

    def weight(v):
        return sum(1 for j in range(n) if v[2 * j] or v[2 * j + 1])

    supports = [a.support for a in all_anticodes(n)]
    moments, pairs = [0] * (n + 1), []
    for support in supports:
        inside = {v for v in words if _inside(v, support)}
        moments[len(support)] += len(inside)
        alpha_, irk = _pairs_irk(inside, q)
        pairs.append((alpha_, irk - _pairs_irk(inside & radical, q)[1]))
    outside = [weight(v) for v in words - radical]
    expected = {
        brute_sym_dim_irk: _pairs_irk(words, q),
        brute_min_distance: min(outside) if outside else None,
        brute_weight_distribution: [sum(1 for v in words if weight(v) == b) for b in range(n + 1)],
        brute_binomial_moments: moments,
    }
    for route, value in expected.items():
        got = route(w)
        assert got == value, route.__name__
        flat = got if isinstance(got, (list, tuple)) else [got]
        assert all(type(x) is int for x in flat if x is not None), route.__name__
    got = brute_alpha_beta(w, supports)
    assert got == pairs
    assert all(type(x) is int for pair in got for x in pair)


def test_array_routes_on_80_columns():
    # 40 factors.  Z^8 lies past column 64 and pairs only with X...X, so a
    # word key cut at 63 columns would drop Z^8 from the closure generators
    # and count X...X, the lightest word outside the radical, as radical.
    code = Code(from_pauli(["X" + "I" * 38 + "X", "IX" + "I" * 38, "I" * 32 + "Z" * 8]))
    distance = brute_min_distance(code.space)
    distribution = brute_weight_distribution(code.space)
    assert distance == code.distance() == 2
    assert distribution == weight_distribution(code)
    assert type(distance) is int and all(type(c) is int for c in distribution)


def test_oracle_stays_independent_of_the_fast_paths():
    """The oracle reads a space's basis, q, n and dim_f, and imports no elimination."""
    tree = ast.parse(inspect.getsource(oracle))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported == {"__future__", "functools", "itertools", "numpy", "anticodes", "errors"}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    fast = {
        "_field", "_rows", "_gram", "_split", "_support_dims", "_perp", "_radical", "perp", "sym_dim",
        "isorank", "orthogonal_split", "contains_space", "_echelon", "_eliminate", "vanishing_part",
        "canonical", "intersect", "transversal", "kernel", "free", "gram",
    }
    assert attributes & fast == set()
