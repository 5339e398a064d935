import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense import vanishing_part

from qsymp import anticodes
from qsymp.anticodes import (
    Anticode,
    all_anticodes,
    complementarity_check,
    intersect_with_anticode,
    puncture,
    s_prime_decompose,
    shorten,
    verify_cleaning,
)
from qsymp.codes import (
    from_pauli,
    random_code,
    random_stabilizer_code,
    repetition_code,
    shor_stabilizer_rows,
)
from qsymp.errors import DimensionMismatchError
from qsymp.oracle import brute_codeword_set
from qsymp.suites import all_subspaces
from qsymp.symplectic import Subspace, _Gf2, _Packed, hamming_weight

FRONT = Anticode(9, frozenset(range(4)))


# ---------------------------------------------------------------------------
# anticodes as supports


def test_anticode_dimensions():
    a = Anticode(2, frozenset({0}))
    realized = a.subspace(2)
    assert realized.dim_f == 2
    assert realized.sym_dim == 1
    assert realized.isorank == 1


def test_anticode_complement():
    a = Anticode(9, frozenset({0, 1, 2, 3}))
    assert a.complement().support == frozenset({4, 5, 6, 7, 8})


def test_anticode_bad_index():
    with pytest.raises(IndexError):
        Anticode(3, frozenset({3}))


def test_empty_and_full_realizations():
    assert Anticode(3, frozenset()).subspace(2) == Subspace.zero(2, 3)
    assert Anticode(3, frozenset(range(3))).subspace(2) == Subspace.full(2, 3)


def test_lattice_matches_subspace_lattice():
    anticodes = list(all_anticodes(3))
    assert len(anticodes) == 8
    for a in anticodes:
        for b in anticodes:
            meet = Anticode(3, a.support & b.support).subspace(2)
            join = Anticode(3, a.support | b.support).subspace(2)
            assert meet == (a.subspace(2) & b.subspace(2))
            assert join == (a.subspace(2) + b.subspace(2))


def test_free_subspaces_are_exactly_the_weight_extremal_ones():
    # over the binary field with n <= 2: pair count equals max weight iff
    # the subspace is the full space on its support
    for n in (1, 2):
        frees = {a.subspace(2) for a in all_anticodes(n)}
        for w in all_subspaces(2, n):
            words = brute_codeword_set(w)
            maxwt = max(hamming_weight(np.array(v)) for v in words)
            assert (w.sym_dim == maxwt) == (w in frees)


# ---------------------------------------------------------------------------
# puncturing and shortening


def test_puncture_on_full_support_is_identity(repetition):
    a = Anticode(2, frozenset({0, 1}))
    assert puncture(repetition, a) == repetition.space


def test_puncture_on_empty_support():
    a = Anticode(2, frozenset())
    out = puncture(repetition_code(), a)
    assert out.n == 0
    assert out.dim_f == 0


def test_shor_transversal_puncture_spans(shor):
    dec = s_prime_decompose(shor, FRONT, radical_rows=shor_stabilizer_rows())
    assert puncture(dec.s_prime, FRONT) == from_pauli(["IIIZ", "XXXX", "IIIX"])
    assert puncture(dec.s_prime, FRONT.complement()) == from_pauli(["ZIIII", "XXIII", "XXXXX"])


def test_shorten_repetition_on_first_factor(repetition):
    a = Anticode(2, frozenset({0}))
    assert shorten(repetition, a) == Subspace([[0, 1]], 2, 1)


def test_shorten_trivial_supports(repetition):
    assert shorten(repetition, Anticode(2, frozenset())).dim_f == 0
    assert shorten(repetition, Anticode(2, frozenset({0, 1}))) == repetition.space


def test_shorten_preserves_dimension_of_supported_part(rng):
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        for a in all_anticodes(n):
            inner = intersect_with_anticode(code.space, a)
            out = shorten(code, a)
            assert out.dim_f == inner.dim_f
            assert (out.sym_dim, out.isorank) == (inner.sym_dim, inner.isorank)


def test_shortening_inside_puncturing(rng):
    for _ in range(30):
        code = random_code(rng, 2, int(rng.integers(1, 5)))
        for a in all_anticodes(code.n):
            assert puncture(code, a).contains_space(shorten(code, a))


def test_intersect_with_anticode_matches_generic_intersection(rng):
    for _ in range(30):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        space = random_code(rng, q, n).space
        for a in all_anticodes(n):
            assert intersect_with_anticode(space, a) == (space & a.subspace(q))


def _columns(support) -> list[int]:
    return [c for j in sorted(support) for c in (2 * j, 2 * j + 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gathered_puncture_matches_column_selection(data):
    n = data.draw(st.integers(1, 16))
    words = data.draw(st.lists(st.integers(0, 4**n - 1), max_size=2 * n + 1))
    space = Subspace(_Gf2.unpack(words, 2 * n), 2, n)
    drawn = data.draw(st.sets(st.integers(0, n - 1)))
    supports = [
        frozenset(),
        frozenset(range(n)),
        frozenset(range(n // 3, n // 3 + (n + 1) // 2)),  # one run
        frozenset(range(0, n, 2)),  # alternate factors
        frozenset(range(1, n, 2)),
        frozenset(drawn),
    ]
    for support in supports:
        expected = Subspace(space.basis[:, _columns(support)], 2, len(support))
        assert puncture(space, Anticode(n, support)) == expected, sorted(support)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_odd_q_anticode_part_matches_literal_intersection(data):
    q = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    space = Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)
    a = Anticode(n, data.draw(st.sets(st.integers(0, n - 1))))
    literal = space & a.subspace(q)
    part = intersect_with_anticode(space, a)
    assert part == literal
    assert part.basis.tolist() == literal.basis.tolist()
    assert shorten(space, a) == Subspace(literal.basis[:, _columns(a.support)], q, a.dim)


@pytest.mark.parametrize("kind", ["empty", "full", "drawn"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_vanishing_part_matches_materialized_anticode(kind, data):
    # The vanishing part off S is the space's part inside the anticode on S.
    q = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    space = Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)
    if kind == "drawn":
        support = data.draw(st.sets(st.integers(0, n - 1)))
    else:
        support = set() if kind == "empty" else set(range(n))
    outside = _columns(set(range(n)) - support)
    part = vanishing_part(space.basis, outside, q)
    literal = space & Anticode(n, support).subspace(q)
    assert part.dtype == np.int64
    assert part.shape == literal.basis.shape
    assert part.tobytes() == literal.basis.tobytes()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_shortening_stores_the_re_eliminated_projection(data):
    # The canonical part's projection is stored as it is; re-eliminating it
    # must give the same bytes.
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    space = Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)
    a = Anticode(n, data.draw(st.sets(st.integers(0, n - 1))))
    part = intersect_with_anticode(space, a)
    expected = Subspace(part.basis[:, _columns(a.support)], q, a.dim)
    short = shorten(space, a)
    assert short.basis.shape == expected.basis.shape
    assert short.basis.tobytes() == expected.basis.tobytes()
    assert short._rows == expected._rows


# ---------------------------------------------------------------------------
# the per-space cache of anticode views

VIEWS = {"part": intersect_with_anticode, "puncture": puncture, "shorten": shorten}


@pytest.mark.parametrize("view", VIEWS)
def test_a_repeated_view_is_the_same_object(view, rng):
    space = random_code(rng, 2, 4).space
    for support in ({1}, {0, 3}, set(), {0, 1, 2, 3}):
        first = VIEWS[view](space, Anticode(4, support))
        assert VIEWS[view](space, Anticode(4, support)) is first, sorted(support)


def test_a_code_and_its_space_share_views(rng):
    code = random_code(rng, 3, 4)
    a = Anticode(4, {1, 2})
    assert puncture(code, a) is puncture(code.space, a)
    assert shorten(code.space, a) is shorten(code, a)
    assert intersect_with_anticode(code, a) is intersect_with_anticode(code.space, a)


def test_each_view_is_projected_once_per_space(monkeypatch, rng):
    asked, projected = [], []  # asked keeps every space alive, so no id is reused

    def counted(name):
        real = getattr(anticodes, name)

        def view(obj, a):
            asked.append((name, anticodes._space_of(obj), a.support))
            return real(obj, a)

        return view

    def project(self, rows, factors, real=_Packed.project):
        projected.append(factors)
        return real(self, rows, factors)

    for name in ("puncture", "shorten"):
        monkeypatch.setattr(anticodes, name, counted(name))
    monkeypatch.setattr(_Packed, "project", project)
    code = random_stabilizer_code(rng, 6)
    for support in ({0, 1}, {2, 4, 5}):
        a = Anticode(6, support)
        verify_cleaning(code, a)
        complementarity_check(code, a)
        anticodes.puncture(code, a)
        anticodes.shorten(code, a)
    distinct = {(name, id(space), support) for name, space, support in asked}
    assert len(projected) == len(distinct) < len(asked)


def _support_off_the_radical(code):
    """The first support on which the code's radical has no part on either side."""
    rad = code.space.radical()
    for a in all_anticodes(code.n):
        if not intersect_with_anticode(rad, a).dim_f + intersect_with_anticode(rad, a.complement()).dim_f:
            return a
    raise AssertionError("every support cuts a part out of the radical")


@pytest.mark.parametrize("q", [2, 3])
def test_a_radical_off_both_sides_is_its_own_transversal_summand(monkeypatch, q):
    projected = []

    def project(self, rows, factors, real=_Packed.project):
        projected.append((rows, factors))
        return real(self, rows, factors)

    monkeypatch.setattr(_Packed, "project", project)
    code = random_stabilizer_code(np.random.default_rng(q), 6, q)
    rad, dual = code.space.radical(), code.space.perp()
    a = _support_off_the_radical(code)
    assert rad.dim_f and a.support
    assert s_prime_decompose(code, a).s_prime is rad
    del projected[:]
    verify_cleaning(code, a)
    complementarity_check(code, a)
    # The dual spans the radical too, but it is its own object with its own views.
    sides = [factors for rows, factors in projected if tuple(rows) == rad._rows and rows is not dual._rows]
    assert sorted(sides) == sorted([a.sorted_support(), a.complement().sorted_support()])


@pytest.mark.parametrize("view", VIEWS)
def test_equal_but_distinct_spaces_share_no_views(view, rng):
    space = random_code(rng, 3, 4).space
    twin = Subspace(space.basis, 3, 4)
    assert twin == space and twin is not space
    a = Anticode(4, {0, 2})
    assert VIEWS[view](twin, a) is not VIEWS[view](space, a)
    assert VIEWS[view](twin, a) == VIEWS[view](space, a)


@pytest.mark.parametrize("view", VIEWS)
def test_a_wrong_n_anticode_raises_on_every_call(view, repetition):
    VIEWS[view](repetition.space, Anticode(2, {0}))  # the same support, on the right n
    for _ in range(2):
        with pytest.raises(DimensionMismatchError):
            VIEWS[view](repetition.space, Anticode(3, {0}))


# ---------------------------------------------------------------------------
# cleaning duality


def test_cleaning_on_repetition_all_supports(repetition):
    for a in all_anticodes(2):
        assert all(c.passed for c in verify_cleaning(repetition, a))


def test_cleaning_on_full_support_is_plain_duality(rng):
    code = random_code(rng, 3, 2)
    a = Anticode(2, frozenset({0, 1}))
    checks = verify_cleaning(code, a)
    assert all(c.passed for c in checks)


def test_cleaning_below_distance_on_shor(shor):
    a = Anticode(9, frozenset({2, 6}))
    assert puncture(shor, a) == puncture(shor.radical_space(), a)
    assert all(c.passed for c in verify_cleaning(shor, a))


def test_cleaning_witness_from_the_right_side(monkeypatch, repetition):
    """When the left side lies strictly inside the right, the witness is a row of the right."""
    monkeypatch.setattr(anticodes, "shorten", lambda obj, a: Subspace.zero(obj.q, a.dim))
    kept, broken = verify_cleaning(repetition, Anticode(2, frozenset({0})))
    assert kept.passed
    assert broken.to_dict() == {
        "identity": "cleaning-puncture-dual",
        "pass": False,
        "lhs": [[0, 1]],
        "rhs": [[1, 0], [0, 1]],
        "witness": {"side": "rhs", "vector": [1, 0]},
    }


def test_cleaning_random(rng):
    for _ in range(40):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 4))
        code = random_code(rng, q, n)
        for a in all_anticodes(n):
            assert all(c.passed for c in verify_cleaning(code, a))


# ---------------------------------------------------------------------------
# the radical decomposition against a support


def test_shor_decomposition_spans(shor):
    dec = s_prime_decompose(shor, FRONT, radical_rows=shor_stabilizer_rows())
    assert dec.rad_in_a == from_pauli(["ZZIIIIIII", "IZZIIIIII"])
    assert dec.rad_in_aperp == from_pauli(["IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ"])
    assert dec.s_prime == from_pauli(["IIIZZIIII", "XXXXXXIII", "IIIXXXXXX"])
    assert dec.rad_in_a + dec.rad_in_aperp + dec.s_prime == shor.radical_space()


def test_decomposition_on_full_support(shor):
    everything = Anticode(9, frozenset(range(9)))
    dec = s_prime_decompose(shor, everything)
    assert dec.s_prime.dim_f == 0
    assert dec.rad_in_a == shor.radical_space()
    assert dec.rad_in_aperp.dim_f == 0


def _assert_valid_decomposition(code, a):
    space = code.space if hasattr(code, "space") else code
    dec = s_prime_decompose(code, a)
    rad = space.radical()
    assert dec.rad_in_a + dec.rad_in_aperp + dec.s_prime == rad
    dims = dec.rad_in_a.dim_f + dec.rad_in_aperp.dim_f + dec.s_prime.dim_f
    assert dims == rad.dim_f  # direct sum
    # projection onto the support is injective on the transversal summand
    assert puncture(dec.s_prime, a).dim_f == dec.s_prime.dim_f
    assert puncture(dec.s_prime, a.complement()).dim_f == dec.s_prime.dim_f
    for part in (dec.rad_in_a, dec.rad_in_aperp, dec.s_prime):
        assert part.is_isotropic()


def test_decomposition_invariants_random_stabilizer(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        code = random_stabilizer_code(rng, n)
        for a in all_anticodes(n):
            _assert_valid_decomposition(code, a)


def _greedy_s_prime(space, a, rows):
    """The transversal summand by the per-row greedy loop: one sum per row."""
    rad = space.radical()
    current = intersect_with_anticode(rad, a) + intersect_with_anticode(rad, a.complement())
    chosen = []
    for row in rows:
        if current.dim_f == rad.dim_f:
            break
        bigger = current + Subspace(row.reshape(1, -1), space.q, space.n)
        if bigger.dim_f > current.dim_f:
            chosen.append(row)
            current = bigger
    return Subspace(np.array(chosen, dtype=np.int64).reshape(-1, 2 * space.n), space.q, space.n)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_transversal_summand_matches_the_greedy_loop(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["stabilizer", "random", "zero radical"]))
    if kind == "stabilizer":
        space = random_stabilizer_code(rng, n, q).space
    elif kind == "random":
        space = random_code(rng, q, n).space
    else:
        space = Subspace.full(q, n)
    a = Anticode(n, data.draw(st.sets(st.integers(0, n - 1))))
    rad = space.radical()
    # The rows shuffled, with a redundant combination of two of them in front.
    rows = rad.basis[rng.permutation(rad.dim_f)]
    if rad.dim_f >= 2:
        rows = np.vstack([(rows[0] + (q - 1) * rows[1]) % q, rows])
    for given_rows in (None, rows):
        dec = s_prime_decompose(space, a, radical_rows=given_rows)
        expected = _greedy_s_prime(space, a, rad.basis if given_rows is None else given_rows)
        assert dec.s_prime.basis.tobytes() == expected.basis.tobytes()
        assert dec.s_prime.basis.shape == expected.basis.shape
    if kind == "zero radical":
        assert dec.s_prime.dim_f == 0


def test_decomposition_rejects_bad_rows(shor):
    with pytest.raises(ValueError, match="lie in the radical"):
        s_prime_decompose(shor, FRONT, radical_rows=np.eye(18, dtype=np.int64))
    with pytest.raises(ValueError, match="span the radical"):
        s_prime_decompose(shor, FRONT, radical_rows=shor_stabilizer_rows()[:3])


# ---------------------------------------------------------------------------
# complementarity


def test_shor_complementarity_values(shor):
    dec = s_prime_decompose(shor, FRONT, radical_rows=shor_stabilizer_rows())
    pf = puncture(dec.s_prime, FRONT)
    pb = puncture(dec.s_prime, FRONT.complement())
    assert (pf.sym_dim, pb.sym_dim) == (1, 1)
    # one pair plus a one-dimensional radical on each side (dim_F 3 = 1 + 2)
    assert (pf.radical().dim_f, pb.radical().dim_f) == (1, 1)
    assert pf.radical() == from_pauli(["XXXI"])
    assert pb.radical() == from_pauli(["IIXXX"])
    assert pf.isorank == pb.isorank == 2
    assert all(c.passed for c in complementarity_check(shor, FRONT))


def test_complementarity_on_empty_support(repetition):
    checks = complementarity_check(repetition, Anticode(2, frozenset()))
    assert all(c.passed for c in checks)


def test_repetition_shortening_balance(repetition):
    a = Anticode(2, frozenset({0}))
    c_s_a = shorten(repetition, a)
    c_s_b = shorten(repetition, a.complement())
    assert c_s_a == Subspace([[0, 1]], 2, 1)
    assert a.dim - c_s_a.isorank == a.complement().dim - c_s_b.isorank == 0
    assert all(c.passed for c in complementarity_check(repetition, a))


def test_complementarity_random(rng):
    for _ in range(20):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        code = random_code(rng, q, n)
        for a in all_anticodes(n):
            assert all(c.passed for c in complementarity_check(code, a))


def test_complementarity_is_choice_independent(rng, shor):
    # identity values do not depend on which transversal complement is taken
    rows = shor.radical_space().basis
    for _ in range(5):
        shuffled = rows[rng.permutation(rows.shape[0])]
        checks = complementarity_check(shor, FRONT, radical_rows=shuffled)
        assert all(c.passed for c in checks)
        dec = s_prime_decompose(shor, FRONT, radical_rows=shuffled)
        pf = puncture(dec.s_prime, FRONT)
        assert (pf.sym_dim, pf.isorank) == (1, 2)
