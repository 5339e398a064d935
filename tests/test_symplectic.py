import hashlib
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from dense import in_row_space

import qsymp

from qsymp.anticodes import Anticode, all_anticodes, intersect_with_anticode, puncture, shorten
from qsymp.codes import from_pauli, random_stabilizer_code, random_subspace, vector_to_pauli
from qsymp.errors import DimensionMismatchError
from qsymp.invariants import dual_dims
from qsymp.symplectic import (
    Subspace,
    _Gf2,
    _Odd,
    _field,
    hamming_weight,
    support_of,
    symplectic_form,
    vector_from_factors,
)

E, F, O, Y = (1, 0), (0, 1), (0, 0), (1, 1)


def vec(*factors, q=2):
    return vector_from_factors(list(factors), q)


# ---------------------------------------------------------------------------
# the bilinear product and vector helpers


@pytest.mark.parametrize("q", [2, 3, 5])
def test_defining_pair_has_product_one(q):
    assert symplectic_form(vec(E, O, q=q), vec(F, O, q=q), q) == 1


def test_binary_product_examples():
    assert symplectic_form(vec(E, E), vec(F, F), 2) == 0  # 1 + 1 in char 2
    assert symplectic_form(vec(E, E), vec(F, O), 2) == 1


def test_product_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        symplectic_form([1, 0], [1, 0, 0, 0], 2)
    with pytest.raises(DimensionMismatchError, match="even length"):
        symplectic_form([1, 0, 1], [0, 1, 0], 2)


def test_factors_must_come_as_pairs():
    with pytest.raises(ValueError, match=r"sequence of \(x, z\) pairs"):
        vector_from_factors([1, 0, 1])


MATRIX_AS_VECTOR = {
    "contains": lambda: [[1, 0], [0, 0]] in Subspace([[1, 0, 0, 0]], 2, 2),
    "contains-one-row": lambda: [[1, 0, 0, 0]] in Subspace([[1, 0, 0, 0]], 2, 2),
    "symplectic_form": lambda: symplectic_form([[1, 0]], [[0], [1]], 2),
    "hamming_weight": lambda: hamming_weight([[1, 0], [0, 1]]),
    "support_of": lambda: support_of([[1, 0], [0, 1]]),
    "in_row_space": lambda: in_row_space(np.eye(2, dtype=np.int64), [[1], [0]], 2),
    "scalar": lambda: hamming_weight(1),
    "vector_to_pauli": lambda: vector_to_pauli([[1, 0], [0, 1]]),
}

ODD_LENGTH = {  # symplectic_form's case is in test_product_mismatch_raises
    "hamming_weight": lambda: hamming_weight([1, 0, 1]),
    "support_of": lambda: support_of([1, 0, 1]),
    "vector_to_pauli": lambda: vector_to_pauli([1, 0, 1]),
}


@pytest.mark.parametrize("name", MATRIX_AS_VECTOR)
def test_only_one_vector_is_taken_as_a_vector(name):
    """A matrix (or a scalar) is refused where a vector is meant, not read as its concatenated rows."""
    with pytest.raises(DimensionMismatchError):
        MATRIX_AS_VECTOR[name]()


@pytest.mark.parametrize("name", ODD_LENGTH)
def test_an_odd_length_is_refused_as_a_dimension_mismatch(name):
    with pytest.raises(DimensionMismatchError, match="even length"):
        ODD_LENGTH[name]()


@pytest.mark.parametrize("q", [0, -3, 4, 2.5])
def test_the_product_refuses_a_modulus_that_is_not_a_field_order(q):
    with pytest.raises(ValueError, match="prime integer"):
        symplectic_form([1, 0], [0, 1], q)


@settings(max_examples=120, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_product_is_bilinear_and_alternating(q, data):
    n = data.draw(st.integers(1, 3))
    coords = st.lists(st.integers(0, q - 1), min_size=2 * n, max_size=2 * n)
    u = np.array(data.draw(coords))
    v = np.array(data.draw(coords))
    w = np.array(data.draw(coords))
    c = data.draw(st.integers(0, q - 1))
    assert symplectic_form(u, u, q) == 0
    assert symplectic_form(u, v, q) == (-symplectic_form(v, u, q)) % q
    lhs = symplectic_form((u + c * w) % q, v, q)
    rhs = (symplectic_form(u, v, q) + c * symplectic_form(w, v, q)) % q
    assert lhs == rhs


def test_weight_and_support():
    v = vec(E, O, Y)
    assert hamming_weight(v) == 2
    assert support_of(v) == (0, 2)
    assert hamming_weight(vec(O, O)) == 0
    assert support_of(vec(O, O)) == ()


# ---------------------------------------------------------------------------
# complement, radical, splitting on the worked codes


def test_dual_of_repetition_normalizer():
    c = Subspace([vec(E, E), vec(F, F), vec(F, O)], 2, 2)
    assert c.perp() == Subspace([vec(F, F)], 2, 2)


def test_dual_of_full_space_is_zero():
    full = Subspace.full(3, 2)
    assert full.perp() == Subspace.zero(3, 2)
    assert Subspace.zero(3, 2).perp() == full


def test_double_dual(rng):
    for _ in range(100):
        w = random_subspace(rng, 3, int(rng.integers(1, 4)))
        assert w.perp().perp() == w


def test_radical_of_repetition_normalizer():
    c = Subspace([vec(E, E), vec(F, F), vec(F, O)], 2, 2)
    assert c.radical() == Subspace([vec(F, F)], 2, 2)


def test_radical_of_symplectic_space_is_zero():
    w = Subspace([vec(E, O), vec(F, O)], 2, 2)
    assert w.radical().dim_f == 0


def test_radical_of_bacon_shor_gauge():
    w = from_pauli(["XXII", "IIXX", "ZIZI", "IZIZ"])
    assert w.radical() == from_pauli(["XXXX", "ZZZZ"])
    assert w.sym_dim == 1
    assert w.isorank == 3
    assert not w.is_stabilizer()


def test_split_of_repetition_normalizer():
    c = Subspace([vec(E, E), vec(F, F), vec(F, O)], 2, 2)
    split = c.orthogonal_split()
    assert len(split.pairs) == 1
    assert split.radical_basis.shape[0] == 1
    u, w = split.pairs[0]
    assert symplectic_form(u, w, 2) == 1
    assert Subspace([*split.radical_basis, *split.pairs[0]], 2, 2) == c


def test_split_of_zero_subspace_is_empty():
    split = Subspace.zero(2, 3).orthogonal_split()
    assert split.pairs == ()
    assert split.radical_basis.shape[0] == 0


def _assert_valid_split(w: Subspace):
    split = w.orthogonal_split()
    q = w.q
    rad = split.radical_basis
    for u, v in split.pairs:
        assert symplectic_form(u, v, q) == 1
        for r in rad:
            assert symplectic_form(u, r, q) == 0
            assert symplectic_form(v, r, q) == 0
    for i, (u1, v1) in enumerate(split.pairs):
        for u2, v2 in split.pairs[i + 1 :]:
            for a, b in ((u1, u2), (u1, v2), (v1, u2), (v1, v2)):
                assert symplectic_form(a, b, q) == 0
    assert Subspace([*rad, *(v for pair in split.pairs for v in pair)], q, w.n) == w
    assert 2 * len(split.pairs) + rad.shape[0] == w.dim_f
    # the rows left without a partner are a basis of the radical
    assert Subspace(rad, q, w.n) == w.radical()


def test_split_invariants_random(rng):
    for q in (2, 3, 5):
        for _ in range(25):
            _assert_valid_split(random_subspace(rng, q, int(rng.integers(1, 4))))


@st.composite
def spanned_spaces(draw):
    """Span of drawn rows over F_q, q in {2, 3, 5}, with n <= 4 factors."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transposed_gram_rows_give_the_product_matrix(data):
    n = data.draw(st.integers(1, 12))
    words = data.draw(st.lists(st.integers(0, 4**n - 1), max_size=2 * n + 1))
    w = Subspace(_Gf2.unpack(words, 2 * n), 2, n)
    basis = [tuple(int(x) for x in row) for row in w.basis]

    def form(u, v):
        return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2)) % 2

    literal = [sum(form(u, v) << j for j, v in enumerate(basis)) for u in basis]
    assert w._field.gram(w._rows) == literal


@st.composite
def binary_rows(draw):
    """(rows, cols): packed GF(2) rows on up to 140 columns, with zero rows and repeats, or of full rank."""
    cols = draw(st.integers(1, 140))
    word = st.integers(0, (1 << cols) - 1)
    if draw(st.booleans()):  # full row rank: row c has its lowest bit at c
        above = draw(st.lists(word, min_size=cols, max_size=cols))
        rows = draw(st.permutations([1 << c | w >> c + 1 << c + 1 for c, w in enumerate(above)]))
        return rows[: draw(st.integers(1, cols))], cols
    rows = draw(st.lists(word, max_size=cols + 2))
    return rows + draw(st.lists(st.sampled_from([0, *rows]), max_size=3)), cols


@settings(max_examples=120, deadline=None)
@given(case=binary_rows())
def test_binary_kernel_and_rank_match_the_dense_route(case):
    # Rows past one 64-bit word (cols > 64) take the same routes.
    rows, cols = case
    ops = _Gf2(70)  # the span routines read the width from their arguments, not from n
    a = ops.unpack(rows, cols)
    out = ops.kernel(rows, cols)
    assert ops.unpack(out, cols).tolist() == dense.rref(dense.kernel(a, 2), 2).tolist()
    assert ops.canonical(out) == out
    assert len(ops._echelon(rows)) == dense.rref(a, 2).shape[0]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_an_echelon_extends_a_given_one_in_place(q):
    ops = _field(q, 4)
    rows = ops.pack(np.random.default_rng(q).integers(0, q, size=(12, 8)))
    rows[6] = rows[1]  # a row already in the span
    parts, rest = rows[:5], rows[5:]
    start = ops._echelon(parts)
    extended = ops._echelon(rest, basis=start)
    assert extended is start
    assert extended == ops._echelon(parts + rest)


@pytest.mark.parametrize("q", [2, 3])
def test_the_gram_matrix_is_eliminated_once(monkeypatch, q):
    w = random_subspace(np.random.default_rng(q), q, 6, 9)
    gram = w._field.gram(w._rows)
    cls = type(w._field)
    static = isinstance(cls.__dict__["_echelon"], staticmethod)
    real = cls._echelon  # a plain function for both fields
    eliminated = []

    def echelon(*args, top=False):
        *field, rows = args
        rows = list(rows)
        eliminated.append(rows == gram)
        return real(*field, rows, top=top)

    monkeypatch.setattr(cls, "_echelon", staticmethod(echelon) if static else echelon)
    assert w.sym_dim and w.isorank and w.radical().dim_f
    assert eliminated.count(True) == 1


def _count_top_echelons(monkeypatch, cls) -> list:
    """Patch ``cls._echelon`` to record each call's ``top``; returns the record."""
    static = isinstance(cls.__dict__["_echelon"], staticmethod)
    real = cls._echelon
    tops = []

    def echelon(*args, top=False, basis=None):
        tops.append(top)
        return real(*args, top=top, basis=basis)

    monkeypatch.setattr(cls, "_echelon", staticmethod(echelon) if static else echelon)
    return tops


@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_perp_of_a_large_space_takes_no_highest_pivot_echelon(monkeypatch, q):
    # Past n the perp is the smaller side: it is read off the canonical rows,
    # and only the smaller side's 2n - dim_f rows are eliminated.
    n, rng = 5, np.random.default_rng(q)
    large, small = random_subspace(rng, q, n, n + 3), random_subspace(rng, q, n, n)
    assert large.dim_f > n and small.dim_f == n
    tops = _count_top_echelons(monkeypatch, type(large._field))
    large.perp()
    assert tops.count(True) == 0
    small.perp()
    assert tops.count(True) == 1


@pytest.mark.parametrize("q", [3, 5])
def test_odd_kernel_and_radical_read_lanes_only(monkeypatch, q):
    n, rng = 5, np.random.default_rng(q)
    w = random_subspace(rng, q, n, 7)
    rows, cols = list(w._rows), 2 * n
    assert w.sym_dim  # the Gram echelon, built before the count
    calls = []
    for name in ("pack", "unpack"):
        real = getattr(_Odd, name)
        monkeypatch.setattr(_Odd, name, lambda self, *a, real=real, name=name: calls.append(name) or real(self, *a))
    kernel, radical = w._field.kernel(rows, cols), w.radical()
    assert calls == []
    monkeypatch.undo()
    assert w._field.unpack(kernel, cols).tolist() == dense.rref(dense.kernel(w.basis, q), q).tolist()
    assert radical.basis.tolist() == dense.radical(w.basis, q).tolist()


@st.composite
def perp_cases(draw):
    """(q, n, rows, dim): rows spanning a space of dimension ``dim``, with zero and repeated rows.

    The space is drawn in canonical form (``dim`` pivot columns, random
    entries at the later free columns), then spanned by those rows in a
    drawn order, some sums of them, zero rows and repeats.
    """
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 40 if q == 2 else 6))
    dim = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pivots = np.sort(rng.choice(2 * n, size=dim, replace=False))
    canonical = np.zeros((dim, 2 * n), dtype=np.int64)
    for i, p in enumerate(pivots):
        canonical[i, p + 1 :] = rng.integers(0, q, size=2 * n - p - 1)
    canonical[:, pivots] = 0
    canonical[np.arange(dim), pivots] = 1
    sums = rng.integers(0, q, size=(draw(st.integers(0, 3)), dim)) @ canonical % q
    zeros = np.zeros((draw(st.integers(0, 2)), 2 * n), dtype=np.int64)
    repeats = canonical[rng.integers(0, dim, size=draw(st.integers(0, 2)))] if dim else zeros[:0]
    rows = np.vstack([canonical, sums, zeros, repeats])
    return q, n, rows[rng.permutation(len(rows))], dim


@settings(max_examples=150, deadline=None)
@given(case=perp_cases())
def test_perp_matches_the_dense_route_at_every_dimension(case):
    q, n, rows, dim = case
    w = Subspace(rows, q, n)
    assert w.dim_f == dim
    assert w.perp().basis.tolist() == dense.perp(w.basis, q).tolist()
    assert w.perp().perp() == w


@pytest.mark.parametrize("q, n", [(2, 3), (2, 33), (3, 3), (5, 2), (7, 3)])
def test_both_perp_routes_at_every_dimension_up_to_2n(q, n):
    # Each dim_f from 0 to 2n, so both sides of the n, n + 1 boundary; at
    # q=2, n=33 the rows are past one 64-bit word.
    rng = np.random.default_rng(q * n)
    unitriangular = np.eye(2 * n, dtype=np.int64) + np.triu(rng.integers(0, q, size=(2 * n, 2 * n)), 1)
    full = unitriangular[:, rng.permutation(2 * n)]  # every prefix of rows is independent
    for dim in range(2 * n + 1):
        w = Subspace(full[:dim], q, n)
        assert w.dim_f == dim
        assert w.perp().basis.tolist() == dense.perp(w.basis, q).tolist()
        assert w.perp().perp() == w


@settings(max_examples=80, deadline=None)
@given(w=spanned_spaces())
def test_gram_schmidt_split_is_valid(w):
    _assert_valid_split(w)
    assert w.orthogonal_split().pair_count == w.sym_dim


def test_split_counts_are_basis_independent(rng):
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        w = random_subspace(rng, q, n)
        if w.dim_f < 2:
            continue
        mixed = w.basis.copy()
        mixed = mixed[rng.permutation(w.dim_f)]
        mixed[0] = (mixed[0] + mixed[-1]) % q  # distinct rows: rank preserved
        again = Subspace(mixed, q, n)
        assert again == w
        assert (again.sym_dim, again.isorank) == (w.sym_dim, w.isorank)


# ---------------------------------------------------------------------------
# the two invariants


def test_dim_irk_on_worked_examples():
    c = Subspace([vec(E, E), vec(F, F), vec(F, O)], 2, 2)
    assert (c.sym_dim, c.isorank) == (1, 2)
    assert c.is_stabilizer()
    full = Subspace.full(2, 3)
    assert (full.sym_dim, full.isorank) == (3, 3)


def test_dim_f_splits_between_invariants(rng):
    # The invariants come from the Gram rank; an explicit splitting is an
    # independent route to the same counts.
    for q in (2, 3):
        for _ in range(40):
            w = random_subspace(rng, q, int(rng.integers(1, 4)))
            split = w.orthogonal_split()
            assert w.sym_dim == split.pair_count
            assert w.isorank == split.pair_count + split.radical_basis.shape[0]
            assert w.dim_f == w.sym_dim + w.isorank


def test_stabilizer_routes_agree(rng):
    for _ in range(60):
        w = random_subspace(rng, 2, int(rng.integers(1, 4)))
        assert w.is_stabilizer() == w.perp().is_isotropic()
    iso = Subspace([vec(F, F), vec(O, F, q=2)], 2, 2)  # maximal isotropic in V^2
    assert iso.is_isotropic() and iso.dim_f == 2
    assert iso.is_stabilizer()


def test_dual_invariant_relations(rng):
    for q in (2, 3, 5):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            w = random_subspace(rng, q, n)
            p = w.perp()
            assert p.sym_dim == n - w.isorank
            assert p.isorank == n - w.sym_dim
            assert p.radical() == w.radical()
            assert p.contains_space(w.radical())
            assert (w.radical() == p) == w.is_stabilizer()


def test_monotonicity_on_nested_pairs(rng):
    for _ in range(60):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        outer = random_subspace(rng, q, n)
        rows = int(rng.integers(0, outer.dim_f + 1))
        coeffs = rng.integers(0, q, size=(rows, outer.dim_f))
        inner = Subspace(
            (coeffs @ outer.basis) % q if rows else np.zeros((0, 2 * n)), q, n
        )
        assert outer.contains_space(inner)
        assert inner.sym_dim <= outer.sym_dim
        assert inner.isorank <= outer.isorank


def test_modularity_on_orthogonal_pairs(rng):
    hits = 0
    for _ in range(200):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        w2 = random_subspace(rng, q, n)
        room = w2.perp()
        rows = int(rng.integers(0, room.dim_f + 1))
        coeffs = rng.integers(0, q, size=(rows, room.dim_f))
        w1 = Subspace(
            (coeffs @ room.basis) % q if rows else np.zeros((0, 2 * n)), q, n
        )
        both, meet = w1 + w2, w1 & w2
        assert both.sym_dim + meet.sym_dim == w1.sym_dim + w2.sym_dim
        assert both.isorank + meet.isorank == w1.isorank + w2.isorank
        hits += 1
    assert hits == 200


def test_pair_invariants_are_not_modular_in_general():
    # Documented counterexample: the two planes share f1, so their pairs
    # collapse in the sum and both inequalities reverse.
    w1 = Subspace([[1, 0, 0, 0], [0, 1, 0, 0]], 2, 2)
    w2 = Subspace([[1, 0, 1, 0], [0, 1, 0, 0]], 2, 2)
    s, m = w1 + w2, w1 & w2
    assert s.sym_dim + m.sym_dim < w1.sym_dim + w2.sym_dim
    assert s.isorank + m.isorank > w1.isorank + w2.isorank


def test_radical_inside_dual_with_equality_iff_stabilizer(rng):
    for _ in range(50):
        w = random_subspace(rng, 2, int(rng.integers(1, 4)))
        p = w.perp()
        rad = w.radical()
        assert p.contains_space(rad)
        assert (rad == p) == w.is_stabilizer()


# ---------------------------------------------------------------------------
# plumbing


def test_json_round_trip(rng):
    w = random_subspace(rng, 3, 2)
    assert Subspace.from_json_dict(w.to_json_dict()) == w
    with pytest.raises(DimensionMismatchError, match="malformed subspace object"):
        Subspace.from_json_dict({"q": 3, "n": 2})  # no basis


def test_equality_and_hash():
    a = Subspace([vec(E, E), vec(F, F)], 2, 2)
    b = Subspace([vec(F, F), vec(E, E)], 2, 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace([vec(E, E)], 2, 2)


def test_ambient_checks():
    with pytest.raises(DimensionMismatchError):
        Subspace([[1, 0, 0]], 2)  # odd width
    with pytest.raises(DimensionMismatchError):
        Subspace([[1, 0, 0, 0]], 2, 2) & Subspace([[1, 0]], 2, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_membership_checks_the_vector_length(q):
    zero = Subspace.zero(q, 3)
    assert [0] * 6 in zero
    assert [1] + [0] * 5 not in zero
    for bad in ([0, 0], [0] * 8):
        with pytest.raises(DimensionMismatchError):
            bad in zero
        with pytest.raises(DimensionMismatchError):
            bad in Subspace.full(q, 3)


NON_INTEGER_ENTRY_POINTS = {
    "Subspace": (ValueError, lambda x: Subspace([[x, 1]], 3)),
    "contains": (ValueError, lambda x: [x, 0, 0, 0] in Subspace([[1, 0, 0, 0]], 3, 2)),
    "symplectic_form": (ValueError, lambda x: symplectic_form([x, 0], [0, 1], 3)),
    "hamming_weight": (ValueError, lambda x: hamming_weight([x, 0])),
    "support_of": (ValueError, lambda x: support_of([x, 0])),
    "vector_from_factors": (ValueError, lambda x: vector_from_factors([(x, 0)], 3)),
    "in_row_space": (ValueError, lambda x: in_row_space(np.eye(2, dtype=np.int64), [x, 0], 3)),
    "vector_to_pauli": (ValueError, lambda x: vector_to_pauli([x, 0])),
    "Anticode": (TypeError, lambda x: Anticode(3, {x})),
}


@pytest.mark.parametrize("entry", [0.5, "1", 1j])
@pytest.mark.parametrize("name", NON_INTEGER_ENTRY_POINTS)
def test_non_integer_entries_are_refused(name, entry):
    """A float, a string or a complex number is refused, not truncated or parsed."""
    error, call = NON_INTEGER_ENTRY_POINTS[name]
    with pytest.raises(error):
        call(entry)


def test_bools_and_empty_arrays_of_any_dtype_still_convert():
    assert Subspace([[True, False]], 2) == Subspace([[1, 0]], 2)
    assert Subspace(np.zeros((0, 4)), 3, 2) == Subspace.zero(3, 2)
    assert hamming_weight([]) == 0


# ---------------------------------------------------------------------------
# the supported field range: 2n (q - 1)^2 < 2^63


def test_largest_field_is_exact_at_one_factor():
    q = 2**31 - 1
    rows = [[q - 1, q - 2], [q - 3, 5]]
    w = Subspace(rows, q, 1)
    b = [[int(x) for x in row] for row in w.basis]
    exact = [[(u[0] * v[1] - u[1] * v[0]) % q for v in b] for u in b]
    assert w._field.unpack(w._field.gram(w._rows), w.dim_f).tolist() == exact
    assert w.sym_dim == 1


@pytest.mark.parametrize("q, n", [(127, 3), (131, 2), (32749, 2), (65521, 4), (2**31 - 1, 1)])
def test_widest_lanes_match_the_dense_route(q, n):
    # The largest prime of each lane width (8, 16 and 32 bits: 127, 32749
    # and 2**31 - 1, the last prime of the one-factor range), the smallest
    # prime past 8-bit lanes, and a 16-bit prime on four factors in 32-bit
    # lanes, with entries drawn half from the extremes 0, 1, q - 2, q - 1.
    rng = np.random.default_rng(n)
    extremes = np.array([0, 1, q - 2, q - 1], dtype=np.int64)

    def rows(count):
        drawn = rng.integers(0, q, size=(count, 2 * n))
        return np.where(rng.integers(0, 2, size=drawn.shape) == 1, drawn, rng.choice(extremes, drawn.shape))

    spaces = [Subspace(rows(count), q, n) for count in sorted({1, 2, n + 1, 2 * n - 1})]
    for a in spaces:
        A = a.basis
        assert a._field.unpack(a._field.gram(a._rows), a.dim_f).tolist() == dense.gram(A, q).tolist()
        assert 2 * a.sym_dim == dense.rref(dense.gram(A, q), q).shape[0]
        assert a.perp().basis.tolist() == dense.perp(A, q).tolist()
        assert a.radical().basis.tolist() == dense.radical(A, q).tolist()
        dims = a._support_dims
        assert [dims.dim, dims.gram_rank, dims.rad, dual_dims(a)] == dense.support_table(A, q, n)
        for mask in range(1 << n):
            factors = [j for j in range(n) if mask >> j & 1]
            anticode = Anticode(n, factors)
            inner = dense.vanishing_part(A, dense.outside_columns(n, factors), q)
            assert puncture(a, anticode).basis.tolist() == dense.rref(dense.project(A, factors), q).tolist()
            assert shorten(a, anticode).basis.tolist() == dense.project(inner, factors).tolist()
        for b in spaces:
            B = b.basis
            assert (a + b).basis.tolist() == dense.space_sum(A, B, q).tolist()
            assert (a & b).basis.tolist() == dense.meet(A, B, q).tolist()
            assert a.contains_space(b) == all(dense.in_row_space(A, v, q) for v in B)


def test_widest_lanes_take_both_perp_routes(monkeypatch):
    # The largest supported prime at n = 1: dim_f 0 and 1 take the kernel of
    # the swapped rows, dim_f 2 reads the perp off its canonical rows.
    q = 2**31 - 1
    tops = _count_top_echelons(monkeypatch, _Odd)
    for rows in ([], [[q - 1, q - 2]], [[q - 1, q - 2], [q - 3, 5]]):
        w = Subspace(np.array(rows, dtype=np.int64).reshape(-1, 2), q, 1)
        before = tops.count(True)
        assert w.perp().basis.tolist() == dense.perp(w.basis, q).tolist()
        assert w.perp().perp() == w
        assert tops.count(True) - before == (w.dim_f <= 1) + (w.perp().dim_f <= 1)


@pytest.mark.parametrize("q, n", [(2**31 - 1, 2), (2147483659, 1)])
def test_fields_beyond_the_range_are_rejected(q, n):
    with pytest.raises(ValueError, match="supported range"):
        Subspace([[1] * (2 * n)], q, n)


def test_a_field_far_beyond_the_range_is_refused_at_once():
    # The range is checked before the primality test, which would take
    # hours of trial division on this modulus.
    code = (
        "from qsymp import Subspace\n"
        "try:\n"
        "    Subspace([[1, 2]], 2**61 - 1, 1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    root = str(Path(qsymp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={"PYTHONPATH": root, "PATH": "/usr/bin:/bin"},
    )
    assert "supported range" in proc.stdout


def test_a_huge_field_on_no_factors_is_refused_at_once():
    # A space on no factors is checked against the one-factor range, so
    # the modulus never reaches the trial division.
    code = (
        "import time\n"
        "from qsymp import Subspace\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    Subspace.zero(2**61 - 1, 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(time.perf_counter() - start)\n"
    )
    root = str(Path(qsymp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={"PYTHONPATH": root, "PATH": "/usr/bin:/bin"},
    )
    message, elapsed = proc.stdout.splitlines()
    assert "supported range" in message
    assert float(elapsed) < 1.0


def test_basis_is_immutable():
    w = Subspace([vec(E, E)], 2, 2)
    with pytest.raises(ValueError):
        w.basis[0, 0] = 0


# ---------------------------------------------------------------------------
# the support walk against literal intersections, beyond brute force


def _mask(support) -> int:
    """The table index of a support: bit j set for factor j."""
    return sum(1 << j for j in support)


def _walk_case(name: str) -> Subspace:
    rng = np.random.default_rng(20241018)
    if name == "stabilizer-q2-n8":
        return random_stabilizer_code(rng, 8).space
    if name == "gauge-q2-n8":
        # an odd dimension forces a nonzero radical
        return random_subspace(rng, 2, 8, rows=9)
    if name == "gauge-q2-n10":
        return random_subspace(rng, 2, 10, rows=11)
    if name == "stabilizer-q2-n12":
        return random_stabilizer_code(rng, 12).space
    if name == "gauge-q2-n7":
        return random_subspace(rng, 2, 7, rows=9)
    if name == "gauge-q3-n8":
        # radical and dual differ, and rule (b) outgrows the initial radical rows
        return random_subspace(rng, 3, 8, rows=11)
    if name == "q3-n5":
        return random_subspace(rng, 3, 5, rows=6)
    if name == "q5-n4":
        return random_subspace(rng, 5, 4, rows=5)
    if name == "q7-n3":
        return random_subspace(rng, 7, 3, rows=5)
    if name == "line-q3-n1":
        return Subspace([[1, 2]], 3, 1)
    kind, q, n = name.split("-")
    make = Subspace.zero if kind == "zero" else Subspace.full
    return make(int(q[1:]), int(n[1:]))


WALK_CASES = [
    "stabilizer-q2-n8",
    "gauge-q2-n7",
    "gauge-q2-n8",
    "gauge-q2-n10",
    "gauge-q3-n8",
    "q3-n5",
    "q5-n4",
    "q7-n3",
    "full-q2-n1",
    "line-q3-n1",
    "zero-q2-n0",
    "full-q2-n0",
    "zero-q3-n0",
    "zero-q2-n6",
    "zero-q3-n4",
    "full-q2-n6",
    "full-q3-n4",
]


@pytest.mark.parametrize("name", WALK_CASES)
def test_support_walk_matches_literal_intersections(name):
    w = _walk_case(name)
    if name in ("gauge-q2-n7", "gauge-q2-n8"):
        assert w.dim_f == 9 and w.radical().dim_f > 0 and w.sym_dim > 0
    if name in ("gauge-q2-n7", "gauge-q3-n8"):
        assert w.radical() != w.perp()
    dims = w._support_dims
    if name == "gauge-q3-n8":
        # rule (b) puts radical rows past the ones the walk starts with
        radical_rows = [d - g for d, g in zip(dims.dim, dims.gram_rank)]
        assert max(radical_rows) > radical_rows[-1]
    columns = (dims.dim, dims.gram_rank, dims.rad, dual_dims(w))
    assert dims.n == w.n and [len(col) for col in columns] == [2**w.n] * 4
    rad, dual = w.radical(), w.perp()
    for a in all_anticodes(w.n):
        inner, m = intersect_with_anticode(w, a), _mask(a.support)
        assert (dims.dim[m], dims.gram_rank[m]) == (inner.dim_f, 2 * inner.sym_dim), sorted(a.support)
        assert dims.rad[m] == intersect_with_anticode(rad, a).dim_f, sorted(a.support)
        assert columns[3][m] == intersect_with_anticode(dual, a).dim_f, sorted(a.support)


@pytest.mark.parametrize("name", WALK_CASES)
def test_support_table_columns_are_bytes_of_at_most_2n(name):
    w = _walk_case(name)
    dims = w._support_dims
    for column in (dims.dim, dims.gram_rank, dims.rad, dual_dims(w)):
        assert type(column) is bytes and max(column) <= 2 * w.n


# sha256 of the table's three columns (dim, gram_rank, rad) and the dual's
# column (dual_dims) joined, per walk case, taken before the walk's cut moved
# into the field objects (gauge-q3-n8: before the odd-q rows became residue
# lanes).
PINNED_TABLES = {
    "stabilizer-q2-n8": "a5213081dacf834bd90561936a548d60d40cf777b7775b7266cd092f9ed363ce",
    "gauge-q2-n7": "8834cf2081db98a49ad90d7925e00f0d313a811b88bfd8b505ba534507ab65cc",
    "gauge-q2-n8": "a73ceda1b9ef81bfcce8f9f0a4c5fdc9afa4c97afb8c92366fce5ad1ad3052bf",
    "gauge-q2-n10": "98cd20ae13cdc4ac150f68e790dbcec017aaecac17df6bab3591209466ab7aa9",
    "gauge-q3-n8": "2b41c17e2e7e667360f157c56561143d899bf60c7879a8e3e433af718bdd58af",
    "q3-n5": "1c0ab24c10d9e2e303f3b1be6c56109b1aacc186dd403410612aab5316a8b974",
    "q5-n4": "f50651a7c7ddedb16404956f8cd9142ef2a243fbc5d734c8d67aca7bc523a53c",
    "q7-n3": "027360babeb352c1a2e96abd16b0af7747c78e82a518899d7ad501e4df6b90ac",
    "full-q2-n1": "59794cac235653057ff2be7696504a194045b07947eb652a4ba38ac98234bdb2",
    "line-q3-n1": "c0da076d9d85caacc0665fe3406f33aa666182cceabbced5fe312ad45cd3c948",
    "zero-q2-n0": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    "full-q2-n0": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    "zero-q3-n0": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    "zero-q2-n6": "8526e61a1bb2161bef83df4c3895492a80a7011a066a769afb254fc769600806",
    "zero-q3-n4": "9dce23f11fce6c6be853a65156dbb1a1c86cba11b15e55b82fd1b95c691a53bb",
    "full-q2-n6": "0189e23f4456e8ccb85181c2cb94130c618cd9a576e55947ef3a3cc1838ac0a4",
    "full-q3-n4": "3c4a038c7e847b4f23aa281e21a74bdac73fd1e5ff7d2d575314d8595985fea0",
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_support_table_bytes_are_pinned(name):
    w = _walk_case(name)
    dims = w._support_dims
    joined = b"".join((dims.dim, dims.gram_rank, dims.rad, dual_dims(w)))
    assert hashlib.sha256(joined).hexdigest() == PINNED_TABLES[name]


@st.composite
def odd_spaces(draw):
    """Span of up to 2n + 1 drawn rows over F_q, q in {3, 5, 7}, on n <= 6 factors."""
    q = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return Subspace(np.array(entries, dtype=np.int64).reshape(rows, 2 * n), q, n)


@settings(max_examples=30, deadline=None)
@given(w=odd_spaces())
def test_odd_support_walk_matches_literal_intersections(w):
    dims, dual_column = w._support_dims, dual_dims(w)
    rad, dual = w.radical(), w.perp()
    for a in all_anticodes(w.n):
        inner, m = intersect_with_anticode(w, a), _mask(a.support)
        assert (dims.dim[m], dims.gram_rank[m]) == (inner.dim_f, 2 * inner.sym_dim), sorted(a.support)
        assert dims.rad[m] == intersect_with_anticode(rad, a).dim_f, sorted(a.support)
        assert dual_column[m] == intersect_with_anticode(dual, a).dim_f, sorted(a.support)


@pytest.mark.parametrize("q", [2, 3])
def test_walk_cuts_once_per_support_below_the_full_one(monkeypatch, q):
    w = random_subspace(np.random.default_rng(q), q, 6, rows=7)
    field = type(w._field)
    real, calls = field.cut, []
    monkeypatch.setattr(field, "cut", lambda *args: calls.append(args) or real(*args))
    w._support_dims
    assert len(calls) == 2**6 - 1


def test_binary_walk_calls_nothing_per_support_but_visit_and_cut():
    # At q=2 the rules run inline in the field's cut: no call layer below it.
    w = random_subspace(np.random.default_rng(2), 2, 8, rows=9)
    w._split, w._radical
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        w._support_dims
    finally:
        sys.setprofile(None)
    assert (seen.pop("visit"), seen.pop("cut")) == (2**8, 2**8 - 1)
    assert max(seen.values()) < 2**8 - 1, seen


def test_odd_walk_calls_nothing_per_support_but_visit_and_cut():
    # At odd q too the rules run inline in the field's cut, on whole blocks of lanes.
    w = random_subspace(np.random.default_rng(3), 3, 8, rows=9)
    w._split, w._radical
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        w._support_dims
    finally:
        sys.setprofile(None)
    assert (seen.pop("visit"), seen.pop("cut")) == (2**8, 2**8 - 1)
    assert max(seen.values()) < 2**8 - 1, seen


def test_gauge_walk_outgrows_its_initial_radical_rows():
    # Radical and dual differ, so the dual's column is a walk of its own,
    # and rule (b) puts radical rows past the ones the walk starts with.
    w = _walk_case("gauge-q2-n10")
    assert w.radical() != w.perp()
    dims = w._support_dims
    full = _mask(range(w.n))
    radical_rows = [d - g for d, g in zip(dims.dim, dims.gram_rank)]
    assert max(radical_rows) > radical_rows[full]


def test_support_walk_at_twelve_factors_matches_sampled_intersections():
    w = _walk_case("stabilizer-q2-n12")
    assert w.radical() == w.perp()  # the radical column serves as the dual's
    dims, dual_column = w._support_dims, dual_dims(w)
    assert [len(col) for col in (dims.dim, dims.gram_rank, dims.rad, dual_column)] == [2**12] * 4
    rng = np.random.default_rng(12)
    rad, dual = w.radical(), w.perp()
    for _ in range(200):
        a = Anticode(12, {int(j) for j in np.nonzero(rng.integers(0, 2, 12))[0]})
        inner, m = intersect_with_anticode(w, a), _mask(a.support)
        assert (dims.dim[m], dims.gram_rank[m]) == (inner.dim_f, 2 * inner.sym_dim), sorted(a.support)
        assert dims.rad[m] == intersect_with_anticode(rad, a).dim_f, sorted(a.support)
        assert dual_column[m] == intersect_with_anticode(dual, a).dim_f, sorted(a.support)


def test_cached_values_call_the_current_func_once(monkeypatch):
    prop = Subspace.__dict__["isorank"]
    assert isinstance(prop, cached_property)
    calls = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda w: calls.append(w) or real(w))
    w = Subspace.full(2, 1)
    assert w.isorank == w.isorank == 1
    assert calls == [w]
