import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsymp.errors import DimensionMismatchError, ParseError
from dense import in_row_space, kernel, rref, vanishing_part
from qsymp.linalg import as_matrix, checked_order, matrix_from_text, matrix_to_text
from qsymp.symplectic import Subspace, _Gf2, _field

PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------------------
# the field


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, -3, 2.5, "2", True])
def test_field_rejects_non_primes(bad):
    with pytest.raises(ValueError):
        checked_order(bad, 1)


@pytest.mark.parametrize("q", PRIMES)
def test_field_accepts_primes(q):
    assert checked_order(q, 1) == q
    assert type(checked_order(np.int64(q), 1)) is int


# ---------------------------------------------------------------------------
# canonical form


def test_rref_zero_matrix_is_empty():
    out = rref(np.zeros((3, 4), dtype=np.int64), 2)
    assert out.shape == (0, 4)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("shape", [(14, 14), (3, 8), (0, 5)])
def test_rref_of_zeros_at_odd_q_has_no_rows(q, shape):
    # entries that are multiples of q are zero too
    for a in (np.zeros(shape, dtype=np.int64), np.full(shape, q, dtype=np.int64)):
        out = rref(a, q)
        assert out.shape == (0, shape[1]) and out.dtype == np.int64


@pytest.mark.parametrize("q", PRIMES)
def test_rref_identity_fixed(q):
    eye = np.eye(6, dtype=np.int64)
    assert (rref(eye, q) == eye).all()


def test_rref_worked_binary_example():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    out = rref(np.array(rows), 2)
    assert out.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert rref(np.array(rows), 2).shape[0] == 2


def test_rref_idempotent(rng):
    for q in (2, 3, 5):
        for _ in range(30):
            a = rng.integers(0, q, size=(rng.integers(0, 6), 7))
            r = rref(a, q)
            assert (rref(r, q) == r).all()


def test_equal_row_space_iff_equal_rref(rng):
    for q in (2, 3):
        for _ in range(30):
            a = rng.integers(0, q, size=(4, 6))
            # invertible row mix: permute, scale, add rows
            b = a.copy()
            b = b[rng.permutation(4)]
            b[0] = (b[0] + b[1]) % q
            b[2] = (b[2] * (q - 1)) % q
            assert (rref(a, q) == rref(b, q)).all()
    distinct = rref(np.array([[1, 0, 0]]), 2), rref(np.array([[0, 1, 0]]), 2)
    assert distinct[0].tolist() != distinct[1].tolist()


def _packed_rref(a, q=2):
    """The packed echelon of a matrix over F_q, unpacked: its rows fit a field on ceil(cols / 2) factors."""
    field = _field(q, (a.shape[1] + 1) // 2)
    return field.unpack(field.canonical(field.pack(a)), a.shape[1])


def test_packed_and_dense_paths_are_bit_exact(rng):
    for q in PRIMES:
        for _ in range(80):
            m = int(rng.integers(0, 8))
            n = int(rng.integers(1, 12))
            a = rng.integers(0, q, size=(m, n))
            packed = _packed_rref(a, q)
            dense = rref(a, q)
            assert packed.shape == dense.shape, q
            assert (packed == dense).all(), q


def test_packed_path_wide_matrix(rng):
    # Byte-packing edges: one column, widths around a 64-bit word, whole and
    # partial bytes, and a matrix several words wide.
    for rows in (0, 1, 10):
        for cols in (1, 62, 63, 64, 65, 70, 200):
            a = rng.integers(0, 2, size=(rows, cols))
            packed = _packed_rref(a)
            dense = rref(a, 2)
            assert packed.dtype == dense.dtype == np.int64
            assert packed.shape == dense.shape, (rows, cols)
            assert (packed == dense).all(), (rows, cols)
            assert len(_Gf2(cols).canonical(_Gf2.pack(a))) == dense.shape[0], (rows, cols)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_of_identity_is_empty():
    assert kernel(np.eye(4, dtype=np.int64), 3).shape == (0, 4)


def test_kernel_of_zero_map_is_everything():
    out = kernel(np.zeros((2, 4), dtype=np.int64), 2)
    assert out.shape[0] == 4
    assert rref(out, 2).shape[0] == 4


def test_rank_nullity(rng):
    for q in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, q, size=(rng.integers(1, 6), 8))
            k = kernel(a, q)
            assert rref(a, q).shape[0] + k.shape[0] == 8
            if k.shape[0]:
                assert not ((a @ k.T) % q).any()


# ---------------------------------------------------------------------------
# sum and intersection


def test_intersect_self_and_sum_with_zero(rng):
    a = Subspace(rng.integers(0, 3, size=(3, 6)), 3, 3)
    zero = Subspace.zero(3, 3)
    assert (a & a).basis.tobytes() == a.basis.tobytes()
    assert (a + zero).basis.tobytes() == a.basis.tobytes()


def test_intersect_coordinate_planes_by_enumeration():
    # span{e1,e2} meet span{e2,e3} inside F_2^4, checked against the 16-vector scan
    a = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    b = np.array([[0, 1, 0, 0], [0, 0, 1, 0]])
    got = (Subspace(a, 2, 2) & Subspace(b, 2, 2)).basis
    from itertools import product

    def span(m):
        return {
            tuple((np.array(cs) @ m) % 2)
            for cs in product(range(2), repeat=m.shape[0])
        }

    expected = span(a) & span(b)
    assert span(got) == expected
    assert got.tolist() == [[0, 1, 0, 0]]


def test_modular_law_on_random_pairs(rng):
    for q in (2, 3):
        for _ in range(100):
            a = Subspace(as_matrix(rng.integers(0, q, size=(rng.integers(0, 5), 6)), q, 6), q, 3)
            b = Subspace(as_matrix(rng.integers(0, q, size=(rng.integers(0, 5), 6)), q, 6), q, 3)
            assert (a + b).dim_f + (a & b).dim_f == a.dim_f + b.dim_f


def test_column_mismatch_raises():
    a = Subspace(np.zeros((1, 4), dtype=np.int64), 2, 2)
    b = Subspace(np.zeros((1, 6), dtype=np.int64), 2, 3)
    with pytest.raises(DimensionMismatchError):
        a & b
    with pytest.raises(DimensionMismatchError):
        a + b


def test_in_row_space(rng):
    basis = rref(np.array([[1, 0, 1, 0], [0, 1, 0, 1]]), 2)
    assert in_row_space(basis, [1, 1, 1, 1], 2)
    assert not in_row_space(basis, [1, 0, 0, 0], 2)


# ---------------------------------------------------------------------------
# vanishing parts


def _column_first_vanishing_part(a, cols, q):
    """The reference route: one elimination of any spanning rows with ``cols`` taken first.

    The reduced rows that vanish on ``cols``, with the columns moved back,
    are the canonical basis of the part.
    """
    first = set(cols)
    order = list(cols) + [c for c in range(a.shape[1]) if c not in first]
    moved = rref(a[:, order], q)
    kept = moved[~moved[:, : len(cols)].any(axis=1)]
    out = np.empty_like(kept)
    out[:, order] = kept
    return out


def _spanning_rows(data, q, n):
    """Up to 2n + 1 drawn rows on n factors: a spanning set with repeats and zero rows allowed."""
    rows = data.draw(st.integers(0, 2 * n + 1))
    cells = rows * 2 * n
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=cells, max_size=cells))
    return np.array(entries, dtype=np.int64).reshape(rows, 2 * n)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vanishing_parts_match_the_column_first_elimination(data):
    q = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, 6))
    space = Subspace(_spanning_rows(data, q, n), q, n)
    cols = data.draw(st.permutations(sorted(data.draw(st.sets(st.integers(0, 2 * n - 1))))))
    expected = _column_first_vanishing_part(space.basis, cols, q)
    field = space._field
    packed = field.vanishing_part(list(space._rows), sum(1 << c * field.b for c in cols))
    assert packed == field.canonical(packed)
    part = field.unpack(packed, 2 * n)
    assert part.shape == expected.shape
    assert part.tobytes() == expected.tobytes()
    assert field.pack(expected) == packed
    # The dense reference route agrees.
    assert vanishing_part(space.basis, cols, q).tobytes() == expected.tobytes()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_intersection_matches_the_column_first_zassenhaus_part(data):
    # The stacked rows (x, x), (y, 0) of two raw spanning sets are not
    # canonical; the intersection must not depend on that.
    q = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, 6))
    a, b = _spanning_rows(data, q, n), _spanning_rows(data, q, n)
    width = 2 * n
    joint = np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])])
    expected = _column_first_vanishing_part(joint, list(range(width)), q)[:, width:]
    got = Subspace(a, q, n) & Subspace(b, q, n)
    assert got.basis.shape == expected.shape
    assert got.basis.tobytes() == expected.tobytes()
    assert (Subspace(b, q, n) & Subspace(a, q, n)) == got


# ---------------------------------------------------------------------------
# text format


def test_matrix_text_round_trip(rng):
    a = as_matrix(rng.integers(0, 5, size=(3, 4)), 5)
    text = matrix_to_text(a, 5)
    back, q = matrix_from_text(text)
    assert q == 5
    assert (back == a).all()


def test_matrix_text_headers():
    m, q = matrix_from_text("3 0 4\n")
    assert q == 3 and m.shape == (0, 4)
    with pytest.raises(ParseError):
        matrix_from_text("")
    with pytest.raises(ParseError):
        matrix_from_text("2 1\n1 0\n")
    with pytest.raises(ParseError):
        matrix_from_text("4 1 2\n1 0\n")  # composite modulus
    with pytest.raises(ParseError, match="three integers"):
        matrix_from_text("2 x 2\n")
    with pytest.raises(ParseError, match="negative dimensions"):
        matrix_from_text("2 -1 2\n")
    with pytest.raises(ParseError, match="supported range") as err:
        matrix_from_text("2305843009213693951 1 2\n1 2\n")  # 2^61 - 1: prime, but far too large
    assert err.value.line == 1
    with pytest.raises(ParseError, match="with n at least 1"):  # no factors: checked as one
        matrix_from_text("2305843009213693951 0 0\n")


def test_a_matrix_needs_a_width_and_two_axes():
    with pytest.raises(ValueError, match="explicit column count"):
        as_matrix([], None)
    with pytest.raises(ValueError, match="ndim 3"):
        as_matrix(np.zeros((2, 2, 2), dtype=np.int64), None)


def test_matrix_text_row_errors():
    with pytest.raises(ParseError) as err:
        matrix_from_text("2 2 3\n1 0 1\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        matrix_from_text("2 1 3\n1 0\n")
    with pytest.raises(ParseError):
        matrix_from_text("2 1 3\n1 x 0\n")
    with pytest.raises(ParseError) as err:
        matrix_from_text("2 1 4\n1 0 1 0\n\n0 1 0 1\n")
    assert "line 4" in str(err.value)
    assert matrix_from_text("2 1 4\n1 0 1 0\n\n  \n")[0].tolist() == [[1, 0, 1, 0]]
