from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense

from qsymp.codes import (
    SUPPORT_COST,
    Code,
    bacon_shor_code,
    check_commuting,
    codeword_batches,
    from_pauli,
    parse_pauli_text,
    pauli_to_vector,
    random_code,
    random_isotropic,
    random_stabilizer_code,
    repetition_code,
    rotated_surface_code,
    shor_code,
    stabilizer_code_from_isotropic,
    subsystem_from_gauge,
    vector_to_pauli,
)
from qsymp.enumerators import enumerator_polys, weight_distribution
from qsymp.errors import BudgetExceededError, CommutationError, DimensionMismatchError, ParseError
from qsymp.symplectic import Subspace


# ---------------------------------------------------------------------------
# Pauli parsing


def test_pauli_letter_map():
    assert pauli_to_vector("IXZY").tolist() == [0, 0, 1, 0, 0, 1, 1, 1]
    assert vector_to_pauli([0, 0, 1, 0, 0, 1, 1, 1]) == "IXZY"


def test_from_pauli_repetition_stabilizer():
    assert from_pauli(["ZZ"]) == Subspace([[0, 1, 0, 1]], 2, 2)


def test_from_pauli_identity_word_gives_zero_space():
    assert from_pauli(["II"]) == Subspace.zero(2, 2)


def test_from_pauli_shor_generators():
    s = from_pauli(
        ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
         "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"]
    )
    assert s.n == 9
    assert s.dim_f == 8
    assert s.is_isotropic()


def test_pauli_round_trip_up_to_row_reduction():
    gens = ["XXII", "IIXX", "ZIZI", "IZIZ"]
    space = from_pauli(gens)
    again = from_pauli([vector_to_pauli(row) for row in space.basis])
    assert again == space


def test_pauli_parse_errors():
    with pytest.raises(ParseError):
        pauli_to_vector("XQZ")
    with pytest.raises(ParseError):
        from_pauli(["XX", "XXX"])
    with pytest.raises(ParseError) as err:
        parse_pauli_text("XX\nXB\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError, match="inconsistent lengths"):
        parse_pauli_text("XX\nXXX\n")
    with pytest.raises(ValueError, match="empty generator list"):
        from_pauli([])


def test_lowercase_pauli_letters_are_refused():
    # A leading lowercase i is the phase unit, so "izz" must not read as ZZ.
    with pytest.raises(ParseError, match="unknown Pauli letter 'z'"):
        parse_pauli_text("izz\nixx\n")
    with pytest.raises(ParseError, match="unknown Pauli letter 'z'"):
        parse_pauli_text("zzi\n")
    with pytest.raises(ParseError, match="unknown Pauli letter 'x'"):
        pauli_to_vector("xz")


def test_pauli_file_comments_and_blanks():
    text = "# stabilizers\n\nZZ  # weight two\n"
    assert parse_pauli_text(text) == ["ZZ"]


def test_pauli_signs_and_phases_are_discarded():
    assert parse_pauli_text("-ZZ\n+XX\n-iYI\niIZ\n") == ["ZZ", "XX", "YI", "IZ"]
    assert (pauli_to_vector("-iXZ") == pauli_to_vector("XZ")).all()
    # an uppercase I is the identity letter, never a phase
    assert parse_pauli_text("-IXZ\n") == ["IXZ"]


@pytest.mark.parametrize("prefix", ["+", "-", "i", "-i"])
def test_from_pauli_reads_a_phase_prefix_as_no_factor(prefix):
    words = ["XZ", "ZX"]
    assert from_pauli([prefix + words[0], words[1]]) == from_pauli(words)
    assert from_pauli([prefix + w for w in words]) == from_pauli(words)


def test_vector_to_pauli_rejects_larger_fields():
    with pytest.raises(ValueError):
        vector_to_pauli([2, 0])


# ---------------------------------------------------------------------------
# stabilizer construction


def test_repetition_code_construction():
    c = repetition_code()
    expected = Subspace([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 0]], 2, 2)
    assert c.space == expected
    assert c.is_stabilizer()
    assert c.radical_space() == from_pauli(["ZZ"])


def test_stabilizer_from_zero_space_is_everything():
    c = stabilizer_code_from_isotropic(Subspace.zero(2, 3))
    assert c.space == Subspace.full(2, 3)
    assert c.k == 3


def test_shor_construction():
    c = shor_code()
    assert (c.n, c.dim_f, c.k, c.s) == (9, 10, 1, 9)
    assert c.is_stabilizer()
    assert repr(c) == "Code(q=2, n=9, dim_f=10)"


def test_non_commuting_generators_are_rejected():
    bad = from_pauli(["XI", "ZI"])
    with pytest.raises(CommutationError) as err:
        stabilizer_code_from_isotropic(bad)
    msg = str(err.value)
    assert "generators 1 and 2" in msg


@pytest.mark.parametrize("q", [2, 3])
def test_check_commuting_refuses_rows_of_another_width(q):
    with pytest.raises(DimensionMismatchError):
        check_commuting([[1, 0, 0, 1, 0, 0]], q, 2)


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_check_commuting_names_the_first_nonzero_gram_entry(q, data):
    # The pair named is the first nonzero entry, row by row, of the dense Gram matrix.
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 5))
    entries = st.lists(st.integers(0, q - 1), min_size=2 * n, max_size=2 * n)
    rows = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)), dtype=np.int64).reshape(m, 2 * n)
    gram = dense.gram(rows, q)
    bad = np.argwhere(gram)
    if not bad.size:
        check_commuting(rows, q, n)
        return
    i, j = (int(v) for v in bad[0])
    with pytest.raises(CommutationError) as err:
        check_commuting(rows, q, n)
    assert (err.value.i, err.value.j, err.value.value) == (i, j, int(gram[i, j]))


# ---------------------------------------------------------------------------
# subsystem construction


def test_bacon_shor_subsystem():
    sub = bacon_shor_code()
    assert sub.stabilizer == from_pauli(["XXXX", "ZZZZ"])
    assert sub.normalizer.dim_f == 6
    assert sub.logical_count == 1
    assert sub.gauge.k == 1 and sub.gauge.s == 3
    # sandwich: dual of normalizer <= gauge <= normalizer
    assert sub.gauge.space.contains_space(sub.normalizer.space.perp())
    assert sub.normalizer.space.contains_space(sub.gauge.space)
    assert sub.gauge.space.radical() == sub.normalizer.space.perp()


@pytest.mark.parametrize("d", [3, 5])
def test_rotated_surface_code_parameters(d):
    c = rotated_surface_code(d)
    assert (c.n, c.dim_f, c.k, c.s) == (d * d, d * d + 1, 1, d * d)
    assert c.is_stabilizer()
    assert c.radical_space().dim_f == d * d - 1


def test_rotated_surface_code_distance():
    assert rotated_surface_code(3).distance() == 3


def test_code_families_refuse_an_empty_grid():
    with pytest.raises(ValueError, match="distance must be at least 1"):
        rotated_surface_code(0)
    with pytest.raises(ValueError, match="grid side must be at least 1"):
        bacon_shor_code(0)


def test_bacon_shor_default_is_the_two_by_two_code():
    assert bacon_shor_code().gauge.space == from_pauli(["XXII", "IIXX", "ZIZI", "IZIZ"])
    assert bacon_shor_code(2).gauge == bacon_shor_code().gauge
    assert hash(bacon_shor_code(2).gauge) == hash(bacon_shor_code().gauge)
    assert {bacon_shor_code(2).gauge: "2x2"}[bacon_shor_code().gauge] == "2x2"


@pytest.mark.parametrize("m", [3, 5])
def test_bacon_shor_family(m):
    sub = bacon_shor_code(m)
    assert sub.normalizer.n == m * m
    assert sub.logical_count == 1
    assert sub.stabilizer.dim_f == 2 * (m - 1)
    assert sub.stabilizer.is_isotropic()


def test_isotropic_gauge_degenerates():
    d = Code(from_pauli(["ZZ"]))
    sub = subsystem_from_gauge(d)
    assert sub.stabilizer == d.space
    assert sub.gauge.k == 0
    assert sub.logical_count == sub.normalizer.k


def test_subsystem_invariants_random(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        sub = subsystem_from_gauge(random_code(rng, 2, n))
        assert sub.stabilizer.is_isotropic()
        assert sub.normalizer.space.contains_space(sub.gauge.space)
        assert sub.gauge.space.contains_space(sub.normalizer.space.perp())
        assert sub.gauge.space.radical() == sub.normalizer.space.perp()
        assert sub.logical_count == sub.normalizer.k - sub.gauge.k
        assert sub.logical_count >= 0


# ---------------------------------------------------------------------------
# parameters


def test_repetition_params(repetition):
    assert tuple(repetition.params()) == (2, 1, 2, 1, 2)


def test_bacon_shor_normalizer_params(bacon_shor):
    assert tuple(bacon_shor.normalizer.params()) == (4, 2, 4, 2, 4)


def test_shor_distance(shor):
    assert shor.distance() == 3
    assert shor.params().maxwt == 9


def test_zero_code_params():
    c = Code(Subspace.zero(2, 3))
    assert tuple(c.params()) == (3, 0, 0, None, 0)


def test_isotropic_code_has_no_distance():
    c = Code(from_pauli(["ZZ"]))
    assert c.distance() is None


def test_distance_budget_guard(shor):
    # Shor: 2^10 codewords, but the smaller side of the code and of its
    # radical is the stabilizer, with 2^8 words
    assert shor.space.perp() == shor.radical_space()
    fresh = shor_code()
    with pytest.raises(BudgetExceededError) as err:
        fresh.distance(budget=100)
    assert (err.value.needed, err.value.task) == (2**8, "codeword enumeration")
    assert err.value.to_dict()["error"] == "budget-exceeded"


def test_full_space_beyond_the_enumeration_budget():
    # 31^14 codewords, but the complement route counts the one zero word
    code = Code(Subspace(np.eye(14, dtype=np.int64), 31, 7))
    w = weight_distribution(code)
    assert w == [comb(7, b) * 960**b for b in range(8)]
    assert all(type(c) is int for c in w)
    assert code.distance() == 1
    assert code.max_weight() == 7
    assert enumerator_polys(code) == ([1] + [0] * 7, w)


def _one_pair_q31():
    """One symplectic pair on the first of two factors at q=31: a balanced odd-q code."""
    return Code(Subspace([[1, 0, 0, 0], [0, 1, 0, 0]], 31, 2))


def test_support_route_budget():
    # the code is its own smaller side: 31^2 + 1 words against 2^2 supports
    code = _one_pair_q31()
    assert code.q**code.dim_f + 1 > SUPPORT_COST * 2**code.n
    with pytest.raises(BudgetExceededError) as err:
        code.params(budget=2**2 - 1)
    assert (err.value.needed, err.value.task) == (2**2, "support scan")
    assert code.params(budget=2**2) == (2, 1, 1, 1, 1)
    assert "_support_dims" in code.space.__dict__


def test_stabilizer_tables_skip_the_support_scan():
    # stabilizer Z on factor 0: that factor carries I or Z, the other nine anything
    code = stabilizer_code_from_isotropic(from_pauli(["Z" + "I" * 9]))
    assert weight_distribution(code) == [
        comb(9, b) * 3**b + (comb(9, b - 1) * 3 ** (b - 1) if b else 0) for b in range(11)
    ]
    assert "_support_dims" not in code.space.__dict__


@pytest.mark.parametrize(
    "make, big, needed, task",
    [
        (shor_code, 10**6, 2**8, "codeword enumeration"),
        (_one_pair_q31, 31**2, 2**2, "support scan"),
    ],
    ids=["shor-enumeration", "pair-q31-n2-supports"],
)
def test_weight_tables_check_the_budget_on_every_call(make, big, needed, task):
    code = make()
    code.params(budget=big)
    calls = [
        lambda b: code.distance(budget=b),
        lambda b: code.max_weight(budget=b),
        lambda b: weight_distribution(code, budget=b),
        lambda b: enumerator_polys(code, budget=b),
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError) as err:
            call(needed - 1)
        assert (err.value.needed, err.value.task) == (needed, task)
        call(needed)


def test_codeword_batches_cover_the_code(repetition):
    words = set()
    for _digits, batch in codeword_batches(repetition.space):
        words.update(tuple(int(x) for x in row) for row in batch)
    assert len(words) == 8
    assert all(w in repetition.space for w in words)


def test_dimension_bound_by_max_weight(rng):
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        code = random_code(rng, q, int(rng.integers(1, 4)))
        assert code.k <= code.max_weight()


def test_singleton_bound_on_random_stabilizer_codes(rng):
    for _ in range(40):
        code = random_stabilizer_code(rng, int(rng.integers(1, 6)))
        d = code.distance()
        if d is not None:
            assert 2 * (d - 1) <= code.n - code.k


def test_random_isotropic_is_isotropic(rng):
    for q in (2, 3):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            s = random_isotropic(rng, q, n)
            assert s.is_isotropic()
            assert s.dim_f <= n
    with pytest.raises(ValueError):
        random_isotropic(rng, 2, 2, dim_f=3)
