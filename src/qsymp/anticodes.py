"""Anticodes, puncturing/shortening, and the cleaning and complementarity identities.

An anticode is determined by its support: it is the free subspace of all
vectors vanishing off a set of factors J, and it is exactly the class of
subspaces whose pair count equals their maximum weight.  Anticodes are kept
as supports (the realization is materialized on demand), so the lattice
operations are plain set operations on ``support``.

Puncturing projects onto the factors in J; shortening punctures the part of
a code already supported inside J.  The two operations are dual to each
other through orthogonal complements, which is the executable form of the
cleaning lemma for stabilizer codes.

The part, the puncture and the shortening of a space on a support are each
computed once and cached on the space, keyed by the operation and the
support, so the cleaning and complementarity checks, alpha/beta and the
caller's own cuts share one answer (and its cached pair count, complement
and Gram echelon) per support.  The cache lives and dies with the space, and
it holds only the supports that were asked for: the invariants over all
2^n supports are read from the support table instead (see
:class:`qsymp.symplectic.SupportTable`), so only a caller that asks about
every support itself keeps a view per support.  Equal but distinct spaces
keep separate caches.

When the radical has no part on either side of a support, its transversal
summand S' is the radical object itself, so the complementarity check's
punctures of S' are the radical's own cached views.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import wraps
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_matrix
from .report import CheckResult, equal, skipped
from .symplectic import Subspace, _field

__all__ = [
    "Anticode",
    "all_anticodes",
    "intersect_with_anticode",
    "puncture",
    "shorten",
    "verify_cleaning",
    "SPrimeDecomposition",
    "s_prime_decompose",
    "complementarity_check",
]


@dataclass(frozen=True)
class Anticode:
    """The free subspace supported on a set of factors (0-based indices)."""

    n: int
    support: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(map(operator.index, self.support)))
        for j in self.support:
            if not 0 <= j < self.n:
                raise IndexError(f"support index {j} outside 0..{self.n - 1}")

    @property
    def dim(self) -> int:
        return len(self.support)

    def complement(self) -> "Anticode":
        return Anticode(self.n, frozenset(range(self.n)) - self.support)

    def sorted_support(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def subspace(self, q: int) -> Subspace:
        """Materialize the free subspace: two basis rows per supported factor."""
        rows = np.zeros((2 * self.dim, 2 * self.n), dtype=np.int64)
        for i, j in enumerate(self.sorted_support()):
            rows[2 * i, 2 * j] = 1
            rows[2 * i + 1, 2 * j + 1] = 1
        return Subspace(rows, q, self.n)


def all_anticodes(n: int):
    """All anticodes ordered by (dimension, lexicographic support)."""
    for b in range(n + 1):
        for s in combinations(range(n), b):
            yield Anticode(n, frozenset(s))


def _space_of(obj) -> Subspace:
    return obj.space if hasattr(obj, "space") else obj


def _per_space(make):
    """``make(space, a)``, computed once per space and support and cached on the space.

    The factor count is checked before the lookup, so a wrong-n anticode
    raises on every call.  A view that is the space itself is not stored,
    so no space refers to itself.
    """

    @wraps(make)
    def view(obj, a: Anticode) -> Subspace:
        space = _space_of(obj)
        if space.n != a.n:
            raise DimensionMismatchError(f"anticode on {a.n} factors, space on {space.n}")
        views = space._anticode_views
        key = make, a.support
        if (out := views.get(key)) is None:
            out = make(space, a)
            if out is not space:
                views[key] = out
        return out

    return view


@_per_space
def intersect_with_anticode(space: Subspace, a: Anticode) -> Subspace:
    """The part of a subspace supported inside the anticode.

    Equivalent to intersecting with the materialized free subspace, but
    read off the canonical basis as its vanishing part on the coordinates
    outside the support, with no re-elimination of the basis (the field
    object's ``vanishing_part``).
    """
    outside = [j for j in range(a.n) if j not in a.support]
    if not outside:
        return space
    field = space._field
    return Subspace._canonical(field, field.vanishing_part(space._rows, field.columns(outside)))


@_per_space
def puncture(space: Subspace, a: Anticode) -> Subspace:
    """Project a code onto the anticode's factors (sorted factor order), re-eliminated."""
    field = _field(space.q, a.dim)
    rows = space._field.project(space._rows, a.sorted_support())
    return Subspace._canonical(field, field.canonical(rows))


@_per_space
def shorten(space: Subspace, a: Anticode) -> Subspace:
    """Puncture the part of the code already supported inside the anticode.

    The part (:func:`intersect_with_anticode`, cached) is canonical and zero
    off the support, so its projection keeps every pivot in order and is
    stored as it is, with no second elimination.
    """
    part = intersect_with_anticode(space, a)
    rows = space._field.project(part._rows, a.sorted_support())
    return Subspace._canonical(_field(space.q, a.dim), rows)


def verify_cleaning(code, a: Anticode) -> list[CheckResult]:
    """Check both duality identities between puncturing and shortening.

    In the punctured ambient space: the shortening of the dual equals the
    complement of the puncturing, and symmetrically.  Each result keeps its
    two sides as spaces, written out as their basis rows only when the
    result is serialized.  Failures carry a witness basis row.
    """
    space = _space_of(code)
    dual = space.perp()
    checks = []
    for name, lhs, rhs in (
        ("cleaning-shorten-dual", shorten(dual, a), puncture(space, a).perp()),
        ("cleaning-puncture-dual", puncture(dual, a), shorten(space, a).perp()),
    ):
        check = equal(name, lhs, rhs)
        if not check.passed:
            check.witness = next(
                (
                    {"side": side, "vector": [int(x) for x in row]}
                    for side, mine, other in (("lhs", lhs, rhs), ("rhs", rhs, lhs))
                    for row in mine.basis
                    if row not in other
                ),
                None,
            )
        checks.append(check)
    return checks


@dataclass(frozen=True)
class SPrimeDecomposition:
    """Splitting of a code's radical relative to an anticode.

    The radical decomposes as the part supported in the anticode, the part
    supported in the complement, and a transversal summand on which the
    projection onto either side is injective.  All three summands are
    isotropic and mutually orthogonal (they live inside the radical).
    """

    rad_in_a: Subspace
    rad_in_aperp: Subspace
    s_prime: Subspace


def s_prime_decompose(code, a: Anticode, radical_rows=None) -> SPrimeDecomposition:
    """Decompose the radical as (inside A) + (inside the complement) + transversal.

    The transversal summand is any direct-sum complement; it is chosen by
    greedily extending a basis of the two supported parts with the earliest
    usable rows of ``radical_rows`` (default: the canonical radical basis).
    Passing the rows in a preferred presentation order steers which
    complement is produced; every identity checked downstream is independent
    of that choice.  The field object makes the choice (``transversal``),
    extending an echelon of the two parts' rows, which are not summed
    first.  When both supported parts are zero the summand is the whole
    radical, and the radical object itself is returned.
    """
    space = _space_of(code)
    rad = space.radical()
    rad_in_a = intersect_with_anticode(rad, a)
    rad_in_aperp = intersect_with_anticode(rad, a.complement())
    if radical_rows is not None:
        given = as_matrix(radical_rows, space.q, cols=2 * space.n)
        span = Subspace(given, space.q, space.n)
        if not rad.contains_space(span):
            raise ValueError("supplied rows must lie in the radical")
        if span != rad:
            raise ValueError("supplied rows must span the radical")
    if rad_in_a.dim_f or rad_in_aperp.dim_f:
        field = space._field
        rows = rad._rows if radical_rows is None else field.pack(given)
        s_prime = Subspace._canonical(field, field.transversal(rad_in_a._rows + rad_in_aperp._rows, rows))
    else:  # the radical meets neither side: it is its own transversal summand
        s_prime = rad
    return SPrimeDecomposition(rad_in_a=rad_in_a, rad_in_aperp=rad_in_aperp, s_prime=s_prime)


def complementarity_check(code, a: Anticode, radical_rows=None) -> list[CheckResult]:
    """Verify the complementarity identities of a code against an anticode.

    Punctured transversal summands on the two sides agree in pair count and
    isorank; the radical's puncturings agree in pair count and in the
    isorank excess over the shortenings.  When the code's radical equals its
    dual (the self-orthogonal case: isorank n, so no dual is built) the
    shortening identities that express complementary recovery are checked
    as exact integer equalities.
    """
    space = _space_of(code)
    comp = a.complement()
    dec = s_prime_decompose(space, a, radical_rows=radical_rows)
    rad = space.radical()
    p_a = puncture(dec.s_prime, a)
    p_b = puncture(dec.s_prime, comp)
    rad_p_a = puncture(rad, a)
    rad_p_b = puncture(rad, comp)
    # The radical's shortenings project dec's parts, which are cached on rad.
    rad_s_a = shorten(rad, a)
    rad_s_b = shorten(rad, comp)
    checks = [
        equal("sprime-puncture-dim", p_a.sym_dim, p_b.sym_dim),
        equal("sprime-puncture-irk", p_a.isorank, p_b.isorank),
        equal("radical-puncture-dim", rad_p_a.sym_dim, rad_p_b.sym_dim),
        equal(
            "radical-puncture-irk-excess",
            rad_p_a.isorank - rad_s_a.isorank,
            rad_p_b.isorank - rad_s_b.isorank,
        ),
    ]
    if space.is_stabilizer():
        c_s_a = shorten(space, a)
        c_s_b = shorten(space, comp)
        checks += [
            equal(
                "self-orthogonal-shortening-dim", a.dim - c_s_a.isorank, comp.dim - c_s_b.isorank
            ),
            equal(
                "self-orthogonal-shortening-irk",
                a.dim - c_s_a.sym_dim - rad_s_a.isorank,
                comp.dim - c_s_b.sym_dim - rad_s_b.isorank,
            ),
            equal(
                "self-orthogonal-entanglement",
                c_s_a.isorank - rad_s_a.isorank - c_s_a.sym_dim,
                c_s_b.isorank - rad_s_b.isorank - c_s_b.sym_dim,
            ),
        ]
    else:
        checks.append(skipped("self-orthogonal-shortening-dim", "radical differs from the dual"))
    return checks
