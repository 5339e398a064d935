"""The symplectic structure on n two-dimensional factors.

Vectors live in a 2n-dimensional space over a prime field and are stored in
interleaved coordinates ``(x_1, z_1, ..., x_n, z_n)``: factor ``i`` carries
the value ``x_i * e + z_i * f`` where ``(e, f)`` is the defining pair with
product 1.  The bilinear product of two vectors is

    sum_i ( x_i(u) * z_i(v) - z_i(u) * x_i(v) )  (mod q),

which vanishes on every single vector, so every one-dimensional space is
isotropic.  Subspaces are canonicalized on construction and expose their
orthogonal complement, radical, and two invariants read off the Gram
matrix G of the restricted product: the pair count ``sym_dim = rank(G)/2``
and the maximal isotropic dimension ``isorank = dim_F - rank(G)/2``.  An
explicit splitting into symplectic pairs plus radical is built only on
request.  Each subspace also carries one table over its 2^n supports,
built on first use, from which every support-indexed invariant
(alpha/beta, profiles, weights, moments, duality) is read.

The table is built by a depth-first walk of the support lattice.  The walk
starts at the full support and reaches each support S minus {j} from S by
cutting the coordinates 2j and 2j+1, that is by intersecting with the
hyperplane where the coordinate c is zero.  It carries a symplectic basis
of C's part in F_S (pairs (e_i, f_i) with product 1 plus radical rows,
seeded from the orthogonal splitting) and plain bases of the radical's and
the dual's parts.  With lambda(v) = v[c], a cut follows three rules:

(a) if a radical row r has lambda(r) != 0, clear c from every other row
    with r and drop r: the pair count stays;
(b) otherwise, if some pair is nonzero at c, append
    u = sum_i (lambda(e_i) f_i - lambda(f_i) e_i) to the radical rows, drop
    the first such pair, and clear c from the other pairs with whichever of
    its two vectors is nonzero at c: the pair count falls by one;
(c) otherwise nothing changes.

Rule (b) lowers the pair count by exactly one because <v, u> = lambda(v)
for every v in the part, so the cut part is u's orthogonal inside it, and u
lies in the cut part orthogonal to all of it: the dimension falls by one
and the radical grows by one.  Clearing with a vector of a dropped pair
keeps the other pairs symplectic, since it is orthogonal to them and to
itself.  The plain bases use rule (a) only.  So each support costs a few
row operations and no elimination or evaluation of the product.  Over
GF(2) rows are packed Python ints and clearing is an XOR; over odd q they
are tuples of residues.

Both invariants are monotone under inclusion and modular on orthogonal
pairs of subspaces, but unlike the plain linear dimension they are not
modular (nor super/submodular) on arbitrary pairs: ``span{e1, f1}`` and
``span{e1 + e2, f1}`` have pair count 1 each, while their sum and
intersection have pair counts 1 and 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    Matrix,
    PrimeField,
    as_matrix,
    in_row_space,
    intersect,
    kernel,
    pack_gf2,
    rank,
    rref,
    subspace_sum,
)

Vector = np.ndarray


def gram_form_matrix(n: int, q: int) -> Matrix:
    """The 2n x 2n matrix J with u @ J @ v equal to the symplectic product."""
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        j[2 * i, 2 * i + 1] = 1
        j[2 * i + 1, 2 * i] = q - 1
    return j


def symplectic_form(u, v, q: int) -> int:
    """Symplectic product of two vectors in interleaved coordinates."""
    u = np.asarray(u, dtype=np.int64).reshape(-1)
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"vector lengths differ: {u.shape[0]} vs {v.shape[0]}")
    if u.shape[0] % 2:
        raise DimensionMismatchError("vectors must have even length")
    return int((u[0::2] @ v[1::2] - u[1::2] @ v[0::2]) % q)


def hamming_weight(v) -> int:
    """Number of factors where a vector is nonzero."""
    v = np.asarray(v, dtype=np.int64).reshape(-1, 2)
    return int((v != 0).any(axis=1).sum())


def support_of(v) -> tuple[int, ...]:
    """0-based factor indices where a vector is nonzero."""
    v = np.asarray(v, dtype=np.int64).reshape(-1, 2)
    return tuple(int(i) for i in np.nonzero((v != 0).any(axis=1))[0])


def vector_from_factors(factors, q: int = 2) -> Vector:
    """Build a vector from per-factor ``(x, z)`` pairs."""
    a = np.array(factors, dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("expected a sequence of (x, z) pairs")
    return a.reshape(-1) % q


@dataclass(frozen=True)
class SplitDecomposition:
    """An orthogonal splitting: radical plus explicit symplectic pairs.

    Every pair ``(u, w)`` has product 1, distinct pairs are mutually
    orthogonal, and every radical vector is orthogonal to everything.
    """

    radical_basis: Matrix
    pairs: tuple[tuple[Vector, Vector], ...]

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def spanning_rows(self) -> Matrix:
        rows = list(self.radical_basis)
        for u, w in self.pairs:
            rows.append(u)
            rows.append(w)
        if not rows:
            return np.zeros((0, self.radical_basis.shape[1]), dtype=np.int64)
        return np.array(rows, dtype=np.int64)


class SupportDims(NamedTuple):
    """Dimensions seen inside one support S, for a space C."""

    dim: int  # dim_F of C's part in F_S
    gram_rank: int  # rank of the product on that part: twice its pair count
    rad: int  # dim_F of the radical's part in F_S
    dual: int  # dim_F of the dual's part in F_S

    @property
    def alpha(self) -> int:
        """Pair count of C's part in F_S."""
        return self.gram_rank // 2

    @property
    def beta(self) -> int:
        """Isorank of C's part, minus the (isotropic) radical part's dimension."""
        return self.dim - self.gram_rank // 2 - self.rad


class _Gf2Rows:
    """Row operations of the support walk over GF(2): rows are packed ints."""

    rows = staticmethod(pack_gf2)

    @staticmethod
    def first(rows: list, c: int) -> int | None:
        """Index of the first row nonzero at coordinate c."""
        bit = 1 << c
        for i, r in enumerate(rows):
            if r & bit:
                return i
        return None

    @staticmethod
    def unit(p, c: int):
        return p

    @staticmethod
    def clear(rows: list, p, c: int) -> list:
        """Each row minus the multiple of ``p`` (unit at c) that zeroes c."""
        bit = 1 << c
        return [r ^ p if r & bit else r for r in rows]

    @staticmethod
    def dual(pairs: list, c: int):
        """sum_i (lambda(e_i) f_i - lambda(f_i) e_i) over flat pairs e_1, f_1, ..."""
        u = 0
        for i in range(0, len(pairs), 2):
            e, f = pairs[i], pairs[i + 1]
            if e >> c & 1:
                u ^= f
            if f >> c & 1:
                u ^= e
        return u


class _OddRows:
    """Row operations of the support walk over odd q: rows are residue tuples."""

    def __init__(self, q: int):
        self.q = q

    @staticmethod
    def rows(a: Matrix) -> list:
        return [tuple(r) for r in a.tolist()]

    @staticmethod
    def first(rows: list, c: int) -> int | None:
        for i, r in enumerate(rows):
            if r[c]:
                return i
        return None

    def unit(self, p: tuple, c: int) -> tuple:
        q = self.q
        inv = pow(p[c], q - 2, q)
        return tuple(a * inv % q for a in p)

    def clear(self, rows: list, p: tuple, c: int) -> list:
        q = self.q
        return [tuple((a - r[c] * b) % q for a, b in zip(r, p)) if r[c] else r for r in rows]

    def dual(self, pairs: list, c: int) -> tuple:
        q = self.q
        u = [0] * len(pairs[0])
        for i in range(0, len(pairs), 2):
            e, f = pairs[i], pairs[i + 1]
            if e[c] or f[c]:
                u = [x + e[c] * b - f[c] * a for x, a, b in zip(u, e, f)]
        return tuple(x % q for x in u)


def _cut_plain(ops, rows: list, c: int) -> list:
    """Rule (a) on a plain basis: a basis of its part where coordinate c is 0."""
    i = ops.first(rows, c)
    if i is None:
        return rows
    return ops.clear(rows[:i] + rows[i + 1 :], ops.unit(rows[i], c), c)


def _cut_symplectic(ops, rad: list, pairs: list, c: int) -> tuple[list, list]:
    """Rules (a)-(c) on a symplectic basis: radical rows, flat pairs e_1, f_1, ..."""
    i = ops.first(rad, c)
    if i is not None:
        p = ops.unit(rad[i], c)
        return ops.clear(rad[:i] + rad[i + 1 :], p, c), ops.clear(pairs, p, c)
    i = ops.first(pairs, c)
    if i is None:
        return rad, pairs
    p = ops.unit(pairs[i], c)
    i -= i % 2
    return rad + [ops.dual(pairs, c)], ops.clear(pairs[:i] + pairs[i + 2 :], p, c)


class Subspace:
    """A linear subspace of the n-factor space, stored in canonical form.

    Immutable after construction; equal subspaces compare (and hash) equal
    because the stored basis is the reduced row echelon form of any spanning
    set.  Derived data (complement, radical, splitting) is cached lazily.
    """

    def __init__(self, rows, q: int = 2, n: int | None = None):
        self.field = PrimeField(q)
        self.q = self.field.q
        basis = as_matrix(rows, self.q, cols=None if n is None else 2 * n)
        if basis.shape[1] % 2:
            raise DimensionMismatchError("ambient width must be even (2 per factor)")
        self.n = basis.shape[1] // 2
        if n is not None and n != self.n:
            raise DimensionMismatchError(f"expected {n} factors, rows have {self.n}")
        basis = rref(basis, self.q)
        basis.setflags(write=False)
        self.basis = basis

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls(np.zeros((0, 2 * n), dtype=np.int64), q, n)

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls(np.eye(2 * n, dtype=np.int64), q, n)

    @property
    def dim_f(self) -> int:
        """Dimension as a plain vector space (basis row count)."""
        return self.basis.shape[0]

    def __contains__(self, v) -> bool:
        return in_row_space(self.basis, v, self.q)

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(in_row_space(self.basis, row, self.q) for row in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.q == other.q
            and self.n == other.n
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.basis.shape, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(q={self.q}, n={self.n}, dim_f={self.dim_f})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.q != other.q or self.n != other.n:
            raise DimensionMismatchError(
                f"incompatible spaces: (q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(subspace_sum(self.basis, other.basis, self.q), self.q, self.n)

    def __and__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(intersect(self.basis, other.basis, self.q), self.q, self.n)

    @cached_property
    def _gram(self) -> Matrix:
        j = gram_form_matrix(self.n, self.q)
        return (((self.basis @ j) % self.q) @ self.basis.T) % self.q

    def is_isotropic(self) -> bool:
        """True iff the product vanishes identically on this subspace."""
        return not self._gram.any()

    def perp(self) -> "Subspace":
        """Orthogonal complement with respect to the symplectic product."""
        return self._perp

    @cached_property
    def _perp(self) -> "Subspace":
        j = gram_form_matrix(self.n, self.q)
        constraints = (self.basis @ j) % self.q
        return Subspace(kernel(constraints, self.q), self.q, self.n)

    def radical(self) -> "Subspace":
        """The degenerate part: intersection with the orthogonal complement."""
        return self._radical

    @cached_property
    def _radical(self) -> "Subspace":
        # Coefficient vectors killed by the restricted product give the radical.
        coeffs = kernel(self._gram, self.q)
        return Subspace((coeffs @ self.basis) % self.q, self.q, self.n)

    def orthogonal_split(self) -> SplitDecomposition:
        """Split into the radical plus pairwise-orthogonal symplectic pairs.

        The radical is computed first; its basis is extended to a basis of
        the whole subspace, and the complement is paired up deterministically
        (always the lexicographically first vector with a usable partner,
        partner scaled so the pair product is 1, remaining vectors projected
        off the pair's span).
        """
        return self._split

    @cached_property
    def _split(self) -> SplitDecomposition:
        q = self.q
        rad = self._radical.basis
        current = rad
        complement: list[Vector] = []
        for row in self.basis:
            if not in_row_space(current, row, q):
                current = subspace_sum(current, row.reshape(1, -1), q)
                complement.append(row.copy())
        pairs: list[tuple[Vector, Vector]] = []
        vs = complement
        while vs:
            u = vs[0]
            partner = None
            for idx in range(1, len(vs)):
                val = symplectic_form(u, vs[idx], q)
                if val:
                    partner = idx
                    break
            if partner is None:
                raise AssertionError("complement of the radical must pair up")
            w = (vs[partner] * pow(val, q - 2, q)) % q
            rest = []
            for k, v in enumerate(vs):
                if k == 0 or k == partner:
                    continue
                coeff_u = symplectic_form(v, w, q)
                coeff_w = symplectic_form(v, u, q)
                rest.append((v - coeff_u * u + coeff_w * w) % q)
            pairs.append((u, w))
            vs = rest
        return SplitDecomposition(radical_basis=rad, pairs=tuple(pairs))

    @cached_property
    def sym_dim(self) -> int:
        """Number of symplectic pairs in any orthogonal splitting: rank(G) / 2."""
        return rank(self._gram, self.q) // 2

    @cached_property
    def isorank(self) -> int:
        """Largest dimension of an isotropic subspace inside this one."""
        return self.dim_f - self.sym_dim

    @cached_property
    def _support_dims(self) -> dict[frozenset, SupportDims]:
        """:class:`SupportDims` for every support, by size then lexicographic.

        One depth-first walk of the support lattice with no budget check of
        its own: the public entry points check the budget before reading
        it.  The walk removes factors in decreasing order, so it reaches
        every support once, and cuts the two coordinates of each removed
        factor from three bases by the rules in the module docstring: a
        symplectic basis of C's part (rules (a)-(c)) and plain bases of the
        radical's and the dual's parts (rule (a)).  Every entry is read off
        row counts: ``dim`` = 2 * pairs + radical rows, ``gram_rank`` =
        2 * pairs, ``rad`` and ``dual`` the plain bases' row counts.
        """
        n = self.n
        ops = _Gf2Rows if self.q == 2 else _OddRows(self.q)
        split = self.orthogonal_split()
        found: dict[int, SupportDims] = {}

        def cut(state, c):
            rad, pairs, rad_part, dual_part = state
            return (
                *_cut_symplectic(ops, rad, pairs, c),
                _cut_plain(ops, rad_part, c),
                _cut_plain(ops, dual_part, c),
            )

        def visit(mask, below, state):
            rad, pairs, rad_part, dual_part = state
            found[mask] = SupportDims(
                len(rad) + len(pairs), len(pairs), len(rad_part), len(dual_part)
            )
            for j in range(below):
                visit(mask ^ 1 << j, j, cut(cut(state, 2 * j), 2 * j + 1))

        rows = ops.rows(split.spanning_rows())
        r = split.radical_basis.shape[0]
        visit(
            (1 << n) - 1,
            n,
            (rows[:r], rows[r:], ops.rows(self._radical.basis), ops.rows(self._perp.basis)),
        )
        return {
            frozenset(support): found[sum(1 << j for j in support)]
            for size in range(n + 1)
            for support in combinations(range(n), size)
        }

    def is_stabilizer(self) -> bool:
        """True iff the isorank saturates the ambient bound ``n``."""
        return self.isorank == self.n

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "basis": [[int(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Subspace":
        try:
            q = int(data["q"])
            n = int(data["n"])
            basis = data["basis"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"malformed subspace object: {exc}") from exc
        return cls(basis, q, n)
