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
and the maximal isotropic dimension ``isorank = dim_F - rank(G)/2``.  Each
subspace also carries one table over its 2^n supports, built on first use,
from which every support-indexed invariant (alpha/beta, profiles, weights,
moments, duality) is read.

Over GF(2) a subspace stores its canonical basis as packed Python ints
(bit j = coordinate j, as in :func:`~qsymp.linalg.pack_gf2`), and sums,
intersections, complements, radicals, membership, equality and the Gram
matrix all run on those ints.  Over odd q the basis is a dense int64
matrix; the choice follows q alone.  Both fields read the product through
a swap of the two coordinates of every factor, which turns it into a plain
dot product: at q=2 <u, v> is the parity of ``u & swap(v)``, where swap
exchanges x_i and z_i, and at odd q it is ``swap(u) . v``, where swap maps
(x_i, z_i) to (-z_i, x_i).  So the complement is the kernel of swap(B),
and the Gram matrix is swap(B) B^T.  At q=2 it is built from the
transposed rows of swap(B), one int per coordinate: row i is the XOR of
the transposed rows picked by the set bits of basis row i, so it costs the
total weight of the rows, not dim_F^2 products.  The numpy ``basis`` is
unpacked on first use, for JSON, the CLI and numpy callers.  Results that
an operation already returns in canonical form (sums, intersections,
anticode parts) are stored as they are, at either q, without a second
elimination.

An explicit splitting into symplectic pairs plus radical is built only on
request, by one symplectic Gram-Schmidt pass over the basis rows: the
first remaining row u takes the first later row v with <u, v> != 0 as its
partner w = v / <u, v>, every other remaining row is projected off the
pair, and a row that finds no partner is a radical row.  The rows left
unpaired are a basis of the radical.

The table is built by a depth-first walk of the support lattice.  The walk
starts at the full support and reaches each support S minus {j} from S by
cutting the coordinates 2j and 2j+1, that is by intersecting with the
hyperplane where the coordinate c is zero.  It carries a symplectic basis
of C's part in F_S (pairs (e_i, f_i) with product 1 plus radical rows,
seeded from the Gram-Schmidt splitting) and plain bases of the radical's
and the dual's parts.  With lambda(v) = v[c], a cut follows three rules:

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
    as_matrix,
    checked_order,
    in_row_space,
    in_span_gf2,
    kernel,
    kernel_gf2,
    pack_gf2,
    rref,
    rref_gf2,
    unpack_gf2,
    vanishing_part,
    vanishing_part_gf2,
)

Vector = np.ndarray


def _swap(b: Matrix, q: int) -> Matrix:
    """Rows with (x_i, z_i) mapped to (-z_i mod q, x_i) on every factor.

    The plain dot product ``_swap(u, q) @ v`` is the product <u, v>, so
    ``_swap(B, q) @ B.T`` is the Gram matrix of the rows of B and the
    kernel of ``_swap(B, q)`` is their orthogonal complement.
    """
    out = np.empty_like(b)
    out[:, 0::2] = -b[:, 1::2] % q
    out[:, 1::2] = b[:, 0::2]
    return out


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
    """An orthogonal splitting: a radical basis plus explicit symplectic pairs.

    Every pair ``(u, w)`` has product 1, distinct pairs are mutually
    orthogonal, and every radical vector is orthogonal to everything.  The
    radical basis spans the radical but is not its canonical basis.
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
    """Row operations over GF(2) on n factors: rows are packed ints (bit j = coordinate j)."""

    def __init__(self, n: int):
        self.even = (4**n - 1) // 3  # bits 0, 2, ..., 2n - 2: the x coordinates

    def swap(self, v: int) -> int:
        """v with x_i and z_i exchanged on every factor: <u, v> is the parity of u & swap(v)."""
        return (v & self.even) << 1 | (v >> 1) & self.even

    def forms(self, rows: list, u: int) -> list:
        """The products <v, u> for v in rows."""
        su = self.swap(u)
        return [(v & su).bit_count() & 1 for v in rows]

    @staticmethod
    def scale(v: int, c: int) -> int:
        return v

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
    def combine(rows: list, u, by_w: list, w, by_u: list) -> list:
        """Each row v minus by_w[i] * u plus by_u[i] * w."""
        return [v ^ (u if a else 0) ^ (w if b else 0) for v, a, b in zip(rows, by_w, by_u)]

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
    """Row operations over odd q: rows are residue tuples."""

    def __init__(self, q: int):
        self.q = q

    def forms(self, rows: list, u: tuple) -> list:
        """The products <v, u> for v in rows."""
        ux, uz = u[0::2], u[1::2]
        return [
            (sum(map(int.__mul__, v[0::2], uz)) - sum(map(int.__mul__, v[1::2], ux))) % self.q
            for v in rows
        ]

    def scale(self, v: tuple, c: int) -> tuple:
        """v divided by the (nonzero) scalar c."""
        q = self.q
        inv = pow(c % q, q - 2, q)
        return tuple(a * inv % q for a in v)

    @staticmethod
    def first(rows: list, c: int) -> int | None:
        for i, r in enumerate(rows):
            if r[c]:
                return i
        return None

    def unit(self, p: tuple, c: int) -> tuple:
        return self.scale(p, p[c])

    def clear(self, rows: list, p: tuple, c: int) -> list:
        q = self.q
        return [tuple((a - r[c] * b) % q for a, b in zip(r, p)) if r[c] else r for r in rows]

    def combine(self, rows: list, u: tuple, by_w: list, w: tuple, by_u: list) -> list:
        """Each row v minus by_w[i] * u plus by_u[i] * w."""
        q = self.q
        return [
            tuple((x - a * y + b * z) % q for x, y, z in zip(v, u, w)) if a or b else v
            for v, a, b in zip(rows, by_w, by_u)
        ]

    def dual(self, pairs: list, c: int) -> tuple:
        q = self.q
        u = [0] * len(pairs[0])
        for i in range(0, len(pairs), 2):
            e, f = pairs[i], pairs[i + 1]
            if e[c] or f[c]:
                u = [x + e[c] * b - f[c] * a for x, a, b in zip(u, e, f)]
        return tuple(x % q for x in u)


def _gram_schmidt(ops, rows) -> tuple[list, list]:
    """One symplectic Gram-Schmidt pass: (radical rows, flat pairs e_1, f_1, ...).

    The first remaining row u is paired with the first later row v that has
    a nonzero product with it, scaled to w = v / <u, v>; every other
    remaining row v is replaced by v - <v, w> u + <v, u> w, which is
    orthogonal to both.  A row with no partner is orthogonal to all the
    remaining rows and to every pair, so it lies in the radical, and the
    rows left without partners are a basis of the radical.
    """
    rad, pairs = [], []
    rest = list(rows)
    while rest:
        u = rest.pop(0)
        by_u = ops.forms(rest, u)
        i = next((i for i, c in enumerate(by_u) if c), None)
        if i is None:
            rad.append(u)
            continue
        w = ops.scale(rest.pop(i), -by_u.pop(i))
        pairs += (u, w)
        rest = ops.combine(rest, u, ops.forms(rest, w), w, by_u)
    return rad, pairs


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


def _set_bits(v: int) -> list[int]:
    """The indices of the set bits of a packed row, lowest first."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class Subspace:
    """A linear subspace of the n-factor space, stored in canonical form.

    Immutable after construction; equal subspaces compare (and hash) equal
    because the stored basis is the reduced row echelon form of any spanning
    set.  At q=2 the canonical rows are stored packed (``_rows``, ints with
    bit j = coordinate j) and every operation runs on them; ``basis`` is
    unpacked on first use.  At odd q ``basis`` is stored and ``_rows``
    (residue tuples, for the support walk) is derived on first use.
    Derived data (complement, radical, splitting) is cached lazily.

    Construction rejects fields outside the supported range,
    ``2n (q - 1)**2 < 2**63``, where the int64 Gram product cannot overflow.
    """

    def __init__(self, rows, q: int = 2, n: int | None = None):
        basis = as_matrix(rows, None, cols=None if n is None else 2 * n)
        if basis.shape[1] % 2:
            raise DimensionMismatchError("ambient width must be even (2 per factor)")
        if n is not None and 2 * n != basis.shape[1]:
            raise DimensionMismatchError(f"expected {n} factors, rows have {basis.shape[1] // 2}")
        n = basis.shape[1] // 2
        q = checked_order(q, n)
        basis %= q
        self._set(q, n, rref_gf2(pack_gf2(basis)) if q == 2 else rref(basis, q))

    def _set(self, q: int, n: int, canonical) -> None:
        self.q, self.n = q, n
        if q == 2:
            self._rows = tuple(canonical)
            self.dim_f = len(canonical)
        else:
            canonical.setflags(write=False)
            self.basis = canonical
            self.dim_f = canonical.shape[0]

    @classmethod
    def _canonical(cls, q: int, n: int, canonical) -> "Subspace":
        """A space from rows already in canonical form (packed ints at q=2), not re-eliminated."""
        space = cls.__new__(cls)
        space._set(q, n, canonical)
        return space

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls(np.zeros((0, 2 * n), dtype=np.int64), q, n)

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls(np.eye(2 * n, dtype=np.int64), q, n)

    @cached_property
    def basis(self) -> Matrix:
        """The canonical basis as a read-only int64 matrix (stored at odd q)."""
        basis = unpack_gf2(self._rows, 2 * self.n)
        basis.setflags(write=False)
        return basis

    @cached_property
    def _rows(self) -> tuple:
        """The canonical rows in the support walk's form (stored at q=2)."""
        return tuple(map(tuple, self.basis.tolist()))

    @cached_property
    def _ops(self):
        return _Gf2Rows(self.n) if self.q == 2 else _OddRows(self.q)

    def _matrix(self, rows) -> Matrix:
        """Rows in the walk's form as an int64 matrix."""
        if self.q == 2:
            return unpack_gf2(rows, 2 * self.n)
        return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * self.n)

    def __contains__(self, v) -> bool:
        v = np.array(v, dtype=np.int64).reshape(-1) % self.q
        if v.shape[0] != 2 * self.n:
            raise DimensionMismatchError(
                f"vector of length {v.shape[0]} against a space on {self.n} factors"
            )
        if self.q == 2:
            return in_span_gf2(self._rows, pack_gf2(v.reshape(1, -1))[0])
        return in_row_space(self.basis, v, self.q)

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.q == 2:
            return all(in_span_gf2(self._rows, r) for r in other._rows)
        return all(in_row_space(self.basis, row, self.q) for row in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.q == other.q
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.q, self.n, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(q={self.q}, n={self.n}, dim_f={self.dim_f})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.q != other.q or self.n != other.n:
            raise DimensionMismatchError(
                f"incompatible spaces: (q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.q == 2:
            rows = rref_gf2(self._rows + other._rows)
        else:
            rows = rref(np.vstack([self.basis, other.basis]), self.q)
        return Subspace._canonical(self.q, self.n, rows)

    def __and__(self, other: "Subspace") -> "Subspace":
        """The intersection: the Zassenhaus rows' vanishing part (see :mod:`qsymp.linalg`).

        At odd q the stacked rows are put in canonical form first, the one
        elimination an intersection costs.  At q=2 they go in as they are.
        The rows of B are independent, so none of them clears, and the
        second halves are the canonical rows of A and zeros.  So, taken from
        the last row up, each part row's second half is a canonical row of
        A plus rows of A of higher pivot, and the part comes out canonical
        as it does from a canonical basis.
        """
        self._check_compatible(other)
        width = 2 * self.n
        if self.q == 2:
            joint = [x | x << width for x in self._rows] + list(other._rows)
            rows = [r >> width for r in vanishing_part_gf2(joint, (1 << width) - 1)]
        else:
            a, b = self.basis, other.basis
            joint = rref(np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])]), self.q)
            rows = vanishing_part(joint, list(range(width)), self.q)[:, width:]
        return Subspace._canonical(self.q, self.n, rows)

    @cached_property
    def _gram_gf2(self) -> list[int]:
        """q=2: the Gram matrix rows packed, bit j of row i = <b_i, b_j>.

        Built from the transposed rows of swap(B): ``cols[k ^ 1]`` has bit j
        set when row j has bit k, and row i of the Gram matrix is the XOR of
        ``cols[k]`` over the set bits k of row i.  The cost is the total
        weight of the rows, not dim_F^2 products.
        """
        bits = [_set_bits(r) for r in self._rows]
        cols = [0] * (2 * self.n)
        for j, row_bits in enumerate(bits):
            for k in row_bits:
                cols[k ^ 1] |= 1 << j
        gram = []
        for row_bits in bits:
            g = 0
            for k in row_bits:
                g ^= cols[k]
            gram.append(g)
        return gram

    @cached_property
    def _gram(self) -> Matrix:
        if self.q == 2:
            return unpack_gf2(self._gram_gf2, self.dim_f)
        return (_swap(self.basis, self.q) @ self.basis.T) % self.q

    def is_isotropic(self) -> bool:
        """True iff the product vanishes identically on this subspace."""
        if self.q == 2:
            return not any(self._gram_gf2)
        return not self._gram.any()

    def perp(self) -> "Subspace":
        """Orthogonal complement with respect to the symplectic product."""
        return self._perp

    @cached_property
    def _perp(self) -> "Subspace":
        if self.q == 2:
            # <b, v> is the plain dot product of v with swap(b).
            swapped = [self._ops.swap(b) for b in self._rows]
            return Subspace._canonical(2, self.n, kernel_gf2(swapped, 2 * self.n))
        # With the columns eliminated in reverse order, each free-variable
        # kernel vector leads with its own free column and is zero on the
        # others, so the basis read back in the original order is canonical.
        k = kernel(_swap(self.basis, self.q)[:, ::-1], self.q)
        return Subspace._canonical(self.q, self.n, k[::-1, ::-1].copy())

    def radical(self) -> "Subspace":
        """The degenerate part: intersection with the orthogonal complement."""
        return self._radical

    @cached_property
    def _radical(self) -> "Subspace":
        # Coefficient vectors killed by the restricted product give the radical.
        if self.q == 2:
            rows = []
            for c in kernel_gf2(self._gram_gf2, self.dim_f):
                v = 0
                for j in _set_bits(c):
                    v ^= self._rows[j]
                rows.append(v)
            return Subspace._canonical(2, self.n, rref_gf2(rows))
        coeffs = kernel(self._gram, self.q)
        return Subspace((coeffs @ self.basis) % self.q, self.q, self.n)

    def orthogonal_split(self) -> SplitDecomposition:
        """Split into a radical basis plus pairwise-orthogonal symplectic pairs.

        One symplectic Gram-Schmidt pass over the canonical basis rows (see
        :func:`_gram_schmidt`): each pair has product 1, and the rows left
        without a partner are the radical basis.
        """
        rad, pairs = self._split
        flat = self._matrix(pairs)
        return SplitDecomposition(
            radical_basis=self._matrix(rad),
            pairs=tuple((flat[i], flat[i + 1]) for i in range(0, len(pairs), 2)),
        )

    @cached_property
    def _split(self) -> tuple[list, list]:
        """(radical rows, flat pairs e_1, f_1, ...) in the walk's row form."""
        return _gram_schmidt(self._ops, self._rows)

    @cached_property
    def sym_dim(self) -> int:
        """Number of symplectic pairs in any orthogonal splitting: rank(G) / 2."""
        if self.q == 2:
            return len(rref_gf2(self._gram_gf2)) // 2
        return rref(self._gram, self.q).shape[0] // 2

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
        ops = self._ops
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

        rad, pairs = self._split
        visit(
            (1 << n) - 1,
            n,
            (rad, pairs, list(self._radical._rows), list(self._perp._rows)),
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
        return {"q": self.q, "n": self.n, "basis": self.basis.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Subspace":
        try:
            q = int(data["q"])
            n = int(data["n"])
            basis = data["basis"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"malformed subspace object: {exc}") from exc
        return cls(basis, q, n)
