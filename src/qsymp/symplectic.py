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
built by a single scan on first use, from which every support-indexed
invariant (alpha/beta, profiles, weights, moments, duality) is read.

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

        One pass over the 2^n supports with no budget check of its own:
        the public entry points check the budget before reading it.  For
        each support, the coefficient vectors whose combination of basis
        rows vanishes outside it span the supported part; the radical's and
        the dual's parts come from ranks on their own bases.
        """
        q, n = self.q, self.n
        basis, gram = self.basis, self._gram
        rad, dual = self._radical.basis, self._perp.basis
        table: dict[frozenset, SupportDims] = {}
        for size in range(n + 1):
            for support in combinations(range(n), size):
                inside = set(support)
                outside = [c for j in range(n) if j not in inside for c in (2 * j, 2 * j + 1)]
                coeffs = kernel(basis[:, outside].T, q)
                inner_gram = (((coeffs @ gram) % q) @ coeffs.T) % q
                table[frozenset(support)] = SupportDims(
                    dim=coeffs.shape[0],
                    gram_rank=rank(inner_gram, q),
                    rad=rad.shape[0] - rank(rad[:, outside], q),
                    dual=dual.shape[0] - rank(dual[:, outside], q),
                )
        return table

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
