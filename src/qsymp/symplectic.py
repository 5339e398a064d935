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
moments, duality) is read: a :class:`SupportTable` of three byte columns
indexed by support mask (bit j = factor j), with no per-support object.

Each subspace does its row algebra through one private field object,
chosen once from q by :func:`_field` (:class:`_Gf2` or :class:`_Odd`), so
:class:`Subspace` and :mod:`qsymp.anticodes` never test the field.  The
field owns the row format and its arithmetic, the Gram matrix and the
walk's ``cut``, and keeps its own storage in ``_rows``.  Both fields hold
a row as one Python int of 2n lanes, lane c holding coordinate c: one bit
per lane over GF(2), where adding rows is an XOR and a pivot is the lowest
set bit, and a residue of 8, 16 or 32 bits per lane over odd q, where rows
are added lane by lane with a few big-int operations (see :class:`_Odd`)
and a pivot is the lowest nonzero lane.  Each field writes one elimination
pass, ``_eliminate``: it clears rows at a mask of lanes against a basis of
pivot rows, each held as its doublings ``[p, 2p, 4p, ...]`` (``[p]`` over
GF(2)) with p 1 at its pivot, stores each row that does not clear at its
first lane that keys no row, and returns the rows that clear.  Beside it a
field writes only ``free``, its one reader of free-column vectors (pivots
at either end, written on lanes).  Everything built from them exists once,
on :class:`_Packed`: the echelon (one pass over every lane), its reduction
(one pass per row), the vanishing part (one pass from the highest pivot
down), the canonical form (a sum's too), the kernel (read canonical off a
reduced echelon keyed by each row's highest pivot), Zassenhaus
intersection with no elimination first, the radical, the transversal (the
rows that one pass against an echelon of the parts does not clear), and
projection by shift and mask.  A rank is an echelon's size: the pair count
is half the size of one echelon of the Gram rows, and a space contains the
rows that grow no echelon of its own.  The radical is one vanishing part,
of each row joined to its Gram row, on the Gram lanes: it is read
canonical as an intersection is, with no elimination of the Gram matrix.
Results that an operation returns in canonical form (sums, intersections,
radicals, kernels, anticode parts) are stored with no second elimination.

Both fields read the product through a swap of the two coordinates of
every factor, which turns it into a plain dot product: at q=2 <u, v> is
the parity of ``u & swap(v)``, where swap exchanges x_i and z_i, and at
odd q it is ``swap(u) . v``, where swap maps (x_i, z_i) to (-z_i, x_i).
So the complement is the kernel of swap(B), and the Gram matrix is
swap(B) B^T, which each field writes once: over GF(2) from the transposed
rows, over odd q by one int64 routine, x(A) z(B)^T - z(A) x(B)^T, that the
Gram-Schmidt pass shares.  Since swap(u) . swap(v) = u . v at every q, the
complement is also swap of the plain kernel of B, which past n rows is read
off B's canonical rows with no elimination: each complement eliminates the
smaller side (see :meth:`_Packed.perp`).

An explicit splitting into symplectic pairs plus radical is built by one
symplectic Gram-Schmidt pass over the basis rows, which seeds the walk
below and backs ``orthogonal_split``: the first remaining row u takes the
first later row v with <u, v> != 0 as its partner w = v / <u, v>, every
other remaining row is projected off the pair, and a row that finds no
partner is a radical row.  The rows left unpaired are a basis of the
radical.  The pass is written once, on each field's ``forms`` (products
with one row) and scaled add (``_plus`` on a row's ``_doublings``).

The table is built by a depth-first walk of the support lattice.  The walk
starts at the full support and reaches each support S minus {j} from S by
cutting the coordinates 2j and 2j+1, that is by intersecting with the
hyperplane where the coordinate c is zero.  It carries one symplectic basis
of C's part in F_S: pairs (e_i, f_i) with product 1 plus radical rows,
seeded from the Gram-Schmidt splitting, whose r0 unpaired rows span the
radical.  With lambda(v) = v[c], a cut follows three rules:

(a) if a radical row has lambda != 0, take the one in the lowest slot, clear
    c from every other row with it and drop it: the pair count stays;
(b) otherwise, if some pair is nonzero at c, add
    u = sum_i (lambda(e_i) f_i - lambda(f_i) e_i) to the radical rows, drop
    the first such pair, and clear c from the other pairs with whichever of
    its two vectors is nonzero at c: the pair count falls by one;
(c) otherwise nothing changes.

Rule (b) lowers the pair count by exactly one because <v, u> = lambda(v)
for every v in the part, so the cut part is u's orthogonal inside it, and u
lies in the cut part orthogonal to all of it: the dimension falls by one
and the radical grows by one.  Clearing with a vector of a dropped pair
keeps the other pairs symplectic, since it is orthogonal to them and to
itself.  So each support costs a few row operations and no elimination or
evaluation of the product.

The radical's part in F_S is read off the same rows, so a table builds no
radical.  The splitting's unpaired rows fill radical slots 0 to r0 - 1, and
rule (b) writes u at a counter that starts at slot r0 and rises one slot
per dropped pair, so the radical rows fit in r0 + (2n - r0) / 2 <= 2n
slots.  The first r0 slots then hold the radical's part, cut by rule (a)
alone: rule (a) pivots on a splitting row whenever one is nonzero at c, and
otherwise every splitting row is zero at c and stays.  So the part loses a
row exactly when rule (a)'s pivot slot is below r0.  The dual's parts are
C-perp's own table, or the radical column when the radical is the dual (see
:func:`qsymp.invariants.dual_dims`).

Each field writes the rules in its own ``cut``, which cuts both coordinates
2j and 2j+1, so a support costs one visit and one call of ``cut``.  A zero
row counts as absent, so the row counts travel beside the blocks.  A block
is one int of 2n slots, slot i holding row i, and ``cut`` writes every rule
inline as a few big-int operations on the whole block.  Over GF(2), with
``at[c]`` the mask of bit c in every slot, ``h = B & at[c]`` marks the rows
nonzero at c, and ``B ^ (h >> c) * p`` puts p into exactly those slots,
clearing c from every row and zeroing p's own slot.  Over odd q the values
at c of every slot are read with one shift and mask, and the multiples of
the pivot that clear them are added bit by bit of those values, one lane
addition on the block per bit of q - 1.

Both invariants are monotone under inclusion and modular on orthogonal
pairs of subspaces, but unlike the plain linear dimension they are not
modular (nor super/submodular) on arbitrary pairs: ``span{e1, f1}`` and
``span{e1 + e2, f1}`` have pair count 1 each, while their sum and
intersection have pair counts 1 and 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError
from .linalg import Matrix, as_matrix, as_vector, checked_order

Vector = np.ndarray


class _cached_property(cached_property):
    """A :class:`functools.cached_property` whose first read takes no lock.

    Python 3.11's lock triples the cost of a cheap first read.  The values
    are pure, so racing threads store equal values (Python 3.12 dropped the
    lock too).  ``func`` is read at call time, so a wrapper set on it holds.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


def _factor_pairs(v) -> np.ndarray:
    """One caller vector as its per-factor ``(x, z)`` rows: a matrix or an odd length is refused."""
    v = as_vector(v, None)
    if v.shape[0] % 2:
        raise DimensionMismatchError("vectors must have even length")
    return v.reshape(-1, 2)


def symplectic_form(u, v, q: int) -> int:
    """Symplectic product of two vectors in interleaved coordinates, over a checked field order."""
    u, v = _factor_pairs(u), _factor_pairs(v)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"vector lengths differ: {u.size} vs {v.size}")
    q = checked_order(q, u.shape[0])
    return int((u[:, 0] @ v[:, 1] - u[:, 1] @ v[:, 0]) % q)


def hamming_weight(v) -> int:
    """Number of factors where a vector is nonzero."""
    return int((_factor_pairs(v) != 0).any(axis=1).sum())


def support_of(v) -> tuple[int, ...]:
    """0-based factor indices where a vector is nonzero."""
    return tuple(int(i) for i in np.nonzero((_factor_pairs(v) != 0).any(axis=1))[0])


def vector_from_factors(factors, q: int = 2) -> Vector:
    """Build a vector from per-factor ``(x, z)`` pairs, reduced mod a checked field order."""
    a = as_matrix(factors, None, cols=2)
    if np.ndim(factors) != 2 or a.shape[1] != 2:
        raise ValueError("expected a sequence of (x, z) pairs")
    return a.reshape(-1) % checked_order(q, a.shape[0])


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


@dataclass(frozen=True)
class SupportTable:
    """Dimensions seen inside every support S, for a space C: three columns by support mask.

    Entry ``mask`` of each column belongs to the support whose factors are
    the set bits of ``mask`` (bit j = factor j), so the full support is the
    last entry and a support's complement is at ``mask ^ (2**n - 1)``.
    Every entry is at most 2n, so a column is one byte per support.
    """

    dim: bytes  # dim_F of C's part in F_S
    gram_rank: bytes  # rank of the product on that part: twice its pair count
    rad: bytes  # dim_F of the radical's part in F_S

    @property
    def alpha(self) -> list[int]:
        """Pair count of C's part in each support, by mask."""
        return [g >> 1 for g in self.gram_rank]

    @property
    def beta(self) -> list[int]:
        """Isorank of C's part, minus the (isotropic) radical part's dimension, by mask."""
        return [d - (g >> 1) - r for d, g, r in zip(self.dim, self.gram_rank, self.rad)]


@cache  # field objects are immutable; one per (q, n) in use
def _field(q: int, n: int):
    """The row algebra of F_q on n factors: the one place where the field is chosen."""
    return _Gf2(n) if q == 2 else _Odd(q, n)


def _set_bits(v: int) -> list[int]:
    """The indices of the set bits of a packed row, lowest first."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class _Packed:
    """What both fields share: a row is a Python int of 2n lanes of ``b`` bits, lane c = coordinate c.

    A field supplies its arithmetic and one elimination pass, ``_eliminate``,
    which takes a set of lanes as the bit 0 of each (``coords`` is every
    lane).  A pivot row p is held as its doublings (``_doublings``), with p
    1 at its pivot.  The echelon, its reduction, the vanishing part, the
    canonical form, the kernel, intersection, the radical and the
    transversal are written here, once, on that pass.

    A walk basis is one block int of 2n slots of one row each, slot i
    holding row i (an empty slot is 0); a pairs block holds e_i in slot 2i
    and f_i in slot 2i + 1.
    """

    b = 1  # bits per lane

    def __init__(self, n: int):
        self.n = n
        self.slot = 2 * n * self.b  # the bits of one row: one walk slot
        self.coords = self.columns(range(n))  # bit 0 of every lane of a row

    def columns(self, factors) -> int:
        """The bottom bit of each lane of the factors' coordinates."""
        pair = 1 | 1 << self.b
        return sum(pair << 2 * j * self.b for j in factors)

    def _echelon(self, rows, top: bool = False) -> dict:
        """The rows inserted one at a time into a new basis of pivot rows, keyed by pivot lane.

        One pass of ``_eliminate`` over every lane: a row is cleared from its
        lowest lane up (its highest down, with ``top``) at each lane that
        keys a row, and stored at the first that keys none.  Rows are not
        reduced against later pivots.
        """
        basis: dict = {}
        self._eliminate(rows, basis, self.coords, top)
        return basis

    def _reduced(self, basis: dict, top: bool = False) -> list[int]:
        """The echelon's rows by pivot, each cleared at every other pivot and 1 at its own.

        A row meets only pivots on the far side of its own, above it (or
        below it, with ``top``), so those rows are reduced first.  Every
        other pivot keys a row, so one pass clears a row at all of them.
        """
        order = sorted(basis)
        pivots = sum(order)
        for bit in order if top else order[::-1]:
            row = basis[bit][0]
            if (cleared := self._eliminate([row], basis, pivots ^ bit)[0]) != row:
                basis[bit] = self._doublings(cleared)
        return [basis[bit][0] for bit in order]

    def canonical(self, rows) -> list[int]:
        """Canonical form of packed rows: nonzero rows sorted by pivot, the echelon reduced."""
        return self._reduced(self._echelon(rows))

    def intersect(self, a: tuple, b: tuple) -> list[int]:
        """The Zassenhaus part, with no elimination first.

        B's rows are independent, so none of them clears, and the second
        halves are A's canonical rows and zeros: taken from the last row up,
        each part row's second half is a row of A plus rows of A of higher
        pivot, so the part comes out canonical.
        """
        width = self.slot
        joint = [x | x << width for x in a] + list(b)  # rows on 2n factors
        return [r >> width for r in _field(self.q, 2 * self.n).vanishing_part(joint, self.coords)]

    def vanishing_part(self, rows, mask: int) -> list[int]:
        """Canonical basis of the span's vectors that are zero on every lane of ``mask``.

        ``rows`` must be canonical.  Taken from the highest pivot down, a row
        whose masked lanes clear against the rows kept so far joins the part;
        any other is kept as the pivot row of its lowest masked lane.  A part
        row keeps its pivot and is zero at every other part row's, so the
        part, read back lowest pivot first, is canonical with no closing
        elimination.  It is one pass of ``_eliminate``, on the rows reversed.
        """
        return self._eliminate(reversed(rows), {}, mask)[::-1]

    def radical(self, rows: tuple, gram: list) -> list[int]:
        """Canonical basis of the span's vectors orthogonal to every row, from the rows' Gram matrix.

        Row i joined to Gram row i, ``b_i | G_i``, spans the pairs of a
        vector and its products with every row, so the radical is the part
        where the Gram lanes vanish; that part holds no Gram lanes, and it
        comes out canonical by the argument of :meth:`intersect`.
        """
        wide, width = _field(self.q, 2 * self.n), self.slot
        joint = [b | g << width for b, g in zip(rows, gram)]
        return wide.vanishing_part(joint, wide.coords >> width << width)

    def kernel(self, rows, cols: int) -> list[int]:
        """Canonical basis of the vectors orthogonal to every row (plain dot product).

        The free-column vectors (see ``free``) of a reduced echelon with each
        pivot at its row's highest lane: each has its free lane as its lowest
        nonzero lane, so they are canonical as read.
        """
        return self.free(self._reduced(self._echelon(rows, top=True), top=True), cols, top=True)

    def perp(self, rows: tuple) -> list[int]:
        """The complement of the span of canonical ``rows``: the kernel of their swaps up to n rows.

        Past n, the swaps of the rows' own free-column vectors span it, and
        only those 2n - dim_F rows are eliminated.
        """
        if len(rows) > self.n:
            return self.canonical([self.swap(v) for v in self.free(rows, 2 * self.n)])
        return self.kernel([self.swap(b) for b in rows], 2 * self.n)

    def project(self, rows, factors: tuple[int, ...]) -> list[int]:
        """The rows on the given factors, not re-eliminated: a shift and mask per run of factors."""
        runs: list[list[int]] = []  # [first factor, its position in factors, length]
        for i, j in enumerate(factors):
            if runs and runs[-1][0] + runs[-1][2] == j:
                runs[-1][2] += 1
            else:
                runs.append([j, i, 1])
        width = 2 * self.b  # the bits of one factor
        moves = [(j * width, (1 << length * width) - 1, i * width) for j, i, length in runs]
        out = []
        for r in rows:
            v = 0
            for shift_in, mask, shift_out in moves:
                v |= (r >> shift_in & mask) << shift_out
            out.append(v)
        return out

    def transversal(self, parts, rows) -> list[int]:
        """Canonical span of the rows, in order, that each grow an echelon of ``parts``: the rows that do not clear."""
        echelon = self._echelon(parts)
        return self.canonical([r for r in rows if not self._eliminate([r], echelon, self.coords)])

    def block(self, rows) -> int:
        """Walk rows as one block: row i in slot i."""
        return sum(r << i * self.slot for i, r in enumerate(rows))

    @_cached_property
    def _pairing(self) -> tuple[int, list[int]]:
        """(bit 0 of every e slot, the shifts that fold 2n slots into one)."""
        width = self.slot
        span = 1 << (2 * self.n - 1).bit_length()  # 2n rounded up to a power of 2
        folds = [width * (span >> k) for k in range(1, span.bit_length())]
        return sum(1 << 2 * i * width for i in range(self.n)), folds


class _Gf2(_Packed):
    """GF(2) on n factors: a row is a Python int with bit j = coordinate j.

    Adding rows is an XOR, and a pivot is the lowest set bit, so a scaled
    add is an XOR or nothing: p's doublings are ``[p]``, added at odd scalars.
    """

    q = 2

    def __init__(self, n: int):
        super().__init__(n)
        self.even = (4**n - 1) // 3  # bits 0, 2, ..., 2n - 2: the x coordinates
        self.full = (1 << 2 * n) - 1  # one walk slot

    @staticmethod
    def pack(a: Matrix) -> list[int]:
        """The rows of an int64 matrix over GF(2) as packed ints."""
        bits = np.packbits((a & 1).astype(bool), axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in bits]

    @staticmethod
    def unpack(rows, cols: int) -> Matrix:
        """The inverse of :meth:`pack`: an int64 matrix with ``cols`` columns."""
        nbytes = (cols + 7) // 8
        buf = b"".join(x.to_bytes(nbytes, "little") for x in rows)
        bits = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
        return np.unpackbits(bits, axis=1, count=cols, bitorder="little").astype(np.int64)

    @staticmethod
    def _eliminate(rows, basis: dict, mask: int, top: bool = False) -> list[int]:
        """The rows that clear at every bit of ``mask`` against ``basis``, cleared, in order.

        ``basis`` maps a bit to the doublings ``[p]`` of a row p set there and
        zero on the near side of it (below it, or above it with ``top``).  A
        row's masked set bits are cleared from its lowest, or its highest
        with ``top``, up to the first that keys no row: the row is stored
        there, and so ``basis`` grows by each row that does not clear.
        """
        out = []
        for r in rows:
            while x := r & mask:
                bit = 1 << x.bit_length() - 1 if top else x & -x
                if bit not in basis:
                    basis[bit] = [r]
                    break
                r ^= basis[bit][0]
            else:
                out.append(r)
        return out

    @staticmethod
    def free(rows, cols: int, top: bool = False) -> list[int]:
        """The free-column vectors of reduced rows, by free column: a basis of their kernel.

        A row's pivot is its lowest set bit, or its highest with ``top``.
        The vector of a free column c is bit c plus the pivot of every row
        with bit c: each row writes its pivot into the vectors of its other
        set bits.  With ``top`` those pivots lie above c, so the vectors are
        canonical as read.
        """
        out = [1 << c for c in range(cols)]
        pivots = 0
        for r in rows:
            pivot = 1 << r.bit_length() - 1 if top else r & -r
            pivots |= pivot
            x = r ^ pivot
            while x:
                low = x & -x
                out[low.bit_length() - 1] |= pivot
                x ^= low
        return [v for c, v in enumerate(out) if not pivots >> c & 1]

    def gram(self, rows: tuple) -> list[int]:
        """The Gram matrix rows packed, bit j of row i = <b_i, b_j>.

        Built from the transposed rows of swap(B): ``cols[k ^ 1]`` has bit j
        set when row j has bit k, and row i of the Gram matrix is the XOR of
        ``cols[k]`` over the set bits k of row i.  The cost is the total
        weight of the rows, not dim_F^2 products.
        """
        bits = [_set_bits(r) for r in rows]
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

    def swap(self, v: int) -> int:
        """v with x_i and z_i exchanged on every factor: <u, v> is the parity of u & swap(v)."""
        return (v & self.even) << 1 | (v >> 1) & self.even

    def forms(self, rows: list, u: int) -> list:
        """The products <v, u> for v in rows."""
        su = self.swap(u)
        return [(v & su).bit_count() & 1 for v in rows]

    @staticmethod
    def _doublings(p: int) -> list[int]:
        """[p]: the one multiple of p a scaled add needs over GF(2)."""
        return [p]

    @staticmethod
    def _plus(r: int, a: int, doublings: list[int]) -> int:
        """r + a p, for a scalar a and the doublings [p] of p: an XOR when a is odd."""
        return r ^ doublings[0] if a & 1 else r

    # The walk.  2n slots serve both blocks: see the module docstring's bound.

    @_cached_property
    def at(self) -> list[int]:
        """``at[c]`` has bit c of every walk slot set; made on the first walk."""
        width = 2 * self.n
        starts = sum(1 << i * width for i in range(width))
        return [starts << c for c in range(width)]

    def cut(self, state: tuple, j: int) -> tuple:
        """The walk state without factor j: rules (a)-(c) on coordinates 2j and 2j + 1, inline.

        With ``m = at[c]``, ``h = B & m`` marks the rows nonzero at c, the
        first of them is the pivot p (a set bit is a unit already), and
        ``B ^ (h >> c) * p`` puts p into exactly the marked slots: it
        clears c from every row and zeroes p's own slot.  For rule (b) the
        marked pair slots, moved onto their partners and widened to whole
        slots, select lambda(e_i) f_i and lambda(f_i) e_i; u is the XOR of
        that selection, folded in halves, and goes into the slot at ``top``.
        The radical's part loses a row when rule (a)'s pivot is below ``base``.
        """
        rad, n_rad, pairs, n_pairs, n_part, base, top = state
        at, full, width = self.at, self.full, 2 * self.n
        for c in (2 * j, 2 * j + 1):
            m = at[c]
            if hit := rad & m:  # rule (a)
                i = (hit & -hit).bit_length() - 1 - c
                p = rad >> i & full
                rad ^= (hit >> c) * p
                pairs ^= ((pairs & m) >> c) * p
                n_rad, n_part = n_rad - 1, n_part - (i < base)
            elif hit := pairs & m:  # rule (b)
                pair_starts, folds = self._pairing
                shift = (hit & -hit).bit_length() - 1 - c
                p = pairs >> shift & full
                hit >>= c
                u = ((hit & pair_starts) << width | hit >> width & pair_starts) * full & pairs
                for k in folds:
                    u ^= u >> k
                rad |= (u & full) << top
                top += width
                pairs &= ~((full << width | full) << shift - shift % (2 * width))
                pairs ^= ((pairs & m) >> c) * p
                n_rad, n_pairs = n_rad + 1, n_pairs - 2
        return rad, n_rad, pairs, n_pairs, n_part, base, top


class _Odd(_Packed):
    """F_q for odd q on n factors: a row is a Python int of 2n residue lanes.

    A lane has b bits, the smallest of 8, 16 or 32 with ``q < 2**(b - 1)``,
    so the rows are also little-endian arrays of unsigned ints, packed and
    unpacked by numpy.  Rows are added lane by lane with no carry between
    lanes (SWAR: SIMD within a register): ``s = x + y``, then
    ``s - (s + H >> t & one) * q``, where every lane of ``H`` holds
    ``2**t - q`` with ``t = b - 1``, subtracts q from exactly the lanes of
    s that are at least q, since those carry into the lane's top bit.  With
    x and y reduced, the largest value a lane holds is ``2q - 2`` in s and
    ``2**t + q - 2 < 2**b`` in ``s + H``; every q in the supported range
    has ``q < 2**31``, so 32-bit lanes serve all of them.  Likewise
    ``s + N >> t & one``, with ``2**t - 1`` in every lane of ``N``, has bit
    0 of exactly the nonzero lanes set, and a pivot is the lowest of them.

    A pivot row p, 1 at its pivot, is held as its doublings ``[p, 2p, 4p,
    ...]``, one per bit of q - 1, so adding a p to a row takes one lane
    addition per set bit of a (``_plus``).  Its elimination pass is that of
    :class:`_Gf2`, with that addition in place of XOR.
    """

    def __init__(self, q: int, n: int):
        self.q, self.b = q, 8 if q < 1 << 7 else 16 if q < 1 << 15 else 32
        super().__init__(n)
        self.t = self.b - 1
        self.dtype = np.dtype(f"<u{self.b // 8}")
        self.mask = (1 << self.b) - 1  # one lane
        # Constants of a whole row: a constant longer than a row would leave
        # the row's missing lanes at 0, a shorter one would skip its top lanes.
        self.one = ((1 << self.slot) - 1) // self.mask
        self.h = ((1 << self.t) - q) * self.one
        self.nz = (self.mask >> 1) * self.one  # 2**t - 1 in every lane
        self.even = sum(self.mask << 2 * i * self.b for i in range(n))  # the x lanes
        self.bits = range((q - 1).bit_length())  # the bits of a residue

    def pack(self, a: Matrix) -> list[int]:
        """The rows of an int64 matrix, reduced mod q, as lane ints."""
        a = np.asarray(a) % self.q
        width = a.shape[1] * self.dtype.itemsize
        data = a.astype(self.dtype).tobytes()
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width or 1)]

    def unpack(self, rows, cols: int) -> Matrix:
        """The inverse of :meth:`pack`: an int64 matrix with ``cols`` columns."""
        width = cols * self.dtype.itemsize
        buf = b"".join(x.to_bytes(width, "little") for x in rows)
        return np.frombuffer(buf, dtype=self.dtype).reshape(len(rows), cols).astype(np.int64)

    def _doublings(self, p: int) -> list[int]:
        """[p, 2p, 4p, ...], one per bit of q - 1."""
        h, t, one, q = self.h, self.t, self.one, self.q
        out = [p]
        for _ in self.bits[1:]:
            p += p
            p -= (p + h >> t & one) * q
            out.append(p)
        return out

    def _plus(self, r: int, a: int, doublings: list[int]) -> int:
        """r + a p, for a residue a and the doublings of p."""
        h, t, one, q = self.h, self.t, self.one, self.q
        for d in doublings:
            if a & 1:
                r += d
                r -= (r + h >> t & one) * q
            a >>= 1
            if not a:
                break
        return r

    def _pivot(self, r: int, bit: int) -> list[int]:
        """The doublings of r scaled to 1 in the lane whose bit 0 is ``bit``: a pivot row."""
        inverse = pow(r >> bit.bit_length() - 1 & self.mask, -1, self.q)
        return self._doublings(r if inverse == 1 else self._plus(0, inverse, self._doublings(r)))

    def _lanes(self, r: int) -> int:
        """Bit 0 of every nonzero lane of r."""
        return r + self.nz >> self.t & self.one

    def _eliminate(self, rows, basis: dict, mask: int, top: bool = False) -> list[int]:
        """The rows that clear at every lane of ``mask`` against ``basis``, cleared, in order.

        :meth:`_Gf2._eliminate` on lanes.  ``basis`` maps the bit 0 of a lane
        to the doublings of a pivot row p, 1 there (see :meth:`_pivot`); the
        lane, holding v, is cleared by adding q - v times p.  A row that does
        not clear is stored, as a pivot row, at the first of its masked
        nonzero lanes that keys no row.
        """
        q, h, t, one, nz, lane = self.q, self.h, self.t, self.one, self.nz, self.mask
        out = []
        for r in rows:
            while x := r + nz >> t & mask:
                bit = 1 << x.bit_length() - 1 if top else x & -x
                if bit not in basis:
                    basis[bit] = self._pivot(r, bit)
                    break
                a = q - (r >> bit.bit_length() - 1 & lane)
                for d in basis[bit]:
                    if a & 1:
                        r += d
                        r -= (r + h >> t & one) * q
                    a >>= 1
            else:
                out.append(r)
        return out

    def free(self, rows, cols: int, top: bool = False) -> list[int]:
        """The free-column vectors of reduced rows, by free lane: :meth:`_Gf2.free` on lanes.

        Each row is 1 at its pivot, its lowest nonzero lane or its highest
        with ``top``.  The vector of a free lane c is 1 at c and -r[c] at the
        pivot of every row r: each row writes the negated residue of each of
        its other nonzero lanes into that lane's vector, at its pivot.
        """
        q, b, mask = self.q, self.b, self.mask
        out = [1 << c * b for c in range(cols)]
        pivots = 0
        for r in rows:
            x = self._lanes(r)
            pivot = 1 << x.bit_length() - 1 if top else x & -x
            pivots |= pivot
            at = pivot.bit_length() - 1
            x ^= pivot
            while x:
                low = x & -x
                i = low.bit_length() - 1
                out[i // b] |= q - (r >> i & mask) << at
                x ^= low
        return [v for c, v in enumerate(out) if not pivots >> c * b & 1]

    def _products(self, a: Matrix, b: Matrix) -> Matrix:
        """<a_i, b_j> for the rows of two unpacked matrices, exact in int64: x(a) z(b)^T - z(a) x(b)^T."""
        return (a[:, 0::2] @ b[:, 1::2].T - a[:, 1::2] @ b[:, 0::2].T) % self.q

    def gram(self, rows: tuple) -> list[int]:
        """The Gram matrix as lane rows, lane j of row i = <b_i, b_j>: the rows unpacked once."""
        basis = self.unpack(rows, 2 * self.n)
        return self.pack(self._products(basis, basis))

    def swap(self, v: int) -> int:
        """v with (x_i, z_i) mapped to (-z_i, x_i) on every factor: swap(u) . v = <u, v>."""
        z = self.q * self.one & self.even  # q in every x lane, minus z_i
        z -= v >> self.b & self.even
        z -= (z + self.h >> self.t & self.one) * self.q
        return z | (v & self.even) << self.b

    def forms(self, rows: list, u: int) -> list:
        """The products <v, u> for v in rows."""
        return self._products(self.unpack(rows, 2 * self.n), self.unpack([u], 2 * self.n))[:, 0].tolist()

    # The walk.  A slot is one row of 2n lanes, and the block operations
    # below run on every slot at once, with lane constants of 2n slots.

    @_cached_property
    def _slots(self) -> tuple[int, int, int, int, int]:
        """(bit 0 of every block lane, the block's H, lane 0 of every slot, bit 0 of every slot, one slot)."""
        one = ((1 << 2 * self.n * self.slot) - 1) // self.mask
        starts = sum(1 << i * self.slot for i in range(2 * self.n))
        full = (1 << self.slot) - 1
        return one, ((1 << self.t) - self.q) * one, starts * self.mask, starts, full

    def cut(self, state: tuple, j: int) -> tuple:
        """The walk state without factor j: rules (a)-(c) on coordinates 2j and 2j + 1, inline.

        ``B >> c * b & low`` holds, in lane 0 of each slot i, the value v_i
        of row i at c.  The pivot p, the first row nonzero at c, is scaled
        to d = -p / p[c], and adding v_i d to every slot i clears c from
        every row and zeroes p's own slot: bit k of every v_i at once,
        spread to whole slots by a multiplication with 2^k d, costs one
        lane addition per bit.  For rule (b), the coefficients of u,
        lambda(e_i) on slot 2i + 1 and -lambda(f_i) on slot 2i, select the
        doublings of the pairs block bit by bit; the selection is summed,
        folded in halves, and goes into the slot at ``top``.  The radical's
        part loses a row when rule (a)'s pivot is below ``base``.
        """
        rad, n_rad, pairs, n_pairs, n_part, base, top = state
        q, b, t, mask, slot, bits = self.q, self.b, self.t, self.mask, self.slot, self.bits
        h, one, last = self.h, self.one, self.bits[-1]
        block_one, block_h, low, starts, full = self._slots
        for c in (2 * j, 2 * j + 1):
            at = c * b
            v_rad = rad >> at & low
            if not (v := v_rad or pairs >> at & low):  # rule (c)
                continue
            i = (v & -v).bit_length() - 1
            i -= i % slot  # the pivot's slot
            if v_rad:  # rule (a)
                block, v_pairs = rad, pairs >> at & low
                n_rad, n_part = n_rad - 1, n_part - (i < base)
            else:  # rule (b)
                pair_starts, folds = self._pairing
                e_low = pair_starts * mask
                coef = (v & e_low) << slot | q * pair_starts - (v >> slot & e_low)
                coef -= (coef + block_h >> t & block_one) * q
                u, x = 0, pairs
                for k in bits:
                    if sel := coef >> k & starts:
                        u += x & sel * full
                        u -= (u + block_h >> t & block_one) * q
                    if k == last:
                        break
                    x += x
                    x -= (x + block_h >> t & block_one) * q
                for k in folds:
                    u += u >> k
                    u -= (u + block_h >> t & block_one) * q
                rad |= (u & full) << top
                top += slot
                block = pairs
                pairs &= ~((full << slot | full) << i - i % (2 * slot))
                v_pairs = pairs >> at & low
                n_rad, n_pairs = n_rad + 1, n_pairs - 2
            p = block >> i & full
            a = q - pow(v >> i & mask, -1, q)
            d = 0
            while True:  # d = a p
                if a & 1:
                    d += p
                    d -= (d + h >> t & one) * q
                a >>= 1
                if not a:
                    break
                p += p
                p -= (p + h >> t & one) * q
            for k in bits:  # both blocks plus v d, bit k of the v at a time
                if sel := v_rad >> k & starts:
                    rad += sel * d
                    rad -= (rad + block_h >> t & block_one) * q
                if sel := v_pairs >> k & starts:
                    pairs += sel * d
                    pairs -= (pairs + block_h >> t & block_one) * q
                if k == last:
                    break
                d += d
                d -= (d + h >> t & one) * q
        return rad, n_rad, pairs, n_pairs, n_part, base, top


def _gram_schmidt(ops, rows) -> tuple[list, list]:
    """One symplectic Gram-Schmidt pass: (radical rows, flat pairs e_1, f_1, ...).

    The first remaining row u is paired with the first later row v that has
    a nonzero product with it, scaled to w = v / <u, v>; every other
    remaining row v is replaced by v - <v, w> u + <v, u> w, which is
    orthogonal to both.  A row with no partner is orthogonal to all the
    remaining rows and to every pair, so it lies in the radical, and the
    rows left without partners are a basis of the radical.
    """
    q, plus, doublings = ops.q, ops._plus, ops._doublings
    rad, pairs = [], []
    rest = list(rows)
    while rest:
        u = rest.pop(0)
        by_u = ops.forms(rest, u)
        i = next((i for i, c in enumerate(by_u) if c), None)
        if i is None:
            rad.append(u)
            continue
        w = plus(0, pow(-by_u.pop(i), -1, q), doublings(rest.pop(i)))
        pairs += (u, w)
        du, dw = doublings(u), doublings(w)
        rest = [plus(plus(v, -a % q, du), b, dw) for v, a, b in zip(rest, ops.forms(rest, w), by_u)]
    return rad, pairs


class Subspace:
    """A linear subspace of the n-factor space, stored in canonical form.

    Immutable after construction; equal subspaces compare (and hash) equal
    because the stored basis is the reduced row echelon form of any spanning
    set.  The canonical rows ``_rows`` are in the format of the field object
    ``_field``, which runs every operation; the int64 ``basis`` is made on
    first use.  Derived data (the Gram matrix, whose rank is twice the
    pair count and whose rows give the radical; the complement; the
    radical; the splitting; the support table, walked from the splitting
    alone; and the anticode views of :mod:`qsymp.anticodes`: parts,
    punctures and shortenings by support) is cached lazily.

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
        field = _field(checked_order(q, n), n)  # pack reduces mod q
        self._set(field, field.canonical(field.pack(basis)))

    def _set(self, field, canonical) -> None:
        self._field = field
        self.q, self.n = field.q, field.n
        self._rows = tuple(canonical)
        self.dim_f = len(canonical)

    @classmethod
    def _canonical(cls, field, canonical) -> "Subspace":
        """A space from rows already in canonical form in the field's format, not re-eliminated."""
        space = cls.__new__(cls)
        space._set(field, canonical)
        return space

    @classmethod
    def zero(cls, q: int, n: int) -> "Subspace":
        return cls(np.zeros((0, 2 * n), dtype=np.int64), q, n)

    @classmethod
    def full(cls, q: int, n: int) -> "Subspace":
        return cls(np.eye(2 * n, dtype=np.int64), q, n)

    @_cached_property
    def basis(self) -> Matrix:
        """The canonical basis as a read-only int64 matrix."""
        basis = self._field.unpack(self._rows, 2 * self.n)
        basis.setflags(write=False)
        return basis

    def __contains__(self, v) -> bool:
        v = as_vector(v, self.q)
        if v.shape[0] != 2 * self.n:
            raise DimensionMismatchError(
                f"vector of length {v.shape[0]} against a space on {self.n} factors"
            )
        return len(self._field._echelon([*self._rows, *self._field.pack(v.reshape(1, -1))])) == self.dim_f

    def contains_space(self, other: "Subspace") -> bool:
        """Whether ``other`` lies in this space: its rows grow no echelon of this space's rows."""
        self._check_compatible(other)
        return len(self._field._echelon(self._rows + other._rows)) == self.dim_f

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
        return Subspace._canonical(self._field, self._field.canonical(self._rows + other._rows))

    def __and__(self, other: "Subspace") -> "Subspace":
        """The intersection: the Zassenhaus rows' vanishing part (see ``_Packed.intersect``)."""
        self._check_compatible(other)
        return Subspace._canonical(self._field, self._field.intersect(self._rows, other._rows))

    @_cached_property
    def _anticode_views(self) -> dict:
        """The anticode views asked of this space, by (operation, support); see :mod:`qsymp.anticodes`."""
        return {}

    @_cached_property
    def _gram(self) -> list[int]:
        """The Gram matrix's rows in the field's row format: twice the pair count is its rank."""
        return self._field.gram(self._rows)

    def is_isotropic(self) -> bool:
        """True iff the product vanishes identically on this subspace."""
        return self.sym_dim == 0

    def perp(self) -> "Subspace":
        """Orthogonal complement with respect to the symplectic product, eliminated on the smaller side."""
        return self._perp

    @_cached_property
    def _perp(self) -> "Subspace":
        return Subspace._canonical(self._field, self._field.perp(self._rows))

    def radical(self) -> "Subspace":
        """The degenerate part: intersection with the orthogonal complement."""
        return self._radical

    @_cached_property
    def _radical(self) -> "Subspace":
        return Subspace._canonical(self._field, self._field.radical(self._rows, self._gram))

    def orthogonal_split(self) -> SplitDecomposition:
        """Split into a radical basis plus pairwise-orthogonal symplectic pairs.

        One symplectic Gram-Schmidt pass over the canonical basis rows (see
        :func:`_gram_schmidt`): each pair has product 1, and the rows left
        without a partner are the radical basis.
        """
        rad, pairs = self._split
        flat = self._field.unpack(pairs, 2 * self.n)
        return SplitDecomposition(
            radical_basis=self._field.unpack(rad, 2 * self.n),
            pairs=tuple((flat[i], flat[i + 1]) for i in range(0, len(pairs), 2)),
        )

    @_cached_property
    def _split(self) -> tuple[list, list]:
        """(radical rows, flat pairs e_1, f_1, ...) in the walk's row form."""
        return _gram_schmidt(self._field, self._rows)

    @_cached_property
    def sym_dim(self) -> int:
        """Number of symplectic pairs in any orthogonal splitting: rank(G) / 2."""
        return len(self._field._echelon(self._gram, top=True)) // 2

    @_cached_property
    def isorank(self) -> int:
        """Largest dimension of an isotropic subspace inside this one."""
        return self.dim_f - self.sym_dim

    @_cached_property
    def _support_dims(self) -> SupportTable:
        """The :class:`SupportTable` of every support.

        One depth-first walk of the support lattice with no budget check of
        its own: the public entry points check the budget before reading
        it.  The walk removes factors in decreasing order, so it reaches
        every support once, each by one call of the field's ``cut`` (see
        the module docstring).  The state is the splitting's radical and
        pairs blocks with their row counts, the rows left in the first r0
        radical slots, and the bit offsets of slot r0 and of rule (b)'s
        next slot.  Each visit writes ``dim`` = 2 * pairs + radical rows,
        ``gram_rank`` = 2 * pairs and ``rad`` the rows left in those slots.
        """
        n = self.n
        ops = self._field
        dim, gram_rank, rad_dim = (bytearray(1 << n) for _ in range(3))
        cut = ops.cut  # one lookup per table, not per support

        def visit(mask, below, state):
            _, n_rad, _, n_pairs, n_part, _, _ = state
            dim[mask] = n_rad + n_pairs
            gram_rank[mask] = n_pairs
            rad_dim[mask] = n_part
            for j in range(below):
                visit(mask ^ 1 << j, j, cut(state, j))

        rad, pairs = self._split
        base = len(rad) * ops.slot
        visit((1 << n) - 1, n, (ops.block(rad), len(rad), ops.block(pairs), len(pairs), len(rad), base, base))
        del visit  # it refers to itself: without this, the columns wait for the cycle collector
        return SupportTable(bytes(dim), bytes(gram_rank), bytes(rad_dim))

    def is_stabilizer(self) -> bool:
        """True iff the isorank is ``n``: the radical, which lies in the complement, is all of it."""
        return self.isorank == self.n

    def to_json_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "basis": self.basis.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Subspace":
        """Read ``{"q", "n", "basis"}``, refusing any value that is not an integer."""
        try:
            q, n, basis = data["q"], data["n"], data["basis"]
        except (KeyError, TypeError) as exc:
            raise DimensionMismatchError(f"malformed subspace object: {exc}") from exc
        for value in (q, n, *np.array(basis, dtype=object).flat):
            if type(value) is not int:
                raise DimensionMismatchError(f"malformed subspace object: {value!r} is not an integer")
        return cls(basis, q, n)
