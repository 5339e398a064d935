"""The dense reference route: exact elimination on int64 matrices, one numpy pass per pivot.

The library answers every span question on packed rows (see
:mod:`qsymp.symplectic`).  These are the plain dense routines the packed
ones are checked against: canonical form (:func:`rref`), kernel
(:func:`kernel`), vanishing part (:func:`vanishing_part`) and membership
(:func:`in_row_space`), plus the space operations and the support table
built from them.  Entries stay exact in the supported range
``2n (q - 1)**2 < 2**63``: every product sum of a Gram row fits in int64.
"""

from __future__ import annotations

import numpy as np

from qsymp.errors import DimensionMismatchError
from qsymp.linalg import as_vector


def rref(a, q: int) -> np.ndarray:
    """Reduced row echelon form with zero rows removed (the canonical form).

    Pivots are chosen as the first usable row in the first nonzero column,
    scanning left to right; output rows have strictly increasing pivot
    columns with unit pivots and zeros elsewhere in pivot columns.
    """
    a = np.asarray(a, dtype=np.int64) % q
    if not a.any():
        return a[:0]
    m, cols = a.shape
    r = 0
    for c in range(cols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        if inv != 1:
            a[r] = (a[r] * inv) % q
        hits = np.nonzero(a[:, c])[0]
        hits = hits[hits != r]
        if hits.size:
            a[hits] = (a[hits] - np.outer(a[hits, c], a[r])) % q
        r += 1
    return a[:r]


def pivot_columns(rref_matrix) -> list[int]:
    """Pivot column of each row of a matrix already in canonical form."""
    return np.argmax(rref_matrix != 0, axis=1).tolist() if rref_matrix.shape[0] else []


def kernel(a, q: int) -> np.ndarray:
    """Basis of the right null space, one vector per row, one per free column."""
    n = a.shape[1]
    r = rref(a, q)
    piv = pivot_columns(r)
    pivset = set(piv)
    free = [j for j in range(n) if j not in pivset]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, piv] = (-r[:, free].T) % q
    return out


def vanishing_part(basis, cols: list[int], q: int) -> np.ndarray:
    """Canonical basis of the row space's vectors that are zero on every column in ``cols``.

    ``basis`` must be canonical.  The part is c B_I for c in the kernel of
    the transposed restriction of the rows B_I whose pivot lies outside
    ``cols``, eliminated with the rows reversed so the part comes out
    canonical.
    """
    first = set(cols)
    rows = basis[[p not in first for p in pivot_columns(basis)]]
    restricted = rows[:, cols]
    restricted = restricted[:, restricted.any(axis=0)]
    if not restricted.size:
        return rows
    coeffs = kernel(restricted.T[:, ::-1], q)[::-1, ::-1]
    return (coeffs @ rows) % q


def in_row_space(basis, v, q: int) -> bool:
    """Membership test against a canonical basis."""
    v = as_vector(v, q)
    if basis.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"vector of length {v.shape[0]} against basis with {basis.shape[1]} columns"
        )
    for i, p in enumerate(pivot_columns(basis)):
        if v[p]:
            v = (v - v[p] * basis[i]) % q
    return not v.any()


# ---------------------------------------------------------------------------
# space operations on canonical int64 bases


def swap(b, q: int) -> np.ndarray:
    """Rows with (x_i, z_i) mapped to (-z_i mod q, x_i): ``swap(B) @ B.T`` is the Gram matrix."""
    out = np.empty_like(b)
    out[:, 0::2] = -b[:, 1::2] % q
    out[:, 1::2] = b[:, 0::2]
    return out


def gram(b, q: int) -> np.ndarray:
    return (swap(b, q) @ b.T) % q


def space_sum(a, b, q: int) -> np.ndarray:
    return rref(np.vstack([a, b]), q)


def meet(a, b, q: int) -> np.ndarray:
    """Zassenhaus: the second halves of the rows (x, x), (y, 0) that vanish on the first half."""
    width = a.shape[1]
    joint = rref(np.vstack([np.hstack([a, a]), np.hstack([b, np.zeros_like(b)])]), q)
    return vanishing_part(joint, list(range(width)), q)[:, width:]


def perp(b, q: int) -> np.ndarray:
    """The symplectic complement: the kernel of swap(B), read back canonical."""
    return kernel(swap(b, q)[:, ::-1], q)[::-1, ::-1].copy()


def radical(b, q: int) -> np.ndarray:
    return rref((kernel(gram(b, q), q) @ b) % q, q)


def outside_columns(n: int, support) -> list[int]:
    return [c for j in range(n) if j not in support for c in (2 * j, 2 * j + 1)]


def project(b, factors) -> np.ndarray:
    return b[:, [c for j in factors for c in (2 * j, 2 * j + 1)]]


def support_table(b, q: int, n: int) -> list[bytes]:
    """The support table's three columns (dim, gram rank, radical's dim) and the dual's column, by mask."""
    rad, dual = radical(b, q), perp(b, q)
    columns = [bytearray(1 << n) for _ in range(4)]
    for mask in range(1 << n):
        cols = outside_columns(n, [j for j in range(n) if mask >> j & 1])
        inner = vanishing_part(b, cols, q)
        columns[0][mask] = inner.shape[0]
        columns[1][mask] = rref(gram(inner, q), q).shape[0]
        columns[2][mask] = vanishing_part(rad, cols, q).shape[0]
        columns[3][mask] = vanishing_part(dual, cols, q).shape[0]
    return [bytes(c) for c in columns]
