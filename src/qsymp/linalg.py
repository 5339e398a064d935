"""Caller values as exact matrices over prime fields, and the matrix text format.

Matrices are dense row-major numpy ``int64`` arrays with entries reduced
modulo a prime ``q``.  :func:`as_matrix` is the one converter of caller
values, :func:`checked_order` admits a field order, and
:func:`matrix_to_text` / :func:`matrix_from_text` read and write the text
format.  Elimination is not done here: a :class:`~qsymp.symplectic.Subspace`
answers every span question through its field object, on packed rows (see
:mod:`qsymp.symplectic`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ParseError

Matrix = np.ndarray


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def checked_order(q, n: int) -> int:
    """``q`` as an int, once it is a prime integer in the supported range for n factors.

    The range, ``2n (q - 1)**2 < 2**63``, keeps every int64 Gram product
    sum exact.  It is checked before the primality test, with n at least 1,
    so an order far beyond the one-factor range is refused at once even for
    a space on no factors.  A bool is not a field order.
    """
    integer = isinstance(q, (int, np.integer)) and not isinstance(q, bool)
    if integer and 2 * max(n, 1) * (int(q) - 1) ** 2 >= 2**63:
        raise ValueError(
            f"field order {q} is too large for n={n}: the supported range is "
            "2n (q - 1)^2 < 2^63, with n at least 1"
        )
    if not integer or not _is_prime(int(q)):
        raise ValueError(f"field order must be a prime integer, got {q!r}")
    return int(q)


def as_matrix(rows, q: int | None, cols: int | None = None) -> Matrix:
    """Normalize ``rows`` to a 2-D int64 array reduced mod ``q`` (unreduced if None).

    The one converter of caller values.  ``cols`` is required when ``rows``
    is empty, since the ambient width cannot be inferred from nothing.  An
    entry that is not an integer (a float, complex number or string, even
    an integral one) or lies beyond int64 is a ValueError; bools count as
    integers, and an empty array may have any dtype.
    """
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entry beyond the int64 range") from None
    except TypeError as exc:  # a complex number or None
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    given = np.asarray(rows)
    if given.size and given.dtype.kind not in "biu" and not (
        given.dtype.kind == "O" and all(isinstance(x, (int, np.integer)) for x in given.flat)
    ):
        raise ValueError(f"matrix entries must be integers, got {given.dtype} entries")
    if a.size == 0:
        if a.ndim == 2:
            cols = a.shape[1]
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.zeros((0, cols), dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a if q is None else a % q


def as_vector(v, q: int | None) -> np.ndarray:
    """One vector as a 1-D int64 array through :func:`as_matrix`.

    Anything but a one-dimensional value, a matrix of one row included, is
    a DimensionMismatchError, so rows are never read as their concatenation.
    """
    if np.ndim(v) != 1:
        raise DimensionMismatchError(f"expected one vector, got an array of ndim {np.ndim(v)}")
    return as_matrix(v, q, cols=0).reshape(-1)


def matrix_to_text(a: Matrix, q: int) -> str:
    """Serialize to the text format ``"q rows cols"`` then one row per line."""
    a = as_matrix(a, q, cols=a.shape[1] if a.ndim == 2 else None)
    lines = [f"{q} {a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> tuple[Matrix, int]:
    """Parse the text format produced by :func:`matrix_to_text`.

    Returns ``(matrix, q)``.  Raises :class:`ParseError` with a 1-based line
    number on malformed input, including a non-blank line past the rows the
    header declares.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix text", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be 'q rows cols'", line=1)
    try:
        q, rows, cols = (int(x) for x in head)
    except ValueError:
        raise ParseError("header must contain three integers", line=1) from None
    if rows < 0 or cols < 0:
        raise ParseError("negative dimensions", line=1)
    try:
        checked_order(q, cols // 2)
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    data = []
    for i in range(rows):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise ParseError("missing matrix row", line=lineno)
        parts = lines[i + 1].split()
        if len(parts) != cols:
            raise ParseError(f"expected {cols} entries, found {len(parts)}", line=lineno)
        try:
            data.append([int(x) for x in parts])
        except ValueError:
            raise ParseError("non-integer entry", line=lineno) from None
    for lineno, line in enumerate(lines[rows + 1:], start=rows + 2):
        if line.strip():
            raise ParseError(f"row past the {rows} the header declares", line=lineno)
    return as_matrix(data, q, cols=cols), q
