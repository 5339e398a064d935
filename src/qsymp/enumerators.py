"""Weight distributions, binomial moments, and enumerator polynomials.

The weight distribution counts codewords by weight.  The b-th binomial
moment sums, over all supports of size b, the number of codewords carried
by the support; each summand is a power of q with exponent the dimension of
the supported part, so moments are read from the space's shared support
table without touching individual codewords.  Binomial transforms convert
each table into the other exactly over the integers.

Weight distributions and both enumerators are read from the code's one pair
of weight tables (all codewords, radical codewords), which
:meth:`qsymp.codes.Code._weight_tables` builds by one of three routes:
enumerating a space of dimension at most n, enumerating its complement and
carrying back by :func:`distribution_from_dual`, or the support moments.
The oracle suite's ``oracle-distribution`` counts to cross-check the first two.

Enumerator polynomials are homogeneous of degree n in (x, y) and stored as
integer coefficient vectors indexed by x-degree; one counts all codewords
by weight, the other only the radical's.  The minimum distance is the
trailing x-degree of their difference.

Duality: the supported dimension of the dual relates to the complementarily
supported dimension of the code through the rank identity

    dim_F(part of C' in A) = 2*dim(A) - dim_F(C) + dim_F(part of C in A-complement),

which exponentiates to the moment identity with factor q^(2*dim(A) - dim_F(C)).
The commonly quoted factor q^(2*(dim(A) - k)) agrees exactly when the code
has trivial radical (dim_F = 2k) and is reported conditionally.
"""

from __future__ import annotations

import math

from .anticodes import _space_of
from .errors import DEFAULT_BUDGET
from .invariants import dual_dims, support_check, support_dims, supported_moments
from .report import CheckResult, batch, skipped

__all__ = [
    "weight_distribution",
    "binomial_moments",
    "moments_from_distribution",
    "distribution_from_moments",
    "distribution_from_dual",
    "enumerator_polys",
    "poly_from_moments",
    "distance_from_enumerators",
    "format_enumerator",
    "macwilliams_check",
]


def _as_code(obj):
    from .codes import Code

    return obj if isinstance(obj, Code) else Code(obj)


def weight_distribution(code, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Codeword counts by weight, indices 0..n; entry 0 is always 1."""
    all_counts, _ = _as_code(code)._weight_tables(budget)
    return list(all_counts)


def binomial_moments(code, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Moments indexed 0..n, computed from supported-part dimensions."""
    space = _space_of(code)
    return supported_moments(support_dims(space, budget).dim, space.q)


def _sweep(table: list[int], sign: int) -> list[int]:
    """Coefficients of sum_a table[a] x^a (1 + sign x)^(n - a): n(n+1)/2 additions, no binomials.

    Pascal's rule: the entries are folded in one at a time, each step
    multiplying the running list by 1 + sign x.
    """
    out: list[int] = []
    for entry in table:
        out.append(entry + sign * out[-1] if out else entry)
        for i in range(len(out) - 2, 0, -1):
            out[i] += sign * out[i - 1]
    return out


def moments_from_distribution(w: list[int]) -> list[int]:
    """Binomial transform B_b = sum_a C(n-a, b-a) w_a: the sweep of sum_a w_a x^a (1 + x)^(n-a)."""
    return _sweep(w, 1)


def distribution_from_moments(b: list[int]) -> list[int]:
    """Inverse transform w_a = sum_j (-1)^(a-j) C(n-j, a-j) B_j: the sweep with 1 - x."""
    return _sweep(b, -1)


def distribution_from_dual(dual_counts: list[int], q: int, dim_f: int) -> list[int]:
    """Distribution of a space of dimension ``dim_f`` from its complement's, by the moment identity.

    ``B[b] = B'[n-b] * q**(2b + dim_f - 2n)``, an exact division where the power is negative.
    """
    n = len(dual_counts) - 1
    dual = moments_from_distribution(dual_counts)[::-1]
    moments = [divmod(m * q ** (2 * b + dim_f), q ** (2 * n)) for b, m in enumerate(dual)]
    if any(r for _, r in moments):
        raise ValueError("the tables are not dual: a moment is not an integer")
    return distribution_from_moments([m for m, _ in moments])


def enumerator_polys(code, budget: int = DEFAULT_BUDGET) -> tuple[list[int], list[int]]:
    """Coefficient vectors (radical enumerator, full enumerator) by x-degree.

    Both come from the code's one weight table, whichever route built it.
    """
    all_counts, rad_counts = _as_code(code)._weight_tables(budget)
    return list(rad_counts), list(all_counts)


def poly_from_moments(moments: list[int]) -> list[int]:
    """Expand sum_b B_b x^b (y-x)^(n-b) into coefficients by x-degree."""
    n = len(moments) - 1
    coeffs = [0] * (n + 1)
    for b, mb in enumerate(moments):
        for j in range(n - b + 1):
            coeffs[b + j] += mb * (-1) ** j * math.comb(n - b, j)
    return coeffs


def distance_from_enumerators(a_coeffs: list[int], b_coeffs: list[int]) -> int | None:
    """Trailing x-degree of the difference of the two enumerators."""
    if len(a_coeffs) != len(b_coeffs):
        raise ValueError("enumerators must share a degree")
    for i, (a, b) in enumerate(zip(a_coeffs, b_coeffs)):
        if a != b:
            return i
    return None


def format_enumerator(coeffs: list[int]) -> str:
    """Render with descending y-degree, e.g. ``y^2 + 2xy + 5x^2``."""
    n = len(coeffs) - 1
    terms = []
    for a, c in enumerate(coeffs):
        if c == 0:
            continue
        parts = []
        if c != 1 or (a == 0 and n == 0):
            parts.append(str(c))
        if a == 1:
            parts.append("x")
        elif a > 1:
            parts.append(f"x^{a}")
        if n - a == 1:
            parts.append("y")
        elif n - a > 1:
            parts.append(f"y^{n - a}")
        terms.append("".join(parts))
    return " + ".join(terms) if terms else "0"


def macwilliams_check(code, budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """Verify the duality identities between a code and its dual.

    Per support: the rank identity above, checked on exponents.  Aggregated:
    cross-multiplied integer form of the moment identity, plus the
    conditional unshifted-exponent form that requires a trivial radical.
    """
    space = _space_of(code)
    n, q = space.n, space.q
    table, dual = support_dims(space, budget), dual_dims(space, budget)
    k = space.sym_dim
    dim_f = space.dim_f

    # The complement of mask m is 2^n - 1 - m, so the complements' column is the reversed column.
    rhs = [2 * m.bit_count() - dim_f + d for m, d in enumerate(reversed(table.dim))]
    checks = [support_check("macwilliams-per-anticode", dual, rhs)]

    moments_self = supported_moments(table.dim, q)
    moments_dual = supported_moments(dual, q)

    def moment_items(exponent):
        # The dual's b-th moment is q**(2b - exponent) times the code's
        # (n-b)-th; that exponent may be negative, so both sides are
        # multiplied by q**exponent.
        items = []
        for b in range(n + 1):
            lhs = moments_dual[b] * q**exponent
            rhs = q ** (2 * b) * moments_self[n - b]
            items.append((b, lhs, rhs, lhs == rhs))
        return items

    checks.append(batch("macwilliams-moments", moment_items(dim_f), key=None))
    if dim_f == 2 * k:
        checks.append(
            batch(
                "macwilliams-moments-unshifted",
                moment_items(2 * k),
                key=None,
                note="radical is trivial, so the unshifted exponent applies",
            )
        )
    else:
        checks.append(
            skipped(
                "macwilliams-moments-unshifted",
                "nontrivial radical (dim_F != 2k); the shifted "
                "exponent 2*dim(A) - dim_F is the one that holds",
            )
        )
    return checks
