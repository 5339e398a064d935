"""Support-profile invariants of a code and the bound-verification suite.

Two integer maps drive everything here.  For a code C and an anticode A:

* ``alpha(C, A)``  -- the symplectic pair count of C's part supported in A;
* ``beta(C, A)``   -- the isorank of that part, in excess of the isorank of
  the radical's part supported in A.

Because the anticode lattice is the subset lattice of the factor set, both
maps are tabulated over all 2^n supports, from ranks in the space's shared
support table: alpha is half the Gram rank of the supported part, beta its
dimension minus alpha minus that of the (isotropic) radical's part.
This module is the one reader of that table, behind the budget checks of
:func:`support_dims` and :func:`dual_dims`.  The columns are indexed by
support mask, so a support's complement sits at the mirrored position and
the readers run over the masks.  Every identity over all supports is one call of
:func:`support_check` on two columns, which alone decides its witness: the
first failing support by size, then lexicographically.  Profiles take
maxima at fixed support size; generalized weights are the least sizes at
which the per-size maxima of alpha, beta and alpha + beta reach a level,
so :func:`invariant_table` reads both off one pass.  All the inequalities
these satisfy (monotone steps, the Galois correspondences, and the
Singleton-type bounds) are replayed as explicit integer checks by
:func:`verify_bounds`.

Extrema are taken over free-support anticodes only.  That convention is
forced by the characterization of anticodes as free subspaces: a subspace
whose pair count equals its maximum weight is the full space on its
support.  A consequence worth flagging: for the two-factor repetition code
the span of ``(e,e)`` and ``(f,f)`` is isotropic over the binary field, so
it is *not* an anticode (its pair count is 0, its maximum weight 2), and
the size-1 profile of that code is 0 even though treating that span as an
anticode would give 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .anticodes import Anticode, _space_of, intersect_with_anticode
from .errors import DEFAULT_BUDGET, check_budget
from .report import CheckResult, batch, equal, skipped
from .symplectic import SupportTable

__all__ = [
    "alpha",
    "beta",
    "support_dims",
    "dual_dims",
    "profiles",
    "generalized_weights",
    "InvariantTable",
    "invariant_table",
    "verify_bounds",
]


def alpha(code, a: Anticode) -> int:
    """Symplectic pair count of the code's part supported in the anticode."""
    return intersect_with_anticode(_space_of(code), a).sym_dim


def beta(code, a: Anticode) -> int:
    """Isorank of the supported part, minus the radical's supported isorank."""
    space = _space_of(code)
    inner = intersect_with_anticode(space, a)
    rad_inner = intersect_with_anticode(space.radical(), a)
    return inner.isorank - rad_inner.isorank


def support_dims(code, budget: int = DEFAULT_BUDGET) -> SupportTable:
    """The space's shared support table, after the budget check for its scan.

    Every support-indexed result in the library is read from this table,
    which is built once per space (see :class:`qsymp.symplectic.SupportTable`).
    """
    space = _space_of(code)
    check_budget(2**space.n, budget, "support scan")
    return space._support_dims


def dual_dims(code, budget: int = DEFAULT_BUDGET) -> bytes:
    """dim_F of the dual's part in every support, by mask, after the same budget check.

    The radical lies in the dual, so equal dimensions make them one space.
    The radical's dimension is the table's full-support ``rad`` entry, so
    no radical is built: when it equals the dual's, the column is C's own
    ``rad`` column, with no C-perp built, and otherwise the ``dim`` column
    of C-perp's table.  It asks the table, not ``is_stabilizer()`` as the
    verifiers do: they agree on working code, and the identities suite's
    pinned report under a faulted isorank is the one this read gives.
    """
    space = _space_of(code)
    check_budget(2**space.n, budget, "support scan")
    table = space._support_dims
    if table.rad[-1] == 2 * space.n - space.dim_f:
        return table.rad
    return space.perp()._support_dims.dim


def support_check(
    identity: str, lhs, rhs, at_most: bool = False, below: int | None = None
) -> CheckResult:
    """:func:`batch` of ``lhs[mask] == rhs[mask]`` over two columns indexed by support mask.

    ``at_most`` checks ``<=`` instead, and ``below`` only the supports of
    fewer factors.  Only the failing supports are listed, sorted by size,
    then lexicographically, so the witness is the first failure in that
    order.
    """
    n = len(lhs).bit_length() - 1
    below = n + 1 if below is None else below
    fails = [
        ([j for j in range(n) if mask >> j & 1], left, right, False)
        for mask, (left, right) in enumerate(zip(lhs, rhs))
        if (left > right if at_most else left != right) and mask.bit_count() < below
    ]
    fails.sort(key=lambda item: (len(item[0]), item[0]))
    return batch(identity, fails, key="support", checked=sum(comb(n, b) for b in range(below)))


def supported_moments(column, q: int) -> list[int]:
    """Sums of ``q**column[mask]`` over the supports of each size 0..n, for a table column."""
    n = len(column).bit_length() - 1
    powers = [q**d for d in range(max(column) + 1)]
    moments = [0] * (n + 1)
    for mask, d in enumerate(column):
        moments[mask.bit_count()] += powers[d]
    return moments


def rank_identity(space, table: SupportTable, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """``duality-rank-identity``: C's part in each support against the dual's part in its complement."""
    n, dim_f = space.n, space.dim_f
    # The complement of mask m is 2^n - 1 - m, so the complements' column is the reversed column.
    rhs = [dim_f - 2 * (n - m.bit_count()) + d for m, d in enumerate(reversed(dual_dims(space, budget)))]
    return support_check("duality-rank-identity", table.dim, rhs)


def profiles(code, budget: int = DEFAULT_BUDGET) -> tuple[list[int], list[int]]:
    """Profiles by support size: maxima of alpha and of beta, sizes 0..n.

    Size 0 only sees the zero anticode, so both profiles start at 0.
    """
    table = invariant_table(code, budget)
    return table.theta, table.phi


def generalized_weights(
    code, budget: int = DEFAULT_BUDGET
) -> tuple[list[int | None], list[int | None], list[int | None]]:
    """Minimal anticode dimensions reaching prescribed alpha/beta levels.

    Returns three lists indexed by the level ``a = 1..k``: the least support
    size with ``alpha >= a``, with ``beta >= a``, and with
    ``alpha + beta >= 2a``.  A support of size b reaches a level iff the
    maximum over size b does, so each weight is the first size at which the
    per-size maximum reaches the level (Wei's first-hit levels).  A correct
    table never leaves a level ``a <= k`` unreached, since the full support
    attains ``alpha = beta = k``; an entry is ``None`` (``"unattained"`` in
    reports) when a wrong table does, so that :func:`verify_bounds` reports
    the fault instead of raising.
    """
    table = invariant_table(code, budget)
    return table.vartheta, table.varphi, table.delta


@dataclass
class InvariantTable:
    """All support-profile invariants of one code."""

    n: int
    k: int
    theta: list[int]
    phi: list[int]
    vartheta: list[int | None]
    varphi: list[int | None]
    delta: list[int | None]

    def to_dict(self) -> dict:
        unattained = lambda xs: ["unattained" if x is None else int(x) for x in xs]
        return {
            "n": self.n,
            "k": self.k,
            "theta": [int(x) for x in self.theta],
            "phi": [int(x) for x in self.phi],
            "vartheta": unattained(self.vartheta),
            "varphi": unattained(self.varphi),
            "delta": unattained(self.delta),
        }

    def format_table(self) -> str:
        """Aligned ASCII rendering (presentation only)."""
        lines = []
        header = ["b"] + [str(b) for b in range(self.n + 1)]
        rows = [
            header,
            ["theta"] + [str(x) for x in self.theta],
            ["phi"] + [str(x) for x in self.phi],
        ]
        if self.k:
            rows.append(["a"] + [str(a) for a in range(1, self.k + 1)])
            fmt = lambda xs: ["-" if x is None else str(x) for x in xs]
            rows.append(["vartheta"] + fmt(self.vartheta))
            rows.append(["varphi"] + fmt(self.varphi))
            rows.append(["delta"] + fmt(self.delta))
        width = max(len(cell) for row in rows for cell in row) + 2
        for row in rows:
            lines.append("".join(cell.rjust(width) for cell in row))
        return "\n".join(lines)


def invariant_table(code, budget: int = DEFAULT_BUDGET) -> InvariantTable:
    """Profiles and generalized weights, from one pass over the support table's masks.

    alpha + beta is the supported dimension minus the radical's, so it
    needs no pair count.
    """
    space = _space_of(code)
    n, k = space.n, space.sym_dim
    table = support_dims(space, budget)
    theta, phi, both = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for mask, (d, g, r) in enumerate(zip(table.dim, table.gram_rank, table.rad)):
        b, a, a_b = mask.bit_count(), g >> 1, d - r
        if a > theta[b]:
            theta[b] = a
        if a_b - a > phi[b]:
            phi[b] = a_b - a
        if a_b > both[b]:
            both[b] = a_b
    first_reach = lambda maxima, level: next((b for b, m in enumerate(maxima) if m >= level), None)
    levels = range(1, k + 1)
    return InvariantTable(
        n=n,
        k=k,
        theta=theta,
        phi=phi,
        vartheta=[first_reach(theta, a) for a in levels],
        varphi=[first_reach(phi, a) for a in levels],
        delta=[first_reach(both, 2 * a) for a in levels],
    )


def profile_step_items(theta: list[int], phi: list[int]) -> list[tuple]:
    """The profile-step inequalities as ``(step, lhs, rhs, ok)`` items for :func:`batch`.

    Each profile rises by at most 2 per step, when one rises by 2 the other
    stays flat, and together they rise by at most 2.
    """
    items = []
    for b in range(1, len(theta) - 1):
        items.append((f"theta[{b}->{b + 1}]", theta[b + 1], theta[b] + 2, theta[b + 1] <= theta[b] + 2))
        items.append((f"phi[{b}->{b + 1}]", phi[b + 1], phi[b] + 2, phi[b + 1] <= phi[b] + 2))
        if theta[b + 1] == theta[b] + 2:
            items.append((f"phi-flat[{b}]", phi[b + 1], phi[b], phi[b + 1] == phi[b]))
        if phi[b + 1] == phi[b] + 2:
            items.append((f"theta-flat[{b}]", theta[b + 1], theta[b], theta[b + 1] == theta[b]))
        lhs, rhs = theta[b + 1] + phi[b + 1], theta[b] + phi[b] + 2
        items.append((f"joint-step[{b}]", lhs, rhs, lhs <= rhs))
    return items


def verify_bounds(code, budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """Replay every profile/weight inequality for one code as integer checks.

    Failures become report entries, never exceptions.  Checks whose
    hypotheses fail (no minimum distance, or a radical different from the
    dual) are recorded as skipped.  The radical is the dual exactly when
    the isorank is n (``is_stabilizer()``), so no dual is built to decide it.
    """
    from .codes import Code

    space = _space_of(code)
    code_obj = code if isinstance(code, Code) else Code(space)
    n, k = space.n, space.sym_dim
    table = invariant_table(code_obj, budget)
    theta, phi = table.theta, table.phi
    vartheta, varphi, delta = table.vartheta, table.varphi, table.delta
    dims = support_dims(space, budget)
    alphas, betas = dims.alpha, dims.beta
    d = code_obj.distance(budget)
    self_orthogonal = space.is_stabilizer()
    checks: list[CheckResult] = []

    # Pointwise facts over every support; the complements' columns are the reversed columns.
    checks.append(support_check("alpha-le-beta", alphas, betas, at_most=True))
    checks.append(rank_identity(space, dims, budget))

    if self_orthogonal:
        lhs = [b + a for b, a in zip(betas, reversed(alphas))]
        checks.append(support_check("weight-complementarity", lhs, [k] * len(lhs)))
        diff = [b - a for a, b in zip(alphas, betas)]
        checks.append(support_check("alpha-beta-difference-complement", diff, diff[::-1]))
        if d is not None:
            zero = [(0, 0)] * len(diff)
            checks.append(support_check("small-support-trivial", list(zip(alphas, betas)), zero, below=d))
    else:
        checks.append(skipped("weight-complementarity", "radical differs from the dual (not applicable)"))

    checks.append(batch("profile-steps", profile_step_items(theta, phi), key="step"))

    # Galois correspondences between weights and profiles.
    inf = n + 1
    galois_items = []
    for a_level in range(1, k + 1):
        vt = vartheta[a_level - 1]
        vp = varphi[a_level - 1]
        for b in range(1, n + 1):
            lhs = a_level <= theta[b]
            rhs = (vt if vt is not None else inf) <= b
            galois_items.append((f"theta[a={a_level},b={b}]", lhs, rhs, lhs == rhs))
            lhs = a_level <= phi[b]
            rhs = (vp if vp is not None else inf) <= b
            galois_items.append((f"phi[a={a_level},b={b}]", lhs, rhs, lhs == rhs))
    checks.append(batch("galois-connection", galois_items, key="step"))

    # Weight monotonicity.
    pair_items = []
    for a_level in range(1, k - 1):
        vt0, vt2 = vartheta[a_level - 1], vartheta[a_level + 1]
        if vt0 is not None and vt2 is not None:
            pair_items.append((f"vartheta[{a_level}]", vt0 + 1, vt2, vt0 + 1 <= vt2))
        vp0, vp2 = varphi[a_level - 1], varphi[a_level + 1]
        if vp0 is not None and vp2 is not None:
            pair_items.append((f"varphi[{a_level}]", vp0 + 1, vp2, vp0 + 1 <= vp2))
    checks.append(batch("weights-pair-step", pair_items, key="step"))
    mono_items = []
    for a_level in range(1, k):
        d0, d1 = delta[a_level - 1], delta[a_level]
        if d0 is not None and d1 is not None:
            mono_items.append((f"delta[{a_level}]", d0 + 1, d1, d0 + 1 <= d1))
    checks.append(batch("delta-monotone", mono_items, key="step"))
    lower_items = [
        (f"varphi[{a_level}]", varphi[a_level - 1], a_level, varphi[a_level - 1] >= a_level)
        for a_level in range(1, k + 1)
        if varphi[a_level - 1] is not None
    ]
    checks.append(batch("weights-lower-bound", lower_items, key="step"))

    # Distance-dependent bounds.
    if d is None:
        checks += [
            skipped("singleton", "no codewords outside the radical"),
            skipped("generalized-singleton-upper", "distance undefined"),
            skipped("generalized-singleton-self-orthogonal", "distance undefined"),
        ]
    else:
        checks.append(CheckResult("singleton", 2 * (d - 1) <= n - k, lhs=2 * (d - 1), rhs=n - k))
        gs_items = []
        for a_level in range(1, k + 1):
            da = delta[a_level - 1]
            bound = n - d - k + a_level + 1
            if da is not None:
                gs_items.append((f"delta[{a_level}]", da, bound, da <= bound))
        checks.append(batch("generalized-singleton-upper", gs_items, key="step"))
        if self_orthogonal:
            gs2 = []
            for a_level in range(1, k + 1):
                vp = varphi[a_level - 1]
                bound = n - d - (k - a_level) // 2 + 1
                if vp is not None:
                    gs2.append((f"varphi[{a_level}]", vp, bound, vp <= bound))
            checks.append(batch("generalized-singleton-self-orthogonal", gs2, key="step"))
            if k >= 1 and varphi[0] is not None:
                checks.append(equal("anticode-distance", varphi[0], d))
        else:
            checks.append(skipped("generalized-singleton-self-orthogonal", "radical differs from the dual"))
    return checks
