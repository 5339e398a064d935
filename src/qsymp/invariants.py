"""Support-profile invariants of a code and the bound-verification suite.

Two integer maps drive everything here.  For a code C and an anticode A:

* ``alpha(C, A)``  -- the symplectic pair count of C's part supported in A;
* ``beta(C, A)``   -- the isorank of that part, in excess of the isorank of
  the radical's part supported in A.

Because the anticode lattice is the subset lattice of the factor set, both
maps are tabulated over all 2^n supports, from ranks in the space's shared
support table: alpha is half the Gram rank of the supported part, beta its
dimension minus alpha minus that of the (isotropic) radical's part.
This module is the one reader of that table, behind the budget check of
:func:`support_dims`.  The table's columns are indexed by support mask, and
the readers run over the masks wherever the order of the supports does not
matter.  A witness is the first failing support by size, then
lexicographically: the order of :func:`support_pairs`, which also pairs
each support with its complement, and of the failures :func:`support_check`
sorts.  Profiles take maxima at fixed support size; generalized weights are
the least sizes at which the per-size maxima of alpha, beta and
alpha + beta reach a level, so :func:`invariant_table` reads both off one
pass.  All the inequalities these satisfy (monotone steps, the Galois
correspondences, and the Singleton-type bounds) are replayed as explicit
integer checks by :func:`verify_bounds`.

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
from itertools import combinations

from .anticodes import Anticode, _space_of, intersect_with_anticode
from .errors import DEFAULT_BUDGET, check_budget
from .report import CheckResult, batch, equal
from .symplectic import SupportTable

__all__ = [
    "alpha",
    "beta",
    "support_dims",
    "support_table",
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


def support_table(code, budget: int = DEFAULT_BUDGET) -> dict[frozenset, tuple[int, int]]:
    """(alpha, beta) for every support, keyed by frozen support set.

    Read from the space's shared support table, in the order of
    :func:`support_pairs`; the scan covers all 2^n supports and is guarded
    by the budget on every call.
    """
    table = support_dims(code, budget)
    alphas, betas = table.alpha, table.beta
    return {frozenset(s): (alphas[m], betas[m]) for s, m, _ in support_pairs(table.n)}


def support_pairs(n: int) -> list[tuple[list[int], int, int]]:
    """``(sorted support, its mask, its complement's mask)`` for every support of n factors.

    The supports run by size, then lexicographically: the order in which a
    report's witness is the first failure.  That is not increasing-mask
    order ({1, 2}, mask 6, comes after {0, 3}, mask 9), so the list is
    built on each call rather than read off the table.
    """
    full = (1 << n) - 1
    bits = [1 << j for j in range(n)]
    out = []
    for size in range(n + 1):
        for support, masks in zip(combinations(range(n), size), combinations(bits, size)):
            mask = sum(masks)
            out.append((list(support), mask, full ^ mask))
    return out


def support_check(identity: str, lhs, rhs) -> CheckResult:
    """:func:`batch` of ``lhs[mask] == rhs[mask]`` over two columns, read by mask.

    Only the failing supports are listed, sorted by size, then
    lexicographically, so the witness is the one :func:`support_pairs`
    order meets first.
    """
    n = len(lhs).bit_length() - 1
    fails = [
        ([j for j in range(n) if mask >> j & 1], left, right, False)
        for mask, (left, right) in enumerate(zip(lhs, rhs))
        if left != right
    ]
    fails.sort(key=lambda item: (len(item[0]), item[0]))
    return batch(identity, fails, key="support", checked=len(lhs))


def supported_moments(column, q: int) -> list[int]:
    """Sums of ``q**column[mask]`` over the supports of each size 0..n, for a table column."""
    n = len(column).bit_length() - 1
    powers = [q**d for d in range(max(column) + 1)]
    moments = [0] * (n + 1)
    for mask, d in enumerate(column):
        moments[mask.bit_count()] += powers[d]
    return moments


def rank_identity_items(space, table: SupportTable, pairs: list) -> list[tuple]:
    """``duality-rank-identity`` items for :func:`batch`: C's part in S, the dual's in S-complement."""
    dim, dual = table.dim, table.dual
    items = []
    for s, m, c in pairs:
        rhs = space.dim_f - 2 * (space.n - len(s)) + dual[c]
        items.append((s, dim[m], rhs, dim[m] == rhs))
    return items


def alpha_beta_items(table: SupportTable, pairs: list) -> list[tuple]:
    """``alpha-le-beta`` items for :func:`batch`, one per support."""
    alphas, betas = table.alpha, table.beta
    return [(s, alphas[m], betas[m], alphas[m] <= betas[m]) for s, m, _ in pairs]


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
    per-size maximum reaches the level (Wei's first-hit levels).  Entries
    are ``None`` only if no support qualifies, which cannot happen for
    ``a <= k`` since the full support attains ``alpha = beta = k``; the
    sentinel is kept for defensive completeness.
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
    dual) are recorded as skipped.
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
    pairs = support_pairs(n)
    d = code_obj.distance(budget)
    self_orthogonal = space.radical() == space.perp()
    checks: list[CheckResult] = []

    def add(identity, passed, lhs=None, rhs=None, note=None):
        checks.append(CheckResult(identity, passed, lhs=lhs, rhs=rhs, note=note))

    # Pointwise facts over every support.
    checks.append(batch("alpha-le-beta", alpha_beta_items(dims, pairs), key="support"))
    checks.append(batch("duality-rank-identity", rank_identity_items(space, dims, pairs), key="support"))

    if self_orthogonal:
        items = [(s, betas[m] + alphas[c], k, betas[m] + alphas[c] == k) for s, m, c in pairs]
        checks.append(batch("weight-complementarity", items, key="support"))
        items = []
        for s, m, c in pairs:
            lhs, rhs = betas[m] - alphas[m], betas[c] - alphas[c]
            items.append((s, lhs, rhs, lhs == rhs))
        checks.append(batch("alpha-beta-difference-complement", items, key="support"))
        if d is not None:
            items = [
                (s, (alphas[m], betas[m]), (0, 0), alphas[m] == 0 and betas[m] == 0)
                for s, m, _ in pairs
                if len(s) < d
            ]
            checks.append(batch("small-support-trivial", items, key="support"))
    else:
        add("weight-complementarity", True, note="skipped: radical differs from the dual (not applicable)")

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
        add("singleton", True, note="skipped: no codewords outside the radical")
        add("generalized-singleton-upper", True, note="skipped: distance undefined")
        add("generalized-singleton-self-orthogonal", True, note="skipped: distance undefined")
    else:
        add("singleton", 2 * (d - 1) <= n - k, lhs=2 * (d - 1), rhs=n - k)
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
            add(
                "generalized-singleton-self-orthogonal",
                True,
                note="skipped: radical differs from the dual",
            )
    return checks
