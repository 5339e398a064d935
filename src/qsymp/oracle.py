"""Literal brute-force reference computations.

Everything here works by enumerating codewords from a basis with a
mixed-radix counter and then counting, filtering, or pairing set elements.
No Gaussian elimination, no rank arguments: dimensions come from logarithms
of set sizes, radicals come from filtering on the product, and spanning
sets come from incremental closure by enumeration.  The point is
independence from the fast paths, which these functions exist to check.
Each route takes a space, a code, or a :class:`Codewords` enumeration
that several routes share.
"""

from __future__ import annotations

from functools import cached_property

from .anticodes import _space_of
from .errors import DEFAULT_BUDGET, check_budget

Word = tuple[int, ...]


def _form(u: Word, v: Word, q: int) -> int:
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total % q


def _weight(v: Word) -> int:
    return sum(1 for i in range(0, len(v), 2) if v[i] or v[i + 1])


def _support_mask(v: Word) -> int:
    mask = 0
    for i in range(0, len(v), 2):
        if v[i] or v[i + 1]:
            mask |= 1 << (i // 2)
    return mask


def enumerate_codewords(space, budget: int = DEFAULT_BUDGET):
    """Yield every codeword exactly once as a tuple of ints.

    Codeword i uses the mixed-radix digits of i (least significant first)
    as coefficients against the basis rows.  The words are stepped by a
    counter: raising digit t adds row t once more, and a digit that wraps
    from q - 1 to 0 has then added its row q times, which is zero, before
    the carry moves to digit t + 1.
    """
    space = _space_of(space)
    q, k = space.q, space.dim_f
    check_budget(q**k, budget, "codeword enumeration")
    basis = space.basis.tolist()
    word = [0] * (2 * space.n)
    digits = [0] * k
    yield tuple(word)
    for _ in range(q**k - 1):
        for t, row in enumerate(basis):
            word = [(x + y) % q for x, y in zip(word, row)]
            digits[t] += 1
            if digits[t] < q:
                break
            digits[t] = 0
        yield tuple(word)


class Codewords:
    """One enumeration of a space's codewords, shared by the brute routes.

    Every brute route accepts one in place of a space; it still checks the
    budget against the full enumeration cost, as it would if it enumerated.
    The radical's codewords are filtered out on first use.
    """

    def __init__(self, space, budget: int = DEFAULT_BUDGET):
        self.space = _space_of(space)
        self.words = list(enumerate_codewords(self.space, budget))

    @cached_property
    def radical(self) -> list[Word]:
        return _radical_set(self.words, self.space.q)


def _enumerated(obj, budget: int) -> Codewords:
    """``obj`` if it is an enumeration (after the budget check), else a fresh one."""
    if isinstance(obj, Codewords):
        check_budget(obj.space.q**obj.space.dim_f, budget, "codeword enumeration")
        return obj
    return Codewords(obj, budget)


def _log_size(count: int, q: int) -> int:
    m = 0
    while q**m < count:
        m += 1
    if q**m != count:
        raise AssertionError(f"set size {count} is not a power of {q}")
    return m


def _closure_generators(words: list[Word], q: int) -> list[Word]:
    """A spanning subset found by growing a closure set, scanning in order."""
    width = len(words[0]) if words else 0
    zero = tuple([0] * width)
    spanned = {zero}
    gens: list[Word] = []
    for w in words:
        if w in spanned:
            continue
        gens.append(w)
        extra = set()
        for s in spanned:
            for c in range(1, q):
                extra.add(tuple((s[j] + c * w[j]) % q for j in range(width)))
        spanned |= extra
    return gens


def _radical_set(words: list[Word], q: int) -> list[Word]:
    gens = _closure_generators(words, q)
    return [v for v in words if all(_form(v, g, q) == 0 for g in gens)]


def _dim_irk_of_set(
    words: list[Word], q: int, radical: list[Word] | None = None
) -> tuple[int, int]:
    dim_f = _log_size(len(words), q)
    rad_dim = _log_size(len(_radical_set(words, q) if radical is None else radical), q)
    pairs = (dim_f - rad_dim) // 2
    return pairs, pairs + rad_dim


def brute_min_distance(space, budget: int = DEFAULT_BUDGET) -> int | None:
    """Least weight over codewords outside the radical, by full scan."""
    enum = _enumerated(space, budget)
    rad = set(enum.radical)
    best = None
    for w in enum.words:
        if w in rad:
            continue
        wt = _weight(w)
        if best is None or wt < best:
            best = wt
    return best


def brute_weight_distribution(space, budget: int = DEFAULT_BUDGET) -> list[int]:
    enum = _enumerated(space, budget)
    counts = [0] * (enum.space.n + 1)
    for w in enum.words:
        counts[_weight(w)] += 1
    return counts


def brute_binomial_moments(space, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Moments by counting codewords inside each support, one support at a time."""
    from itertools import combinations

    enum = _enumerated(space, budget)
    n = enum.space.n
    words = enum.words
    check_budget(2**n * max(len(words), 1), budget, "support scan")
    masks = [_support_mask(w) for w in words]
    moments = [0] * (n + 1)
    for b in range(n + 1):
        for combo in combinations(range(n), b):
            jmask = 0
            for j in combo:
                jmask |= 1 << j
            moments[b] += sum(1 for m in masks if m & ~jmask == 0)
    return moments


def brute_alpha_beta(space, supports, budget: int = DEFAULT_BUDGET) -> list[tuple[int, int]]:
    """(alpha, beta) for each support, by membership filtering and counting.

    The codewords and the radical's codewords, with their support masks, are
    enumerated once; each support then filters both sets and counts.
    """
    enum = _enumerated(space, budget)
    q = enum.space.q
    words = [(w, _support_mask(w)) for w in enum.words]
    rad = [(w, _support_mask(w)) for w in enum.radical]
    out = []
    for support in supports:
        jmask = 0
        for j in support:
            jmask |= 1 << int(j)
        inside = [w for w, mask in words if mask & ~jmask == 0]
        rad_inside = [w for w, mask in rad if mask & ~jmask == 0]
        pairs, irk = _dim_irk_of_set(inside, q)
        _, rad_irk = _dim_irk_of_set(rad_inside, q)
        out.append((pairs, irk - rad_irk))
    return out


def brute_sym_dim_irk(space, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(pair count, isorank) of a whole subspace by the counting route."""
    enum = _enumerated(space, budget)
    return _dim_irk_of_set(enum.words, enum.space.q, enum.radical)


def brute_codeword_set(space, budget: int = DEFAULT_BUDGET) -> set[Word]:
    return set(_enumerated(space, budget).words)
