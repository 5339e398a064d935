"""Literal brute-force reference computations.

Everything here works by enumerating codewords from a basis with a
mixed-radix counter and then counting, filtering, or pairing set elements.
No Gaussian elimination, no rank arguments: dimensions come from logarithms
of set sizes, radicals come from filtering on the product, and spanning
sets come from incremental closure by enumeration.  The point is
independence from the fast paths, which these functions exist to check.

The counter, :func:`enumerate_codewords`, yields one tuple per word.  A
:class:`Codewords` stores its words once as the rows of an int64 array, and
the routes count on it with whole-array operations; the closure still grows
by enumerating each new generator's multiples, and the moments and
alpha/beta still count the words inside each support, one at a time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .anticodes import _space_of
from .errors import DEFAULT_BUDGET, check_budget

Word = tuple[int, ...]


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

    ``words`` holds the codewords, in counter order, as the rows of one
    (q**dim_F x 2n) int64 array; ``occupied`` marks each row's nonzero
    factors and ``weights`` counts them.  Every brute route accepts one in
    place of a space; it still checks the budget against the full
    enumeration cost, as it would if it enumerated.  The radical's rows are
    filtered out on first use.
    """

    def __init__(self, space, budget: int = DEFAULT_BUDGET):
        self.space = _space_of(space)
        flat = np.fromiter(chain.from_iterable(enumerate_codewords(self.space, budget)), np.int64)
        self.words = flat.reshape(self.space.q**self.space.dim_f, 2 * self.space.n)
        self.occupied = (self.words[:, 0::2] != 0) | (self.words[:, 1::2] != 0)
        self.weights = self.occupied.sum(axis=1)

    @cached_property
    def radical(self) -> np.ndarray:
        """Which rows lie in the radical, as a boolean row mask."""
        return _radical(self.words, self.space.q)


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


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous int64 array, as hashable set keys."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _closure_generators(words: np.ndarray, q: int) -> np.ndarray:
    """A spanning subset of the rows, found by growing a closure set in scan order.

    A row outside the span so far becomes a generator and adds the words
    span + c * row, c = 1..q-1, to the span as one block.
    """
    span = np.zeros((1, words.shape[1]), dtype=np.int64)
    spanned = set(_row_keys(span))
    gens = []
    for i, key in enumerate(_row_keys(words)):
        if key in spanned:
            continue
        gens.append(i)
        steps = np.arange(1, q, dtype=np.int64)[:, None, None] * words[i]
        block = ((span + steps) % q).reshape(-1, words.shape[1])
        spanned.update(_row_keys(block))
        span = np.concatenate([span, block])
    return words[gens]


def _radical(words: np.ndarray, q: int) -> np.ndarray:
    """Which rows have product 0 with every closure generator, as a boolean row mask."""
    gens = _closure_generators(words, q)
    # (u, g) = sum_i u_x g_z - u_z g_x: u against g with each factor's two entries swapped.
    twisted = np.empty_like(gens)
    twisted[:, 0::2], twisted[:, 1::2] = gens[:, 1::2], -gens[:, 0::2]
    return ~((words @ twisted.T) % q).any(axis=1)


def _dim_irk_of_set(
    words: np.ndarray, q: int, radical: np.ndarray | None = None
) -> tuple[int, int]:
    dim_f = _log_size(len(words), q)
    if radical is None:
        radical = _radical(words, q)
    rad_dim = _log_size(int(np.count_nonzero(radical)), q)
    pairs = (dim_f - rad_dim) // 2
    return pairs, pairs + rad_dim


def _inside(occupied: np.ndarray, support) -> np.ndarray:
    """Which rows have every nonzero factor in ``support``, as a boolean row mask."""
    outside = [j for j in range(occupied.shape[1]) if j not in support]
    return ~occupied[:, outside].any(axis=1)


def brute_min_distance(space, budget: int = DEFAULT_BUDGET) -> int | None:
    """Least weight over codewords outside the radical, by full scan."""
    enum = _enumerated(space, budget)
    weights = enum.weights[~enum.radical]
    return int(weights.min()) if len(weights) else None


def brute_weight_distribution(space, budget: int = DEFAULT_BUDGET) -> list[int]:
    enum = _enumerated(space, budget)
    return np.bincount(enum.weights, minlength=enum.space.n + 1).tolist()


def brute_binomial_moments(space, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Moments by counting codewords inside each support, one support at a time."""
    enum = _enumerated(space, budget)
    n = enum.space.n
    check_budget(2**n * len(enum.words), budget, "support scan")
    return [
        sum(
            int(np.count_nonzero(_inside(enum.occupied, combo)))
            for combo in combinations(range(n), b)
        )
        for b in range(n + 1)
    ]


def brute_alpha_beta(space, supports, budget: int = DEFAULT_BUDGET) -> list[tuple[int, int]]:
    """(alpha, beta) for each support, by membership filtering and counting.

    The codewords and the radical's rows are enumerated once; each support
    then filters both sets and counts.
    """
    enum = _enumerated(space, budget)
    q = enum.space.q
    out = []
    for support in supports:
        inside = _inside(enum.occupied, support)
        pairs, irk = _dim_irk_of_set(enum.words[inside], q)
        _, rad_irk = _dim_irk_of_set(enum.words[inside & enum.radical], q)
        out.append((pairs, irk - rad_irk))
    return out


def brute_sym_dim_irk(space, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(pair count, isorank) of a whole subspace by the counting route."""
    enum = _enumerated(space, budget)
    return _dim_irk_of_set(enum.words, enum.space.q, enum.radical)


def brute_codeword_set(space, budget: int = DEFAULT_BUDGET) -> set[Word]:
    return set(map(tuple, _enumerated(space, budget).words.tolist()))
