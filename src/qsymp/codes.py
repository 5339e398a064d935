"""Codes in the symplectic ambient space, their parameters, and fixtures.

A code is any subspace of the n-factor space.  Its parameters are the
length ``n``, the dimension ``k`` (symplectic pair count), the isorank
``s``, the minimum distance ``d`` (least weight over codewords outside the
radical; undefined when every codeword is radical), and the maximum weight.
Stabilizer codes arise as orthogonal complements of isotropic subspaces;
subsystem codes arise from an arbitrary gauge code.

Distance, maximum weight and the weight distributions of a code and of its
radical all come from one pair of per-weight tables, built by one of three
exact routes chosen from the input size alone: codeword enumeration of a
space of dimension at most n; enumeration of the complement of a larger
space, carried back through the MacWilliams moment identity; and the 2^n
support scan when those words outnumber the supports by more than
:data:`SUPPORT_COST` (balanced odd-q codes only).  The budget caps whichever
cost the chosen route pays.  The oracle suite's ``oracle-distribution``
cross-checks the tables against literal counting, the complement route too.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .enumerators import distance_from_enumerators, distribution_from_dual
from .enumerators import distribution_from_moments
from .errors import DEFAULT_BUDGET, CommutationError, DimensionMismatchError, ParseError, check_budget
from .invariants import support_dims, supported_moments
from .linalg import as_matrix, checked_order
from .symplectic import Subspace, Vector, _factor_pairs, _field

CodeParams = namedtuple("CodeParams", ["n", "k", "s", "d", "maxwt"])

# The weight tables scan the supports when the words to enumerate outnumber
# them by more than this factor; at q=2 they never do (at most 2 * 2^n words).
# At odd q, on 2 CPUs, a support costs 45-150 us (n=3..8) and a codeword 0.4-1.2
# us: break-even at 90-400 words per support at n=3, 4, 70-200 at 5, 25-100 at 6..8.
SUPPORT_COST = 100
_BATCH_SIZE = 1 << 13  # codewords per batch of codeword_batches

PAULI_TO_FACTOR = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
FACTOR_TO_PAULI = {v: k for k, v in PAULI_TO_FACTOR.items()}


def _strip_phase(s: str) -> str:
    """Drop a leading sign and imaginary-unit prefix: the image is phase-blind.

    Only a lowercase ``i`` counts as the phase unit; an uppercase ``I`` is
    the identity letter.
    """
    body = s
    if body[:1] in "+-":
        body = body[1:]
    if body[:1] == "i":
        body = body[1:]
    return body


def pauli_to_vector(s: str) -> Vector:
    """Parse a Pauli word over uppercase I/X/Z/Y into interleaved coordinates (q=2)."""
    word = _strip_phase(s)
    coords = np.zeros(2 * len(word), dtype=np.int64)
    for i, letter in enumerate(word):
        try:
            x, z = PAULI_TO_FACTOR[letter]
        except KeyError:
            raise ParseError(f"unknown Pauli letter {letter!r} in {s!r}") from None
        coords[2 * i] = x
        coords[2 * i + 1] = z
    return coords


def vector_to_pauli(v) -> str:
    """Inverse of :func:`pauli_to_vector`; requires binary coordinates."""
    v = _factor_pairs(v)
    if ((v != 0) & (v != 1)).any():
        raise ValueError("Pauli words exist only over the two-element field")
    return "".join(FACTOR_TO_PAULI[(int(x), int(z))] for x, z in v)


def parse_pauli_text(text: str) -> list[str]:
    """Read one generator per line; '#' starts a comment, blanks are skipped.

    Leading signs/phases (``-``, ``+``, lowercase ``i``) are discarded; the
    letters are uppercase ``I X Z Y``, so a lowercase letter is refused.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_phase(raw.split("#", 1)[0].strip())
        if not line:
            continue
        if (bad := next((c for c in line if c not in PAULI_TO_FACTOR), None)) is not None:
            raise ParseError(f"unknown Pauli letter {bad!r}", line=lineno)
        out.append(line)
    lengths = {len(s) for s in out}
    if len(lengths) > 1:
        raise ParseError(f"generators have inconsistent lengths {sorted(lengths)}")
    return out


def from_pauli(generators: list[str]) -> Subspace:
    """Span of the parsed generators, canonicalized, over the binary field."""
    if not generators:
        raise ValueError("cannot infer the factor count from an empty generator list")
    lengths = {len(s) for s in generators}
    if len(lengths) > 1:
        raise ParseError(f"generators have inconsistent lengths {sorted(lengths)}")
    rows = np.array([pauli_to_vector(s) for s in generators], dtype=np.int64)
    return Subspace(rows, 2, len(generators[0]))


class Code:
    """A subspace regarded as a code, with lazily computed parameters."""

    def __init__(self, space: Subspace):
        self.space = space
        self._weight_tables_cache: tuple[list[int], list[int]] | None = None

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def dim_f(self) -> int:
        return self.space.dim_f

    @property
    def k(self) -> int:
        return self.space.sym_dim

    @property
    def s(self) -> int:
        return self.space.isorank

    def dual(self) -> "Code":
        return Code(self.space.perp())

    def radical_space(self) -> Subspace:
        return self.space.radical()

    def is_stabilizer(self) -> bool:
        return self.space.is_stabilizer()

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self.space == other.space

    def __hash__(self) -> int:
        return hash(("Code", self.space))

    def __repr__(self) -> str:
        return f"Code(q={self.q}, n={self.n}, dim_f={self.dim_f})"

    def _weight_tables(self, budget: int) -> tuple[list[int], list[int]]:
        """Counts of codewords by weight: (all, radical), as Python ints.

        :func:`weights_from_codewords`, or :func:`weights_from_supports` past
        :data:`SUPPORT_COST`.  The budget is checked against the chosen
        route's cost on every call, cached or not.
        """
        words = sum(v.q**v.dim_f for v in _enumerated_sides(self.space))
        by_supports = words > SUPPORT_COST * 2**self.n
        if by_supports:
            check_budget(2**self.n, budget, "support scan")
        else:
            check_budget(words, budget, "codeword enumeration")
        if self._weight_tables_cache is None:
            route = weights_from_supports if by_supports else weights_from_codewords
            self._weight_tables_cache = route(self.space, budget)
        return self._weight_tables_cache

    def distance(self, budget: int = DEFAULT_BUDGET) -> int | None:
        """Exact minimum distance; None when no codeword counts.

        The least weight at which the code has more codewords than its
        radical, read from the weight tables (by either route).  Isotropic
        codes, where every codeword is radical, skip the tables entirely.
        """
        if self.space.is_isotropic():
            return None
        all_counts, rad_counts = self._weight_tables(budget)
        return distance_from_enumerators(rad_counts, all_counts)

    def max_weight(self, budget: int = DEFAULT_BUDGET) -> int:
        if self.dim_f == 0:
            return 0
        all_counts, _ = self._weight_tables(budget)
        return max(w for w, count in enumerate(all_counts) if count)

    def params(self, budget: int = DEFAULT_BUDGET) -> CodeParams:
        return CodeParams(self.n, self.k, self.s, self.distance(budget), self.max_weight(budget))


def codeword_batches(space: Subspace, budget: int = DEFAULT_BUDGET):
    """Yield ``(coefficient_digits, codewords)`` arrays covering the space once.

    Codeword ``i`` has mixed-radix coefficient digits of ``i`` (least
    significant first) against the canonical basis, so the order is
    deterministic.  Refuses to start if ``q ** dim_f`` exceeds the budget.
    """
    q, k = space.q, space.dim_f
    total = q**k
    check_budget(total, budget, "codeword enumeration")
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(0, total, _BATCH_SIZE):
        idx = np.arange(start, min(start + _BATCH_SIZE, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % q
        yield digits, (digits @ space.basis) % q


def _enumerated_sides(space: Subspace) -> set[Subspace]:
    """For the space and for its radical, itself or its complement, whichever has dim_f <= n."""
    return {v if v.dim_f <= v.n else v.perp() for v in (space, space.radical())}


def weights_from_codewords(
    space: Subspace, budget: int = DEFAULT_BUDGET
) -> tuple[list[int], list[int]]:
    """Weight tables (all, radical) from the codewords of :func:`_enumerated_sides`.

    A table counted on a complement is carried back by :func:`distribution_from_dual`.
    """
    n = space.n
    counts = {}
    for side in _enumerated_sides(space):
        total = np.zeros(n + 1, dtype=np.int64)
        for _digits, words in codeword_batches(side, budget):
            weights = (words.reshape(words.shape[0], n, 2) != 0).any(axis=2).sum(axis=1)
            total += np.bincount(weights, minlength=n + 1)
        counts[side] = total.tolist()
    return tuple(
        counts[v] if v.dim_f <= n else distribution_from_dual(counts[v.perp()], v.q, v.dim_f)
        for v in (space, space.radical())
    )


def weights_from_supports(
    space: Subspace, budget: int = DEFAULT_BUDGET
) -> tuple[list[int], list[int]]:
    """Weight tables (all, radical) from the space's 2^n support table.

    The b-th binomial moment sums ``q**dim`` of the supported part over the
    supports of size b; the weight distribution is its inverse binomial
    transform, and the radical's supported dimensions give the radical's
    distribution the same way.  No codeword is built, so ``q**dim_f`` is not
    capped by the budget; only the support scan is.
    """
    table = support_dims(space, budget)
    return (
        distribution_from_moments(supported_moments(table.dim, space.q)),
        distribution_from_moments(supported_moments(table.rad, space.q)),
    )


def check_commuting(rows, q: int, n: int) -> None:
    """Reject generators with a nonzero pairwise product, naming them in input order.

    Raises :class:`CommutationError` for the first pair ``i < j`` (by
    ``i``, then ``j``) of the given rows that do not commute: the first
    nonzero entry of the field's Gram matrix of the rows, which is alternating.
    """
    field = _field(checked_order(q, n), n)
    rows = as_matrix(rows, q, cols=2 * n)
    if rows.shape[1] != 2 * n:
        raise DimensionMismatchError(f"rows of {rows.shape[1]} coordinates on {n} factors")
    rows = field.pack(rows)
    gram = field.unpack(field.gram(rows), len(rows))
    bad = np.argwhere(gram)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise CommutationError(i, j, int(gram[i, j]))


def stabilizer_code_from_isotropic(s: Subspace) -> Code:
    """The code whose radical is exactly ``s``: its orthogonal complement.

    Rejects non-isotropic input, naming the first offending pair of
    canonical basis rows of ``s`` (call :func:`check_commuting` on the
    input's own generators to name those instead).  The space's own Gram
    rows decide; the rows' Gram matrix is built only to name the pair.
    """
    if not s.is_isotropic():
        check_commuting(s.basis, s.q, s.n)
    return Code(s.perp())


@dataclass(frozen=True)
class SubsystemCode:
    """Gauge code plus the derived stabilizer and normalizer."""

    gauge: Code
    stabilizer: Subspace
    normalizer: Code
    logical_count: int


def subsystem_from_gauge(gauge: Code | Subspace) -> SubsystemCode:
    """Derive the subsystem structure of an arbitrary gauge code.

    The stabilizer is the gauge's radical and the normalizer is the
    stabilizer's complement; the logical count is the normalizer's pair
    count minus the gauge's.
    """
    d = gauge if isinstance(gauge, Code) else Code(gauge)
    stab = d.space.radical()
    normalizer = Code(stab.perp())
    return SubsystemCode(
        gauge=d,
        stabilizer=stab,
        normalizer=normalizer,
        logical_count=normalizer.space.sym_dim - d.space.sym_dim,
    )


# Named fixture codes used throughout the test-suite and the demos.

REPETITION_STABILIZERS = ("ZZ",)
SHOR_STABILIZERS = (
    "ZZIIIIIII",
    "IZZIIIIII",
    "IIIZZIIII",
    "IIIIZZIII",
    "IIIIIIZZI",
    "IIIIIIIZZ",
    "XXXXXXIII",
    "IIIXXXXXX",
)


def repetition_code() -> Code:
    """The two-factor bit-flip repetition code, a [[2,1,1]] stabilizer code."""
    return stabilizer_code_from_isotropic(from_pauli(list(REPETITION_STABILIZERS)))


def _span_of_terms(n: int, terms: list[dict[int, str]]) -> Subspace:
    """Span over the binary field of Pauli terms given as ``{factor: letter}``."""
    rows = [pauli_to_vector("".join(term.get(j, "I") for j in range(n))) for term in terms]
    return Subspace(rows, 2, n)


def rotated_surface_code(d: int) -> Code:
    """The rotated surface code of distance ``d``, a [[d^2, 1, d]] stabilizer code.

    Factor i * d + j sits at (i, j) of a d x d grid.  Plaquette (r, c), for
    r, c in -1..d-1, acts on the grid factors among (r..r+1, c..c+1) and is
    X type when r + c is even.  Weight-2 plaquettes are kept on the top and
    bottom edges for X and on the left and right edges for Z: d^2 - 1
    generators.
    """
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    terms = []
    for r in range(-1, d):
        for c in range(-1, d):
            cells = [(i, j) for i in (r, r + 1) for j in (c, c + 1) if 0 <= i < d and 0 <= j < d]
            letter = "X" if (r + c) % 2 == 0 else "Z"
            if len(cells) == 2:
                if (letter == "X") != (r in (-1, d - 1)):
                    continue
            elif len(cells) != 4:
                continue
            terms.append({i * d + j: letter for i, j in cells})
    return stabilizer_code_from_isotropic(_span_of_terms(d * d, terms))


def bacon_shor_code(m: int = 2) -> SubsystemCode:
    """The m x m Bacon-Shor subsystem code: m^2 factors, one logical pair.

    Factor i * m + j sits at (i, j) of the grid; the gauge generators are XX
    on horizontal neighbours and ZZ on vertical neighbours.  The default is
    the [[4,1,2]] code.
    """
    if m < 1:
        raise ValueError(f"grid side must be at least 1, got {m}")
    terms = [{i * m + j: "X", i * m + j + 1: "X"} for i in range(m) for j in range(m - 1)]
    terms += [{i * m + j: "Z", (i + 1) * m + j: "Z"} for i in range(m - 1) for j in range(m)]
    return subsystem_from_gauge(_span_of_terms(m * m, terms))


def shor_code() -> Code:
    """The nine-factor Shor code, a [[9,1,3]] stabilizer code."""
    return stabilizer_code_from_isotropic(from_pauli(list(SHOR_STABILIZERS)))


def shor_stabilizer_rows() -> np.ndarray:
    """The eight Shor stabilizer generators in their conventional order."""
    return np.array([pauli_to_vector(s) for s in SHOR_STABILIZERS], dtype=np.int64)


def random_subspace(rng: np.random.Generator, q: int, n: int, rows: int | None = None) -> Subspace:
    """Span of uniformly random rows (so the resulting dimension varies)."""
    if rows is None:
        rows = int(rng.integers(0, 2 * n + 1))
    return Subspace(rng.integers(0, q, size=(rows, 2 * n)), q, n)


def random_code(rng: np.random.Generator, q: int, n: int) -> Code:
    return Code(random_subspace(rng, q, n))


def random_isotropic(rng: np.random.Generator, q: int, n: int, dim_f: int | None = None) -> Subspace:
    """A random isotropic subspace, grown one orthogonal vector at a time."""
    if dim_f is None:
        dim_f = int(rng.integers(0, n + 1))
    if dim_f > n:
        raise ValueError(f"isotropic dimension {dim_f} exceeds the bound {n}")
    s = Subspace.zero(q, n)
    while s.dim_f < dim_f:
        room = s.perp()
        coeffs = rng.integers(0, q, size=room.dim_f)
        v = (coeffs @ room.basis) % q
        if not v.any() or v in s:
            continue
        s = s + Subspace(v.reshape(1, -1), q, n)
    return s


def random_stabilizer_code(rng: np.random.Generator, n: int, q: int = 2) -> Code:
    """A random stabilizer code: the complement of a random isotropic space."""
    return stabilizer_code_from_isotropic(random_isotropic(rng, q, n))
