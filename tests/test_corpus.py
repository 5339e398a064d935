"""A differential corpus over every field: one pinned sha256 per operation.

Seeded spaces over q in {2, 3, 5, 7} on n <= 20 factors (spans of random
rows, stabilizer codes, and isotropic spaces widened by random rows) go
through each row-algebra operation of the library, and each operation's
outputs are hashed in a fixed order.  The hashes were taken at commit
2e134b83eb49a3443af6e6dfc8cee4fc5544f044, before the span routines of the
two fields moved behind one field object; a change of implementation must
leave every one of them as it is.  When a hash moves, the operation named
by the failing case is the one whose output changed.
"""

import hashlib

import numpy as np
import pytest

from qsymp.anticodes import (
    Anticode,
    complementarity_check,
    intersect_with_anticode,
    puncture,
    s_prime_decompose,
    shorten,
    verify_cleaning,
)
from qsymp.codes import check_commuting, random_isotropic, stabilizer_code_from_isotropic
from qsymp.errors import CommutationError
from qsymp.symplectic import Subspace

PINNED = {
    "and": "0a64c7efa9d0553ca31818d14178b077f933f798e3358a384f793b07ce94b236",
    "anticode-parts": "f2cfe3aa0aa8b18888bc2cdb304f05973d201d85e258dd5a2a598230eb89b545",
    "canonical": "67d6e30cc78dbfb71235f732a666d98a873bec70afb5396a8979a53872fc1410",
    "check-commuting": "65c231b53a88540340060434d03b044fbb65c56c6d0b26b57395ed46f5e8f562",
    "cleaning": "bba16742410ace701c179b9316653afbafdfd4d59a46b8b23a1268d0a5712556",
    "complementarity": "3910a877b7c048c194e21411e8d0dea688d448168c450010debf51ef41142881",
    "gram": "84986969b7f1514eea7a1b14ae385e2fd0e6dc2bbe913e18cd7ef9c270649edb",
    "perp": "ac5b35f045a777e133c2505ea4d72c481fd1a3d9b8446fb009eb851d57eaab92",
    "puncture": "1e94e262e16ab445a6ae6c278c29a292e771b6cc6fd7839791afcffbc0eb8881",
    "radical": "35c9ce80fc0af3d79878e4c2a9539f34789d79ee490f0ce7a7a2c359a55f41a3",
    "s-prime-bad": "644813d1ab80f976c0918cc64d77e13b9f22c6964a8438b875bfcbd011d2857a",
    "s-prime-given": "a5e44ade49ad6bee4d1c6e68bc710751df55c6f9df6aa836a02d0ab5a58f8b9d",
    "s-prime-shuffled": "cebf826736a7ed9e4b025b726e7d6ab9b6c088d37fc8702dc3725fb7ea9f6efc",
    "shorten": "dc37653768d7719582ffb3689ebca12be8a86570115fdaae63ee78f2d28ba1e9",
    "sum": "9556015c6663f12e34079df872b7d50c2bac9634cbac3f38411a7bcfcc10f899",
}

FIELDS = (2, 3, 5, 7)
SIZES = (1, 2, 3, 5, 8, 13, 20)


def _key(space):
    return (space.q, space.n, space.basis.tolist())


def _cases():
    """(label, raw rows, space) for each field and size.

    The spaces are a span of random rows, a stabilizer code, and an
    isotropic space widened by random rows.
    """
    rng = np.random.default_rng(20261018)
    for q in FIELDS:
        for n in SIZES:
            rows = rng.integers(0, q, size=(int(rng.integers(0, 2 * n + 2)), 2 * n))
            yield "span", rows, Subspace(rows, q, n)
            iso = random_isotropic(rng, q, n, int(rng.integers(0, n + 1)))
            yield "stabilizer", iso.basis, iso.perp()
            extra = rng.integers(0, q, size=(int(rng.integers(1, 3)), 2 * n))
            rows = np.vstack([iso.basis, extra])
            yield "widened", rows, Subspace(rows, q, n)


def _supports(rng, n):
    picked = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    scatter = frozenset(int(j) for j in picked)
    return [frozenset(), frozenset(range(n)), frozenset(range(0, n, 2)), scatter]


def _error(call):
    try:
        return ("ok", call())
    except (ValueError, CommutationError) as exc:
        return (type(exc).__name__, str(exc))


def _outputs():
    """Each operation's outputs, in a fixed order."""
    out = {name: [] for name in PINNED}
    rng = np.random.default_rng(7)
    previous = {}
    for label, rows, space in _cases():
        q, n = space.q, space.n
        out["canonical"].append((label, _key(space), space.dim_f))
        other = previous.get((q, n), Subspace.zero(q, n))
        previous[(q, n)] = space
        out["and"].append([_key(space & other), _key(other & space)])
        out["sum"].append([_key(space + other), _key(other + space)])
        out["perp"].append(_key(space.perp()))
        rad = space.radical()
        out["radical"].append(_key(rad))
        gram = space._field.unpack(space._field.gram(space._rows), space.dim_f)
        out["gram"].append((gram.tolist(), space.sym_dim, space.isorank))
        out["check-commuting"].append(
            [
                _error(lambda: check_commuting(rows, q, n)),
                _error(lambda: check_commuting(rad.basis, q, n)),
                _error(lambda: _key(stabilizer_code_from_isotropic(space).space)),
                _error(lambda: _key(stabilizer_code_from_isotropic(rad).space)),
            ]
        )
        # The radical's rows, redundant and shuffled: combinations, a zero row, a permutation.
        mix = rng.integers(0, q, size=(int(rng.integers(0, 3)), rad.dim_f))
        zero = np.zeros((1, 2 * n), dtype=np.int64)
        shuffled = np.vstack([rad.basis, (mix @ rad.basis) % q, zero])
        shuffled = shuffled[rng.permutation(shuffled.shape[0])]
        # Rows that are not all in the radical (most draws), and rows short of spanning it.
        bad = (np.vstack([rad.basis, rng.integers(0, q, size=(1, 2 * n))]), rad.basis[1:])
        for support in _supports(rng, n):
            a = Anticode(n, support)
            out["anticode-parts"].append(
                [_key(intersect_with_anticode(s, a)) for s in (space, rad, space.perp())]
            )
            out["puncture"].append([_key(puncture(s, a)) for s in (space, space.perp())])
            out["shorten"].append([_key(shorten(s, a)) for s in (space, space.perp())])
            out["cleaning"].append([c.to_dict() for c in verify_cleaning(space, a)])
            out["complementarity"].append(
                [c.to_dict() for c in complementarity_check(space, a)]
                + [c.to_dict() for c in complementarity_check(space, a, radical_rows=shuffled)]
            )
            for name, given in (("s-prime-given", None), ("s-prime-shuffled", shuffled)):
                dec = s_prime_decompose(space, a, radical_rows=given)
                out[name].append([_key(dec.rad_in_a), _key(dec.rad_in_aperp), _key(dec.s_prime)])
            out["s-prime-bad"].append(
                [
                    _error(lambda: _key(s_prime_decompose(space, a, radical_rows=rows).s_prime))
                    for rows in bad
                ]
            )
    return out


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_operation_outputs_are_pinned(outputs, name):
    digest = hashlib.sha256(repr(outputs[name]).encode()).hexdigest()
    assert digest == PINNED[name]
