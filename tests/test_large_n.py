"""Pinned outputs of the anticode layer beyond the range of the pinned reports.

The pinned CLI reports stop at n=9.  These cases replay the large-n
benchmark's operations (pair count, isorank, perp, radical, puncture,
shorten, and the cleaning and complementarity checks) on codes with
n=12..70, over supports made of one run, of alternate factors and of a
seeded scatter, and pin the sha256 of every result.  Two binary cases,
surface-d7 (98 columns) and stab-q2-n70 (140 columns), hold rows wider
than one 64-bit word.
"""

import hashlib

import numpy as np
import pytest

from qsymp.anticodes import (
    Anticode,
    complementarity_check,
    puncture,
    shorten,
    verify_cleaning,
)
from qsymp.codes import (
    bacon_shor_code,
    random_isotropic,
    rotated_surface_code,
    stabilizer_code_from_isotropic,
)

# sha256 of _digest(space) for each case: a change of implementation must
# leave them as they are.
PINNED = {
    "surface-d5": "06f27d075d9e99c5de5be1cb45ec0aefb9a548758cd0964810ff78d5456649f7",
    "surface-d7": "6eb4c62ae832a99b9c91fa3805a0899ac4be4fe8a13a38246693956a12df8ea9",
    "bacon-shor-5x5-gauge": "f4c18e31860d05ff9d6f2558320606427d3f5a5f042f44d32e554086d32f4724",
    "bacon-shor-5x5-normalizer": "e6bbd09889e54b8b2afcfcd8cd62fca4a0ad75e59a3a66bb68095cc84728c2b2",
    "stab-q2-n70": "bb6b67fa42fcb0217cdf6bef0caff66cd1bd8138b4aff4c6317fda22af3cd7d8",
    "stab-q3-n16": "fee21e96a2915abb649deeff278ff9cc59aff203769212b7d4897758b24cd075",
    "stab-q5-n12": "2151eecdaacd997a512f73574b63581851956d4d0c50aae2f18c79345a71224d",
}


def _space(name):
    if name in ("surface-d5", "surface-d7"):
        return rotated_surface_code(int(name[-1])).space
    if name == "bacon-shor-5x5-gauge":
        return bacon_shor_code(5).gauge.space
    if name == "bacon-shor-5x5-normalizer":
        return bacon_shor_code(5).normalizer.space
    q, n, dim = {
        "stab-q2-n70": (2, 70, 30),
        "stab-q3-n16": (3, 16, 6),
        "stab-q5-n12": (5, 12, 5),
    }[name]
    rng = np.random.default_rng(20261018)
    return stabilizer_code_from_isotropic(random_isotropic(rng, q, n, dim)).space


def _supports(n):
    rng = np.random.default_rng(n)
    return [
        frozenset(range(n // 4)),
        frozenset(range(0, n, 2)),
        frozenset(int(j) for j in rng.choice(n, size=n // 2, replace=False)),
    ]


def _digest(space):
    h = hashlib.sha256()

    def add(x):
        h.update(repr(x).encode())
        h.update(b"|")

    add((space.q, space.n, space.sym_dim, space.isorank))
    for part in (space, space.perp(), space.radical()):
        add(part.basis.tolist())
    for support in _supports(space.n):
        a = Anticode(space.n, support)
        add(puncture(space, a).basis.tolist())
        add(shorten(space, a).basis.tolist())
        add([c.to_dict() for c in verify_cleaning(space, a) + complementarity_check(space, a)])
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_large_n_outputs_are_pinned(name):
    assert _digest(_space(name)) == PINNED[name]
