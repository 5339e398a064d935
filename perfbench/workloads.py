"""Workload inputs, timed operations and correctness gates.

Inputs are generated from the workload seed with plain numpy, never with
qsymp, so the parent commit and a change see identical raw basis rows.
Each timed operation receives only those rows and builds its own
``Subspace``/``Code`` objects, so no library cache survives from one
operation (or pass) to the next.  Every cross-check that calls the library
again runs in :meth:`Op.gate`, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKLOADS = ("verify-suites", "support-lattice", "codeword-enum", "large-n")

# Fixed here rather than read from qsymp.suites, so that a suite added to the
# library does not silently change the workload.
SUITE_NAMES = (
    "fixtures",
    "identities",
    "stabilizer",
    "bounds",
    "transforms",
    "oracle",
    "macwilliams",
    "cleaning",
)

# The suites draw their instance sizes from their own seed, so the cost of
# `verify --seed s` varies with s far more than any bound allows (2.97 s to
# 4.86 s over seeds 0..11).  The replay therefore always uses the reference
# seed of `verify --suite all --seed 7`; see README.md.
VERIFY_SUITE_SEED = 7


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``digest`` and ``gate`` are not."""

    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    gate: Callable[[Any], list[str]]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# input generation (numpy only)


def _symp(rows: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """Symplectic product of each row with ``v`` (interleaved x/z coordinates)."""
    return (rows[:, 0::2] @ v[1::2] - rows[:, 1::2] @ v[0::2]) % q


def _random_isotropic_rows(rng: np.random.Generator, q: int, n: int, r: int) -> np.ndarray:
    """``r`` independent, pairwise commuting rows, not in canonical form.

    Starts from ``r`` Z-type unit vectors and applies random symplectic
    transvections ``x -> x + c <x, v> v``, which keep rank and commutation,
    then mixes the rows with a random unit-triangular matrix.
    """
    rows = np.zeros((r, 2 * n), dtype=np.int64)
    for i in range(r):
        rows[i, 2 * i + 1] = 1
    for _ in range(4 * n):
        v = rng.integers(0, q, size=2 * n)
        c = int(rng.integers(1, q))
        rows = (rows + c * np.outer(_symp(rows, v, q), v)) % q
    mix = np.tril(rng.integers(0, q, size=(r, r)), -1) + np.eye(r, dtype=np.int64)
    return (mix @ rows) % q


def _random_rows(rng: np.random.Generator, q: int, n: int, m: int) -> np.ndarray:
    return rng.integers(0, q, size=(m, 2 * n)).astype(np.int64)


def _pauli_rows(n: int, terms: list[dict[int, str]]) -> np.ndarray:
    """Rows for Pauli terms given as {qubit: 'X'|'Z'}, over the binary field."""
    rows = np.zeros((len(terms), 2 * n), dtype=np.int64)
    for i, term in enumerate(terms):
        for qubit, letter in term.items():
            rows[i, 2 * qubit + (0 if letter == "X" else 1)] = 1
    return rows


def surface_rows(d: int) -> np.ndarray:
    """Stabilizer generators of the rotated surface code of distance ``d``.

    Plaquette (r, c) acts on the grid qubits among (r..r+1, c..c+1); it is X
    type when r + c is even.  Weight-2 plaquettes are kept on the top and
    bottom edges for X and on the left and right edges for Z: d^2 - 1
    generators of a [[d^2, 1, d]] code.
    """
    terms = []
    for r in range(-1, d):
        for c in range(-1, d):
            cells = [(i, j) for i in (r, r + 1) for j in (c, c + 1) if 0 <= i < d and 0 <= j < d]
            letter = "X" if (r + c) % 2 == 0 else "Z"
            if len(cells) == 2:
                on_rows = r in (-1, d - 1)
                if (letter == "X") != on_rows:
                    continue
            elif len(cells) != 4:
                continue
            terms.append({i * d + j: letter for i, j in cells})
    return _pauli_rows(d * d, terms)


def bacon_shor_gauge_rows(m: int) -> np.ndarray:
    """Gauge generators of the m x m Bacon-Shor code: vertical XX, horizontal ZZ."""
    terms = []
    for i in range(m - 1):
        for j in range(m):
            terms.append({i * m + j: "X", (i + 1) * m + j: "X"})
    for i in range(m):
        for j in range(m - 1):
            terms.append({i * m + j: "Z", i * m + j + 1: "Z"})
    return _pauli_rows(m * m, terms)


def _check_isotropic(rows: np.ndarray, q: int) -> None:
    x, z = rows[:, 0::2], rows[:, 1::2]
    if ((x @ z.T - z @ x.T) % q).any():
        raise RuntimeError("generated stabilizer rows do not commute")


@dataclass
class CodeInput:
    """Raw rows plus how to read them; golden values for the gates."""

    label: str
    q: int
    n: int
    rows: np.ndarray
    role: str  # "stabilizer" (rows span S, code is S-perp) or "gauge"
    golden: dict


def _stabilizer(label, q, n, rows, **golden) -> CodeInput:
    _check_isotropic(rows, q)
    return CodeInput(label, q, n, rows, "stabilizer", golden)


def _gauge(label, q, n, rows, **golden) -> CodeInput:
    return CodeInput(label, q, n, rows, "gauge", golden)


# ---------------------------------------------------------------------------
# building codes inside the timed region


def _build(qs, inp: CodeInput):
    """Fresh objects from raw rows: (code, subsystem or None)."""
    space = qs.Subspace(inp.rows, inp.q, inp.n)
    if inp.role == "stabilizer":
        return qs.stabilizer_code_from_isotropic(space), None
    sub = qs.subsystem_from_gauge(qs.Code(space))
    return sub.normalizer, sub


# ---------------------------------------------------------------------------
# verify-suites


def verify_suites_ops(qs, rng: np.random.Generator) -> list[Op]:
    from qsymp import cli

    def make(name: str) -> Op:
        argv = ["verify", "--suite", name, "--seed", str(VERIFY_SUITE_SEED)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def gate(out):
            rc, text = out
            errs = [] if rc == 0 else [f"exit code {rc}"]
            try:
                if not json.loads(text)["summary"]["pass"]:
                    errs.append("summary.pass is false")
            except (ValueError, KeyError, TypeError) as exc:
                errs.append(f"unreadable report: {exc!r}")
            return errs

        return Op(f"verify:{name}", run, lambda out: _sha(out[0], out[1].encode()), gate)

    return [make(name) for name in SUITE_NAMES]


# ---------------------------------------------------------------------------
# support-lattice


def support_lattice_inputs(rng: np.random.Generator) -> list[CodeInput]:
    return [
        _stabilizer("surface-d3", 2, 9, surface_rows(3), k=1, d=3),
        # The op analyses the normalizer, whose weight-2 gauge operators lie
        # outside its radical, so its distance is 2 (the dressed distance is 3).
        _gauge("bacon-shor-3x3", 2, 9, bacon_shor_gauge_rows(3), d=2),
        _stabilizer("stab-q2-n10", 2, 10, _random_isotropic_rows(rng, 2, 10, 4)),
        _gauge("gauge-q2-n10", 2, 10, _random_rows(rng, 2, 10, 11)),
        _stabilizer("stab-q3-n6", 3, 6, _random_isotropic_rows(rng, 3, 6, 3)),
        _stabilizer("stab-q5-n5", 5, 5, _random_isotropic_rows(rng, 5, 5, 2)),
    ]


def support_lattice_ops(qs, rng: np.random.Generator) -> list[Op]:
    from qsymp import enumerators, invariants

    def make(inp: CodeInput) -> Op:
        def run():
            code, _ = _build(qs, inp)
            table = invariants.invariant_table(code)
            moments = enumerators.binomial_moments(code)
            mac = enumerators.macwilliams_check(code)
            return code, table, moments, mac

        def digest(out):
            _, table, moments, mac = out
            return _sha(table.to_dict(), moments, [c.to_dict() for c in mac])

        def gate(out):
            code, table, _, mac = out
            errs = [f"{c.identity} failed" for c in mac if not c.passed]
            n, k = code.n, code.k
            if not table.theta[n] == table.phi[n] == k:
                errs.append(f"theta[n]={table.theta[n]} phi[n]={table.phi[n]} k={k}")
            if "k" in inp.golden and k != inp.golden["k"]:
                errs.append(f"k={k}, expected {inp.golden['k']}")
            if "d" in inp.golden and table.varphi[:1] != [inp.golden["d"]]:
                errs.append(f"varphi[0]={table.varphi[:1]}, expected d={inp.golden['d']}")
            return errs

        return Op(inp.label, run, digest, gate)

    return [make(inp) for inp in support_lattice_inputs(rng)]


# ---------------------------------------------------------------------------
# codeword-enum


def codeword_enum_inputs(rng: np.random.Generator) -> list[CodeInput]:
    # dim_F = 2n - (stabilizer rows); q^dim_F from 2^17 to 2^19.5.
    return [
        _stabilizer("stab-q2-n10-r2", 2, 10, _random_isotropic_rows(rng, 2, 10, 2)),
        _stabilizer("stab-q2-n10-r1", 2, 10, _random_isotropic_rows(rng, 2, 10, 1)),
        _stabilizer("stab-q2-n9-r1", 2, 9, _random_isotropic_rows(rng, 2, 9, 1)),
        _stabilizer("stab-q3-n7-r2", 3, 7, _random_isotropic_rows(rng, 3, 7, 2)),
        _stabilizer("stab-q5-n5-r2", 5, 5, _random_isotropic_rows(rng, 5, 5, 2)),
    ]


def codeword_enum_ops(qs, rng: np.random.Generator) -> list[Op]:
    from qsymp import enumerators

    def make(inp: CodeInput) -> Op:
        def run():
            code, _ = _build(qs, inp)
            params = code.params()
            w = enumerators.weight_distribution(code)
            polys = enumerators.enumerator_polys(code)
            return code, params, w, polys

        def digest(out):
            _, params, w, polys = out
            return _sha(tuple(params), w, polys)

        def gate(out):
            code, _, w, polys = out
            errs = []
            if w[0] != 1:
                errs.append(f"W[0]={w[0]}")
            if sum(w) != code.q**code.dim_f:
                errs.append(f"sum(W)={sum(w)} != q^dim_F={code.q ** code.dim_f}")
            if polys[1] != w:
                errs.append("full enumerator differs from W")
            from_moments = enumerators.distribution_from_moments(enumerators.binomial_moments(code))
            if w != from_moments:
                errs.append("W differs from the distribution of the binomial moments")
            return errs

        return Op(inp.label, run, digest, gate)

    return [make(inp) for inp in codeword_enum_inputs(rng)]


# ---------------------------------------------------------------------------
# large-n


def large_n_inputs(rng: np.random.Generator) -> list[CodeInput]:
    return [
        _stabilizer("surface-d5", 2, 25, surface_rows(5), k=1),
        _stabilizer("surface-d7", 2, 49, surface_rows(7), k=1),
        _gauge("bacon-shor-5x5", 2, 25, bacon_shor_gauge_rows(5), logical_count=1),
        _gauge("bacon-shor-7x7", 2, 49, bacon_shor_gauge_rows(7), logical_count=1),
        _stabilizer("stab-q2-n96", 2, 96, _random_isotropic_rows(rng, 2, 96, 40)),
        # n=64 (128 columns) is already past the 62-column packing limit; a
        # gauge code at n=96 costs 4 s per op and would leave too few passes.
        _gauge("gauge-q2-n64", 2, 64, _random_rows(rng, 2, 64, 70)),
        _stabilizer("stab-q3-n32", 3, 32, _random_isotropic_rows(rng, 3, 32, 14)),
        _stabilizer("stab-q5-n24", 5, 24, _random_isotropic_rows(rng, 5, 24, 10)),
    ]


def _supports(rng: np.random.Generator, n: int, count: int = 3) -> list[frozenset]:
    sizes = [n // 4, n // 3, n // 2][:count]
    return [frozenset(int(j) for j in rng.choice(n, size=b, replace=False)) for b in sizes]


def large_n_ops(qs, rng: np.random.Generator) -> list[Op]:
    from qsymp import anticodes

    def make(inp: CodeInput, supports: list[frozenset]) -> Op:
        def run():
            code, sub = _build(qs, inp)
            space = code.space
            k, s = code.k, code.s
            perp, rad = space.perp(), space.radical()
            checks, cuts = [], []
            for supp in supports:
                a = anticodes.Anticode(inp.n, supp)
                checks += anticodes.verify_cleaning(space, a)
                checks += anticodes.complementarity_check(space, a)
                cuts.append((anticodes.puncture(space, a), anticodes.shorten(space, a)))
            return code, sub, k, s, perp, rad, checks, cuts

        def digest(out):
            code, sub, k, s, perp, rad, checks, cuts = out
            return _sha(
                k, s, code.space.basis.tobytes(), perp.basis.tobytes(), rad.basis.tobytes(),
                None if sub is None else sub.logical_count,
                [c.to_dict() for c in checks],
                [(p.basis.tobytes(), t.basis.tobytes()) for p, t in cuts],
            )

        def gate(out):
            code, sub, k, s, perp, rad, checks, _ = out
            errs = [f"{c.identity} failed" for c in checks if not c.passed]
            if code.dim_f != k + s:
                errs.append(f"dim_F={code.dim_f} != k+s={k + s}")
            if inp.role == "stabilizer" and s != inp.n:
                errs.append(f"s={s} != n={inp.n} for a stabilizer code")
            if "k" in inp.golden and k != inp.golden["k"]:
                errs.append(f"k={k}, expected {inp.golden['k']}")
            if "logical_count" in inp.golden and sub.logical_count != inp.golden["logical_count"]:
                errs.append(f"logical_count={sub.logical_count}, expected {inp.golden['logical_count']}")
            if perp.dim_f != 2 * inp.n - code.dim_f:
                errs.append(f"dim perp={perp.dim_f} != 2n - dim_F")
            return errs

        return Op(inp.label, run, digest, gate)

    inputs = large_n_inputs(rng)
    return [make(inp, _supports(rng, inp.n)) for inp in inputs]


BUILDERS = {
    "verify-suites": verify_suites_ops,
    "support-lattice": support_lattice_ops,
    "codeword-enum": codeword_enum_ops,
    "large-n": large_n_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    import qsymp

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](qsymp, rng)
