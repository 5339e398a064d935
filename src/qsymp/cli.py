"""Command-line front end.

Subcommands: ``analyze``, ``import`` (``analyze``'s report, or with
``--emit`` the canonical basis as matrix text or Paulis), ``invariants``,
``enumerator``, ``moments``, ``puncture``, and ``verify``.  :func:`main`
resolves the budget and, for every subcommand but ``verify``, loads the
one input (Pauli, JSON, matrix text or a fixture) before the subcommand
runs; a ``--n``, JSON ``role`` or matrix row count that contradicts the
input is refused.  JSON is the contract format and is emitted with sorted
keys so identical inputs produce byte-identical reports; CSV and the
aligned tables are presentation only.  User-facing factor indices are
1-based.

Exit codes: 0 all good, 1 an identity check failed, 2 the step budget was
exceeded (``{"error": "budget-exceeded", ...}`` on stderr), 3 malformed
input or a usage error, such as a ``--format`` the subcommand does not
print or a negative ``--trials`` (``{"error": "input", ...}`` on stderr).
Every library error is one of these two.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import enumerators as en
from . import invariants as iv
from .anticodes import Anticode, puncture as puncture_op, shorten as shorten_op
from .codes import (
    Code,
    SubsystemCode,
    bacon_shor_code,
    check_commuting,
    parse_pauli_text,
    pauli_to_vector,
    repetition_code,
    shor_code,
    stabilizer_code_from_isotropic,
    subsystem_from_gauge,
    vector_to_pauli,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CommutationError,
    DimensionMismatchError,
    ParseError,
)
from .linalg import matrix_from_text, matrix_to_text
from .report import jsonable
from .suites import SUITE_NAMES, run_suites
from .symplectic import Subspace

FIXTURES = {"repetition": repetition_code, "bacon-shor": bacon_shor_code, "shor": shor_code}
ROLES = ("stabilizer", "gauge", "code")


def _dump(data: dict) -> str:
    return json.dumps(jsonable(data), indent=2, sort_keys=True)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _default_budget() -> int:
    env = os.environ.get("QSYMP_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"QSYMP_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ParseError`, so they exit 3 like any input error."""

    def error(self, message):
        raise ParseError(message)


def _add_common(parser, formats=("json", "csv", "table"), with_input: bool = True) -> None:
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration step budget (default: QSYMP_BUDGET or 2^24)")
    parser.add_argument("--format", choices=formats, default="json")
    if with_input:
        group = parser.add_argument_group("code input")
        group.add_argument("--pauli", metavar="FILE", help="Pauli generator file ('-' for stdin)")
        group.add_argument("--json", dest="json_file", metavar="FILE",
                           help="subspace/code JSON file ('-' for stdin)")
        group.add_argument("--matrix", metavar="FILE",
                           help="matrix text file: header 'q rows cols' then rows")
        group.add_argument("--fixture", choices=FIXTURES, help="a named built-in code")
        group.add_argument("--as", dest="role", choices=ROLES,
                           default=None, help="how to interpret the input generators")
        group.add_argument("--n", type=int, default=None,
                           help="factor count: required for an empty generator list, "
                                "checked against any other input")


def _load(args) -> tuple[Code | SubsystemCode, str]:
    """Build the requested object from whichever input option was given."""
    inputs = {"pauli": args.pauli, "json": args.json_file, "matrix": args.matrix,
              "fixture": args.fixture}
    given = [(kind, name) for kind, name in inputs.items() if name]
    if len(given) != 1:
        raise ParseError("exactly one of --pauli/--json/--matrix/--fixture is required")
    (kind, name), = given
    role = args.role or "code"
    if kind == "fixture":
        if args.role is not None:
            raise ParseError("--as cannot be combined with --fixture")
        obj = FIXTURES[name]()
    else:
        if kind == "pauli":
            generators = parse_pauli_text(_read_text(name))
            if not generators and args.n is None:
                raise ParseError("empty generator list: pass --n to fix the factor count")
            rows = [pauli_to_vector(g) for g in generators]
            space = Subspace(rows, 2, None if generators else args.n)
        elif kind == "json":
            data = json.loads(_read_text(name))
            if not isinstance(data, dict):
                raise ParseError("top-level JSON value must be an object")
            space = Subspace.from_json_dict(data)
            rows = data["basis"]
            file_role = data.get("role", "code")
            if file_role not in ROLES:
                raise ParseError(f"unknown role {file_role!r}: expected one of {', '.join(ROLES)}")
            role = args.role or file_role
        else:
            rows, q = matrix_from_text(_read_text(name))
            space = Subspace(rows, q, args.n)
        if role == "stabilizer":
            # Name the input's generators, not the rows of the canonical basis.
            check_commuting(rows, space.q, space.n)
            obj = stabilizer_code_from_isotropic(space)
        elif role == "gauge":
            obj = subsystem_from_gauge(Code(space))
        else:
            obj = Code(space)
    n = _normalizer_of(obj).n
    if args.n not in (None, n):
        raise ParseError(f"--n {args.n} disagrees with the input's {n} factors")
    return obj, f"{kind}:{name}"


def _normalizer_of(obj: Code | SubsystemCode) -> Code:
    return obj.normalizer if isinstance(obj, SubsystemCode) else obj


def _parse_support(text: str, n: int) -> Anticode:
    """Comma-separated 1-based factor indices; empty string means no factors."""
    text = text.strip()
    if not text:
        return Anticode(n, frozenset())
    try:
        indices = [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"bad support {text!r}: expected comma-separated integers") from None
    for i in indices:
        if not 1 <= i <= n:
            raise ParseError(f"support index {i} outside 1..{n}")
    return Anticode(n, frozenset(i - 1 for i in indices))


def _emit_rows(rows: list[tuple], header: tuple, fmt: str) -> None:
    """Print ``rows`` under ``header`` as CSV or as an aligned table."""
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return
    cells = [tuple(str("" if x is None else x) for x in row) for row in [header, *rows]]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _enumerators_dict(code: Code, budget: int) -> dict:
    a_poly, b_poly = en.enumerator_polys(code, budget)
    return {
        "W": en.weight_distribution(code, budget),
        "B": en.binomial_moments(code, budget),
        "A_poly": a_poly,
        "B_poly": b_poly,
    }


def cmd_analyze(args, obj, source: str, budget: int) -> int:
    """``analyze`` and ``import``: the parameter report, or the canonical basis with ``--emit``."""
    code = _normalizer_of(obj)
    if args.emit == "matrix":
        sys.stdout.write(matrix_to_text(code.space.basis, code.q))
        return 0
    if args.emit == "pauli":
        for row in code.space.basis:
            print(vector_to_pauli(row))
        return 0
    p = code.params(budget)
    params = {"n": p.n, "k_sym": p.k, "s": p.s, "d": p.d, "maxwt": p.maxwt}
    report = {
        "source": source,
        "q": code.q,
        "n": code.n,
        "kind": "subsystem" if isinstance(obj, SubsystemCode) else "code",
        "params": params,
        "basis": code.space.basis.tolist(),
    }
    if isinstance(obj, SubsystemCode):
        gp = obj.gauge.params(budget)
        params["logical_count"] = obj.logical_count
        params["gauge"] = {"k_sym": gp.k, "s": gp.s, "dim_f": obj.gauge.dim_f}
        params["stabilizer_dim_f"] = obj.stabilizer.dim_f
        report["stabilizer_basis"] = obj.stabilizer.basis.tolist()
        report["gauge_basis"] = obj.gauge.space.basis.tolist()
    if args.full:
        report["invariants"] = iv.invariant_table(code, budget).to_dict()
        report["enumerators"] = _enumerators_dict(code, budget)
        report["verification"] = [
            c.to_dict()
            for c in iv.verify_bounds(code, budget) + en.macwilliams_check(code, budget)
        ]
    if args.format == "json":
        print(_dump(report))
    else:
        rows = sorted((k, v) for k, v in params.items() if not isinstance(v, dict))
        _emit_rows(rows, ("parameter", "value"), args.format)
    return 0


def cmd_invariants(args, obj, source: str, budget: int) -> int:
    table = iv.invariant_table(_normalizer_of(obj), budget)
    if args.format == "json":
        print(_dump({"source": source, "invariants": table.to_dict()}))
    else:
        print(table.format_table())
    return 0


def cmd_enumerator(args, obj, source: str, budget: int) -> int:
    data = {"source": source, **_enumerators_dict(_normalizer_of(obj), budget)}
    if args.format == "json":
        print(_dump(data))
    else:
        a_poly, b_poly = data["A_poly"], data["B_poly"]
        print(f"A(x, y) = {en.format_enumerator(a_poly)}")
        print(f"B(x, y) = {en.format_enumerator(b_poly)}")
        d = en.distance_from_enumerators(a_poly, b_poly)
        print(f"trailing degree of B - A: {'-' if d is None else d}")
    return 0


def cmd_moments(args, obj, source: str, budget: int) -> int:
    code = _normalizer_of(obj)
    data = {"source": source, "B": en.binomial_moments(code, budget)}
    rc = 0
    if args.check_macwilliams:
        checks = en.macwilliams_check(code, budget)
        data["macwilliams"] = [c.to_dict() for c in checks]
        rc = 0 if all(c.passed for c in checks) else 1
    if args.format == "json":
        print(_dump(data))
    else:
        _emit_rows(list(enumerate(data["B"])), ("b", "moment"), args.format)
        for c in data.get("macwilliams", []):
            print(f"{c['identity']}: {'pass' if c['pass'] else 'FAIL'}")
    return rc


def cmd_puncture(args, obj, source: str, budget: int) -> int:
    code = _normalizer_of(obj)
    a = _parse_support(args.support, code.n)
    data = {
        "source": source,
        "support": sorted(i + 1 for i in a.support),
        "puncture": puncture_op(code, a).to_json_dict(),
        "shorten": shorten_op(code, a).to_json_dict(),
    }
    print(_dump(data))
    return 0


def cmd_verify(args, budget: int) -> int:
    report = run_suites(suite=args.suite, seed=args.seed, budget=budget, trials=args.trials)
    if args.format == "json":
        print(_dump(report))
    else:
        rows = [
            (
                section["name"],
                c["identity"],
                "pass" if c["pass"] else "FAIL",
                c.get("lhs", c.get("checked")),
                c.get("rhs", c.get("failures")),
            )
            for section in report["sections"]
            for c in section["checks"]
        ]
        _emit_rows(rows, ("suite", "identity", "status", "lhs", "rhs"), args.format)
    return 0 if report["summary"]["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsymp",
        description="Symplectic code analysis: parameters, invariants, enumerators, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", aliases=["import-pauli"],
                       help="parse a code and echo its canonical form")
    _add_common(p)
    p.add_argument("--emit", choices=("report", "matrix", "pauli"), default="report",
                   help="echo format for the canonicalized code")
    p.set_defaults(handler="cmd_analyze", full=False)

    p = sub.add_parser("analyze", help="compute the code parameters")
    _add_common(p)
    p.add_argument("--full", action="store_true",
                   help="include invariant tables, enumerator data, and verification results")
    p.set_defaults(handler="cmd_analyze", emit="report")

    p = sub.add_parser("invariants", help="profile and generalized-weight tables")
    _add_common(p, formats=("json", "table"))
    p.set_defaults(handler="cmd_invariants")

    p = sub.add_parser("enumerator", help="weight distribution, moments, and enumerators")
    _add_common(p, formats=("json", "table"))
    p.set_defaults(handler="cmd_enumerator")

    p = sub.add_parser("moments", help="binomial moments, optionally with the duality check")
    _add_common(p, formats=("json", "table"))
    p.add_argument("--check-macwilliams", action="store_true")
    p.set_defaults(handler="cmd_moments")

    p = sub.add_parser("puncture", help="puncture and shorten on a support")
    _add_common(p, formats=("json",))
    p.add_argument("--support", required=True,
                   help="comma-separated 1-based factor indices, e.g. 1,2,3,4")
    p.set_defaults(handler="cmd_puncture")

    p = sub.add_parser("verify", help="run the identity suites")
    _add_common(p, with_input=False)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="random instances per suite, 0 for none (default: each suite's own count)")

    return parser


# Built once: parsing leaves it unchanged, and building it costs as much as
# a small subcommand.  It names each handler, and ``main`` looks the name up
# when it runs, so a wrapper later bound over a handler (a tracer's) is called.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "emit", "report") != "report" and args.format != "json":
            raise ParseError(f"--format {args.format} applies only to --emit report")
        budget = args.budget if args.budget is not None else _default_budget()
        if budget < 0:
            raise ParseError(f"the budget must not be negative, got {budget}")
        if args.command == "verify":
            return cmd_verify(args, budget)
        obj, source = _load(args)
        return globals()[args.handler](args, obj, source, budget)
    except BudgetExceededError as exc:
        print(json.dumps(exc.to_dict(), sort_keys=True), file=sys.stderr)
        return 2
    except (ParseError, CommutationError, DimensionMismatchError, OSError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError.
        print(json.dumps({"error": "input", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
