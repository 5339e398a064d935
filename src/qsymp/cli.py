"""Command-line front end.

Subcommands: ``import`` (Pauli / JSON / matrix-text input), ``analyze``,
``invariants``, ``enumerator``, ``moments``, ``puncture``, and ``verify``.
JSON is the contract format and is emitted with sorted keys so identical
inputs produce byte-identical reports; CSV and the aligned tables are
presentation only.  User-facing factor indices are 1-based.

Exit codes: 0 all good, 1 an identity check failed, 2 the step budget was
exceeded (with a machine-readable reason on stderr), 3 malformed input or a
usage error, such as a ``--format`` the subcommand does not print.
"""

from __future__ import annotations

import argparse
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
    from_pauli,
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
    QsympError,
)
from .linalg import matrix_from_text, matrix_to_text
from .report import jsonable
from .suites import SUITE_NAMES, run_suites
from .symplectic import Subspace

FIXTURES = ("repetition", "bacon-shor", "shor")


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
        group.add_argument("--as", dest="role", choices=("stabilizer", "gauge", "code"),
                           default=None, help="how to interpret the input generators")
        group.add_argument("--n", type=int, default=None,
                           help="factor count (needed only for an empty generator list)")


def _load(args) -> tuple[Code | SubsystemCode, str]:
    """Build the requested object from whichever input option was given."""
    chosen = [x for x in (args.pauli, args.json_file, args.matrix, args.fixture) if x]
    if len(chosen) != 1:
        raise ParseError("exactly one of --pauli/--json/--matrix/--fixture is required")
    role = args.role
    if args.fixture:
        if role is not None:
            raise ParseError("--as cannot be combined with --fixture")
        if args.fixture == "repetition":
            return repetition_code(), "fixture:repetition"
        if args.fixture == "bacon-shor":
            return bacon_shor_code(), "fixture:bacon-shor"
        return shor_code(), "fixture:shor"
    if args.pauli:
        generators = parse_pauli_text(_read_text(args.pauli))
        rows = [pauli_to_vector(g) for g in generators]
        if generators:
            space = from_pauli(generators)
        else:
            if args.n is None:
                raise ParseError("empty generator list: pass --n to fix the factor count")
            space = Subspace.zero(2, args.n)
        source = f"pauli:{args.pauli}"
    elif args.json_file:
        data = json.loads(_read_text(args.json_file))
        if not isinstance(data, dict):
            raise ParseError("top-level JSON value must be an object")
        space = Subspace.from_json_dict(data)
        rows = data["basis"]
        if role is None and data.get("role") in ("stabilizer", "gauge", "code"):
            role = data["role"]
        source = f"json:{args.json_file}"
    else:
        rows, _q = matrix_from_text(_read_text(args.matrix))
        space = Subspace(rows, _q, None if rows.shape[1] else args.n)
        source = f"matrix:{args.matrix}"
    role = role or "code"
    if role == "stabilizer":
        # Name the input's generators, not the rows of the canonical basis.
        check_commuting(rows, space.q, space.n)
        return stabilizer_code_from_isotropic(space), source
    if role == "gauge":
        return subsystem_from_gauge(Code(space)), source
    return Code(space), source


def _normalizer_of(obj: Code | SubsystemCode) -> Code:
    return obj.normalizer if isinstance(obj, SubsystemCode) else obj


def _params_dict(obj: Code | SubsystemCode, budget: int) -> dict:
    code = _normalizer_of(obj)
    p = code.params(budget)
    out = {"n": p.n, "k_sym": p.k, "s": p.s, "d": p.d, "maxwt": p.maxwt}
    if isinstance(obj, SubsystemCode):
        gp = obj.gauge.params(budget)
        out["logical_count"] = obj.logical_count
        out["gauge"] = {"k_sym": gp.k, "s": gp.s, "dim_f": obj.gauge.dim_f}
        out["stabilizer_dim_f"] = obj.stabilizer.dim_f
    return out


def _report(obj: Code | SubsystemCode, source: str, budget: int) -> dict:
    code = _normalizer_of(obj)
    report = {
        "source": source,
        "q": code.q,
        "n": code.n,
        "kind": "subsystem" if isinstance(obj, SubsystemCode) else "code",
        "params": _params_dict(obj, budget),
        "basis": code.space.basis.tolist(),
    }
    if isinstance(obj, SubsystemCode):
        report["stabilizer_basis"] = obj.stabilizer.basis.tolist()
        report["gauge_basis"] = obj.gauge.space.basis.tolist()
    return report


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


def _csv_cell(x) -> str:
    if x is None:
        return ""
    s = str(x)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _print_csv(rows: list[tuple], header: tuple) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(_csv_cell(x) for x in row))


def _print_table(rows: list[tuple], header: tuple) -> None:
    cells = [tuple(str("" if x is None else x) for x in row) for row in [header, *rows]]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _emit_params(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dump(report))
        return
    rows = sorted((k, v) for k, v in report["params"].items() if not isinstance(v, dict))
    if fmt == "csv":
        _print_csv(rows, ("parameter", "value"))
    else:
        _print_table(rows, ("parameter", "value"))


def cmd_import(args) -> int:
    if args.emit != "report" and args.format != "json":
        raise ParseError(f"--format {args.format} applies only to --emit report")
    budget = args.budget if args.budget is not None else _default_budget()
    obj, source = _load(args)
    if args.emit == "matrix":
        code = _normalizer_of(obj)
        sys.stdout.write(matrix_to_text(code.space.basis, code.q))
        return 0
    if args.emit == "pauli":
        code = _normalizer_of(obj)
        for row in code.space.basis:
            print(vector_to_pauli(row))
        return 0
    _emit_params(_report(obj, source, budget), args.format)
    return 0


def _enumerators_dict(code: Code, budget: int) -> dict:
    a_poly, b_poly = en.enumerator_polys(code, budget)
    return {
        "W": en.weight_distribution(code, budget),
        "B": en.binomial_moments(code, budget),
        "A_poly": a_poly,
        "B_poly": b_poly,
    }


def cmd_analyze(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    obj, source = _load(args)
    report = _report(obj, source, budget)
    if args.full:
        code = _normalizer_of(obj)
        report["invariants"] = iv.invariant_table(code, budget).to_dict()
        report["enumerators"] = _enumerators_dict(code, budget)
        report["verification"] = [
            c.to_dict()
            for c in iv.verify_bounds(code, budget) + en.macwilliams_check(code, budget)
        ]
    _emit_params(report, args.format)
    return 0


def cmd_invariants(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    obj, source = _load(args)
    code = _normalizer_of(obj)
    table = iv.invariant_table(code, budget)
    if args.format == "json":
        print(_dump({"source": source, "invariants": table.to_dict()}))
    else:
        print(table.format_table())
    return 0


def cmd_enumerator(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    obj, source = _load(args)
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


def cmd_moments(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    obj, source = _load(args)
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
        rows = [(b, v) for b, v in enumerate(data["B"])]
        _print_table(rows, ("b", "moment"))
        for c in data.get("macwilliams", []):
            print(f"{c['identity']}: {'pass' if c['pass'] else 'FAIL'}")
    return rc


def cmd_puncture(args) -> int:
    obj, source = _load(args)
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


def cmd_verify(args) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    report = run_suites(suite=args.suite, seed=args.seed, budget=budget, trials=args.trials)
    if args.format == "json":
        print(_dump(report))
    else:
        rows = []
        for section in report["sections"]:
            for c in section["checks"]:
                rows.append(
                    (
                        section["name"],
                        c["identity"],
                        "pass" if c["pass"] else "FAIL",
                        c.get("lhs", c.get("checked")),
                        c.get("rhs", c.get("failures")),
                    )
                )
        if args.format == "csv":
            _print_csv(rows, ("suite", "identity", "status", "lhs", "rhs"))
        else:
            _print_table(rows, ("suite", "identity", "status", "lhs", "rhs"))
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
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("analyze", help="compute the code parameters")
    _add_common(p)
    p.add_argument("--full", action="store_true",
                   help="include invariant tables, enumerator data, and verification results")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("invariants", help="profile and generalized-weight tables")
    _add_common(p, formats=("json", "table"))
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("enumerator", help="weight distribution, moments, and enumerators")
    _add_common(p, formats=("json", "table"))
    p.set_defaults(func=cmd_enumerator)

    p = sub.add_parser("moments", help="binomial moments, optionally with the duality check")
    _add_common(p, formats=("json", "table"))
    p.add_argument("--check-macwilliams", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("puncture", help="puncture and shorten on a support")
    _add_common(p, formats=("json",))
    p.add_argument("--support", required=True,
                   help="comma-separated 1-based factor indices, e.g. 1,2,3,4")
    p.set_defaults(func=cmd_puncture)

    p = sub.add_parser("verify", help="run the identity suites")
    _add_common(p, with_input=False)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="override the per-suite instance counts")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        print(json.dumps(exc.to_dict(), sort_keys=True), file=sys.stderr)
        return 2
    except (ParseError, CommutationError, DimensionMismatchError, OSError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError.
        print(json.dumps({"error": "input", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3
    except QsympError as exc:
        print(json.dumps({"error": "internal", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
