import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsymp
from qsymp import cli
from qsymp.codes import SHOR_STABILIZERS
from qsymp.suites import run_suites

# The directory that holds the imported package (src/ or site-packages), so
# that a child run imports the same code whether or not qsymp is installed.
PACKAGE_ROOT = str(Path(qsymp.__file__).resolve().parents[1])


def run_cli(args, env=None, **kwargs):
    """``python -m qsymp`` on the imported package, in the inherited or a given environment.

    A given environment keeps the caller's ``PYTHONDONTWRITEBYTECODE``, so
    the child writes no bytecode beside the source when the caller forbids it.
    """
    if env is None:
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    else:
        keep = {k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"}
        env = {"PYTHONPATH": PACKAGE_ROOT, **keep, **env}
    return subprocess.run(
        [sys.executable, "-m", "qsymp", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def run_inproc(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# import / analyze


def test_import_shor_pauli_as_stabilizer(tmp_path, capsys):
    path = tmp_path / "shor.pauli"
    path.write_text("# nine-factor code\n" + "\n".join(SHOR_STABILIZERS) + "\n")
    rc, out = run_inproc(["import", "--pauli", str(path), "--as", "stabilizer"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["params"]["n"] == 9
    assert report["params"]["k_sym"] == 1
    assert report["params"]["d"] == 3


def test_import_empty_generator_list(tmp_path, capsys):
    path = tmp_path / "empty.pauli"
    path.write_text("# nothing here\n")
    rc, out = run_inproc(
        ["import", "--pauli", str(path), "--as", "stabilizer", "--n", "3"], capsys
    )
    assert rc == 0
    report = json.loads(out)
    assert report["params"]["k_sym"] == 3  # the whole space
    assert report["params"]["s"] == 3


def test_import_gauge_file(tmp_path, capsys):
    path = tmp_path / "gauge.pauli"
    path.write_text("XXII\nIIXX\nZIZI\nIZIZ\n")
    rc, out = run_inproc(["import", "--pauli", str(path), "--as", "gauge"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["kind"] == "subsystem"
    assert report["params"]["logical_count"] == 1
    assert report["params"]["d"] == 2


def test_import_non_commuting_generators_exit_3(tmp_path):
    path = tmp_path / "bad.pauli"
    path.write_text("XI\nZI\n")
    proc = run_cli(["import", "--pauli", str(path), "--as", "stabilizer"])
    assert proc.returncode == 3
    detail = json.loads(proc.stderr)
    assert detail["error"] == "input"
    assert "generators 1 and 2" in detail["detail"]


def test_analyze_repetition_fixture(capsys):
    rc, out = run_inproc(["analyze", "--fixture", "repetition"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["params"] == {"d": 1, "k_sym": 1, "maxwt": 2, "n": 2, "s": 2}


def test_analyze_full_report(capsys):
    rc, out = run_inproc(["analyze", "--fixture", "repetition", "--full"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["invariants"]["theta"] == [0, 0, 1]
    assert report["enumerators"]["B_poly"] == [1, 2, 5]
    assert all(c["pass"] for c in report["verification"])


def test_analyze_json_round_trip(tmp_path, capsys):
    rc, out = run_inproc(["analyze", "--fixture", "repetition"], capsys)
    basis = json.loads(out)["basis"]
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 2, "n": 2, "basis": basis, "role": "code"}))
    rc, out = run_inproc(["analyze", "--json", str(path)], capsys)
    assert rc == 0
    assert json.loads(out)["params"]["d"] == 1


def test_import_matrix_text_and_reemit(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2 4\n1 0 1 0\n0 1 0 1\n")
    rc, out = run_inproc(["import", "--matrix", str(path), "--emit", "matrix"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "2 2 4"
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows == [["1", "0", "1", "0"], ["0", "1", "0", "1"]]


def test_import_pauli_reemission(tmp_path, capsys):
    path = tmp_path / "gens.pauli"
    path.write_text("ZZ\n")
    rc, out = run_inproc(["import", "--pauli", str(path), "--emit", "pauli"], capsys)
    assert rc == 0
    assert out.split() == ["ZZ"]


def test_import_pauli_alias(tmp_path, capsys):
    path = tmp_path / "gens.pauli"
    path.write_text("ZZ\n")
    rc, out = run_inproc(["import-pauli", "--pauli", str(path), "--as", "stabilizer"], capsys)
    assert rc == 0
    assert json.loads(out)["params"]["d"] == 1


def test_analyze_rejects_a_field_beyond_the_range(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("2147483659 1 2\n1 2\n")
    rc = cli.main(["analyze", "--matrix", str(path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_analyze_refuses_a_huge_modulus_at_once(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("2305843009213693951 1 2\n1 2\n")
    proc = run_cli(["analyze", "--matrix", str(path)], env={"PATH": "/usr/bin:/bin"}, timeout=30)
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"] == "input"


NON_COMMUTING_INPUTS = {
    "pauli": "ZZI\nIZZ\nXII\n",
    "matrix": "2 3 6\n0 1 0 1 0 0\n0 0 0 1 0 1\n1 0 0 0 0 0\n",
    "json": json.dumps(
        {"q": 2, "n": 3, "basis": [[0, 1, 0, 1, 0, 0], [0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 0, 0]]}
    ),
}


@pytest.mark.parametrize("kind", sorted(NON_COMMUTING_INPUTS))
def test_stabilizer_input_names_the_non_commuting_generators(kind, tmp_path, capsys):
    # ZZI and IZZ commute; ZZI and XII do not.  The canonical basis would
    # put XII first, so the indices must come from the input's own order.
    path = tmp_path / f"gens.{kind}"
    path.write_text(NON_COMMUTING_INPUTS[kind])
    rc = cli.main(["import", f"--{kind}", str(path), "--as", "stabilizer"])
    assert rc == 3
    assert "generators 1 and 3 " in json.loads(capsys.readouterr().err)["detail"]


def test_input_option_is_required(capsys):
    rc = cli.main(["analyze"])
    assert rc == 3


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["analyze", "--fixture", "shor", "--n", "5"], ""),
        (["analyze", "--pauli", "-", "--n", "7"], "XX\nZZ\n"),
        (["analyze", "--matrix", "-", "--n", "2"], "2 0 0\n"),
        (["analyze", "--matrix", "-"], "2 1 4\n1 0 1 0\n0 1 0 1\n"),
        (["analyze", "--json", "-"],
         json.dumps({"q": 2, "n": 2, "basis": [[0, 1, 0, 1]], "role": "Stabilizer"})),
    ],
    ids=["fixture-n", "pauli-n", "matrix-n", "matrix-rows", "json-role"],
)
def test_input_that_contradicts_itself_exit_3(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


@pytest.mark.parametrize(
    "argv, stdin, fragment",
    [
        (["analyze", "--fixture", "shor", "--as", "code"], "", "cannot be combined with --fixture"),
        (["analyze", "--json", "-"], "[1, 0, 0, 1]", "must be an object"),
        (["puncture", "--fixture", "shor", "--support", "1,x"], "", "bad support '1,x'"),
        (["analyze", "--pauli", "-"], "izz\nixx\n", "unknown Pauli letter 'z'"),
    ],
    ids=["as-with-fixture", "json-not-object", "support-not-integer", "pauli-lowercase"],
)
def test_refused_input_exits_3_with_its_reason(argv, stdin, fragment, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = json.loads(captured.err)
    assert reason["error"] == "input"
    assert fragment in reason["detail"]


@pytest.mark.parametrize(
    "data, bad",
    [
        ({"q": 3, "n": 2, "basis": [[0.5, 1, 0, 1]]}, "0.5"),
        ({"q": 3, "n": 2, "basis": [["1", 1, 0, 1]]}, "'1'"),
        ({"q": 2.7, "n": 2, "basis": [[1, 1, 0, 1]]}, "2.7"),
    ],
    ids=["float-entry", "string-entry", "float-q"],
)
def test_json_values_that_are_not_integers_exit_3(data, bad, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
    assert cli.main(["analyze", "--json", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = json.loads(captured.err)
    assert reason["error"] == "input"
    assert f"{bad} is not an integer" in reason["detail"]


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["analyze", "--json", "-"], json.dumps({"q": 3, "n": 2, "basis": [[10**23, 1, 0, 1]]})),
        (["analyze", "--matrix", "-"], f"3 1 4\n{10**23} 1 0 1\n"),
    ],
    ids=["json", "matrix"],
)
def test_entry_beyond_int64_exit_3(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


def test_an_agreeing_n_changes_nothing(capsys):
    with_n = run_inproc(["analyze", "--fixture", "shor", "--n", "9"], capsys)
    assert with_n == run_inproc(["analyze", "--fixture", "shor"], capsys)
    assert with_n[0] == 0


# ---------------------------------------------------------------------------
# invariants / enumerator / moments / puncture


def test_invariants_bacon_shor(capsys):
    rc, out = run_inproc(["invariants", "--fixture", "bacon-shor"], capsys)
    assert rc == 0
    data = json.loads(out)["invariants"]
    assert data["theta"] == [0, 0, 0, 2, 2]
    assert data["phi"] == [0, 0, 2, 2, 2]


def test_invariants_table_format(capsys):
    rc, out = run_inproc(["invariants", "--fixture", "repetition", "--format", "table"], capsys)
    assert rc == 0
    assert "theta" in out


def test_enumerator_repetition(capsys):
    rc, out = run_inproc(["enumerator", "--fixture", "repetition"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["W"] == [1, 2, 5]
    assert data["B"] == [1, 4, 8]
    assert data["B_poly"] == [1, 2, 5]
    assert data["A_poly"] == [1, 0, 1]


def test_enumerator_table_format(capsys):
    rc, out = run_inproc(["enumerator", "--fixture", "repetition", "--format", "table"], capsys)
    assert rc == 0
    assert "y^2 + 2xy + 5x^2" in out


def test_moments_with_duality_check(capsys):
    rc, out = run_inproc(["moments", "--fixture", "shor", "--check-macwilliams"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["B"][0] == 1
    assert all(c["pass"] for c in data["macwilliams"])


def test_puncture_transversal_summand(tmp_path, capsys, shor):
    from qsymp.anticodes import Anticode, s_prime_decompose
    from qsymp.codes import shor_stabilizer_rows

    dec = s_prime_decompose(shor, Anticode(9, frozenset(range(4))),
                            radical_rows=shor_stabilizer_rows())
    path = tmp_path / "sprime.json"
    path.write_text(json.dumps(dec.s_prime.to_json_dict()))
    rc, out = run_inproc(["puncture", "--json", str(path), "--support", "1,2,3,4"], capsys)
    assert rc == 0
    data = json.loads(out)
    from qsymp.codes import from_pauli
    from qsymp.symplectic import Subspace

    got = Subspace.from_json_dict(data["puncture"])
    assert got == from_pauli(["IIIZ", "XXXX", "IIIX"])
    rc, out = run_inproc(["puncture", "--json", str(path), "--support", "5,6,7,8,9"], capsys)
    got = Subspace.from_json_dict(json.loads(out)["puncture"])
    assert got == from_pauli(["ZIIII", "XXIII", "XXXXX"])


def test_puncture_on_the_empty_support(capsys):
    rc, out = run_inproc(["puncture", "--fixture", "repetition", "--support", ""], capsys)
    assert rc == 0
    empty = {"q": 2, "n": 0, "basis": []}
    assert json.loads(out) == {
        "source": "fixture:repetition", "support": [], "puncture": empty, "shorten": empty,
    }


def test_puncture_bad_support_exit_3(capsys):
    rc = cli.main(["puncture", "--fixture", "repetition", "--support", "1,5"])
    assert rc == 3


# ---------------------------------------------------------------------------
# verify and exit codes


def test_verify_fixture_suite_passes(capsys):
    rc, out = run_inproc(["verify", "--suite", "fixtures", "--seed", "7"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["pass"] is True


def test_verify_reports_have_contract_fields(capsys):
    rc, out = run_inproc(["verify", "--suite", "cleaning", "--seed", "3", "--trials", "4"], capsys)
    assert rc == 0
    report = json.loads(out)
    for section in report["sections"]:
        for check in section["checks"]:
            assert {"identity", "pass"} <= set(check)


def _checked(report) -> list[int]:
    return [c["checked"] for section in report["sections"] for c in section["checks"]]


def test_verify_trials_zero_checks_the_fixtures_only(capsys):
    """``--trials 0`` draws no random instance; it does not fall back to the defaults."""
    rc, out = run_inproc(["verify", "--suite", "cleaning", "--seed", "3", "--trials", "0"], capsys)
    assert rc == 0
    assert _checked(json.loads(out)) == [532, 532]
    assert _checked(run_suites("cleaning", seed=3, trials=0)) == [532, 532]


def test_verify_negative_trials_exit_3(capsys):
    assert cli.main(["verify", "--suite", "cleaning", "--trials", "-1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "input"
    with pytest.raises(ValueError):
        run_suites("cleaning", trials=-1)


def test_verify_csv_format(capsys):
    rc, out = run_inproc(
        ["verify", "--suite", "transforms", "--seed", "1", "--trials", "3", "--format", "csv"],
        capsys,
    )
    assert rc == 0
    assert out.splitlines()[0] == "suite,identity,status,lhs,rhs"


def test_verify_failure_maps_to_exit_1(monkeypatch, capsys):
    def fake(**kwargs):
        return {
            "suite": "all", "seed": 0,
            "sections": [{"name": "x", "checks": [{"identity": "i", "pass": False}]}],
            "summary": {"identities": 1, "failed": 1, "pass": False},
        }

    monkeypatch.setattr(cli, "run_suites", lambda **kw: fake())
    rc = cli.main(["verify", "--suite", "fixtures"])
    assert rc == 1


def test_budget_exit_code_2(tmp_path):
    path = tmp_path / "shor.pauli"
    path.write_text("\n".join(SHOR_STABILIZERS) + "\n")
    proc = run_cli(["analyze", "--pauli", str(path), "--as", "stabilizer", "--budget", "100"])
    assert proc.returncode == 2
    reason = json.loads(proc.stderr)
    assert reason["error"] == "budget-exceeded"
    assert reason["needed"] == 256


def test_usage_error_exit_code_3():
    proc = run_cli(["analyze", "--fixture", "shor", "--format", "xml"])
    assert proc.returncode == 3
    reason = json.loads(proc.stderr)
    assert reason["error"] == "input"
    assert "--format" in reason["detail"]
    assert run_cli(["analyze", "--fixture", "shor", "--q", "3"]).returncode == 3
    assert run_cli(["analyze", "--help"]).returncode == 0


def test_one_process_answers_each_command_as_a_fresh_one(capsys):
    # The parser is built once at import; a usage error must leave it as it was.
    for argv in (
        ["analyze", "--fixture", "shor", "--format", "xml"],
        ["verify", "--suite", "fixtures", "--seed", "7"],
        ["analyze", "--fixture", "shor"],
    ):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        proc = run_cli(argv)
        assert (rc, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cmd_verify", ["verify", "--suite", "fixtures", "--seed", "7"]),
        ("cmd_analyze", ["analyze", "--fixture", "repetition"]),
        ("cmd_analyze", ["import", "--fixture", "repetition"]),
        ("cmd_moments", ["moments", "--fixture", "repetition"]),
    ],
)
def test_commands_call_the_current_binding(name, argv, monkeypatch, capsys):
    # A wrapper bound over a handler after import, as a tracer binds one, is called.
    calls = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or real(*args))
    assert cli.main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["puncture", "--fixture", "shor", "--support", "1", "--format", "table"],
        ["moments", "--fixture", "shor", "--format", "csv"],
        ["import", "--fixture", "shor", "--emit", "pauli", "--format", "table"],
    ],
)
def test_unprinted_format_exit_code_3(args, capsys):
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


def test_budget_env_override(tmp_path):
    path = tmp_path / "shor.pauli"
    path.write_text("\n".join(SHOR_STABILIZERS) + "\n")
    proc = run_cli(
        ["analyze", "--pauli", str(path), "--as", "stabilizer"],
        env={"QSYMP_BUDGET": "100", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2


BUDGET_ARGVS = [
    [c, "--fixture", "repetition"] for c in ("analyze", "import", "invariants", "enumerator", "moments")
] + [["puncture", "--fixture", "repetition", "--support", "1"], ["verify", "--suite", "fixtures"]]


@pytest.mark.parametrize("argv", BUDGET_ARGVS, ids=lambda argv: argv[0])
def test_malformed_budget_env_exit_3(argv, capsys, monkeypatch):
    monkeypatch.setenv("QSYMP_BUDGET", "lots")
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "QSYMP_BUDGET" in json.loads(captured.err)["detail"]


@pytest.mark.parametrize("flag", [True, False], ids=["flag", "env"])
@pytest.mark.parametrize("argv", BUDGET_ARGVS, ids=lambda argv: argv[0])
def test_negative_budget_exit_3(argv, flag, capsys, monkeypatch):
    if flag:
        argv = [*argv, "--budget", "-5"]
    else:
        monkeypatch.setenv("QSYMP_BUDGET", "-5")
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = json.loads(captured.err)
    assert reason["error"] == "input"
    assert "-5" in reason["detail"]


def test_zero_budget_refuses_any_enumeration(capsys):
    assert cli.main(["analyze", "--fixture", "repetition", "--budget", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "budget-exceeded"


def test_parse_error_exit_code_3(tmp_path):
    path = tmp_path / "bad.pauli"
    path.write_text("XQ\n")
    proc = run_cli(["analyze", "--pauli", str(path)])
    assert proc.returncode == 3


def test_report_is_deterministic(capsys):
    rc1, out1 = run_inproc(["analyze", "--fixture", "shor"], capsys)
    rc2, out2 = run_inproc(["analyze", "--fixture", "shor"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


# sha256 of stdout for fixed inputs and seed.  JSON reports are a contract:
# a change of implementation must leave these bytes as they are.
PINNED_REPORTS = {
    ("verify", "--suite", "all", "--seed", "7"):
        "c7e99927ad8fdb3b85cbca7a8d72fa70a963dce8a8f2aacac8d975a143c77b54",
    ("analyze", "--full", "--fixture", "repetition"):
        "b74927bf30010ad16e2d65df0b4d1420fb4313e4957ff6e6117364b6458f9129",
    ("analyze", "--full", "--fixture", "bacon-shor"):
        "e357988affa352775a306c2df55fa8d33f99520929ec1d3c367e0d4d1e29d8cf",
    ("analyze", "--full", "--fixture", "shor"):
        "1a05e55084ab7b20a0919ebff878033cabf4c2129181b0f3969ba3c5c5db9aa0",
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS), ids=" ".join)
def test_report_bytes_are_pinned(argv, capsys):
    rc, out = run_inproc(list(argv), capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]


def _pinned_output_argvs():
    for fixture in ("repetition", "bacon-shor", "shor"):
        f = ("--fixture", fixture)
        for fmt in ("csv", "table"):
            yield ("analyze", *f, "--format", fmt)
        for fmt in ("json", "csv", "table"):
            yield ("import", *f, "--format", fmt)
        for emit in ("matrix", "pauli"):
            yield ("import", *f, "--emit", emit)
        for command in ("invariants", "enumerator", "moments"):
            extra = ("--check-macwilliams",) if command == "moments" else ()
            for fmt in ("json", "table"):
                yield (command, *f, *extra, "--format", fmt)
        yield ("puncture", *f, "--support", "1,2")
    for fmt in ("csv", "table"):
        yield ("verify", "--suite", "fixtures", "--seed", "7", "--format", fmt)
    yield ("analyze", "--pauli", "-")  # an empty list on stdin without --n


# sha256 of [exit code, stdout, stderr] as JSON, taken before the command
# pipeline was shared: every subcommand, format and fixture keeps its bytes.
PINNED_OUTPUTS = {
    "analyze --fixture repetition --format csv":
        "5f5c55bfe710cce1302107e697a6324221789688c09233bfbf3f9c9d37902dd4",
    "analyze --fixture repetition --format table":
        "28db8accf19e38967fce284c3bc5dd2972dd410755b94c7031dc91d5a0e44801",
    "import --fixture repetition --format json":
        "66dd97d010ef224c154b018d708830c51a973a575ca5cf8a3a4d7f95ac549b5e",
    "import --fixture repetition --format csv":
        "5f5c55bfe710cce1302107e697a6324221789688c09233bfbf3f9c9d37902dd4",
    "import --fixture repetition --format table":
        "28db8accf19e38967fce284c3bc5dd2972dd410755b94c7031dc91d5a0e44801",
    "import --fixture repetition --emit matrix":
        "1ebb6f3c23cfc300de0b839f53d69fdb163ba6930fd82ee438f7e15bc6b6a864",
    "import --fixture repetition --emit pauli":
        "5dbb680daca77e6a485cff613847e3625f780850739745cba5020da24ffbd1ee",
    "invariants --fixture repetition --format json":
        "8c90a4d32a0b4a227a07745db4d45faa5bde15b0685cd1f712afc9119546c87f",
    "invariants --fixture repetition --format table":
        "8caf51ff9b09e7b5a65c39b40bde9fd76702cf2ec5d3f6dfa00a3338b42c0edb",
    "enumerator --fixture repetition --format json":
        "dababc200367d33cf3d98fe4ccc6e87643ad05147d32872bfc3f7907af2a416f",
    "enumerator --fixture repetition --format table":
        "cacb98d8c519188015ec930c1db9d17f7a0b6bdb07b96961475fe520ba99359c",
    "moments --fixture repetition --check-macwilliams --format json":
        "8531bc699424ae6cd4800c213e0f5b46b0a01d9c9393deb6775b62f531bd9854",
    "moments --fixture repetition --check-macwilliams --format table":
        "4da98a8dad56d898fe89aa8035f0a7554e4ed247be015d3118f5f552854a4692",
    "puncture --fixture repetition --support 1,2":
        "7143363899205e80afff64bded8badf43155b98a2ef777a2b78bd89e8f9c5624",
    "analyze --fixture bacon-shor --format csv":
        "ddfdff7831c377c05598f487e444b912a3e3cc9a3a0721ef06ecd987ef69911b",
    "analyze --fixture bacon-shor --format table":
        "c573930cccee1af4d509294c7cfa49f21cb1d83d16443bf2960eba9705310632",
    "import --fixture bacon-shor --format json":
        "2dd5bab116170163e0b22ca5f05c6def3144a17a1fcac1fa8a9cba24a7b7e5c0",
    "import --fixture bacon-shor --format csv":
        "ddfdff7831c377c05598f487e444b912a3e3cc9a3a0721ef06ecd987ef69911b",
    "import --fixture bacon-shor --format table":
        "c573930cccee1af4d509294c7cfa49f21cb1d83d16443bf2960eba9705310632",
    "import --fixture bacon-shor --emit matrix":
        "30e228661acbd2ac507849acdf5a333c67d0b133f6b32d94343b1105a99b8515",
    "import --fixture bacon-shor --emit pauli":
        "a6306c178b8176b2fce4a49b6664fc084472a36d38b22b731d6856dbd85ecd97",
    "invariants --fixture bacon-shor --format json":
        "fc2914673de767168a5a9a68ec3d9ff857c2db7e1066e6005bd127a9a643373a",
    "invariants --fixture bacon-shor --format table":
        "3cf9730ef252bfa1b1dad9001012915a0bcd0d0fad6fe9118b90ce9c37b257fe",
    "enumerator --fixture bacon-shor --format json":
        "9373159464c58bd231b4358cb161731375ff9660a01149d7fa668ef1ab9896c9",
    "enumerator --fixture bacon-shor --format table":
        "ab3262dc34cf279ed8a5e0b23f486fc4bc8ec3275833217cdbb7790b8a2fa3db",
    "moments --fixture bacon-shor --check-macwilliams --format json":
        "a47a1420adfac60b73c3c1c829f6524018fae43d52ccb61d6161f76514c937a0",
    "moments --fixture bacon-shor --check-macwilliams --format table":
        "eebebe85d5dff0ae13fea9825931513e964bff29b8d38ece9f92768762bfa1e6",
    "puncture --fixture bacon-shor --support 1,2":
        "a8317dfeff48f571923f7c004f6733ef468c6e6e2d1d8e29457f43e9419f2edc",
    "analyze --fixture shor --format csv":
        "240984b0b9aa60725bcb4fecfcfaca74d13ef680294116453849b496610832d2",
    "analyze --fixture shor --format table":
        "38afa33c456e3b59abfb10bc47a058897a43a3c5d6786ab2d1d7c5f0a01089bb",
    "import --fixture shor --format json":
        "dc062dd8027a05bc99be6384d036b3d15825b76638c0577c67fff41530b37960",
    "import --fixture shor --format csv":
        "240984b0b9aa60725bcb4fecfcfaca74d13ef680294116453849b496610832d2",
    "import --fixture shor --format table":
        "38afa33c456e3b59abfb10bc47a058897a43a3c5d6786ab2d1d7c5f0a01089bb",
    "import --fixture shor --emit matrix":
        "75616f74dc80a752dfe50bab618fcbc8c8bbd997d2b9ba2ae852072a8c32ddb5",
    "import --fixture shor --emit pauli":
        "cddf4eb1ae981874336ca01b342213e4f08463730c599e49debd533dd9e650c6",
    "invariants --fixture shor --format json":
        "2f93a28185e6cf34ee031afe80046d9f1fca492faa554dee0418d35f56e6d676",
    "invariants --fixture shor --format table":
        "41b5fb5d95ed3569c87fe916c9eb80f6b288a6296ac4cf069fc93b6d75c20b9c",
    "enumerator --fixture shor --format json":
        "b4d34d94fb2e34025e2bc789c10c0159e4f9cd1654183f5002a6356276db17b5",
    "enumerator --fixture shor --format table":
        "e17ee3a3c5a9354caba6a266a6b4150a578a7aee010f0fe9da262e4c3fecb767",
    "moments --fixture shor --check-macwilliams --format json":
        "924ef920cb235c66ae060add7bb723ae6700eb3ecc72497c5beacbcc6ca12eea",
    "moments --fixture shor --check-macwilliams --format table":
        "5f1088406cac6e13b7841ffd3075b7481479c93f1d4d4f8ad0788b944adfad84",
    "puncture --fixture shor --support 1,2":
        "e2065a109e6a82296da6a67a6d1bb9b1c775be0e40b41fb3a3d996c6f38a4475",
    "verify --suite fixtures --seed 7 --format csv":
        "8d5cb2191490030e4e862ab3ad69ce6a2aff505cc3889833ae4a27cb7b3b3d77",
    "verify --suite fixtures --seed 7 --format table":
        "6b678396216aff1c414aac92fca641a7482e18b6e17fa68d8cab39472f3f93d9",
    "analyze --pauli -":
        "9fed01eadfffe8181f38de581b726f785f87cf48abee46f1848cc5926fea3449",
}


def _outcome_sha(argv, capsys, monkeypatch, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return hashlib.sha256(json.dumps([rc, captured.out, captured.err]).encode()).hexdigest()


@pytest.mark.parametrize("argv", list(_pinned_output_argvs()), ids=" ".join)
def test_output_bytes_are_pinned(argv, capsys, monkeypatch):
    assert _outcome_sha(argv, capsys, monkeypatch) == PINNED_OUTPUTS[" ".join(argv)]
