import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsymp
from qsymp import cli
from qsymp.codes import SHOR_STABILIZERS

# The directory that holds the imported package (src/ or site-packages), so
# that a child run imports the same code whether or not qsymp is installed.
PACKAGE_ROOT = str(Path(qsymp.__file__).resolve().parents[1])


def run_cli(args, env=None, **kwargs):
    """``python -m qsymp`` on the imported package, in the inherited or a given environment."""
    if env is None:
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    else:
        env = {"PYTHONPATH": PACKAGE_ROOT, **env}
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
    assert reason["needed"] == 1024


def test_usage_error_exit_code_3():
    proc = run_cli(["analyze", "--fixture", "shor", "--format", "xml"])
    assert proc.returncode == 3
    reason = json.loads(proc.stderr)
    assert reason["error"] == "input"
    assert "--format" in reason["detail"]
    assert run_cli(["analyze", "--fixture", "shor", "--q", "3"]).returncode == 3
    assert run_cli(["analyze", "--help"]).returncode == 0


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
