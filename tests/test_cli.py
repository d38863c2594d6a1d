"""Front-end behavior: subcommands, exit codes, report schema."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tubes import cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code = cli.main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_symmetry_subcommand(capsys):
    code, report = run_json(["symmetry", "--surface", "surface.table.1p"], capsys)
    assert code == 0
    dims = [c for c in report["checks"] if c["id"].startswith("symmetry.dim")]
    assert "dimension 7" in dims[0]["details"]


def test_table_subcommand(capsys):
    code, report = run_json(["table", "--case", "D"], capsys)
    assert code == 0
    assert report["summary"] == {"pass": 46, "fail": 0, "unresolved": 0}
    entry_checks = [c for c in report["checks"] if c["id"].startswith("table.D.0")
                    or c["id"].startswith("table.D.1")]
    assert len(entry_checks) == 45


def test_classify_has_fourteen_domain_records(capsys):
    code, report = run_json(["classify"], capsys)
    assert code == 0
    domain_records = [c for c in report["checks"] if c["id"].startswith("classify.domain.")]
    assert len(domain_records) == 14
    assert all(c["verdict"] == "PASS" for c in domain_records)
    assert report["summary"]["fail"] == 0


def test_orbits_rejects_on_surface_probe(capsys):
    code, out = run_cli(["orbits", "--surface", "surface.table.6",
                         "--probes", "1,0,0,0"], capsys)
    assert code == 1
    assert "probe lies on the surface" in out


def test_scan_exit_code_unresolved(capsys):
    code, report = run_json(["scan", "--surface", "surface.table.3", "--dim", "4"], capsys)
    assert code == 2
    assert report["summary"]["unresolved"] == 1
    assert report["summary"]["fail"] == 0


def test_normal_form_cutoff_flag(capsys):
    code, report = run_json(["normal-form", "--case", "C", "--cutoff", "7"], capsys)
    assert code == 0
    assert report["summary"]["fail"] == 0


def test_usage_errors(capsys):
    assert cli.main([]) == 64
    capsys.readouterr()
    assert cli.main(["witness", "--id", "no.such.witness"]) == 64


# "{tmp}" (in argv and message) stands for a temporary directory holding
# bad.json, which is not JSON, the fixture trees oops/ and empty/, whose
# index.json reads "{oops" and "{}", and ge/, a copy of fixtures/ in which
# the constraint of domain.H.gt has the unknown sense "ge"; leading
# NAME=value items set environment variables, as in a shell
@pytest.mark.parametrize("argv, message", [
    (["normal-form", "--case", "D", "--cutoff", "3"], "--cutoff must be at least 6"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1,x"], "probe '1,x'"),
    (["orbits", "--surface", "surface.table.6", "--probes", "1,2"], "has 2 coordinates"),
    (["scan", "--surface", "surface.table.3", "--dim", "9"], "--dim must be strictly between"),
    (["verify-map", "--id", "surface.table.6"], "is not a map fixture"),
    (["symmetry", "--surface", "{tmp}/bad.json"], "JSONDecodeError"),
    (["symmetry", "--surface", str(FIXTURES / "domain.D.gt.json")], "is not a hypersurface"),
    (["TUBES_FIXTURES={tmp}/missing", "lines"], "cannot load the fixture tree"),
    (["TUBES_FIXTURES={tmp}/oops", "lines"],
     "cannot load the fixture tree '{tmp}/oops': JSONDecodeError: "),
    (["TUBES_FIXTURES={tmp}/empty", "lines"],
     "cannot load the fixture tree '{tmp}/empty': KeyError: 'fixtures'"),
    (["TUBES_FIXTURES={tmp}/missing", "lines"],
     "'{tmp}/missing': FileNotFoundError: [Errno 2] No such file or directory: "
     "'{tmp}/missing/index.json'"),
    (["TUBES_FIXTURES={tmp}/ge", "classify"], "unknown constraint sense 'ge'"),
])
def test_invalid_input_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    for tree, index in (("oops", "{oops"), ("empty", "{}")):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "index.json").write_text(index)
    if "{tmp}/ge" in argv[0]:
        domain = tmp_path / "ge" / "domain.H.gt.json"
        shutil.copytree(FIXTURES, domain.parent)
        obj = json.loads(domain.read_text())
        obj["payload"]["constraints"][0]["sense"] = "ge"
        domain.write_text(json.dumps(obj))
    argv = [a.format(tmp=tmp_path) for a in argv]
    while "=" in argv[0]:
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    message = message.format(tmp=tmp_path)
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in captured.err


def test_engine_key_error_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise KeyError("engine bug")
    monkeypatch.setattr(cli, "verify_transitivity_witness", broken)
    with pytest.raises(KeyError, match="engine bug"):
        cli.main(["witness", "--id", "witness.C.gt"])


def test_in_code_registry_fault_is_not_a_usage_error(monkeypatch):
    from tubes import catalog

    def broken():
        raise KeyError("engine bug")
    monkeypatch.delenv("TUBES_FIXTURES", raising=False)
    monkeypatch.setattr(catalog, "registry", broken)
    with pytest.raises(KeyError, match="engine bug"):
        cli.main(["lines"])


def test_verbose_only_on_symmetry_and_keeps_json_clean(capsys):
    code = cli.main(["symmetry", "--surface", "surface.table.3", "--json", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["command"] == "symmetry"
    assert "basis[0]" in captured.err
    assert cli.main(["orbits", "--surface", "surface.table.3", "--verbose"]) == 64


def test_parser_is_built_once_and_keeps_no_options_between_calls(capsys):
    assert cli.main(["--json", "symmetry", "--surface", "surface.table.3", "--verbose"]) == 0
    first = capsys.readouterr()
    assert json.loads(first.out)["command"] == "symmetry"
    assert "basis[0]" in first.err
    assert cli.main(["symmetry", "--surface", "surface.table.3"]) == 0
    second = capsys.readouterr()
    assert second.err == ""
    lines = second.out.splitlines()
    assert all(line.startswith("[PASS] ") for line in lines[:-1]) and len(lines) == 4
    assert lines[-1].startswith("summary: 3 pass, 0 fail, 0 unresolved")
    assert cli.build_parser() is cli.build_parser()


def test_report_schema_fields(capsys):
    code, report = run_json(["lines"], capsys)
    assert code == 0
    assert set(report.keys()) == {"version", "command", "checks", "summary", "seconds"}
    for check in report["checks"]:
        assert set(check.keys()) == {"id", "claim", "verdict", "details", "provenance"}
    assert [c["id"] for c in report["checks"]] == sorted(c["id"] for c in report["checks"])


def test_reports_deterministic(capsys):
    _, first = run_json(["nilpotency", "--case", "C"], capsys)
    _, second = run_json(["nilpotency", "--case", "C"], capsys)
    first.pop("seconds")
    second.pop("seconds")
    assert first == second


def test_fixture_override_roundtrip(tmp_path, monkeypatch, capsys):
    from tubes import catalog
    catalog.export_tree(tmp_path)
    monkeypatch.setenv("TUBES_FIXTURES", str(tmp_path))
    code, report = run_json(["witness", "--id", "witness.C.gt"], capsys)
    assert code == 0 and report["summary"]["pass"] == 1


def test_console_entry_point_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "tubes.cli", "verify-map",
                           "--id", "map.case3.derived"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
