"""Command-line interface: exit codes, determinism, selftest calibration."""

import json
import os

import pytest

from hslab.cli import main, run_selftest, build_parser
from hslab.iwasawa import VerificationReport, sweep


def test_verify_exit_zero(capsys):
    assert main(["verify", "--triples", "1,2,2,2,-1,0"]) == 0
    out = capsys.readouterr().out
    assert "hs_solution" in out and "True" in out


def test_verify_exit_one_on_broken_verdict(capsys, tmp_path):
    # non-orthogonal pairs still solve the system (exit 0) but report
    # harmonic False; breaking a verdict needs the degenerate exit path or
    # a non-solution, so check the report content instead
    path = tmp_path / "report.json"
    assert main(["verify", "--triples", "1,1,0,1,0,0",
                 "--json", str(path)]) == 0
    report = VerificationReport.from_json(path.read_text())
    assert report.verdicts["hs_solution"]
    assert not report.verdicts["harmonic"]


def test_verify_exit_two_degenerate(capsys):
    assert main(["verify", "--triples", "1,2,2,2,2,1"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_verify_exit_three_malformed(capsys):
    assert main(["verify", "--triples", "1,2,2"]) == 3
    assert main(["verify", "--triples", "1,2,2,2,-1,x"]) == 3
    assert main(["verify", "--triples", "0,0,0,1,0,0"]) == 3
    assert main(["verify", "--triples", "1,2,2,2,-1,0",
                 "--tau", "2,0,0,0"]) == 3
    # inside |t_i| <= 1/2 but not positive
    assert main(["verify", "--triples", "1,2,2,2,-1,0",
                 "--tau", "1/2,1/2,1/2,1/2"]) == 3
    assert main(["nonsense"]) == 3


def test_unwritable_output_path_exits_three(tmp_path, capsys):
    # a path in a missing directory is a bad argument, not a failed
    # verification: one error line and exit 3, no traceback
    missing = tmp_path / "missing"
    cases = (["verify", "--triples", "1,2,2,2,-1,0",
              "--json", str(missing / "r.json")],
             ["sweep", "--max", "0", "--out", str(missing / "c.jsonl")])
    for argv, option in zip(cases, ("--json", "--out")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % option)
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not missing.exists()


def test_verify_with_tau_and_picard(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "--triples", "1,2,2,2,-1,0",
                 "--tau", "1/10,0,-1/4,0",
                 "--picard", "1/3,0,0,-2/7",
                 "--json", str(path)]) == 0
    report = VerificationReport.from_json(path.read_text())
    assert report.verdicts["hs_solution"]
    assert report.verdicts["hermitian_einstein"]
    assert report.params["tau"] == ["1/10", "0", "-1/4", "0"]


def test_sweep_byte_determinism(capsys):
    assert main(["sweep", "--max", "1"]) == 0
    first = capsys.readouterr()
    assert main(["sweep", "--max", "1"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "families: 216  harmonic: 72" in first.err
    records = [json.loads(line) for line in first.out.splitlines()]
    assert records == sweep(1)


def test_sweep_out_file_and_threads(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    assert main(["sweep", "--max", "1", "--threads", "2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--max", "1"]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_sweep_threads_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HS_LAB_THREADS", "2")
    assert main(["sweep", "--max", "1"]) == 0
    out = capsys.readouterr().out
    monkeypatch.setenv("HS_LAB_THREADS", "not-a-number")
    assert main(["sweep", "--max", "1"]) == 3
    for bad in ("0", "-2"):
        monkeypatch.setenv("HS_LAB_THREADS", bad)
        assert main(["sweep", "--max", "1", "--threads", "2"]) == 3
        assert "HS_LAB_THREADS must be at least 1" in capsys.readouterr().err
    monkeypatch.delenv("HS_LAB_THREADS")
    capsys.readouterr()
    assert main(["sweep", "--max", "1"]) == 0
    assert capsys.readouterr().out == out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "exact" in capsys.readouterr().out


def test_selftest_flipped_conventions():
    ok, name = run_selftest()
    assert ok and name is None
    ok, name = run_selftest(dc_sign=-1)
    assert not ok and name == "dd^c omega_0"
    ok, name = run_selftest(star_sign=-1)
    assert not ok and name == "*d^c omega_0"


def test_selftest_cli_failure_exit(capsys):
    assert main(["selftest", "--dc-sign", "-1"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_parser_rejects_bad_sweep_args(monkeypatch):
    monkeypatch.delenv("HS_LAB_THREADS", raising=False)
    assert main(["sweep", "--max", "-1"]) == 3
    assert main(["sweep"]) == 3
    assert main(["sweep", "--max", "1", "--threads", "0"]) == 3
    assert main(["sweep", "--max", "1", "--threads", "-1"]) == 3
