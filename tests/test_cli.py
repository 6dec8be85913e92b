"""Command-line interface: exit codes, determinism, selftest calibration."""

import json
import os

import pytest

from hslab.cealg import InvariantForm
from hslab.cli import main, run_selftest
from hslab.hermitian import HermitianStructure
from hslab.iwasawa import VerificationReport

from conftest import sweep_records


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
    capsys.readouterr()
    # a degenerate deformation names its zero leading minor, not a singular
    # matrix: the metric is certified before it is inverted
    for tau in ("1/2,0,1/2,0", "1/2,1/2,0,0", "1/2,-1/2,0,0"):
        assert main(["verify", "--triples", "1,0,0,1,1,0",
                     "--tau", tau]) == 3
        assert capsys.readouterr().err == (
            "error: deformation is not positive: Gram matrix is not "
            "positive definite (leading minor 2 is 0)\n")
    # a zero denominator names the literal and the cause
    for option in ("--picard", "--tau"):
        assert main(["verify", "--triples", "1,2,2,2,-1,0",
                     option, "1/0,0,0,0"]) == 3
        err = capsys.readouterr().err
        assert err == "error: bad %s value '1/0': zero denominator\n" % option


def test_empty_tau_or_picard_exits_three(capsys):
    # an empty value is malformed, not the undeformed family
    base = ["verify", "--triples", "1,2,2,2,-1,0"]
    for tail in (["--tau", ""], ["--tau="], ["--picard", ""], ["--picard="]):
        assert main(base + tail) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        option = tail[0].rstrip("=")
        assert captured.err == ("error: %s needs 4 comma-separated values\n"
                                % option)


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


def test_output_path_is_opened_before_the_work(tmp_path, monkeypatch,
                                               capsys):
    import hslab.cli
    import hslab.iwasawa

    def never(*args, **kwargs):
        raise AssertionError("the work started before the output was opened")

    monkeypatch.setattr(hslab.iwasawa, "_certify_base", never)
    monkeypatch.setattr(hslab.cli, "make_family", never)
    monkeypatch.setattr(hslab.cli, "verify_family", never)
    missing = tmp_path / "missing"
    cases = (["verify", "--triples", "1,2,2,2,-1,0",
              "--json", str(missing / "r.json")],
             ["sweep", "--max", "2", "--out", str(missing / "c.jsonl")])
    for argv, option in zip(cases, ("--json", "--out")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % option)
        assert err.count("\n") == 1


def test_failed_run_removes_only_the_file_it_created(tmp_path, monkeypatch,
                                                     capsys):
    import hslab.iwasawa
    report = tmp_path / "r.json"
    # degenerate coupling: exit 2 and no report file
    assert main(["verify", "--triples", "1,0,0,0,1,0",
                 "--json", str(report)]) == 2
    assert not report.exists()
    # an existing path is never removed
    report.write_text("old")
    assert main(["verify", "--triples", "1,0,0,0,1,0",
                 "--json", str(report)]) == 2
    assert report.exists()

    def broken():
        raise RuntimeError("engine failure")

    monkeypatch.setattr(hslab.iwasawa, "_certify_base", broken)
    catalog = tmp_path / "c.jsonl"
    with pytest.raises(RuntimeError):
        main(["sweep", "--max", "1", "--out", str(catalog)])
    assert not catalog.exists()


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


def test_negative_leading_literal_after_a_space(capsys):
    # argparse alone reads -1,2,2,2,-1,0 as an option and exits 3; each
    # space form gives the report of its '=' form
    base = ["verify", "--triples", "1,2,2,2,-1,0"]
    for option, value, prefix in (("--triples", "-1,2,2,2,-1,0", []),
                                  ("--tau", "-1/10,0,0,0", base),
                                  ("--picard", "-1,0,0,0", base)):
        reports = []
        for tail in ([option, value], ["%s=%s" % (option, value)]):
            assert main((prefix or ["verify"]) + tail) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[0] == reports[1] and "hs_solution" in reports[0]


def test_sweep_byte_determinism(capsys):
    assert main(["sweep", "--max", "1"]) == 0
    first = capsys.readouterr()
    assert main(["sweep", "--max", "1"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "families: 216  harmonic: 72" in first.err
    records = [json.loads(line) for line in first.out.splitlines()]
    assert records == sweep_records(1)


def test_sweep_out_file_and_threads(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    assert main(["sweep", "--max", "1", "--threads", "2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--max", "1"]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_sweep_threads_do_not_change_the_catalog(tmp_path):
    # the sweep runs in one process; the thread count is only validated
    paths = [tmp_path / ("c%d.jsonl" % i) for i in range(2)]
    assert main(["sweep", "--max", "1", "--threads", "1",
                 "--out", str(paths[0])]) == 0
    assert main(["sweep", "--max", "1", "--threads", "2",
                 "--out", str(paths[1])]) == 0
    catalog = paths[0].read_bytes()
    assert catalog.count(b"\n") == 216
    assert paths[1].read_bytes() == catalog


def test_streamed_sweep_memory_does_not_grow_with_records(tmp_path,
                                                         monkeypatch, capsys):
    import tracemalloc
    import hslab.iwasawa
    # engine certificate stubbed: the test measures the record stream alone
    monkeypatch.setattr(hslab.iwasawa, "_certify_base", lambda: None)
    out = str(tmp_path / "catalog.jsonl")
    assert main(["sweep", "--max", "1", "--out", out]) == 0  # warm-up
    peaks = []
    for max_abs in (1, 2, 3):
        tracemalloc.start()
        try:
            assert main(["sweep", "--max", str(max_abs), "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    err = capsys.readouterr().err
    families = (216, 6580, 54228)
    for n in families:
        assert "families: %d " % n in err
    # a record held until the end costs about 1.4 kB; a streamed one is
    # written and dropped, so each record past --max 1 may add at most 100 B
    for peak, n in zip(peaks[1:], families[1:]):
        assert peak - peaks[0] < 100 * (n - families[0])


@pytest.mark.parametrize("case", ["mid-stream", "at-the-final-flush",
                                  "verify", "selftest"])
def test_closed_stdout_exits_three(case):
    # the reader of the output goes away early, as `| head -1` or `| true`
    # does: one error line and exit 3, no traceback and nothing ignored at exit
    import subprocess
    import sys
    import hslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hslab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as in a shell
    if case == "mid-stream":
        # about 1 MB of catalog, more than a pipe holds: the reader takes
        # one line and leaves, and a later write fails
        code = ("import sys; from hslab.cli import main; "
                "sys.exit(main(['sweep', '--max', '2']))")
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = json.loads(proc.stdout.readline())
        assert first["params"] == {"triple0": [-2, -2, -2],
                                   "triple1": [-2, -2, -1]}
        proc.stdout.close()
    else:
        # no reader at all, and all output stays in stdout's buffer until
        # it is flushed: the sweep's catalog in a 16 MB buffer, the
        # report or the selftest line in the default one
        code = "import io, sys; from hslab.cli import main; "
        if case == "at-the-final-flush":
            code += ("sys.stdout = io.TextIOWrapper(open(1, 'wb', "
                     "closefd=False, buffering=1 << 24)); ")
        argv = {"at-the-final-flush": ["sweep", "--max", "1"],
                "verify": ["verify", "--triples", "1,2,2,2,-1,0"],
                "selftest": ["selftest"]}[case]
        code += "sys.exit(main(%r))" % argv
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 3
    assert err.startswith("error: cannot write standard output: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "exact" in capsys.readouterr().out


def _negated(method):
    def flipped(*args, **kwargs):
        return -method(*args, **kwargs)
    return flipped


def test_selftest_flipped_conventions(monkeypatch):
    ok, name = run_selftest()
    assert ok and name is None
    with monkeypatch.context() as m:
        m.setattr(InvariantForm, "dc", _negated(InvariantForm.dc))
        ok, name = run_selftest()
    assert not ok and name == "dd^c omega_0"
    with monkeypatch.context() as m:
        m.setattr(HermitianStructure, "star", _negated(HermitianStructure.star))
        ok, name = run_selftest()
    assert not ok and name == "*d^c omega_0"


def test_selftest_cli_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(InvariantForm, "dc", _negated(InvariantForm.dc))
    assert main(["selftest"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_sweep_rejects_a_max_above_the_ceiling(tmp_path, capsys, monkeypatch):
    import hslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "iter_sweep", no_sweep)
    out = tmp_path / "c.jsonl"
    for value in ("21", "100000000000000000000"):
        assert main(["sweep", "--max", value, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max must be between 0 and 20\n"
        assert not out.exists()


def test_parser_rejects_bad_sweep_args():
    assert main(["sweep", "--max", "-1"]) == 3
    assert main(["sweep"]) == 3
    assert main(["sweep", "--max", "1", "--threads", "0"]) == 3
    assert main(["sweep", "--max", "1", "--threads", "-1"]) == 3
