"""No command line gives a traceback: main on hypothesis-drawn argv.

Each argv is a verify, sweep (--max at most 1) or selftest command built
from valid and malformed pieces: good rationals, 1/0, nan, 1e-3, 1_0/3,
Arabic-Indic digits, empty fields, numbers at and just over the
literal bound and ones whose report would print more than 4300 digits.
main runs in process and must return 0, 1, 2 or 3, write no traceback,
return 1 only with a printed report or a failed identity, and finish
within a per-case time bound.
"""

import contextlib
import io
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hslab.cli import LITERAL_DIGITS, main  # noqa: E402

# deterministic draws, and no example database written next to the tests
ARGV = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)

# accepted draws take under 0.2 s; random 50-digit values in every field
# of --triples, --tau and --picard take about 2.5 s on a 2-vCPU host
CASE_SECONDS = 20

MALFORMED = ["1/0", "nan", "inf", "1e-3", "1e999999999", "1_0/3", "",
             "\u0661", "x", "1/", "1//2", " 1", "+-1", "1.", "0x10"]
# n and 1/(n // 10) have as many digits as n: at the bound, one over it,
# and so many that a report of them would hold a number of more than 4300
# digits
HUGE = [10 ** (LITERAL_DIGITS - 1), 10 ** LITERAL_DIGITS, 10 ** 2200,
        10 ** 3000]
INTS = ["0", "1", "-2", "3", "2"]
RATIONALS = ["0", "1/10", "-1/4", "0.1", "+1/3", "-1/10"]

piece = st.one_of(st.sampled_from(MALFORMED), st.sampled_from(HUGE).map(str),
                  st.sampled_from(HUGE).map(lambda n: "1/%d" % (n // 10)))


def _fields(count, good):
    """count good literals, one of them maybe replaced by a malformed or
    huge piece; the list is sometimes one short or one over."""
    def build(vals, i, bad, extra):
        vals = list(vals)
        if bad is not None:
            vals[i] = bad
        return ",".join(vals[:count + extra] if extra < 0 else vals + ["1"] * extra)
    return st.builds(build, st.lists(st.sampled_from(good), min_size=count,
                                     max_size=count),
                     st.integers(0, count - 1), st.none() | piece,
                     st.sampled_from([0] * 8 + [-1, 1]))


def _option(name, value):
    return st.one_of(st.just([]), value.map(lambda v: ["%s=%s" % (name, v)]))


verify = st.tuples(
    st.just(["verify", "--triples"]), _fields(6, INTS).map(lambda v: [v]),
    _option("--tau", _fields(4, RATIONALS)),
    _option("--picard", _fields(4, RATIONALS)))
sweep = st.tuples(
    st.just(["sweep"]),
    _option("--max", st.sampled_from(["0", "1", "-1", "21", "1e3", "",
                                      "\u0661", str(10 ** 2200)])),
    st.sampled_from([[], ["--raw"], ["--require-harmonic"],
                     ["--threads", "0"], ["--bogus"]]))
# selftest takes no option: these two pieces are unknown options (exit 3)
selftest = st.tuples(
    st.just(["selftest"]),
    _option("--dc-sign", st.sampled_from(["1", "-1", "0", "x"])),
    _option("--star-sign", st.sampled_from(["1", "-1", ""])))
# verify takes literals, so it is drawn most often
argv = st.one_of(verify, verify, verify, sweep, selftest).map(lambda parts: sum(parts, []))


@ARGV
@given(argv)
def test_no_argv_gives_a_traceback(args):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert time.perf_counter() - start < CASE_SECONDS
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "hs_solution" in out.getvalue() or "FAILED" in out.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_literal_bound(capsys):
    # without the bound both parse, and their reports fail to print a
    # number of more than 4300 digits
    cases = (("--triples", ["--triples", "%d,1,1,1,1,1" % 10 ** 2200]),
             ("--tau", ["--triples", "1,2,2,2,-1,0",
                        "--tau", "1/%d,0,-1/3,0" % 10 ** 3000]))
    for option, args in cases:
        assert main(["verify"] + args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad %s value '" % option)
        assert err.endswith("': more than %d digits\n" % LITERAL_DIGITS)
    # a literal at the bound is accepted
    n = 10 ** LITERAL_DIGITS - 1
    assert main(["verify", "--triples", "%d,1,1,1,1,1" % n]) == 0
    # the grammar: no exponent, underscore, or non-ASCII digit
    for value in ("1e-3", "1_0/3", "\u0661"):
        assert main(["verify", "--triples", "1,2,2,2,-1,0",
                     "--tau", "%s,0,0,0" % value]) == 3
        assert capsys.readouterr().err == \
            "error: bad --tau value '%s': not a rational\n" % value
