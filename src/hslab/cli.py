"""Command-line surface: verify one family, sweep a catalog, or self-test.

Exit codes: 0 success (verify: the family solves the system and the
associated connection is Hermitian-Einstein), 1 failed verification or
selftest identity, 2 degenerate coupling, 3 malformed arguments (say a
deformation that is not positive, a sweep --threads below 1 or a --max
outside 0..20, refused before any work) or an output that cannot be
written (a --json or --out path, a closed stdout).  The sweep runs in one
process: --threads is checked, but has no effect.

A --triples, --tau or --picard value is a signed integer, p/q or decimal
in ASCII digits, of at most LITERAL_DIGITS = 50 digits, or it exits 3: a
report prints numbers of up to about 66 times the digits of its longest
literal, and Python prints no integer of more than 4300 digits.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction

from .scalars import Scalar
from .bundles import LineBundleTriple, curvature_from_triple, DegenerateCoupling
from .harmonic import harmonic_vs_moment_gap, matrix_is_zero
from .iwasawa import (TauDeformation, PicardPoint, FamilyConfig, make_family,
                      verify_family, iter_sweep, SWEEP_MAX_ABS)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)

    def parse_args(self, args=None, namespace=None):
        """Joins --tau -1,.. to --tau=-1,..: argparse takes -1,.. for an option."""
        out = []
        for arg in sys.argv[1:] if args is None else args:
            if out and out[-1] in _LITERAL_OPTIONS and re.match(r"-[0-9.]", arg):
                arg = out.pop() + "=" + arg
            out.append(arg)
        return super().parse_args(out, namespace)


_LITERAL = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+)")
_LITERAL_OPTIONS = ("--triples", "--tau", "--picard")
LITERAL_DIGITS = 50


def _parse_rationals(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise _ArgumentError("%s needs %d comma-separated values" % (what, count))
    out = []
    for p in parts:
        if not _LITERAL.fullmatch(p):
            raise _ArgumentError("bad %s value '%s': not a rational" % (what, p))
        if sum(c.isdigit() for c in p) > LITERAL_DIGITS:
            raise _ArgumentError("bad %s value '%s': more than %d digits"
                                 % (what, p, LITERAL_DIGITS))
        try:
            out.append(Fraction(p))
        except ZeroDivisionError:
            raise _ArgumentError("bad %s value '%s': zero denominator" % (what, p))
    return out


def _parse_ints(text, count, what):
    vals = _parse_rationals(text, count, what)
    out = []
    for v in vals:
        if v.denominator != 1:
            raise _ArgumentError("%s entries must be integers" % what)
        out.append(int(v))
    return out


@contextlib.contextmanager
def _output(path, option):
    """A write function for the file at path, opened before any work is done.

    Yields None when path is None.  A path that cannot be opened or written
    is an _ArgumentError (exit 3).  If the block fails, a file that this call
    created is removed again; an existing path (say /dev/stdout) never is.
    """
    if path is None:
        yield None
        return
    created = not os.path.exists(path)
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _ArgumentError("cannot write %s: %s" % (option, exc))

    def write(text):
        try:
            fh.write(text)
        except OSError as exc:
            raise _ArgumentError("cannot write %s: %s" % (option, exc))

    try:
        yield write
        try:
            fh.close()
        except OSError as exc:
            raise _ArgumentError("cannot write %s: %s" % (option, exc))
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        if created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def cmd_verify(args):
    ints = _parse_ints(args.triples, 6, "--triples")
    tau = TauDeformation()
    if args.tau is not None:
        try:
            tau = TauDeformation(*_parse_rationals(args.tau, 4, "--tau"))
        except ValueError as exc:
            raise _ArgumentError(str(exc))
    picard = PicardPoint()
    if args.picard is not None:
        vals = _parse_rationals(args.picard, 4, "--picard")
        sc = [Scalar.of(v) for v in vals]
        picard = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
    try:
        t0 = LineBundleTriple(ints[0], ints[1], ints[2], role="V0")
        t1 = LineBundleTriple(ints[3], ints[4], ints[5], role="V1")
    except ValueError as exc:
        raise _ArgumentError(str(exc))
    cfg = FamilyConfig(t0, t1, tau=tau, picard=picard)
    with _output(args.json, "--json") as write:
        try:
            candidate = make_family(cfg)
        except DegenerateCoupling:
            raise  # exit 2, in main
        except ValueError as exc:
            raise _ArgumentError(str(exc))
        report = verify_family(candidate)
        print(report.human_summary())
        if write is not None:
            write(report.to_json() + "\n")
    ok = report.verdicts["hs_solution"] and report.verdicts["hermitian_einstein"]
    return 0 if ok else 1


def cmd_sweep(args):
    if not 0 <= args.max <= SWEEP_MAX_ABS:
        raise _ArgumentError("--max must be between 0 and %d" % SWEEP_MAX_ABS)
    if args.threads < 1:
        raise _ArgumentError("--threads must be at least 1")
    families = harmonic = 0
    with _output(args.out, "--out") as write:
        write = write or sys.stdout.write
        # one write per row as it arrives; the catalog is never held
        for text, records, harm in iter_sweep(
                args.max, require_harmonic=args.require_harmonic,
                require_ch2=args.require_ch2, raw=args.raw):
            write(text)
            families += records
            harmonic += harm
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    print("families: %d  harmonic: %d" % (families, harmonic),
          file=sys.stderr)
    return 0


def run_selftest():
    """Calibration identities; returns (ok, name of first failure or None)."""
    import random
    s = make_family(FamilyConfig(LineBundleTriple(1, 2, 2, role="V0"),
                                 LineBundleTriple(2, -1, 0, role="V1"))).params
    model, h, w0 = s.model, s.h, s.h.omega
    half_i = Scalar.of(0, Fraction(1, 2))

    def check_dw3():
        return (model.diff[2] - model.basis_form((0, 1))).is_zero()

    def check_ddc():
        lhs = w0.dc().d()
        return (lhs - model.basis_form((0, 1, 3, 4))).is_zero()

    def check_star_dc():
        lhs = h.star(w0.dc())
        rhs = (model.basis_form((0, 1, 5))
               - model.basis_form((2, 3, 4))).scale(half_i)
        return (lhs - rhs).is_zero()

    def check_fsq():
        rng = random.Random(20240817)
        for _ in range(5):
            t = tuple(rng.randint(-6, 6) for _ in range(3))
            if t == (0, 0, 0):
                continue
            F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
            target = model.basis_form(
                (0, 1, 3, 4), Scalar.pi(2, 2 * sum(x * x for x in t)))
            if not (F.wedge(F) - target).is_zero():
                return False
        return True

    def check_alpha():
        anomaly = w0.dc().d() - (s.F0.wedge(s.F0)
                                 - s.F1.wedge(s.F1)).scale(s.alpha)
        return anomaly.is_zero()

    def check_fd_decomp():
        B, Psi = s.unitary_split
        lhs = s.connection_curvature
        rhs = (B.d() + B.wedge(B) + Psi.wedge(Psi)
               + Psi.d() + B.wedge(Psi) + Psi.wedge(B))
        return (lhs - rhs).is_zero()

    checks = [
        ("d omega_3", check_dw3),
        ("dd^c omega_0", check_ddc),
        ("*d^c omega_0", check_star_dc),
        ("F(m,n,p)^2", check_fsq),
        ("alpha round-trip", check_alpha),
        ("curvature decomposition", check_fd_decomp),
        ("codifferential vs moment-map identity",
         lambda: matrix_is_zero(harmonic_vs_moment_gap(s))),
    ]
    for name, fn in checks:
        if not fn():
            return False, name
    return True, None


def cmd_selftest(args):
    ok, name = run_selftest()
    if ok:
        print("selftest: all calibration identities exact")
        return 0
    print("selftest: FAILED at %s" % name)
    return 1


def build_parser():
    parser = _Parser(prog="hslab",
                     description="Exact Hull-Strominger verification on the "
                                 "Iwasawa manifold")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one integer family")
    pv.add_argument("--triples", required=True,
                    help="m0,n0,p0,m1,n1,p1")
    pv.add_argument("--tau", help="t1,t2,t3,t4 rationals")
    pv.add_argument("--picard", help="a0_1,a0_2,a1_1,a1_2 rationals")
    pv.add_argument("--json", help="write the JSON report to PATH")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="enumerate families to a JSON-lines catalog")
    ps.add_argument("--max", type=int, required=True)
    ps.add_argument("--require-harmonic", action="store_true")
    ps.add_argument("--require-ch2", action="store_true")
    ps.add_argument("--raw", action="store_true",
                    help="do not identify pairs under simultaneous sign flips")
    ps.add_argument("--threads", type=int, default=1, help="has no effect")
    ps.add_argument("--out", help="output path (default stdout)")
    ps.set_defaults(func=cmd_sweep)

    pt = sub.add_parser("selftest", help="run the calibration identity suite")
    pt.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except _ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except DegenerateCoupling as exc:
        print("degenerate coupling: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # stdout's reader is gone: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write standard output: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
