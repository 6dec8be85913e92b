"""Command-line surface: verify one family, sweep a catalog, or self-test.

Exit codes: 0 success (verify: the family solves the system and the
associated connection is Hermitian-Einstein), 1 failed verification or
selftest identity, 2 degenerate coupling, 3 malformed arguments (including
a deformation that is not positive, a sweep thread count below 1, and a
--json or --out path that cannot be opened for writing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .scalars import Scalar
from .cealg import build_iwasawa_model
from .hermitian import HermitianStructure
from .bundles import (LineBundleTriple, curvature_from_triple, alpha_solve,
                      DegenerateCoupling, SystemParams)
from .harmonic import harmonic_vs_moment_gap, matrix_is_zero
from .iwasawa import (TauDeformation, PicardPoint, FamilyConfig,
                      make_family, verify_family, sweep)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _parse_rationals(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise _ArgumentError("%s needs %d comma-separated values" % (what, count))
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise _ArgumentError("bad %s value: %s" % (what, exc))


def _parse_ints(text, count, what):
    vals = _parse_rationals(text, count, what)
    out = []
    for v in vals:
        if v.denominator != 1:
            raise _ArgumentError("%s entries must be integers" % what)
        out.append(int(v))
    return out


def _write(path, text, option):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ArgumentError("cannot write %s: %s" % (option, exc))


def cmd_verify(args):
    ints = _parse_ints(args.triples, 6, "--triples")
    tau = TauDeformation()
    if args.tau:
        try:
            tau = TauDeformation(*_parse_rationals(args.tau, 4, "--tau"))
        except ValueError as exc:
            raise _ArgumentError(str(exc))
    picard = PicardPoint()
    if args.picard:
        vals = _parse_rationals(args.picard, 4, "--picard")
        sc = [Scalar.of(v) for v in vals]
        picard = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
    try:
        t0 = LineBundleTriple(ints[0], ints[1], ints[2], role="V0")
        t1 = LineBundleTriple(ints[3], ints[4], ints[5], role="V1")
    except ValueError as exc:
        raise _ArgumentError(str(exc))
    cfg = FamilyConfig(t0, t1, tau=tau, picard=picard)
    try:
        candidate = make_family(cfg)
    except DegenerateCoupling as exc:
        print("degenerate coupling: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        raise _ArgumentError(str(exc))
    report = verify_family(candidate)
    print(report.human_summary())
    if args.json:
        _write(args.json, report.to_json() + "\n", "--json")
    ok = report.verdicts["hs_solution"] and report.verdicts["hermitian_einstein"]
    return 0 if ok else 1


def cmd_sweep(args):
    if args.max < 0:
        raise _ArgumentError("--max must be nonnegative")
    threads, source = args.threads, "--threads"
    env = os.environ.get("HS_LAB_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise _ArgumentError("HS_LAB_THREADS must be an integer")
        source = "HS_LAB_THREADS"
    if threads < 1:
        raise _ArgumentError("%s must be at least 1" % source)
    records = sweep(args.max, require_harmonic=args.require_harmonic,
                    require_ch2=args.require_ch2, raw=args.raw,
                    threads=threads)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        _write(args.out, text, "--out")
    else:
        sys.stdout.write(text)
    harmonic = sum(1 for r in records if r["harmonic"])
    print("families: %d  harmonic: %d" % (len(records), harmonic),
          file=sys.stderr)
    return 0


def run_selftest(dc_sign=1, star_sign=1):
    """Calibration identities; returns (ok, name of first failure or None).

    dc_sign and star_sign flip the respective conventions for harness use:
    the suite must then fail at the named identity.
    """
    import random
    model = build_iwasawa_model()
    half_i = Scalar.of(0, Fraction(1, 2))
    w0 = (model.basis_form((0, 3)) + model.basis_form((1, 4))
          + model.basis_form((2, 5))).scale(half_i)
    h = HermitianStructure(model, w0)
    dsgn = Scalar.of(dc_sign)
    ssgn = Scalar.of(star_sign)

    def check_dw3():
        return (model.d_gen(2) - model.basis_form((0, 1))).is_zero()

    def check_ddc():
        lhs = w0.dc().scale(dsgn).d()
        return (lhs - model.basis_form((0, 1, 3, 4))).is_zero()

    def check_star_dc():
        lhs = h.star(w0.dc().scale(dsgn)).scale(ssgn)
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
        F0 = curvature_from_triple(model, LineBundleTriple(1, 2, 2, role="V0"))
        F1 = curvature_from_triple(model, LineBundleTriple(2, -1, 0, role="V1"))
        alpha = alpha_solve(F0, F1, h)
        anomaly = w0.dc().scale(dsgn).d() - (F0.wedge(F0) - F1.wedge(F1)).scale(alpha)
        return anomaly.is_zero()

    def check_fd_decomp():
        F0 = curvature_from_triple(model, LineBundleTriple(1, 2, 2, role="V0"))
        F1 = curvature_from_triple(model, LineBundleTriple(2, -1, 0, role="V1"))
        alpha = alpha_solve(F0, F1, h)
        s = SystemParams(model=model, h=h,
                         triple0=LineBundleTriple(1, 2, 2, role="V0"),
                         triple1=LineBundleTriple(2, -1, 0, role="V1"),
                         F0=F0, F1=F1, alpha=alpha,
                         Omega=model.basis_form((0, 1, 2)))
        B, Psi = s.unitary_split
        lhs = s.connection_curvature
        rhs = (B.d() + B.wedge(B) + Psi.wedge(Psi)
               + Psi.d() + B.wedge(Psi) + Psi.wedge(B))
        return (lhs - rhs).is_zero(), s

    def check_harmonic_vs_mmap(s):
        return matrix_is_zero(harmonic_vs_moment_gap(s))

    checks = [
        ("d omega_3", check_dw3),
        ("dd^c omega_0", check_ddc),
        ("*d^c omega_0", check_star_dc),
        ("F(m,n,p)^2", check_fsq),
        ("alpha round-trip", check_alpha),
    ]
    for name, fn in checks:
        if not fn():
            return False, name
    ok, s = check_fd_decomp()
    if not ok:
        return False, "curvature decomposition"
    if not check_harmonic_vs_mmap(s):
        return False, "codifferential vs moment-map identity"
    return True, None


def cmd_selftest(args):
    ok, name = run_selftest(dc_sign=args.dc_sign, star_sign=args.star_sign)
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
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--out", help="output path (default stdout)")
    ps.set_defaults(func=cmd_sweep)

    pt = sub.add_parser("selftest", help="run the calibration identity suite")
    pt.add_argument("--dc-sign", type=int, default=1, help=argparse.SUPPRESS)
    pt.add_argument("--star-sign", type=int, default=1, help=argparse.SUPPRESS)
    pt.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except DegenerateCoupling as exc:
        print("degenerate coupling: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
