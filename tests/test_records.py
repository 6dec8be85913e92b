"""The record types keep their constructor contract.

A family is described by LineBundleTriple, TauDeformation, PicardPoint and
FamilyConfig, assembled into a SystemParams and a SolutionCandidate, and
reported by a VerificationReport.  Each keeps the call forms its callers
use (the CLI's verify command, the benchmark's family builder and the
README example), its defaults and the ValueErrors of its checks.  A report's
JSON round trip is checked in test_iwasawa.test_verify_family_standard.
"""

from fractions import Fraction

import pytest

from hslab import (LineBundleTriple, FamilyConfig, TauDeformation, PicardPoint,
                   SystemParams, Scalar, curvature_from_triple)


def test_call_forms_of_the_cli_the_benchmark_and_the_readme():
    tenth, quarter = Fraction(1, 10), Fraction(-1, 4)
    # the verify command: parsed integers and rationals
    ints = [1, 2, 2, 2, -1, 0]
    t0 = LineBundleTriple(ints[0], ints[1], ints[2], role="V0")
    t1 = LineBundleTriple(ints[3], ints[4], ints[5], role="V1")
    tau = TauDeformation(*[tenth, Fraction(0), quarter, Fraction(0)])
    sc = [Scalar.of(v) for v in (Fraction(1, 3), 0, 0, Fraction(-2, 7))]
    picard = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
    cli = FamilyConfig(t0, t1, tau=tau, picard=picard)
    assert (cli.triple0.m, cli.triple0.n, cli.triple0.p) == (1, 2, 2)
    assert (cli.triple1.role, cli.tau.coeffs()) == ("V1", (tenth, 0, quarter, 0))
    assert cli.picard.a0 == (sc[0], sc[1]) and cli.picard.a1 == (sc[2], sc[3])
    # the benchmark: unpacked triples and keyword options
    bench = FamilyConfig(LineBundleTriple(*(1, 2, 2), role="V0"),
                         LineBundleTriple(*(2, -1, 0), role="V1"),
                         **{"tau": TauDeformation(*(tenth, 0, quarter, 0)),
                            "picard": picard})
    assert bench == cli
    # the README: a deformation by its first coefficient alone
    readme = FamilyConfig(LineBundleTriple(1, 2, 2, role="V0"),
                          LineBundleTriple(2, -1, 0, role="V1"),
                          tau=TauDeformation(Fraction(1, 10)))
    assert readme.tau == TauDeformation(t1=tenth)
    # positional order and keyword names of every field
    assert FamilyConfig(t0, t1, tau, picard, Scalar.one(), False) == \
        FamilyConfig(triple0=t0, triple1=t1, tau=tau, picard=picard,
                     alpha=Scalar.one(), correct=False)
    assert LineBundleTriple(1, 2, 2, "V1") == \
        LineBundleTriple(m=1, n=2, p=2, role="V1")
    assert TauDeformation(tenth, 0, quarter) == \
        TauDeformation(t1=tenth, t2=0, t3=quarter, t4=0)


def test_defaults():
    zero = TauDeformation()
    assert zero.is_zero() and zero.coeffs() == (0, 0, 0, 0)
    assert PicardPoint().a0 == PicardPoint().a1 == (Scalar.zero(),) * 2
    cfg = FamilyConfig(LineBundleTriple(1, 0, 0), LineBundleTriple(0, 1, 0))
    assert cfg.triple0.role == cfg.triple1.role == "V0"
    assert cfg.tau == zero and cfg.picard == PicardPoint()
    assert cfg.alpha is None and cfg.correct is True


def test_checks_raise_value_errors(model, h0, Omega):
    with pytest.raises(ValueError, match="triple must be nonzero"):
        LineBundleTriple(0, 0, 0, role="V1")
    for coeffs in ((Fraction(2, 3),), (0, 0, 0, -1)):
        with pytest.raises(ValueError, match=r"satisfy \|t_i\| <= 1/2"):
            TauDeformation(*coeffs)
    TauDeformation(Fraction(1, 2), 0, 0, Fraction(-1, 2))  # on the bound
    t0, t1 = LineBundleTriple(1, 0, 0), LineBundleTriple(1, 1, 0)
    fields = dict(model=model, h=h0, triple0=t0, triple1=t1,
                  F0=curvature_from_triple(model, t0),
                  F1=curvature_from_triple(model, t1))
    SystemParams(**fields, alpha=Scalar.pi(-1, 3), Omega=Omega)
    for alpha in (Scalar.zero(), Scalar.one() + Scalar.pi()):
        with pytest.raises(ValueError, match="real and nonzero, a monomial"):
            SystemParams(**fields, alpha=alpha, Omega=Omega)
    # w3 ^ w1' ^ w2' is not closed (d w3 = w1 ^ w2); w1 ^ w2 ^ w1' is, but
    # it is not of type (3,0)
    for Omega_bad, message in (((2, 3, 4), "must be closed"),
                               ((0, 1, 3), r"bidegree \(3,0\)")):
        with pytest.raises(ValueError, match=message):
            SystemParams(**fields, alpha=Scalar.one(),
                         Omega=model.basis_form(Omega_bad))


def test_replace_and_make_run_the_checks():
    with pytest.raises(ValueError, match="triple must be nonzero"):
        LineBundleTriple(1, 0, 0)._replace(m=0)
    with pytest.raises(ValueError, match="triple must be nonzero"):
        LineBundleTriple._make((0, 0, 0, "V0"))
    with pytest.raises(ValueError, match=r"satisfy \|t_i\| <= 1/2"):
        TauDeformation()._replace(t1=5)
    assert LineBundleTriple(1, 0, 0)._replace(n=2) == LineBundleTriple(1, 2, 0)
    assert type(TauDeformation()._replace(t4=Fraction(1, 2))) is TauDeformation


def test_records_are_tuples_and_the_family_compares_by_identity(model, h0,
                                                               Omega):
    # the value records are tuples: equal and hashed as the tuple of their
    # fields, iterated and unpacked in field order
    t = LineBundleTriple(1, 0, 0)
    assert t == (1, 0, 0, "V0") and hash(t) == hash((1, 0, 0, "V0"))
    m, n, p, role = t
    assert (m, n, p, role) == tuple(t) == (t.m, t.n, t.p, t.role)
    assert TauDeformation() == (0, 0, 0, 0) and len(PicardPoint()) == 2
    # a SystemParams (and so a SolutionCandidate) is equal to itself only
    t1 = LineBundleTriple(1, 1, 0)
    fields = (model, h0, t, t1, curvature_from_triple(model, t),
              curvature_from_triple(model, t1), Scalar.one(), Omega)
    s = SystemParams(*fields)
    assert s == s and s != SystemParams(*fields)
    with pytest.raises(AttributeError, match="cannot delete alpha"):
        del s.alpha
