"""Acceptance suite: one exact pass/fail line per top-level criterion."""

import json
import time
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.bundles import (LineBundleTriple, curvature_from_triple,
                           hs_residuals, CohClass, degree_and_slope)
from hslab.algebroid import (QDIM, QFrame, connection_DG, curvature,
                             he_residual_G)
from hslab.harmonic import (CompatibleMetricH, decompose_unitary,
                            harmonic_residual, harmonic_criteria,
                            harmonic_vs_moment_gap, matrix_is_zero,
                            higgs_dbar_entry)
from hslab.iwasawa import (TauDeformation, PicardPoint, FamilyConfig,
                           make_family, verify_family)
from hslab.cli import main

from conftest import make_params, random_pair, random_form, sweep_records


def _report(capsys, num, ok):
    line = "criterion %d: %s" % (num, "PASS" if ok else "FAIL")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _closed_form_alpha(t0, t1):
    s0 = sum(x * x for x in t0)
    s1 = sum(x * x for x in t1)
    return Scalar.pi(-2, Fraction(1, 2 * (s0 - s1)))


def _dot(t0, t1):
    return sum(a * b for a, b in zip(t0, t1))


@pytest.fixture(scope="module")
def catalog3():
    start = time.perf_counter()
    records = sweep_records(3)
    return records, time.perf_counter() - start


def test_criterion_1_calibration(capsys, model, h0, rng):
    start = time.perf_counter()
    ok = (model.diff[2] - model.basis_form((0, 1))).is_zero()
    dc = h0.omega.dc()
    ok = ok and (dc.d() - model.basis_form((0, 1, 3, 4))).is_zero()
    half_i = Scalar.of(0, Fraction(1, 2))
    star_expect = (model.basis_form((0, 1, 5))
                   - model.basis_form((2, 3, 4))).scale(half_i)
    ok = ok and (h0.star(dc) - star_expect).is_zero()
    for _ in range(20):
        t0, _ = random_pair(rng)
        F = curvature_from_triple(model, LineBundleTriple(*t0, role="V0"))
        target = model.basis_form(
            (0, 1, 3, 4), Scalar.pi(2, 2 * sum(x * x for x in t0)))
        ok = ok and (F.wedge(F) - target).is_zero()
    ok = ok and time.perf_counter() - start < 1.0
    _report(capsys, 1, ok)


def test_criterion_2_alpha_round_trip(capsys, model, h0, Omega, rng):
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        ok = ok and s.alpha == _closed_form_alpha(t0, t1)
        ok = ok and all(r.is_zero() for r in hs_residuals(s))
        q = Fraction(rng.randint(1, 5), rng.randint(1, 7))
        if rng.random() < 0.5:
            q = -q
        bad = make_params(model, h0, Omega, t0, t1,
                          alpha=s.alpha + Scalar.of(q))
        flags = [r.is_zero() for r in hs_residuals(bad)]
        ok = ok and flags == [True, True, True, False]
    ok = ok and time.perf_counter() - start < 5.0
    _report(capsys, 2, ok)


def test_criterion_3_hermitian_einstein(capsys, model, h0, Omega, rng):
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        ok = ok and he_residual_G(s).is_zero()
    menu = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4), Fraction(-1, 4)]
    for _ in range(6):
        t0, t1 = random_pair(rng)
        coeffs = [rng.choice(menu) if rng.random() < 0.7 else Fraction(0)
                  for _ in range(4)]
        cfg = FamilyConfig(LineBundleTriple(*t0, role="V0"),
                           LineBundleTriple(*t1, role="V1"),
                           tau=TauDeformation(*coeffs))
        cand = make_family(cfg)
        ok = ok and all(r.is_zero() for r in hs_residuals(cand.params))
        ok = ok and he_residual_G(cand.params).is_zero()
    ok = ok and time.perf_counter() - start < 10.0
    _report(capsys, 3, ok)


def test_criterion_4_harmonicity_three_ways(capsys, catalog3, model, h0, Omega, rng):
    records, seconds = catalog3
    ok = len(records) > 0 and seconds < 60.0
    # full catalog: the moment-map verdict agrees with the integer condition
    for rec in records:
        dot = _dot(rec["params"]["triple0"], rec["params"]["triple1"])
        ok = ok and rec["harmonic"] == (dot == 0)
    # subsample: replay the K residual and the closed-form criterion pair
    # through the engine, covering both verdicts
    sample = rng.sample(records, 14)
    sample += [r for r in rng.sample(records, 40) if r["harmonic"]][:6]
    for rec in sample:
        t0 = tuple(rec["params"]["triple0"])
        t1 = tuple(rec["params"]["triple1"])
        s = make_params(model, h0, Omega, t0, t1)
        kzero = matrix_is_zero(harmonic_residual(s))
        crit = harmonic_criteria(s)
        critzero = (crit["torsion_pairing"].is_zero()
                    and crit["cross"].is_zero())
        dot = _dot(t0, t1)
        ok = ok and kzero == critzero == (dot == 0) == rec["harmonic"]
    _report(capsys, 4, ok)


def _paper_dbar_phi_closed_form(model, t0, t1, alpha):
    # -4 pi^2 alpha (M0 M1)_{jk} w_j ^ w_k', M = [[m, n+ip], [n-ip, -m]]
    def mrows(t):
        m, n, p = t
        return [[(Fraction(m), Fraction(0)), (Fraction(n), Fraction(p))],
                [(Fraction(n), Fraction(-p)), (Fraction(-m), Fraction(0))]]

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    m0, m1 = mrows(t0), mrows(t1)
    out = model.zero()
    factor = Scalar.pi(2, -4) * alpha
    for j in range(2):
        for k in range(2):
            acc = (Fraction(0), Fraction(0))
            for l in range(2):
                prod = cmul(m0[j][l], m1[l][k])
                acc = (acc[0] + prod[0], acc[1] + prod[1])
            coef = factor * Scalar.of(acc[0], acc[1])
            if not coef.is_zero():
                out = out + model.basis_form((j, k + 3), coef)
    return out


def _random_orthogonal_pair(rng):
    while True:
        t0, t1 = random_pair(rng)
        if _dot(t0, t1) == 0:
            return t0, t1


def test_criterion_5_dbar_phi_closed_form(capsys, catalog3, model, h0, Omega, rng):
    ok = True
    for _ in range(50):
        t0, t1 = _random_orthogonal_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        expect = _paper_dbar_phi_closed_form(model, t0, t1, s.alpha)
        ok = ok and (higgs_dbar_entry(s, 6, 7) - expect).is_zero()
        ok = ok and (higgs_dbar_entry(s, 7, 6) - expect).is_zero()
        ok = ok and not expect.is_zero()
    records, _ = catalog3
    harmonic = [r for r in records if r["harmonic"]]
    ok = ok and len(harmonic) > 0
    ok = ok and all(r["dbar_phi_23_nonzero"] for r in harmonic)
    for rec in rng.sample(harmonic, 10):
        t0 = tuple(rec["params"]["triple0"])
        t1 = tuple(rec["params"]["triple1"])
        s = make_params(model, h0, Omega, t0, t1)
        ok = ok and not higgs_dbar_entry(s, 6, 7).is_zero()
    _report(capsys, 5, ok)


def test_criterion_6_structural_identities(capsys, model, h0, Omega, rng):
    ok = True
    for _ in range(100):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        frame = QFrame(s.h, s.alpha)
        H = CompatibleMetricH(frame)
        A = connection_DG(s)
        B, Psi = decompose_unitary(A, H)
        # curvature consistency across the unitary splitting
        lhs = curvature(A)
        rhs = (B.d() + B.wedge(B) + Psi.wedge(Psi)
               + Psi.d() + B.wedge(Psi) + Psi.wedge(B))
        ok = ok and (lhs - rhs).is_zero()
        # codifferential vs moment-map identity
        ok = ok and matrix_is_zero(harmonic_vs_moment_gap(s))
        # self-adjointness of Psi and bidegree purity of the Higgs field
        ok = ok and (H.adjoint(Psi) - Psi).is_zero()
        phi = Psi.part(1, 0).scale(Scalar.of(2))
        ok = ok and (phi - phi.part(1, 0)).is_zero()
        # pairing-orthogonality Leibniz rule for the connection
        P = frame.pairing
        for i in range(QDIM):
            for j in range(QDIM):
                acc = model.zero()
                for k in range(QDIM):
                    if not P[i][k].is_zero():
                        acc = acc + A.entries[k][j].scale(P[i][k])
                    if not P[k][j].is_zero():
                        acc = acc + A.entries[k][i].scale(P[k][j])
                ok = ok and acc.is_zero()
    for _ in range(100):
        deg = rng.choice((1, 2, 3))
        a = random_form(model, rng, deg)
        # d squares to zero
        ok = ok and a.d().d().is_zero()
        # double Hodge star sign rule
        sign = Scalar.of((-1) ** deg)
        ok = ok and (h0.star(h0.star(a)) - a.scale(sign)).is_zero()
    b = CohClass(h0.omega.wedge(h0.omega), flavor="aeppli")
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    for _ in range(100):
        t0, _ = random_pair(rng)
        F = curvature_from_triple(model, LineBundleTriple(*t0, role="V0"))
        c = CohClass(F.scale(i_2pi))
        base = degree_and_slope(c, b, h0)
        # shift the 2-class representative by an exact form
        shift = random_form(model, rng, 1).d()
        c2 = CohClass(F.scale(i_2pi) + shift)
        ok = ok and degree_and_slope(c2, b, h0) == base
        # shift the balanced class by a (2,1)-exact part plus its conjugate
        g = random_form(model, rng, 3)
        dd = g.d().part(2, 2)
        bshift = dd + dd.conjugate()
        b2 = CohClass(h0.omega.wedge(h0.omega) + bshift, flavor="aeppli")
        ok = ok and degree_and_slope(c, b2, h0) == base
    _report(capsys, 6, ok)


def test_criterion_7_slopes_and_extension_classes(capsys):
    ok = True
    for rec in sweep_records(1):
        t0 = tuple(rec["params"]["triple0"])
        t1 = tuple(rec["params"]["triple1"])
        cfg = FamilyConfig(LineBundleTriple(*t0, role="V0"),
                           LineBundleTriple(*t1, role="V1"))
        report = verify_family(make_family(cfg))
        for key in ("degree_L0", "degree_L1", "slope_cotangent"):
            ok = ok and report.scalars[key]["exact"] == "0"
        ok = ok and report.verdicts["cotangent_isotropic"]
        # the extension class is nonzero for every family with a nonzero
        # coupling and nonzero curvatures (all swept families qualify)
        ok = ok and report.scalars["alpha"]["exact"] != "0"
        ok = ok and report.verdicts["extension_class_nonzero"]
    _report(capsys, 7, ok)


def test_criterion_8_picard_invariance(capsys, rng):
    from conftest import random_scalar
    cfg0 = FamilyConfig(LineBundleTriple(1, 2, 2, role="V0"),
                        LineBundleTriple(2, -1, 0, role="V1"))
    base = verify_family(make_family(cfg0)).comparable()
    ok = True
    for _ in range(20):
        sc = [random_scalar(rng, allow_pi=False) for _ in range(4)]
        pt = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
        cfg = FamilyConfig(LineBundleTriple(1, 2, 2, role="V0"),
                           LineBundleTriple(2, -1, 0, role="V1"),
                           picard=pt)
        report = verify_family(make_family(cfg))
        ok = ok and report.comparable() == base
    _report(capsys, 8, ok)


def test_criterion_9_sweep_determinism(capsys):
    ok = main(["sweep", "--max", "1"]) == 0
    first = capsys.readouterr().out
    ok = ok and main(["sweep", "--max", "1"]) == 0
    second = capsys.readouterr().out
    ok = ok and first == second and len(first) > 0
    for line in first.splitlines():
        ok = ok and json.dumps(json.loads(line), sort_keys=True) == line
    _report(capsys, 9, ok)
