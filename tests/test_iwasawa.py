"""Family construction, exact verification reports, and the integer sweep."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import sys
import weakref
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import InvariantForm, InvariantVector
from hslab.bundles import (LineBundleTriple, DegenerateCoupling,
                           hs_residuals)
from hslab.algebroid import he_residual_G
import hslab.harmonic as harmonic
import hslab.hermitian as hermitian
from hslab.harmonic import (harmonic_residual, harmonic_vs_moment_gap,
                            matrix_is_zero, higgs_dbar_entry)
import hslab.iwasawa as iwasawa
from hslab.iwasawa import (build_iwasawa, TauDeformation, PicardPoint,
                           FamilyConfig, make_family, verify_family,
                           VerificationReport, omega0_structure)
from hslab.cli import run_selftest

from conftest import dbar_reference, random_pair, random_scalar, sweep_records

# sha256 of verify_family(...).to_json() for a flat, a Picard-twisted and a
# deformed family, recorded from code whose verifiers each built their own
# curvature and Dolbeault operator and read the full Higgs residuals
PINNED_REPORT_DIGESTS = {
    "flat": "bb5bd1065af5cc78b4b6ef5d3ca263296b82e7a88c5142cb8d81d59de06d7061",
    "picard": "07cd5c73b642de35deedc812da703a47174dedba68c87000d4a942a65bb08a3d",
    "deformed": "c3acc6d38459a83c0bbd1359d57b259ceb640355f6ae10555b2ce9eb84ad93ec",
}


def _triples(t0, t1):
    return (LineBundleTriple(*t0, role="V0"), LineBundleTriple(*t1, role="V1"))


def _family(t0, t1, **kw):
    return make_family(FamilyConfig(*_triples(t0, t1), **kw))


def test_su3_structure_invariants():
    model, omega0, Omega = build_iwasawa()
    assert Omega.d().is_zero()
    assert omega0.wedge(omega0).d().is_zero()
    assert not omega0.d().is_zero()
    ddc = omega0.dc().d()
    assert (ddc - model.basis_form((0, 1, 3, 4))).is_zero()


def test_tau_validation():
    TauDeformation(Fraction(1, 2), 0, 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        TauDeformation(Fraction(2, 3))
    with pytest.raises(ValueError):
        TauDeformation(0, 0, 0, 1)


def test_tau_form_is_real_one_one(rng):
    model, _, _ = build_iwasawa()
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-2, 2), 4) for _ in range(4)]
        tau = TauDeformation(*coeffs)
        f = tau.form(model)
        assert (f - f.part(1, 1)).is_zero()
        assert (f.conjugate() - f).is_zero()
        assert f.is_zero() == tau.is_zero()


def test_make_family_standard_alpha():
    cand = _family((1, 2, 2), (2, -1, 0))
    assert cand.params.alpha == Scalar.pi(-2, Fraction(1, 8))
    assert cand.gamma_form.is_zero()
    # explicit coupling overrides the solved one
    forced = _family((1, 2, 2), (2, -1, 0), alpha=Scalar.one())
    assert forced.params.alpha == Scalar.one()


def test_make_family_degenerate():
    with pytest.raises(DegenerateCoupling):
        _family((1, 2, 2), (2, 2, 1))


def test_tau_family_exactness():
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 2, 2), (2, -1, 0), tau=tau)
    assert not cand.gamma_form.is_zero()
    for res in hs_residuals(cand.params):
        assert res.is_zero()
    assert he_residual_G(cand.params).is_zero()


def test_uncorrected_tau_family_fails_instanton_equations():
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 2, 2), (2, -1, 0), tau=tau, correct=False)
    assert cand.gamma_form.is_zero()
    zero_flags = [r.is_zero() for r in hs_residuals(cand.params)]
    # the two instanton equations fail; balanced and anomaly still hold
    assert zero_flags == [False, False, True, True]


def test_gamma_correction_properties(rng):
    for _ in range(4):
        t0, t1 = random_pair(rng)
        coeffs = [Fraction(rng.randint(-2, 2), 8) for _ in range(4)]
        tau = TauDeformation(*coeffs)
        cand = _family(t0, t1, tau=tau)
        omega0 = cand.params.h.omega - cand.tau_form - cand.gamma_form
        gamma = cand.gamma_form
        assert gamma.d().is_zero()
        assert (gamma - gamma.part(1, 1)).is_zero()
        assert (gamma.conjugate() - gamma).is_zero()
        tau_sq = cand.tau_form.wedge(cand.tau_form)
        two = Scalar.of(2)
        for F in (cand.params.F0, cand.params.F1):
            lhs = F.wedge(omega0).wedge(gamma).scale(two) + F.wedge(tau_sq)
            assert lhs.is_zero()


def test_verify_family_standard():
    report = verify_family(_family((1, 2, 2), (2, -1, 0)))
    assert report.verdicts == {
        "hs_solution": True,
        "hermitian_einstein": True,
        "harmonic": True,
        "higgs_nonholomorphic": True,
        "extension_class_nonzero": True,
        "cotangent_isotropic": True,
        "cotangent_holomorphic_invariant": True,
    }
    for key in ("degree_L0", "degree_L1", "slope_cotangent"):
        assert report.scalars[key]["exact"] == "0"
    # round-trip through JSON preserves everything
    again = VerificationReport.from_json(report.to_json())
    assert again.comparable() == report.comparable()
    assert "harmonic" in report.human_summary()


def test_verify_family_nonorthogonal_pair_not_harmonic():
    report = verify_family(_family((1, 1, 0), (1, 0, 0)))
    assert report.verdicts["hs_solution"]
    assert report.verdicts["hermitian_einstein"]
    assert not report.verdicts["harmonic"]
    by_name = {r["name"]: r for r in report.residuals}
    assert not by_name["harmonic_K"]["zero"]
    assert not by_name["cross_coupling"]["zero"]
    assert by_name["torsion_pairing"]["zero"]


def test_verify_family_repeat_on_one_candidate():
    # the second run reuses the metric objects the first one built; the
    # report must not depend on whether they were built already
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 1, 0), (1, 0, 0), tau=tau)
    first = verify_family(cand).to_json()
    assert not json.loads(first)["verdicts"]["harmonic"]
    assert verify_family(cand).to_json() == first
    assert verify_family(_family((1, 1, 0), (1, 0, 0), tau=tau)).to_json() == first


def test_verify_family_reports_pinned():
    picard = PicardPoint(a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
                         a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    families = {
        "flat": _family((1, 2, 2), (2, -1, 0)),
        "picard": _family((1, 2, 2), (2, -1, 0), picard=picard),
        "deformed": _family((1, 1, 0), (1, 0, 0), tau=tau),
    }
    digests = {name: hashlib.sha256(verify_family(cand).to_json().encode())
               .hexdigest() for name, cand in families.items()}
    assert digests == PINNED_REPORT_DIGESTS


def test_family_context_is_built_once(monkeypatch):
    import hslab.algebroid as algebroid
    counted = ("connection_DG", "curvature", "curvature_wedge_omega_sq",
               "dolbeault_Q")
    calls = dict.fromkeys(counted + ("QFrame",), 0)
    frame_init = algebroid.QFrame.__init__

    def counting(name, original):
        def counted_call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted_call

    def counted_frame_init(self, h, alpha):
        calls["QFrame"] += 1
        frame_init(self, h, alpha)

    # every module binding of the counted functions, and every QFrame however
    # reached
    for name in counted:
        original = getattr(algebroid, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("hslab") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    monkeypatch.setattr(algebroid.QFrame, "__init__", counted_frame_init)
    # one adjoint: the Chern split is read off the unitary one
    calls["adjoint"] = 0
    monkeypatch.setattr(harmonic.CompatibleMetricH, "adjoint",
                        counting("adjoint", harmonic.CompatibleMetricH.adjoint))
    # F ^ omega^2 comes from the connection's coefficients: no curvature
    # 2-forms are built on the verify path
    once = dict(dict.fromkeys(calls, 1), curvature=0)
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 1, 0), (1, 0, 0), tau=tau)
    # every verifier reads the one connection, F ^ omega^2, Dolbeault
    # operator and frame of the family
    verify_family(cand)
    assert calls == once
    s = cand.params
    for name in ("frame", "metric_H", "connection", "curvature_omega_sq",
                 "dolbeault", "unitary_split", "chern_split"):
        assert getattr(s, name) is getattr(s, name)
    assert calls == once
    assert s.connection_curvature is s.connection_curvature
    assert calls == dict(once, curvature=1)
    # the objects are only valid for fixed fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.alpha = Scalar.one()
    # no kept object points back at the family, so dropping it frees it at
    # once, without the cyclic garbage collector
    ref = weakref.ref(s)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del s, cand
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _cyclic_garbage(work):
    """Type names and counts of what only the cyclic collector frees after
    a second work(); the first may fill caches that outlive it."""
    work()
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return collections.Counter(type(x).__name__ for x in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _verified(t0, t1, **kw):
    return lambda: verify_family(_family(t0, t1, **kw))


@pytest.mark.parametrize("work", [
    _verified((1, 2, 2), (2, -1, 0)),
    _verified((1, 1, 0), (1, 0, 0),
              tau=TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)),
    _verified((1, 2, 2), (2, -1, 0), picard=PicardPoint(
        a0=(Scalar.of(Fraction(1, 3)), Scalar.zero()),
        a1=(Scalar.zero(), Scalar.of(Fraction(-2, 7))))),
    _verified((1, 1, 0), (1, 0, 0)),  # not harmonic
    lambda: list(iwasawa.iter_sweep(1)),
    run_selftest,
    lambda: hermitian.HermitianStructure(*build_iwasawa()[:2]),
], ids=["flat", "deformed", "picard", "non-harmonic", "sweep", "selftest",
        "structure"])
def test_calls_leave_no_cyclic_garbage(work):
    # the model is shared and nothing refers back to a family or a metric,
    # so reference counting frees every object a call makes
    assert _cyclic_garbage(work) == {}


def test_one_immutable_model_per_process():
    model, omega0, Omega = build_iwasawa()
    assert all(x is y for x, y in zip(build_iwasawa(), (model, omega0, Omega)))
    before = {k: (id(v), v) for k, v in vars(model).items()}
    cand = _family((1, 1, 0), (1, 0, 0),
                   tau=TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0))
    assert cand.params.model is model and cand.params.Omega is Omega
    verify_family(cand)
    assert {k: (id(v), v) for k, v in vars(model).items()} == before


_PICARD = PicardPoint(a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
                      a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))


def test_flat_families_share_the_omega0_structure(monkeypatch):
    h = omega0_structure()
    assert omega0_structure() is h and h.omega is build_iwasawa()[1]
    built = []
    init = hermitian.HermitianStructure.__init__

    def counted_init(self, model, omega):
        built.append(omega)
        init(self, model, omega)

    monkeypatch.setattr(hermitian.HermitianStructure, "__init__", counted_init)
    # tau = 0, with and without a Picard twist, and the sweep's certificate
    # build no structure
    for kw in ({}, {"picard": _PICARD}, {"correct": False}):
        assert _family((1, 2, 2), (2, -1, 0), **kw).params.h is h
    list(iwasawa.iter_sweep(1))
    assert built == []
    # a deformed metric gets its own
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    assert _family((1, 1, 0), (1, 0, 0), tau=tau).params.h is not h
    assert len(built) == 1


def _frozen(v):
    """A deep copy of v's value as nested tuples and strings."""
    if isinstance(v, (list, tuple)):
        return tuple(_frozen(x) for x in v)
    if isinstance(v, (Scalar, InvariantForm)):
        return (type(v).__name__, str(v))
    if isinstance(v, InvariantVector):
        return ("vector", id(v.model), _frozen(v.coeffs))
    if isinstance(v, hermitian.ConnectionCoefficients):
        return ("connection", id(v.model), _frozen(v.gamma))
    return v


def _star_every_basis_form():
    h = omega0_structure()
    for k in range(7):
        for J in itertools.combinations(range(6), k):
            h.star(h.model.basis_form(J))


@pytest.mark.parametrize("work", [
    _verified((1, 2, 2), (2, -1, 0)),
    _verified((1, 1, 0), (1, 0, 0),
              tau=TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)),
    _verified((1, 2, 2), (2, -1, 0), picard=_PICARD),
    lambda: harmonic_vs_moment_gap(_family((1, 2, 2), (2, -1, 0)).params),
    _star_every_basis_form,
    run_selftest,
], ids=["flat", "deformed", "picard", "gap", "star", "selftest"])
def test_one_immutable_omega0_structure_per_process(work):
    # the shared structure's members keep their identity and their value
    h = omega0_structure()
    before = {k: (id(v), _frozen(v)) for k, v in vars(h).items()}
    work()
    assert omega0_structure() is h
    assert {k: (id(v), _frozen(v)) for k, v in vars(h).items()} == before


def _higgs_outcome(cand):
    report = verify_family(cand)
    witness = next(r for r in report.residuals if r["name"] == "dbar_phi_23")
    return report.verdicts["higgs_nonholomorphic"], witness


def test_higgs_verdict_matches_the_whole_matrix(rng):
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    families = [_family((1, 2, 2), (2, -1, 0)),
                _family((1, 1, 0), (1, 0, 0), tau=tau)]
    families += [_family(*random_pair(rng, -3, 3)) for _ in range(3)]
    for _ in range(2):
        t = [Fraction(rng.randint(-5, 5), 20) for _ in range(4)]
        families.append(_family(*random_pair(rng, -3, 3),
                                tau=TauDeformation(*t)))
    # on the standard flat family entry (6,7) wedges to zero, so the verdict
    # comes from the scan of the other entries
    s = families[0].params
    assert s.h.wedge_omega_sq(higgs_dbar_entry(s, 6, 7)).is_zero()
    for cand in families:
        dbar = dbar_reference(cand.params)
        verdict = not dbar.map_entries(cand.params.h.wedge_omega_sq).is_zero()
        dbar_23 = dbar.entries[6][7]
        expect = {"name": "dbar_phi_23", "zero": dbar_23.is_zero(),
                  "witness": "" if dbar_23.is_zero() else dbar_23.literal()}
        assert _higgs_outcome(cand) == (verdict, expect)


def test_higgs_verdict_stops_at_the_first_nonzero_entry(monkeypatch):
    built = []

    def counted(s, i, j):
        built.append((i, j))
        return higgs_dbar_entry(s, i, j)

    monkeypatch.setattr(iwasawa, "higgs_dbar_entry", counted)
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    # entry (6,7) decides the deformed family: one entry is built
    assert _higgs_outcome(_family((1, 1, 0), (1, 0, 0), tau=tau))[0]
    assert built == [(6, 7)]
    # the flat family's first nonzero entry of dbar_Q phi ^ omega^2 is (0,0)
    del built[:]
    assert _higgs_outcome(_family((1, 2, 2), (2, -1, 0)))[0]
    assert built == [(6, 7), (0, 0)]


def test_metric_forms_are_built_once(monkeypatch):
    from hslab.cealg import InvariantForm
    wedges, dcs, ds = [], [], []
    wedge, dc, d = InvariantForm.wedge, InvariantForm.dc, InvariantForm.d

    def counted_wedge(self, other):
        wedges.append((self, other))
        return wedge(self, other)

    def counted_dc(self):
        dcs.append(self)
        return dc(self)

    def counted_d(self):
        ds.append(self)
        return d(self)

    monkeypatch.setattr(InvariantForm, "wedge", counted_wedge)
    monkeypatch.setattr(InvariantForm, "dc", counted_dc)
    monkeypatch.setattr(InvariantForm, "d", counted_d)
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 1, 0), (1, 0, 0), tau=tau)
    verify_family(cand)
    # every verifier reads omega^2, d^c omega and dd^c omega off the one
    # metric
    h = cand.params.h
    assert sum(1 for a, b in wedges if a is h.omega and b is h.omega) == 1
    assert sum(1 for a in dcs if a is h.omega) == 1
    assert sum(1 for a in ds if a is h.dc_omega) == 1
    assert sum(1 for a in ds if a is h.omega_sq) == 1


def test_deformed_verify_family_reads_its_inverses_off_the_metric(monkeypatch):
    degrees = []
    star_image = hermitian.HermitianStructure._star_image

    def counted_image(self, J):
        degrees.append(len(J))
        return star_image(self, J)

    monkeypatch.setattr(hermitian.HermitianStructure, "_star_image",
                        counted_image)
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 1, 0), (1, 0, 0), tau=tau)
    real = hermitian.matrix_inverse
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return real(rows)

    bindings = [name for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "hslab"
                and getattr(mod, "matrix_inverse", None) is real]
    assert {"hslab.hermitian", "hslab.algebroid", "hslab.iwasawa"} \
        <= set(bindings)
    for name in bindings:
        monkeypatch.setattr(sys.modules[name], "matrix_inverse", counted)
    verify_family(cand)
    # the span Gram of the cotangent slope; no 6x6 or 8x8 elimination
    assert len(sizes) <= 2 and all(n <= 3 for n in sizes)
    # the Lee form comes from d(omega^2): no 2-form image of omega is
    # starred, only those of the 3-form d^c omega
    assert degrees and all(k == 3 for k in degrees)


def test_verify_family_negative_control():
    # a wrong coupling must break the anomaly verdict
    report = verify_family(_family((1, 2, 2), (2, -1, 0), alpha=Scalar.one()))
    assert not report.verdicts["hs_solution"]
    by_name = {r["name"]: r for r in report.residuals}
    assert not by_name["anomaly"]["zero"]


def test_picard_invariance(rng):
    base = verify_family(_family((1, 2, 2), (2, -1, 0))).comparable()
    for _ in range(4):
        sc = [random_scalar(rng, allow_pi=False) for _ in range(4)]
        pt = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
        report = verify_family(_family((1, 2, 2), (2, -1, 0), picard=pt))
        assert report.comparable() == base


def test_sweep_empty_and_validation():
    assert sweep_records(0) == []
    with pytest.raises(ValueError):
        sweep_records(-1)
    # refused before any triple is enumerated
    with pytest.raises(ValueError, match="between 0 and 20"):
        sweep_records(iwasawa.SWEEP_MAX_ABS + 1)
    with pytest.raises(ValueError):
        sweep_records(10 ** 20)


def test_sweep_max_one_catalog():
    records = sweep_records(1)
    assert len(records) == 216
    assert sum(1 for r in records if r["harmonic"]) == 72
    assert all(r["flags"] == {"hs_solution": True, "hermitian_einstein": True}
               for r in records)
    # canonical mode halves the raw enumeration exactly
    assert len(sweep_records(1, raw=True)) == 432
    assert sweep_records(1, require_harmonic=True) == [
        r for r in records if r["harmonic"]]
    # F0^2 - F1^2 is always a multiple of dd^c omega_0 here
    assert sweep_records(1, require_ch2=True) == records


def test_sweep_deterministic_and_threaded():
    records = sweep_records(1)
    assert sweep_records(1) == records


def test_sweep_keeps_the_canonical_raw_pairs():
    # one pair per simultaneous sign flip: the raw pairs with
    # (t0, t1) <= (-t0, -t1), in the raw order
    def pair(rec):
        return (tuple(rec["params"]["triple0"]), tuple(rec["params"]["triple1"]))

    def flipped(p):
        return tuple(tuple(-x for x in t) for t in p)

    raw = [pair(r) for r in sweep_records(2, raw=True)]
    kept = [pair(r) for r in sweep_records(2)]
    assert kept == [p for p in raw if p <= flipped(p)]
    assert len(raw) == 2 * len(kept)


def _engine_flags(triples, model, h0, Omega):
    """Reference base flags: the engine's K of every triple against its
    orthogonal partner, at alpha 1 and 2, with no interpolation."""
    from conftest import make_params

    def flat(t, alpha):
        s = make_params(model, h0, Omega, t, iwasawa._orthogonal_partner(t),
                        alpha=Scalar.of(alpha))
        return matrix_is_zero(iwasawa.harmonic_residual(s))
    return {t: flat(t, 1) and flat(t, 2) for t in triples}


def test_engine_base_K_is_zero_on_every_triple_at_max_3(monkeypatch, model,
                                                         h0, Omega):
    # what _certify_base proves from 30 engine runs, run on all 342 triples
    runs = []

    def counted(s):
        runs.append(s.triple0)
        return harmonic_residual(s)

    monkeypatch.setattr(iwasawa, "harmonic_residual", counted)
    iwasawa._certify_base()
    assert len(runs) == 30
    triples = iwasawa._triples(3)
    assert len(triples) == 342
    assert _engine_flags(triples, model, h0, Omega) == dict.fromkeys(
        triples, True)


def _stand_in_K(entries):
    """A harmonic_residual stand-in: the 8x8 zero matrix with the entries
    entries(m, n, p, alpha) -> {(i, j): Scalar} set."""
    def residual(s):
        t = s.triple0
        K = [[Scalar.zero()] * 8 for _ in range(8)]
        for (i, j), v in entries(t.m, t.n, t.p, s.alpha).items():
            K[i][j] = v
        return K
    return residual


@pytest.mark.parametrize("entries, calls", [
    # nonzero at the first plane sample
    (lambda m, n, p, alpha: {
        (0, 1): Scalar.pi(1, m * n - p * p + 1, (m + n) * p),
        (4, 4): (alpha - Scalar.of(2)) * Scalar.of((m - 1) * (p - 1))}, 1),
    # zero at alpha = 1, so only the second coupling rules it out
    (lambda m, n, p, alpha: {(3, 3): (alpha - Scalar.one()) * Scalar.of(m)},
     12),
], ids=["alpha-1", "alpha-2"])
def test_certificate_rejects_a_nonzero_quadratic_residual(
        monkeypatch, tmp_path, entries, calls):
    from hslab.cli import main
    seen = []

    def counted(m, n, p, alpha):
        seen.append((m, n, p))
        return entries(m, n, p, alpha)

    monkeypatch.setattr(iwasawa, "harmonic_residual", _stand_in_K(counted))
    with pytest.raises(AssertionError, match=r"base K is nonzero at \(1, 0, 0\)"):
        iwasawa._certify_base()
    assert len(seen) == calls
    # the sweep raises before its first row, and leaves no catalog behind
    out = tmp_path / "catalog.jsonl"
    with pytest.raises(AssertionError, match="base K is nonzero"):
        main(["sweep", "--max", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("cubic, match", [
    # zero on every sample, the guards' own: only a guard sees it
    (lambda m, n, p: m * n * p, "degree <= 2"),
    (lambda m, n, p: (p - 1) * (p - 2) * (p + 1) if (m, n) == (0, 0) else 0,
     "degree <= 2"),
    # nonzero on a plane sample: the samples already see it
    (lambda m, n, p: p ** 3, r"nonzero at \(1, 0, 1\)"),
], ids=["plane", "axis", "on-a-sample"])
def test_base_flags_guard_rejects_a_cubic_residual(monkeypatch, cubic,
                                                   match):
    monkeypatch.setattr(iwasawa, "harmonic_residual", _stand_in_K(
        lambda m, n, p, alpha: {(2, 2): Scalar.of(cubic(m, n, p))}))
    with pytest.raises(AssertionError, match=match):
        iwasawa._certify_base()


def test_base_flags_check_the_samples_and_the_cross_term(monkeypatch):

    def never(s):
        raise AssertionError("engine ran")

    monkeypatch.setattr(iwasawa, "harmonic_residual", never)
    # no triples, no engine run
    assert list(iwasawa.iter_sweep(0)) == []
    # ten plane samples on the quadric m n = 0: the monomial matrix has
    # rank 9, and the check comes before any engine run
    plane, guard = iwasawa._SAMPLES["plane"]
    on_quadric = [t for t in plane if t != (1, 1, 0)] + [(0, 2, 1)]
    monkeypatch.setitem(iwasawa._SAMPLES, "plane", (on_quadric, guard))
    with pytest.raises(ValueError, match="singular"):
        iwasawa._certify_base()
    monkeypatch.setitem(iwasawa._SAMPLES, "plane", (plane, guard))
    monkeypatch.setattr(iwasawa, "harmonic_residual", _stand_in_K(
        lambda m, n, p, alpha: {(6, 7): Scalar.of(m)}))
    with pytest.raises(AssertionError, match="cross term leaked"):
        iwasawa._certify_base()


def _replay(rec):
    """Check one catalog record against full engine runs."""
    t0 = tuple(rec["params"]["triple0"])
    t1 = tuple(rec["params"]["triple1"])
    cand = _family(t0, t1)
    assert str(cand.params.alpha) == rec["alpha"]
    assert all(r.is_zero() for r in hs_residuals(cand.params))
    assert he_residual_G(cand.params).is_zero()
    assert matrix_is_zero(harmonic_residual(cand.params)) == rec["harmonic"]
    dphi = higgs_dbar_entry(cand.params, 6, 7)
    assert (not dphi.is_zero()) == rec["dbar_phi_23_nonzero"]


def test_sweep_records_match_engine(rng):
    # subsample the catalog and replay each record against full engine runs
    records = sweep_records(1)
    for rec in rng.sample(records, 10):
        _replay(rec)


def test_sweep_edge_records_match_engine():
    # pairs on the edges of the closed forms, as the raw --max 2 catalog
    # writes them: parallel (dot != 0), orthogonal (dot == 0, both plane
    # triples) and axis/plane (an axis triple, whose base part the axis
    # branch certifies); an axis/plane pair of equal norms has no record
    records = {(tuple(r["params"]["triple0"]), tuple(r["params"]["triple1"])): r
               for r in sweep_records(2, raw=True)}
    for pair in [((1, 1, 0), (2, 2, 0)), ((2, 2, 0), (1, 1, 0)),
                 ((1, 2, 2), (2, -1, 0)), ((2, -1, 0), (1, 2, 2)),
                 ((0, 0, 1), (2, 0, 0)), ((2, 0, 0), (0, 0, 1))]:
        _replay(records[pair])
    assert records[(1, 1, 0), (2, 2, 0)]["harmonic"] is False
    assert records[(1, 2, 2), (2, -1, 0)]["harmonic"] is True
    assert records[(0, 0, 1), (2, 0, 0)]["harmonic"] is True
    assert ((0, 0, 1), (1, 0, 0)) not in records
    with pytest.raises(DegenerateCoupling):
        _family((0, 0, 1), (1, 0, 0))


@pytest.mark.parametrize("options", [{}, {"raw": True},
                                     {"require_harmonic": True}])
def test_sweep_lines_are_the_stdlib_encoding(options):
    # the hand-built line template against json.dumps(..., sort_keys=True),
    # line by line within each row's block, and the block's two counts
    signs = set()
    for text, records, harmonic in iwasawa.iter_sweep(2, **options):
        lines = text.splitlines(keepends=True)
        assert "".join(lines) == text and len(lines) == records
        recs = []
        for line in lines:
            rec = json.loads(line)
            assert line == json.dumps(rec, sort_keys=True) + "\n"
            recs.append(rec)
            signs.add(rec["alpha"].startswith("-"))
        assert harmonic == sum(rec["harmonic"] is True for rec in recs)
    assert signs == {True, False}


def test_sweep_yields_one_block_per_canonical_row(tmp_path):
    from hslab.cli import main
    rows = [t for t in iwasawa._triples(2) if t < tuple(-x for x in t)]
    blocks = list(iwasawa.iter_sweep(2))
    assert len(blocks) == len(rows) == 62
    for t0, (text, records, _) in zip(rows, blocks):
        lines = text.splitlines()
        assert 0 < records == len(lines)
        assert all(json.loads(line)["params"]["triple0"] == list(t0)
                   for line in lines)
    out = tmp_path / "catalog.jsonl"
    assert main(["sweep", "--max", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == "".join(b[0] for b in blocks).encode()


def test_dbar_phi_23_is_nonzero_on_every_pair():
    # the End-block entry holds dot(t0, t1) and the components of t0 x t1
    # up to sign, and dot^2 + |t0 x t1|^2 = |t0|^2 |t1|^2 > 0 (Lagrange's
    # identity); _replay and the random pairs check it against the engine
    records = sweep_records(2, raw=True)
    assert len(records) > 10000
    assert all(rec["dbar_phi_23_nonzero"] is True for rec in records)


def test_sweep_decomposition_on_random_pairs(rng, model, h0, Omega):
    # the per-record harmonic verdict decomposes as base (triple-only) plus
    # cross term, and dbar_phi_23 is nonzero; check both against the engine
    # on pairs outside the catalog, covering both coupling signs
    from conftest import make_params
    seen_neg = seen_pos = False
    for _ in range(8):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        if s.alpha.evalf().real > 0:
            seen_pos = True
        else:
            seen_neg = True
        rec = [r for r in sweep_pair(t0, t1)][0]
        assert rec["harmonic"] == matrix_is_zero(harmonic_residual(s))
        assert rec["dbar_phi_23_nonzero"] == (
            not higgs_dbar_entry(s, 6, 7).is_zero())
    assert seen_pos and seen_neg


def sweep_pair(t0, t1):
    """The record of the pair (t0, t1): _sweep_row on a one-column row."""
    from hslab.iwasawa import _sweep_row
    s0, s1 = sum(x * x for x in t0), sum(x * x for x in t1)
    text, records, harmonic = _sweep_row(
        t0, s0, json.dumps(list(t0)), [(t1, s1, json.dumps(list(t1)))], {})
    if s0 == s1:
        assert (text, records, harmonic) == ("", 0, 0)
        return []
    assert records == 1 and text.endswith("\n")
    rec = json.loads(text)
    assert rec["harmonic"] is bool(harmonic)
    return [rec]
