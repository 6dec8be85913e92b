"""Family construction, exact verification reports, and the integer sweep."""

import dataclasses
import gc
import hashlib
import json
import sys
import weakref
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.bundles import (LineBundleTriple, DegenerateCoupling,
                           hs_residuals)
from hslab.algebroid import he_residual_G
from hslab.harmonic import harmonic_residual, matrix_is_zero, higgs_dbar
from hslab.iwasawa import (build_iwasawa, TauDeformation, PicardPoint,
                           FamilyConfig, make_family, verify_family,
                           VerificationReport, sweep)

from conftest import random_pair, random_scalar

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
    counted = ("connection_DG", "curvature", "dolbeault_Q")
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
    once = dict.fromkeys(calls, 1)
    tau = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
    cand = _family((1, 1, 0), (1, 0, 0), tau=tau)
    # every verifier reads the one connection, curvature, Dolbeault operator
    # and frame of the family
    verify_family(cand)
    assert calls == once
    s = cand.params
    for name in ("frame", "metric_H", "connection", "connection_curvature",
                 "dolbeault", "unitary_split", "chern_split"):
        assert getattr(s, name) is getattr(s, name)
    assert calls == once
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
    assert sweep(0) == []
    with pytest.raises(ValueError):
        sweep(-1)


def test_sweep_max_one_catalog():
    records = sweep(1)
    assert len(records) == 216
    assert sum(1 for r in records if r["harmonic"]) == 72
    assert all(r["flags"] == {"hs_solution": True, "hermitian_einstein": True}
               for r in records)
    # canonical mode halves the raw enumeration exactly
    assert len(sweep(1, raw=True)) == 432
    assert sweep(1, require_harmonic=True) == [r for r in records
                                               if r["harmonic"]]
    # F0^2 - F1^2 is always a multiple of dd^c omega_0 here
    assert sweep(1, require_ch2=True) == records


def test_sweep_deterministic_and_threaded():
    records = sweep(1)
    assert sweep(1) == records
    assert sweep(1, threads=2) == records


def test_sweep_pool_is_capped_at_cpu_count(monkeypatch):
    import hslab.iwasawa as iwasawa
    records = sweep(1)
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            assert len(items) <= self.max_workers
            return [fn(x) for x in items]

    monkeypatch.setattr(iwasawa, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(iwasawa.os, "cpu_count", lambda: 3)
    assert sweep(1, threads=100000) == records
    assert sizes == [3]
    # an unknown CPU count means one CPU: no pool at all
    monkeypatch.setattr(iwasawa.os, "cpu_count", lambda: None)
    assert sweep(1, threads=100000) == records
    assert sizes == [3]


def test_sweep_records_match_engine(rng):
    # subsample the catalog and replay each record against full engine runs
    records = sweep(1)
    sample = rng.sample(records, 10)
    for rec in sample:
        t0 = tuple(rec["params"]["triple0"])
        t1 = tuple(rec["params"]["triple1"])
        cand = _family(t0, t1)
        assert str(cand.params.alpha) == rec["alpha"]
        assert all(r.is_zero() for r in hs_residuals(cand.params))
        assert he_residual_G(cand.params).is_zero()
        assert matrix_is_zero(harmonic_residual(cand.params)) == rec["harmonic"]
        dphi = higgs_dbar(cand.params).entries[6][7]
        assert (not dphi.is_zero()) == rec["dbar_phi_23_nonzero"]


def test_sweep_decomposition_on_random_pairs(rng, model, h0, Omega):
    # the per-record harmonic verdict decomposes as base (triple-only) plus
    # cross term; check it against the engine on pairs outside the catalog,
    # covering both coupling signs
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
    assert seen_pos and seen_neg


def sweep_pair(t0, t1):
    from hslab.iwasawa import _base_flags, _sweep_record
    rec = _sweep_record((t0, t1), _base_flags([t0, t1]))
    return [rec] if rec is not None else []
