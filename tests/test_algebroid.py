"""Orthogonal bundle frame: pairing, connection, Dolbeault operator."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hslab.scalars import Scalar
from hslab.hermitian import (HermitianStructure, matmul, matrix_inverse,
                             sandwich)
from hslab.algebroid import (QDIM, QSection, QFrame, QOperator,
                             connection_DG, curvature,
                             curvature_wedge_omega_sq, he_residual_G,
                             dolbeault_Q, transport_dolbeault,
                             extension_class_gamma, bismut_iso_matrix,
                             subbundle_report)
from hslab.bundles import LineBundleTriple
from hslab.harmonic import CompatibleMetricH
from hslab.iwasawa import FamilyConfig, PicardPoint, make_family, su3_structure

from conftest import DEFORMED_TAU, make_params, random_form, random_pair


@pytest.fixture(scope="module")
def std(model, h0, Omega):
    return make_params(model, h0, Omega, (1, 2, 2), (2, -1, 0))


@pytest.fixture(scope="module")
def frame(h0, std):
    return QFrame(h0, std.alpha)


def _basis_sections(model):
    z, o = Scalar.zero(), Scalar.one()
    return [QSection(model, [o if a == j else z for a in range(QDIM)])
            for j in range(QDIM)]


def test_pairing_matrix(frame, std, h0):
    # -g_C on tangent directions, diag(-alpha, alpha) on the End directions
    for a in range(6):
        for b in range(6):
            assert frame.pairing[a][b] == -h0.G6[a][b]
    assert frame.pairing[6][6] == -std.alpha
    assert frame.pairing[7][7] == std.alpha
    # the compatible metric H is positive on every frame direction
    H = std.metric_H.Hm
    assert all(H[a][a].evalf().real > 0 for a in range(QDIM))


def test_connection_pairing_compatibility(model, frame, std):
    A = connection_DG(std)
    P = frame.pairing
    for i in range(QDIM):
        for j in range(QDIM):
            acc = model.zero()
            for k in range(QDIM):
                if not P[i][k].is_zero():
                    acc = acc + A.entries[k][j].scale(P[i][k])
                if not P[k][j].is_zero():
                    acc = acc + A.entries[k][i].scale(P[k][j])
            assert acc.is_zero()


def test_connection_01_part_is_dolbeault(std):
    A = connection_DG(std)
    T = transport_dolbeault(std)
    assert (A.part(0, 1) - T).is_zero()


def test_dolbeault_squares_to_zero(std):
    Aq = dolbeault_Q(std)
    assert (Aq.d() + Aq.wedge(Aq)).part(0, 2).is_zero()


def test_he_residual_randomized(model, h0, Omega, rng):
    for _ in range(8):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        assert he_residual_G(s).is_zero()
        assert not curvature(connection_DG(s)).is_zero()


def test_bismut_iso_columns(model, h0):
    P = bismut_iso_matrix(h0)
    # for the standard metric, the coframe directions map to -Z_{k'}
    for k in range(3):
        col = [P[a][5 + k] for a in range(QDIM)]
        expect = [Scalar.zero()] * QDIM
        expect[3 + k] = -Scalar.one()
        assert col == expect


def test_extension_class(std):
    g = extension_class_gamma(std)
    assert not g.is_zero()
    # the class sits in the coframe rows of the Dolbeault matrix
    A = dolbeault_Q(std)
    for l in range(3):
        for c in range(5):
            assert (g.entries[5 + l][c] - A.entries[5 + l][c]).is_zero()
        for c in range(5, QDIM):
            assert g.entries[5 + l][c].is_zero()


def test_cotangent_subbundle(model, h0, std):
    P = bismut_iso_matrix(h0)
    span = [QSection(model, [P[a][5 + k] for a in range(QDIM)])
            for k in range(3)]
    rep = subbundle_report(std, span)
    assert rep["isotropic"]
    assert rep["holomorphic_invariant"]
    assert rep["slope"].is_zero()


def test_tangent_span_not_invariant(model, std):
    secs = _basis_sections(model)[:3]
    rep = subbundle_report(std, secs)
    assert not rep["holomorphic_invariant"]


def test_dependent_span_rejected(model, std):
    secs = _basis_sections(model)
    with pytest.raises(ValueError):
        subbundle_report(std, [secs[0], secs[0]])


def test_structured_inverse_of_the_compatible_metric(oracle_metrics):
    # Hm is G6 with permuted columns on T and |alpha| on End
    for h in oracle_metrics:
        for alpha in (Scalar.of(3), Scalar.of(Fraction(-2, 7), k=-2)):
            H = CompatibleMetricH(QFrame(h, alpha))
            assert H.Hm_inv == matrix_inverse(H.Hm)


def test_closed_form_inverse_of_the_bismut_iso(oracle_metrics):
    # transport_dolbeault is P . D . P^-1 with its own closed-form P^-1; for
    # D = Q e, with Q = matrix_inverse(P) and e a 1-form, it returns
    # (P^-1) e, which must be Q e
    for h in oracle_metrics:
        P = bismut_iso_matrix(h)
        e = h.model.basis_form((0,))
        D = QOperator(h.model, [[e.scale(x) for x in row]
                                for row in matrix_inverse(P)])
        cfg = SimpleNamespace(model=h.model, h=h, bismut_iso=P, dolbeault=D)
        assert transport_dolbeault(cfg).entries == D.entries


def _compressed_trace(s, span):
    """Trace of the k x k compression (S^dagger H S)^-1 S^dagger H F S."""
    zero = Scalar.zero()
    S = [[sec.coeffs[a] for sec in span] for a in range(QDIM)]
    SdH = matmul([[c.conjugate() for c in sec.coeffs] for sec in span],
                 s.metric_H.Hm, zero)
    ShS_inv = matrix_inverse(matmul(SdH, S, zero))
    SdHFS = sandwich(SdH, s.connection_curvature.entries, S, s.model.zero())
    trace = s.model.zero()
    for i in range(len(span)):
        for j in range(len(span)):
            trace = trace + SdHFS[j][i].scale(ShS_inv[i][j])
    return trace


def _family(kind):
    triples = ((1, 2, 2), (2, -1, 0)) if kind in ("flat", "picard") \
        else ((1, 1, 0), (1, 0, 0))
    kw = {"deformed": {"tau": DEFORMED_TAU},
          "uncorrected": {"tau": DEFORMED_TAU, "correct": False},
          "picard": {"picard": PicardPoint((Scalar.of(1, 2), Scalar.zero()),
                                           (Scalar.zero(), Scalar.of(0, -3)))},
          "flat": {}}[kind]
    return make_family(FamilyConfig(*(LineBundleTriple(*t) for t in triples),
                                    **kw)).params


def test_slope_is_the_trace_of_the_compression():
    # every HE family has F ^ omega^2 = 0 entry by entry, so its slopes are
    # 0; the uncorrected deformed family's are not
    s = _family("uncorrected")
    P = s.bismut_iso
    cotangent = [QSection(s.model, [P[a][5 + k] for a in range(QDIM)])
                 for k in range(3)]
    # Z_1 + Z_2', Z_2 + 2 Z_1', Z_3: at a deformed metric its projector is
    # not symmetric, so a transposed projector gives another slope
    tangent = [QSection(s.model, row) for row in
               ([1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 2, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0])]
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    slopes = []
    for span in (cotangent, tangent):
        # (i/2pi) integral of the compressed trace ^ omega^2, over the rank
        c1 = _compressed_trace(s, span).scale(i_2pi)
        expect = s.h.integrate(c1.wedge(s.h.omega_sq)) \
            * Scalar.of(Fraction(1, len(span)))
        slopes.append(subbundle_report(s, span)["slope"])
        assert slopes[-1] == expect
        assert not expect.is_zero()
    assert slopes[0] == Scalar.pi(-1, Fraction(-2480, 15123))


@pytest.mark.parametrize("kind", ["flat", "picard", "deformed", "uncorrected"])
def test_curvature_wedge_omega_sq_is_the_curvature_form(kind):
    s = _family(kind)
    F = _check_against_the_curvature(s.h, s.connection, s.curvature_omega_sq)
    assert he_residual_G(s).entries == F.entries
    # F ^ omega^2 = 0 entry by entry on the HE families only
    assert F.is_zero() == (kind != "uncorrected")


@pytest.mark.parametrize("seed", range(2))
def test_curvature_wedge_omega_sq_with_a_nonzero_lambda(kt_model, seed):
    # on the Kodaira-Thurston-style model d e_3 = e_1 ^ e_1' is of type
    # (1,1), so lambda_3 = (d e_3 ^ omega^2)_top is not zero; a seeded
    # connection has e_3 terms for it to act on
    h = HermitianStructure(kt_model, su3_structure(kt_model)[0]
                           + DEFORMED_TAU.form(kt_model))
    W = h.omega_sq_table()
    assert not sum((v * W[b][c] for (b, c), v in kt_model.diff[2].terms.items()),
                   Scalar.zero()).is_zero()
    rng = random.Random(seed)
    A = QOperator(kt_model, [[kt_model.zero() if rng.random() < 0.4
                              else random_form(kt_model, rng, 1, nterms=2)
                              for _ in range(QDIM)] for _ in range(QDIM)])
    s = SimpleNamespace(model=kt_model, h=h, connection=A)
    F = _check_against_the_curvature(h, A, curvature_wedge_omega_sq(s))
    assert not F.is_zero()


def _check_against_the_curvature(h, A, c):
    """Check c_ij e_top = F_ij ^ omega^2, F = dA + A ^ A; return F ^ omega^2."""
    F = curvature(A).map_entries(h.wedge_omega_sq)
    top = h.model.top_index()
    for frow, crow in zip(F.entries, c):
        for f, x in zip(frow, crow):
            assert f.terms == ({} if x.is_zero() else {top: x})
    return F
