"""Orthogonal bundle frame: pairing, connection, Dolbeault operator."""

import pytest

from hslab.scalars import Scalar
from hslab.algebroid import (QDIM, QSection, QOperator, QFrame,
                             connection_DG, curvature, he_residual_G,
                             dolbeault_Q, transport_dolbeault,
                             extension_class_gamma, bismut_iso_matrix,
                             subbundle_report)
from hslab.bundles import CohClass

from conftest import make_params, random_pair, random_scalar


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


def test_sigma_real_structure(model, frame, rng):
    for _ in range(20):
        x = QSection(model, [random_scalar(rng) for _ in range(QDIM)])
        y = QSection(model, [random_scalar(rng) for _ in range(QDIM)])
        # sigma is an anti-involution compatible with the pairing
        assert frame.sigma(frame.sigma(x)) == x
        assert frame.pair(frame.sigma(x), frame.sigma(y)) == \
            frame.pair(x, y).conjugate()


def test_metric_G_signature(model, frame):
    G = frame.metric_G_matrix()
    vals = sorted(G[a][a].evalf().real for a in range(QDIM))
    assert sum(1 for v in vals if v < 0) == 1  # signature (7,1)
    H = frame.metric_H_matrix()
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


def test_qoperator_dump_roundtrip(model, std):
    A = connection_DG(std)
    clone = QOperator.from_dump(model, A.to_json())
    assert (clone - A).is_zero() and clone == A


def test_qsection_algebra(model, rng):
    x = QSection(model, [random_scalar(rng) for _ in range(QDIM)])
    y = QSection(model, [random_scalar(rng) for _ in range(QDIM)])
    assert (x + y - y - x).is_zero()
    assert x.scale(Scalar.of(2)).coeffs == (x + x).coeffs


def test_cotangent_subbundle(model, h0, std):
    P = bismut_iso_matrix(h0)
    span = [QSection(model, [P[a][5 + k] for a in range(QDIM)])
            for k in range(3)]
    b = CohClass(h0.omega.wedge(h0.omega), flavor="aeppli")
    rep = subbundle_report(std, span, b_class=b)
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
