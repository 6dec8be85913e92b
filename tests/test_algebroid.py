"""Orthogonal bundle frame: pairing, connection, Dolbeault operator."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hslab.scalars import Scalar
from hslab.hermitian import (HermitianStructure, matrix_inverse,
                             metric_span, solve)
from hslab.algebroid import (QDIM, connection_DG, he_residual_G,
                             dolbeault_Q, extension_class_gamma,
                             subbundle_report, wedge_omega_sq_top,
                             _span_slope)
from hslab.bundles import LineBundleTriple
from hslab.harmonic import CompatibleMetricH
from hslab.iwasawa import FamilyConfig, PicardPoint, make_family, su3_structure

from conftest import (DEFORMED_TAU, bismut_iso_matrix, curvature, dense,
                      forms, make_params, matmul, matrix_is_zero, operator_of,
                      pairing_matrix, partial, q_metric, random_form,
                      random_pair, scalar_product, sparse)


@pytest.fixture(scope="module")
def std(model, h0, Omega):
    return make_params(model, h0, Omega, (1, 2, 2), (2, -1, 0))


@pytest.fixture(scope="module")
def pairing(h0, std):
    return dense(pairing_matrix(h0, std.alpha))


def test_pairing_matrix(pairing, std, h0):
    # -g_C on tangent directions, diag(-alpha, alpha) on the End directions
    G = dense(h0.G6, 6)
    for a in range(6):
        for b in range(6):
            assert pairing[a][b] == -G[a][b]
    assert pairing[6][6] == -std.alpha
    assert pairing[7][7] == std.alpha
    # the compatible metric H is positive on every frame direction
    diag = [dict(row).get(a, Scalar.zero())
            for a, row in enumerate(std.metric_H.Hm_rows)]
    assert len(diag) == QDIM and all(x.is_real() and x.sign() > 0
                                     for x in diag)


def test_connection_pairing_compatibility(model, pairing, std):
    A = forms(connection_DG(std))
    for i in range(QDIM):
        for j in range(QDIM):
            acc = model.zero()
            for k in range(QDIM):
                if not pairing[i][k].is_zero():
                    acc = acc + A[k][j].scale(pairing[i][k])
                if not pairing[k][j].is_zero():
                    acc = acc + A[k][i].scale(pairing[k][j])
            assert acc.is_zero()


def _transported(s):
    """The Dolbeault matrix in the complexified frame, P A P^-1, with the
    generic elimination inverse of the Bismut isomorphism P."""
    P, zero = dense(bismut_iso_matrix(s.h)), s.model.zero()
    return matmul(matmul(P, forms(s.dolbeault), zero), matrix_inverse(P),
                  zero)


def test_connection_01_part_is_dolbeault(std):
    assert forms(connection_DG(std).part(0, 1)) == _transported(std)


def test_dolbeault_squares_to_zero(std):
    assert all(f.part(0, 2).is_zero() for row in curvature(dolbeault_Q(std))
               for f in row)


def test_he_residual_randomized(model, h0, Omega, rng):
    for _ in range(8):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        assert he_residual_G(s) == {}
        assert not matrix_is_zero(curvature(connection_DG(s)))


def test_bismut_iso_columns(model, h0):
    # for the standard metric, the coframe directions map to -Z_{k'}
    assert h0.cotangent.S == {(3 + k, k): -Scalar.one() for k in range(3)}


def _cotangent_columns(h):
    """The dense 8 x 3 columns P[:, 5:] of the Bismut isomorphism oracle."""
    return [row[5:] for row in dense(bismut_iso_matrix(h))]


def test_cotangent_span_is_built_with_the_metric(oracle_metrics):
    # S, S^dagger H and the Gram inverse, held by the structure, against
    # the Bismut isomorphism and the metric on Q by their definitions; the
    # |alpha| of H never meets S, so any coupling gives the same values
    for h in oracle_metrics:
        S = _cotangent_columns(h)
        assert h.cotangent.S == sparse(S)
        Sd = [[c.conjugate() for c in col] for col in zip(*S)]
        for alpha in (Scalar.of(3), Scalar.of(Fraction(-2, 7), k=-2)):
            SdH = scalar_product(Sd, q_metric(h, alpha)[0])
            assert h.cotangent.SdH == sparse(SdH)
            assert h.cotangent.inv == matrix_inverse(scalar_product(SdH, S))


def _isotropic_oracle(h, S, alpha):
    """S^T . pairing . S = 0, with the End block of the pairing included."""
    St = [list(col) for col in zip(*S)]
    return matrix_is_zero(scalar_product(
        scalar_product(St, dense(pairing_matrix(h, alpha))), S))


@pytest.mark.parametrize("kind", ["flat", "picard", "deformed"])
def test_isotropy_flag_matches_the_full_pairing(kind):
    s = _family(kind)
    # a span that is not isotropic: Z_1 + Z_1', Z_2
    tangent = [[Scalar.of(x) for x in row] for row in zip(
        [1, 0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0])]
    for alpha in (s.alpha, -s.alpha):
        assert s.h.cotangent.isotropic == _isotropic_oracle(
            s.h, _cotangent_columns(s.h), alpha) is True
        assert metric_span(s.h, sparse(tangent)).isotropic \
            == _isotropic_oracle(s.h, tangent, alpha) is False
    assert subbundle_report(s)["isotropic"] is s.h.cotangent.isotropic


def test_a_metric_span_has_rows_in_t_only(h0):
    # a column with an End entry would meet |alpha|: not a metric object
    with pytest.raises(ValueError):
        metric_span(h0, {(0, 0): Scalar.one(), (6, 0): Scalar.one()})


def test_extension_class(std):
    g = extension_class_gamma(std)
    assert g and not any(f.is_zero() for f in g.values())
    # the class sits in the coframe rows of the Dolbeault matrix, columns
    # 0..4, and is zero elsewhere
    A = dolbeault_Q(std)
    block = [[A.form(i, c) if i >= 5 and c < 5 else std.model.zero()
              for c in range(QDIM)] for i in range(QDIM)]
    assert g == sparse(block)


def test_cotangent_rows_read_2i_partial_omega(std, oracle_metrics):
    # the cotangent block, filled from the terms of T = 2i partial(omega),
    # against the coefficient reads T(Z_j, Z_l, Z_c) it replaced
    for h in oracle_metrics:
        zero = h.model.zero()
        A = dolbeault_Q(SimpleNamespace(model=h.model, h=h, F0=zero,
                                        F1=zero, alpha=std.alpha))
        T = partial(h.omega).scale(Scalar.of(0, 2))
        assert [[[A.comps[c].get((5 + l, j), Scalar.zero())
                  for j in range(3)] for l in range(3)] for c in range(6)] \
            == [[[T.at(j, l, c) for j in range(3)] for l in range(3)]
                for c in range(6)]
    assert any(not h.two_i_partial_omega.is_zero() for h in oracle_metrics)


def test_cotangent_subbundle(std):
    rep = subbundle_report(std)
    assert rep["isotropic"]
    assert rep["holomorphic_invariant"]
    assert rep["slope"].is_zero()


def test_structured_inverse_of_the_compatible_metric(oracle_metrics):
    # Hm is G6 with permuted columns on T and |alpha| on End; its rows and
    # the columns of Hm_inv, as the metric holds them, are inverse matrices
    for h in oracle_metrics:
        for alpha in (Scalar.of(3), Scalar.of(Fraction(-2, 7), k=-2)):
            H = CompatibleMetricH(h, alpha)
            Hm = dense({(a, b): x for a, row in enumerate(H.Hm_rows)
                        for b, x in row}, QDIM)
            Hm_inv = dense({(a, b): x for b, col in enumerate(H.Hm_inv_cols)
                            for a, x in col}, QDIM)
            assert Hm_inv == matrix_inverse(Hm)


def _transported_invariant(s):
    """Reference verdict: P A P^-1 maps each cotangent section P e_{5+k}
    into the span of the three, with form coefficients, decided by one
    exact solve per form key of each image."""
    P, zero = dense(bismut_iso_matrix(s.h)), Scalar.zero()
    span = [row[5:] for row in P]  # 8 x 3
    images = matmul(_transported(s), span, s.model.zero())
    for k in range(3):
        img = [row[k] for row in images]
        for key in set().union(*(f.terms for f in img)):
            if solve(span, [f.terms.get(key, zero) for f in img]) is None:
                return False
    return True


def _stand_ins(oracle_metrics, rng):
    """Seeded Dolbeault matrices on each oracle metric: dense 1-forms with
    the block rows 0..4 of columns 5..7 left zero, then the same with one
    form planted at each position of that block in turn."""
    alpha = Scalar.of(Fraction(3, 2))
    for h in oracle_metrics:
        m = h.model
        base = [[random_form(m, rng, 1, nterms=2) if i >= 5 or j < 5
                 else m.zero() for j in range(QDIM)] for i in range(QDIM)]
        plants = [None] + [(i, j) for i in range(5) for j in range(5, QDIM)]
        for plant in plants:
            D = [list(row) for row in base]
            if plant is not None:
                D[plant[0]][plant[1]] = random_form(m, rng, 1, nterms=2)
            yield SimpleNamespace(
                model=m, h=h, alpha=alpha, dolbeault=operator_of(m, D),
                metric_H=CompatibleMetricH(h, alpha),
                curvature_omega_sq={})


def test_holomorphic_invariance_matches_the_transported_check(oracle_metrics):
    # on every family T* is invariant, and the block read agrees with the
    # transported operator's per-key membership solves
    for kind in ("flat", "picard", "deformed", "uncorrected"):
        s = _family(kind)
        assert subbundle_report(s)["holomorphic_invariant"]
        assert _transported_invariant(s)
    # stand-ins on every oracle metric, where P is not a permutation
    verdicts = []
    for s in _stand_ins(oracle_metrics, random.Random(5)):
        verdicts.append(subbundle_report(s)["holomorphic_invariant"])
        assert verdicts[-1] == _transported_invariant(s)
    assert verdicts.count(True) == len(oracle_metrics)
    assert verdicts.count(False) == 15 * len(oracle_metrics)


def _compressed_trace(s, S):
    """Trace of the k x k compression (S^dagger H S)^-1 S^dagger H F S."""
    zero, k = s.model.zero(), len(S[0])
    SdH = scalar_product([[c.conjugate() for c in col] for col in zip(*S)],
                         q_metric(s.h, s.alpha)[0])
    ShS_inv = matrix_inverse(scalar_product(SdH, S))
    SdHFS = matmul(matmul(SdH, curvature(s.connection), zero), S, zero)
    trace = s.model.zero()
    for i in range(k):
        for j in range(k):
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
    cotangent = [row[5:] for row in dense(bismut_iso_matrix(s.h))]
    # columns Z_1 + Z_2', Z_2 + 2 Z_1', Z_3: at a deformed metric its
    # projector is not symmetric, so a transposed projector gives another
    # slope
    tangent = [[Scalar.of(x) for x in row] for row in zip(
        [1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 2, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0])]
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    slopes = []
    for S in (cotangent, tangent):
        # (i/2pi) integral of the compressed trace ^ omega^2, over the rank
        c1 = _compressed_trace(s, S).scale(i_2pi)
        expect = s.h.integrate(c1.wedge(s.h.omega_sq)) \
            * Scalar.of(Fraction(1, len(S[0])))
        slopes.append(_span_slope(s, metric_span(s.h, sparse(S))))
        assert slopes[-1] == expect
        assert not expect.is_zero()
    assert slopes[0] == Scalar.pi(-1, Fraction(-2480, 15123))
    assert subbundle_report(s)["slope"] == slopes[0]


@pytest.mark.parametrize("kind", ["flat", "picard", "deformed", "uncorrected"])
def test_curvature_wedge_omega_sq_is_the_curvature_form(kind):
    s = _family(kind)
    F = _check_against_the_curvature(s.h, s.connection, s.curvature_omega_sq)
    # the residual is the Scalar matrix c of F ^ omega^2 = c e_top
    assert he_residual_G(s) == sparse([[f.top_coeff() for f in row]
                                       for row in F])
    # F ^ omega^2 = 0 entry by entry on the HE families only
    assert matrix_is_zero(F) == (kind != "uncorrected")


@pytest.mark.parametrize("seed", range(2))
def test_curvature_wedge_omega_sq_with_a_nonzero_lambda(kt_model, seed):
    # on the Kodaira-Thurston-style model d e_3 = e_1 ^ e_1' is of type
    # (1,1), so lambda_3 = (d e_3 ^ omega^2)_top is not zero; a seeded
    # connection has e_3 terms for it to act on
    h = HermitianStructure(kt_model, su3_structure(kt_model)[0]
                           + DEFORMED_TAU.form(kt_model))
    W = h.omega_sq_table
    lam = sum((v * W[b][c] for (b, c), v in kt_model.diff[2].terms.items()),
              Scalar.zero())
    assert not lam.is_zero() and h.omega_sq_lambda[2] == lam
    rng = random.Random(seed)
    A = operator_of(kt_model, [[kt_model.zero() if rng.random() < 0.4
                                else random_form(kt_model, rng, 1, nterms=2)
                                for _ in range(QDIM)] for _ in range(QDIM)])
    F = _check_against_the_curvature(h, A, wedge_omega_sq_top(h, A, [(A, A)]))
    assert not matrix_is_zero(F)


def _check_against_the_curvature(h, A, c):
    """Check c_ij e_top = F_ij ^ omega^2, F = dA + A ^ A; return F ^ omega^2."""
    F = [[f.wedge(h.omega_sq) for f in row] for row in curvature(A)]
    top = h.model.top_index()
    for frow, crow in zip(F, dense(c)):
        for f, x in zip(frow, crow):
            assert f.terms == ({} if x.is_zero() else {top: x})
    return F
