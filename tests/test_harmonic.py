"""Unitary/Chern decompositions, moment maps, harmonicity, Higgs data."""

import hashlib
import itertools
import json
import types
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import InvariantVector, NilmanifoldModel
from hslab.hermitian import HermitianStructure
from hslab.algebroid import QDIM, QOperator, connection_DG
from hslab.harmonic import (CompatibleMetricH, moment_I, moment_J,
                            moment_residuals, harmonic_residual,
                            harmonic_criteria, harmonic_vs_moment_gap,
                            higgs_dbar_entry)
from hslab.bundles import LineBundleTriple
from hslab.hermitian import _combination, _plus
from hslab.iwasawa import (FamilyConfig, PicardPoint, TauDeformation,
                           make_family, su3_structure)

from conftest import (DEFORMED_TAU, chern_split, christoffel, curvature,
                      dbar_reference, dense, frame_contraction, frame_vector,
                      higgs_equation_residuals, make_params, matrix_is_zero,
                      moment_K_reference, q_metric, random_form, random_pair,
                      scalar_product, split_curvature, unitary_reference)

# sha256 of the I, J, K residuals of the uncorrected deformed family below,
# recorded from code that computed all three at once: the lazily built I
# and J must reproduce it
PINNED_MOMENT_DIGEST = ("22b50a757b8f9dd45a652bce18f178ec"
                        "8984cae8f69d4691296d6a177be15f9c")

# sha256 of harmonic_vs_moment_gap on the same family, recorded from code
# that built the J residual's terms separately from moment_residuals
PINNED_GAP_DIGEST = ("ace44b31c54b2a84198d40ceee7cb2d5"
                     "fd52b0663a3aacf8819687f4fe663714")


@pytest.fixture(scope="module")
def std(model, h0, Omega):
    return make_params(model, h0, Omega, (1, 2, 2), (2, -1, 0))


def _metric(std):
    return CompatibleMetricH(std.h, std.alpha)


def _check_unitary_split(s):
    # the family's split (A - S/2, S/2) of D^G, S = s.adjoint_sum, against
    # the two-_combination reference and the defining properties
    H, A = _metric(s), connection_DG(s)
    B, Psi = s.unitary_split
    assert A.comps == (B + Psi).comps
    assert H.adjoint(B).comps == (-B).comps
    assert H.adjoint(Psi).comps == Psi.comps
    B_ref, Psi_ref = unitary_reference(A, H)
    assert B.comps == B_ref.comps
    assert Psi.comps == Psi_ref.comps
    assert s.adjoint_sum.comps == Psi.scale(Scalar.of(2)).comps


def test_unitary_decomposition(model, h0, Omega, rng):
    for _ in range(10):
        t0, t1 = random_pair(rng)
        _check_unitary_split(make_params(model, h0, Omega, t0, t1))


def test_compatible_metric_is_its_definition(oracle_metrics):
    # Hm is g(Z_a, conj Z_b) = G6[a][(b + 3) % 6] on T and |alpha| on End,
    # row a of Hm_inv is Ginv6[(a + 3) % 6] on T and 1/|alpha| on End (the
    # oracle q_metric), and the two are inverse, on omega_0 and deformed
    # metrics at both signs; the metric holds exactly the nonzero entries
    # of each row of Hm and each column of Hm_inv, in index order
    zero, one = Scalar.zero(), Scalar.one()
    eye = [[one if i == j else zero for j in range(QDIM)]
           for i in range(QDIM)]
    for h in oracle_metrics:
        for alpha in (Scalar.pi(-2, Fraction(1, 6)),
                      Scalar.pi(-2, Fraction(-5, 2))):
            H = CompatibleMetricH(h, alpha)
            Hm, Hm_inv = q_metric(h, alpha)
            assert H.Hm_rows == [[(b, x) for b, x in enumerate(row)
                                  if not x.is_zero()] for row in Hm]
            assert H.Hm_inv_cols == [[(a, x) for a, x in enumerate(col)
                                      if not x.is_zero()]
                                     for col in zip(*Hm_inv)]
            assert scalar_product(Hm, Hm_inv) == eye


def test_adjoint_involution(std, rng, model, h0, Omega):
    H = _metric(std)
    A = connection_DG(std)
    assert H.adjoint(H.adjoint(A)).comps == A.comps


def _deformed_metric(model, h0):
    return HermitianStructure(model, h0.omega + DEFORMED_TAU.form(model))


def test_bismut_block_is_real_and_skew_for_the_hermitian_form(model, h0):
    # the Bismut connection is real, Gamma^{s(d)}_{s(a)s(b)} = conj
    # Gamma^d_{ab} with s(a) = (a + 3) % 6, and metric, so on T it is
    # anti-self-adjoint for the Hermitian form u^T Hm conj(v), Hm[a][b] =
    # g(Z_a, conj Z_b): component a of the adjoint of a 1-form A is
    # (Hm^T)^-1 conj(A^{s(a)})^T Hm^T, since Hm is Hermitian
    s = [(a + 3) % 6 for a in range(6)]
    for h in (h0, _deformed_metric(model, h0)):
        gamma = christoffel(h.bismut)
        assert all(gamma[s[a]][s[b]][s[d]] == gamma[a][b][d].conjugate()
                   for a in range(6) for b in range(6) for d in range(6))
        Hm, Hm_inv = q_metric(h, Scalar.one())
        HmT, Hm_invT = [list(c) for c in zip(*Hm)], \
            [list(c) for c in zip(*Hm_inv)]
        for a in range(6):
            conj_T = [[x.conjugate() for x in c]
                      for c in zip(*dense(h.bismut[s[a]]))]
            adj = scalar_product(scalar_product(Hm_invT, conj_T), HmT)
            assert adj == [[-x for x in row] for row in dense(h.bismut[a])]
    # where g is real, as at omega_0, CompatibleMetricH agrees: A + A^{*H},
    # twice the self-adjoint part, is zero
    A = QOperator(model, h0.bismut)
    assert (A + CompatibleMetricH(h0, Scalar.one()).adjoint(A)).comps \
        == [{}] * 6


@pytest.mark.xfail(strict=True, reason=(
    "CompatibleMetricH takes Hm[a][b] = G6[a][s(b)] = g(Z_a, conj Z_b), but "
    "its adjoint Hm^-1 conj(A^{s(a)})^T Hm is the one of the form with "
    "matrix Hm^T = G6[s(a)][b]; the two agree only where g is real, as on "
    "every flat family. The fix changes the deformed report digests, pinned "
    "in tests/test_iwasawa.py and perfbench/golden.json."))
def test_bismut_block_is_unitary_at_a_deformed_metric(model, h0):
    h = _deformed_metric(model, h0)
    A = QOperator(model, h.bismut)
    assert (A + CompatibleMetricH(h, Scalar.one()).adjoint(A)).comps \
        == [{}] * 6


def test_selfadjoint_block_localization(model, h0, Omega):
    # for positive coupling the self-adjoint part couples the tangent
    # directions to the first End block only; for negative coupling to the
    # second
    for pair, block in ((((1, 2, 2), (2, -1, 0)), 6),
                        (((2, -1, 0), (1, 2, 2)), 7)):
        s = make_params(model, h0, Omega, *pair)
        assert (s.alpha.sign() > 0) == (block == 6)
        _, Psi = s.unitary_split
        for i in range(QDIM):
            for j in range(QDIM):
                if Psi.form(i, j).is_zero():
                    continue
                assert block in (i, j)
                assert (i < 6) != (j < 6)


def _chern_reference(A, H):
    """(C, phi) by a second adjoint: C = A^{0,1} - (A^{0,1})^{*H} keeps the
    (0,1)-part of A and is unitary; phi = A^{1,0} + (A^{0,1})^{*H}."""
    A01 = A.part(0, 1)
    A01_star = H.adjoint(A01)
    return A01 - A01_star, A.part(1, 0) + A01_star


def test_chern_decomposition(model, h0, Omega, rng):
    for _ in range(10):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        H = _metric(s)
        A = connection_DG(s)
        C, phi = chern_split(s)
        assert A.comps == (C + phi).comps
        assert phi.comps == phi.part(1, 0).comps
        assert H.adjoint(C).comps == (-C).comps
        # C keeps the whole (0,1)-part of the connection
        assert C.part(0, 1).comps == A.part(0, 1).comps
        # the field is twice the (1,0)-part of the self-adjoint block
        _, Psi = s.unitary_split
        assert phi.comps == Psi.part(1, 0).scale(Scalar.of(2)).comps


_DEFORMING_TAU = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)

# (t0, t1, FamilyConfig options): omega_0 at both coupling signs, a Picard
# twist, a deformed metric, and an uncorrected deformed one off solutions
_SPLIT_FAMILIES = [
    pytest.param((1, 2, 2), (2, -1, 0), {}, id="flat"),
    pytest.param((2, -1, 0), (1, 2, 2), {}, id="negative-alpha"),
    pytest.param((1, 2, 2), (2, -1, 0), {"picard": PicardPoint(
        a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
        a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))}, id="picard"),
    pytest.param((1, 1, 0), (1, 0, 0), {"tau": _DEFORMING_TAU},
                 id="deformed"),
    pytest.param((1, 2, 2), (1, 1, 0),
                 {"tau": _DEFORMING_TAU, "correct": False},
                 id="off-solution"),
]


def _split_family(t0, t1, kw):
    return make_family(FamilyConfig(LineBundleTriple(*t0, role="V0"),
                                    LineBundleTriple(*t1, role="V1"),
                                    **kw)).params


@pytest.mark.parametrize("t0, t1, kw", _SPLIT_FAMILIES)
def test_unitary_decomposition_on_each_family(t0, t1, kw):
    # the split against the two-_combination reference, on every metric
    # class and both coupling signs
    _check_unitary_split(_split_family(t0, t1, kw))


@pytest.mark.parametrize("t0, t1, kw", _SPLIT_FAMILIES)
def test_K_is_its_definition_on_the_unitary_split(t0, t1, kw):
    # moment_residuals reads K off D^G and S = 2 Psi, with no B: it equals
    # nabla_H_star(B, Psi) + i_{theta^sharp} Psi on the reference split,
    # and off a solution that is not 0 == 0
    s = _split_family(t0, t1, kw)
    K = moment_residuals(s)["K"]
    assert "unitary_split" not in vars(s)
    assert K == moment_K_reference(s)
    assert K or kw.get("correct") is not False


@pytest.mark.parametrize("t0, t1, kw", _SPLIT_FAMILIES)
def test_chern_split_matches_adjoint_reference(t0, t1, kw):
    s = _split_family(t0, t1, kw)
    C, phi = chern_split(s)
    C_ref, phi_ref = _chern_reference(s.connection, s.metric_H)
    assert C.comps == C_ref.comps
    assert phi.comps == phi_ref.comps
    assert any(phi.comps)


def test_curvature_decomposition(model, h0, Omega, rng):
    # F(A) = F(B) + Psi ^ Psi + (d Psi + B ^ Psi + Psi ^ B)
    for _ in range(6):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        B, Psi = s.unitary_split
        assert curvature(connection_DG(s)) == split_curvature(B, Psi)


def test_moment_residuals_on_solution(std):
    assert moment_I(std) == {}
    assert moment_J(std) == {}
    assert moment_residuals(std) == {"K": {}}


def _moment_digest(I, J, K):
    # the dense views; I as the literals of its top forms x e_top, as
    # recorded
    top = "w1^w2^w3^w1'^w2'^w3'"
    text = json.dumps([[["0" if x.is_zero() else "(%s) %s" % (x, top)
                         for x in r] for r in dense(I)],
                       [[str(x) for x in r] for r in dense(J)],
                       [[str(x) for x in r] for r in dense(K)]])
    return hashlib.sha256(text.encode()).hexdigest()


def test_moment_residuals_off_solution_pinned():
    # an uncorrected deformation: I, J and K are all nonzero here, so the
    # digest pins the values of all three, not just that they vanish
    cfg = FamilyConfig(LineBundleTriple(1, 2, 2), LineBundleTriple(1, 1, 0),
                       tau=TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0),
                       correct=False)
    s = make_family(cfg).params
    K = moment_residuals(s)["K"]
    I, J = moment_I(s), moment_J(s)
    assert I and J and K
    assert _moment_digest(I, J, K) == PINNED_MOMENT_DIGEST
    # the order of the calls does not change any value
    J2, I2, K2 = moment_J(s), moment_I(s), moment_residuals(s)["K"]
    assert _moment_digest(I2, J2, K2) == PINNED_MOMENT_DIGEST
    assert moment_residuals(s)["K"] == harmonic_residual(s) == K
    # moment_residuals holds K alone
    with pytest.raises(KeyError):
        moment_residuals(s)["I"]
    # the codifferential gap is not zero off a solution either
    gap = harmonic_vs_moment_gap(s)
    assert gap
    text = json.dumps([[str(x) for x in r] for r in dense(gap)])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_GAP_DIGEST


def test_gap_builds_only_the_J_codifferential(monkeypatch, model, h0,
                                              Omega):
    # the gap reads J alone: one codifferential, and no K residual
    import hslab.harmonic as harmonic
    s = make_params(model, h0, Omega, (1, 2, 2), (2, -1, 0))
    s.unitary_split  # built before counting
    calls = []
    real = harmonic.nabla_H_star

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harmonic, "nabla_H_star", counted)
    assert harmonic_vs_moment_gap(s) == {}
    assert len(calls) == 1


def test_harmonic_three_way_equivalence(model, h0, Omega, rng):
    for _ in range(12):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        dot = sum(a * b for a, b in zip(t0, t1))
        K = harmonic_residual(s)
        crit = harmonic_criteria(s)
        assert crit["torsion_pairing"].is_zero()
        assert (K == {}) == (dot == 0)
        assert crit["cross"].is_zero() == (dot == 0)


def test_criteria_where_the_torsion_pairing_is_not_zero(oracle_metrics, rng):
    # the pairing is zero on every Iwasawa family, so the criteria read
    # seeded 2-forms F0, F1 and a negative coupling on every oracle metric,
    # the Kodaira-Thurston stand-in (d(omega^2) != 0) included, against the
    # star itself and the frame contraction by its definition
    nonzero = 0
    for h in oracle_metrics:
        F0, F1 = (random_form(h.model, rng, 2, nterms=4) for _ in range(2))
        s = types.SimpleNamespace(h=h, F0=F0, F1=F1, alpha=Scalar.of(-2))
        crit = harmonic_criteria(s)
        assert crit["torsion_pairing"] == F0.wedge(h.star(h.dc_omega))
        assert crit["cross"] == Scalar.of(2) * frame_contraction(h, F0, F1)
        nonzero += not crit["torsion_pairing"].is_zero()
    assert nonzero >= len(oracle_metrics) - 1


def test_cross_term_closed_form(model, h0, Omega, rng):
    # the only nonzero entries of the K residual are the End off-diagonals,
    # equal to |alpha| times the frame contraction of the two curvatures
    for _ in range(8):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        K = dense(harmonic_residual(s))
        cross = s.alpha * frame_contraction(h0, s.F1, s.F0)
        if s.alpha.sign() < 0:
            cross = -cross
        assert harmonic_criteria(s)["cross"] == cross
        for i in range(QDIM):
            for j in range(QDIM):
                expect = cross if (i, j) in ((6, 7), (7, 6)) else Scalar.zero()
                assert K[i][j] == expect


def test_codifferential_identity(model, h0, Omega, rng):
    for _ in range(8):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        assert harmonic_vs_moment_gap(s) == {}


def test_higgs_field_closed_form(std, model, h0):
    phi = std.higgs_field
    Z = [frame_vector(model, a) for a in range(6)]
    two = Scalar.of(2)
    for b in range(6):
        expect = std.F0.contract(Z[b]).part(1, 0).scale(two)
        assert phi.form(6, b) == expect
        assert phi.form(7, b).is_zero()
    Ginv = dense(h0.Ginv6, 6)
    for a in range(6):
        acc = model.zero()
        for b in range(6):
            g = Ginv[a][b]
            if not g.is_zero():
                acc = acc + std.F0.contract(Z[b]).part(1, 0).scale(g)
        expect = acc.scale(-two * std.alpha)
        assert phi.form(a, 6) == expect
        assert phi.form(a, 7).is_zero()


def _dbar_phi_closed_form(model, t0, t1, alpha):
    def mmat(t):
        m, n, p = t
        return ((Fraction(m), Fraction(0), Fraction(n), Fraction(p)),
                (Fraction(n), Fraction(-p), Fraction(-m), Fraction(0)))

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    m0 = [[(r[0], r[1]), (r[2], r[3])] for r in mmat(t0)]
    m1 = [[(r[0], r[1]), (r[2], r[3])] for r in mmat(t1)]
    # the product order follows the sign of the coupling: the heavier
    # curvature factor acts first, with overall weight -4 pi^2 |alpha|
    if alpha.sign() > 0:
        left, right, factor = m0, m1, Scalar.pi(2, -4) * alpha
    else:
        left, right, factor = m1, m0, Scalar.pi(2, 4) * alpha
    out = model.zero()
    for j in range(2):
        for k in range(2):
            acc = (Fraction(0), Fraction(0))
            for l in range(2):
                prod = cmul(left[j][l], right[l][k])
                acc = (acc[0] + prod[0], acc[1] + prod[1])
            coef = factor * Scalar.of(acc[0], acc[1])
            if not coef.is_zero():
                out = out + model.basis_form((j, k + 3), coef)
    return out


def test_dbar_phi_end_block_closed_form(model, h0, Omega, rng):
    for _ in range(10):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        expect = _dbar_phi_closed_form(model, t0, t1, s.alpha)
        assert (higgs_dbar_entry(s, 6, 7) - expect).is_zero()
        assert (higgs_dbar_entry(s, 7, 6) - expect).is_zero()
        assert not expect.is_zero()


def test_dbar_phi_entries_match_the_whole_matrix(model, h0, Omega, rng):
    families = [make_params(model, h0, Omega, *random_pair(rng))
                for _ in range(3)]
    families.append(make_family(FamilyConfig(
        LineBundleTriple(1, 1, 0), LineBundleTriple(1, 0, 0),
        tau=_DEFORMING_TAU)).params)
    for s in families:
        ref = dbar_reference(s)
        got = [[higgs_dbar_entry(s, i, j) for j in range(QDIM)]
               for i in range(QDIM)]
        assert got == ref
        assert higgs_equation_residuals(s)["dbar_phi"] == ref


# (t0, t1, FamilyConfig options): three uncorrected deformed families, one
# Picard-twisted, a flat non-harmonic family and a corrected deformed one
_HIGGS_FAMILIES = [
    ((1, 2, 2), (1, 1, 0), {"tau": _DEFORMING_TAU, "correct": False}),
    ((1, 1, 0), (1, 0, 0), {"tau": TauDeformation(
        0, Fraction(1, 4), 0, Fraction(-1, 10)), "correct": False}),
    ((2, -1, 1), (1, 0, 1), {"tau": _DEFORMING_TAU, "correct": False,
                             "picard": PicardPoint(
        a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
        a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))}),
    ((1, 1, 0), (1, 0, 0), {}),
    ((1, 1, 0), (1, 0, 0), {"tau": _DEFORMING_TAU}),
]


def test_higgs_identities_relate_the_moment_residuals():
    # the Higgs-type rewriting against the moment maps, as sparse matrices,
    # c the volume coefficient: IJ_curvature = I, IJ_mixed = -4c J and the
    # curvature-type K = 2i c K + I
    seen = set()
    for t0, t1, kw in _HIGGS_FAMILIES:
        s = _split_family(t0, t1, kw)
        res, c = higgs_equation_residuals(s), s.h.c_vol
        I, J, K = moment_I(s), moment_J(s), moment_residuals(s)["K"]
        assert res["IJ_curvature"] == I
        assert res["IJ_mixed"] == _combination([Scalar.of(-4) * c], [J])
        assert res["K"] == _plus(_combination([Scalar.of(0, 2) * c], [K]), I)
        seen.update(name for name, x in zip("IJK", (I, J, K)) if x)
    # I, J and K are each nonzero on some family, so no identity holds
    # only as 0 == 0
    assert seen == set("IJK")


def test_every_invariant_22_form_of_the_iwasawa_model_is_closed(model):
    # so d(omega^2) = 0 for every invariant omega: every invariant metric on
    # the Iwasawa model is balanced, and the Lee-form terms of K and J are
    # zero on every family it carries
    basis = [model.basis_form(J + K)
             for J in itertools.combinations(range(3), 2)
             for K in itertools.combinations(range(3, 6), 2)]
    assert len(basis) == 9
    assert all(f.d().is_zero() for f in basis)


def _lee_model():
    """A stand-in model, d w2 = w1 ^ w1' and d w3 = w1 ^ w2', whose metrics
    have a Lee form with a Z2 component, where D^G has components."""
    one = Scalar.one()
    return NilmanifoldModel(3, {1: {(0, 3): one}, 2: {(0, 4): one}})


def test_higgs_identities_where_the_lee_form_is_not_zero():
    # the identities of test_higgs_identities_relate_the_moment_residuals
    # where i_{theta^sharp} Psi and i_{J theta^sharp} Psi are not zero: at
    # omega_0 and a deformed metric, both signs of alpha, and pairs of
    # unequal norm with m = 0, whose curvatures are closed here
    m = _lee_model()
    Omega = m.basis_form((0, 1, 2))
    omega0 = su3_structure(m)[0]
    i = Scalar.i()
    for omega in (omega0, omega0 + _DEFORMING_TAU.form(m)):
        h = HermitianStructure(m, omega)
        c = h.c_vol
        # J theta^sharp: i on the (1,0) components, -i on the (0,1) ones
        j_lee = InvariantVector(m, [x * i if a < 3 else -(x * i) for a, x
                                    in enumerate(h.lee_sharp.coeffs)])
        for t0, t1 in (((0, 1, 1), (0, 1, 0)), ((0, 2, -1), (0, 1, 1))):
            for alpha in (Scalar.pi(-2, Fraction(1, 3)),
                          Scalar.pi(-2, Fraction(-1, 3))):
                s = make_params(m, h, Omega, t0, t1, alpha)
                assert s.F0.d().is_zero() and s.F1.d().is_zero()
                Psi = s.unitary_split[1]
                lee_K, lee_J = Psi.value_at(h.lee_sharp), Psi.value_at(j_lee)
                assert lee_K and lee_J
                res = higgs_equation_residuals(s)
                I, J = moment_I(s), moment_J(s)
                K = moment_residuals(s)["K"]
                # K off D^G and S, with a nonzero Lee term, is K by its
                # definition on the split
                assert K == moment_K_reference(s)
                assert res["IJ_curvature"] == I
                assert res["IJ_mixed"] == _combination([Scalar.of(-4) * c],
                                                       [J])
                # observed, not derived: the Higgs form matches K with the
                # opposite sign of its Lee term, Higgs K = 2i c (K - 2
                # i_{theta^sharp} Psi) + I; which sign is the paper's is
                # open (ROADMAP.md, the Higgs-form identities)
                assert res["K"] == _plus(_combination(
                    [Scalar.of(0, 2) * c, Scalar.of(0, -4) * c],
                    [K, lee_K]), I)


def test_higgs_equation_residuals(std):
    res = higgs_equation_residuals(std)
    for key in ("K", "IJ_curvature", "IJ_mixed"):
        assert res[key] == {}
    assert matrix_is_zero(res["integrability"])
    assert res["holomorphicity_obstruction"]


# dbar_Q phi ^ omega^2 of two families: the nonzero entries of the 8x8
# matrix, the coefficients of the volume form w1^w2^w3^w1'^w2'^w3'
OBSTRUCTION_FLAT = {(0, 0): "9/4", (1, 1): "9/4",
                    (3, 3): "-9/4", (4, 4): "-9/4"}
OBSTRUCTION_DEFORMED = {
    (0, 0): "442/171", (0, 1): "40/171", (1, 0): "40/171",
    (1, 1): "358/171", (2, 0): "-2/5 i", (2, 1): "1 i",
    (3, 3): "-374/171", (3, 4): "80/171", (3, 5): "-160/171 i",
    (4, 3): "80/171", (4, 4): "-542/171", (4, 5): "400/171 i",
    (5, 3): "574/855 i", (5, 4): "-287/171 i", (5, 5): "-232/171",
    (6, 6): "232/171", (6, 7): "-458/171", (7, 6): "-458/171",
    (7, 7): "116/171"}


@pytest.mark.parametrize("t0, t1, tau, expected", [
    ((1, 2, 2), (2, -1, 0), TauDeformation(), OBSTRUCTION_FLAT),
    ((1, 1, 0), (1, 0, 0),
     TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0),
     OBSTRUCTION_DEFORMED),
], ids=["flat", "deformed"])
def test_higgs_obstruction_pinned(t0, t1, tau, expected):
    s = make_family(FamilyConfig(LineBundleTriple(*t0, role="V0"),
                                 LineBundleTriple(*t1, role="V1"),
                                 tau=tau)).params
    obstruction = higgs_equation_residuals(s)["holomorphicity_obstruction"]
    assert {k: str(x) for k, x in obstruction.items()} == expected
