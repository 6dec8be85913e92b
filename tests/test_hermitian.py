"""Metric structures: Gram data, Hodge star, codifferential, connections."""

import gc
import types
import weakref
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import NilmanifoldModel
from hslab.hermitian import HermitianStructure, matrix_inverse
from hslab.iwasawa import TauDeformation, su3_structure

from conftest import (apply, christoffel, dense, frame_vector, levi_civita,
                      partial, q_metric, raised, random_form, random_scalar,
                      sparse, vector_is_zero)


def _diag_metric(model, coeffs):
    half_i = Scalar.of(0, Fraction(1, 2))
    out = model.zero()
    for j, c in enumerate(coeffs):
        out = out + model.basis_form((j, j + 3), half_i * Scalar.of(Fraction(c)))
    return HermitianStructure(model, out)


def test_gram_matrix(model, h0):
    for j in range(3):
        for k in range(3):
            expect = Scalar.of(Fraction(1, 2)) if j == k else Scalar.zero()
            assert h0.g[j][k] == expect


def test_volume_normalization(model, h0):
    # omega^3 / 6 = (i/8) e_top
    assert (h0.volume - model.basis_form(tuple(range(6)),
                                         Scalar.of(0, Fraction(1, 8)))).is_zero()


def test_star_calibrations(model, h0):
    half_i = Scalar.of(0, Fraction(1, 2))
    dc = h0.omega.dc()
    # d^c omega_0 = (1/2)(w_{123'} + w_{31'2'})
    expect_dc = (model.basis_form((0, 1, 5)) + model.basis_form((2, 3, 4))) \
        .scale(Scalar.of(Fraction(1, 2)))
    assert (dc - expect_dc).is_zero()
    # * d^c omega_0 = (i/2)(w_{123'} - w_{31'2'})
    expect_star = (model.basis_form((0, 1, 5)) - model.basis_form((2, 3, 4))) \
        .scale(half_i)
    assert (h0.star(dc) - expect_star).is_zero()
    # dd^c omega_0 = w_{12 1'2'}
    assert (dc.d() - model.basis_form((0, 1, 3, 4))).is_zero()


def test_double_star_sign(model, h0, rng):
    for deg in (1, 2, 3):
        for _ in range(20):
            a = random_form(model, rng, deg)
            sign = Scalar.of((-1) ** deg)
            assert (h0.star(h0.star(a)) - a.scale(sign)).is_zero()


def test_self_star_of_omega(model, h0):
    # *omega = omega^2 / 2 for any Hermitian form in complex dimension 3
    lhs = h0.star(h0.omega)
    rhs = h0.omega.wedge(h0.omega).scale(Scalar.of(Fraction(1, 2)))
    assert (lhs - rhs).is_zero()


def _deformed(model):
    omega0, _ = su3_structure(model)
    tau = TauDeformation(Fraction(1, 10), Fraction(0), Fraction(-1, 4), Fraction(0))
    return HermitianStructure(model, omega0 + tau.form(model))


@pytest.mark.parametrize("name", ["model", "abelian_model", "kt_model",
                                  "oracle_metrics"])
def test_wedge_omega_sq_is_the_wedge_with_omega_sq(request, name, rng):
    # a deformed metric of each model, and every oracle metric: the pairing
    # omega_sq_top is the top coefficient of the wedge with omega^2 on
    # seeded 2-forms and on the zero form, and refuses seeded forms of every
    # other degree 0-6 and one of mixed degree
    fixture = request.getfixturevalue(name)
    metrics = fixture if name == "oracle_metrics" else [_deformed(fixture)]
    nonzero = 0
    for h in metrics:
        w2 = h.omega.wedge(h.omega)
        forms = [random_form(h.model, rng, deg, nterms=4)
                 for deg in range(7) for _ in range(3)]
        others = [f for f in forms if f.degree() != 2] + [forms[6] + forms[9]]
        two = [f for f in forms if f.degree() == 2] + [h.model.zero()]
        for f in two:
            c = h.omega_sq_top(f)
            assert h.model.basis_form(h.model.top_index(), c) == f.wedge(w2)
            nonzero += not c.is_zero()
        for f in others:
            with pytest.raises(ValueError, match="2-form|homogeneous"):
                h.omega_sq_top(f)
    assert nonzero >= 2 * len(metrics)


def test_wedge_star_is_one_contraction_of_the_volume(oracle_metrics, rng):
    # F ^ *T against the Hodge star itself, on seeded 2-forms F that are
    # mostly not closed (curvatures are; the pairing with T = d^c omega is
    # zero on every Iwasawa family): T = d^c omega and a seeded 3-form;
    # raise_form against Ginv6 . F . Ginv6 by the definition
    nonzero = not_closed = 0
    for h in oracle_metrics:
        for _ in range(2):
            F = random_form(h.model, rng, 2, nterms=4)
            M = h.raise_form(F)
            assert M == sparse(raised(h, F))
            not_closed += not F.d().is_zero()
            for T in (h.dc_omega, random_form(h.model, rng, 3, nterms=4)):
                pairing = h.wedge_star(M, T)
                assert pairing == F.wedge(h.star(T))
                nonzero += not pairing.is_zero()
    assert not_closed >= len(oracle_metrics)
    assert nonzero >= 2 * len(oracle_metrics)
    # on the Kodaira-Thurston stand-in d(omega^2) != 0, and the pairing
    # with its d^c omega is not zero
    h = oracle_metrics[-1]
    assert not h.d_omega_sq.is_zero()
    F = random_form(h.model, rng, 2, nterms=4)
    assert not h.wedge_star(h.raise_form(F), h.dc_omega).is_zero()


def test_members_are_their_definitions(oracle_metrics):
    # the members built with the structure, against their definitions; the
    # Levi-Civita trace, the sharp of tr ad, against the contraction of the
    # oracle connection: it is zero on every nilpotent model (Milnor), so a
    # non-unimodular algebra ([Z_1, Z_3] = -Z_1, d w1 = w1 ^ w3) gives one
    # metric whose trace is not
    solvable = NilmanifoldModel(3, {0: {(0, 2): Scalar.one()}})
    h1 = HermitianStructure(solvable, su3_structure(solvable)[0])
    assert any(not x.is_zero() for x in h1.lc_trace)
    for h in oracle_metrics + [h1]:
        dim, gamma = h.model.dim, levi_civita(h)
        Ginv = dense(h.Ginv6, dim)
        assert h.lee_sharp.coeffs == h.sharp(h.lee_form).coeffs
        assert h.ddc_omega_sq == h.omega_sq.dc().d()
        # vol = omega^3/6 = c_vol e_top, by the wedge itself
        assert h.volume == h.omega_sq.wedge(h.omega).scale(
            Scalar.of(Fraction(1, 6)))
        assert h.c_vol == h.volume.top_coeff()
        assert h.two_i_partial_omega == partial(h.omega).scale(
            Scalar.of(0, 2))
        assert h.lc_trace == [
            sum((Ginv[a][b] * gamma[a][b][c] for a in range(dim)
                 for b in range(dim)), Scalar.zero()) for c in range(dim)]
        # the nonzero entries of each row of the metric on Q and of each
        # column of its inverse on T, against their definition (q_metric)
        Hm, Hm_inv = q_metric(h, Scalar.one())
        assert h.Hm_T_rows == [
            [(b, Hm[a][b]) for b in range(dim) if not Hm[a][b].is_zero()]
            for a in range(dim)]
        assert h.Hm_inv_T_cols == [
            [(a, Hm_inv[a][b]) for a in range(dim)
             if not Hm_inv[a][b].is_zero()] for b in range(dim)]
        # lam_a = (d e_a ^ omega^2)_top, by the wedge itself
        assert h.omega_sq_lambda == [
            da.wedge(h.omega_sq).top_coeff() for da in h.model.diff]
    assert any(not vector_is_zero(h.lee_sharp) for h in oracle_metrics)
    assert any(not x.is_zero() for h in oracle_metrics
               for x in h.omega_sq_lambda)


def test_block_inverse_of_the_gram_matrix(oracle_metrics):
    # G6 = [[0, g], [g^T, 0]]: Ginv6 comes from the 3x3 inverse of g alone
    for h in oracle_metrics:
        assert dense(h.Ginv6, 6) == matrix_inverse(dense(h.G6, 6))
    assert any(not dense(h.Ginv6, 6)[0][4].is_zero() for h in oracle_metrics)


def test_sparse_gram_matrices_hold_no_zero_entries(oracle_metrics, model):
    # G6 and Ginv6 hold exactly the nonzero entries of the Gram matrix read
    # off omega by contractions (_frame_gram) and of its inverse, and no
    # zero; the diagonal metric (1, 2, 3) has zeros in its T^{1,0} x
    # T^{0,1} blocks, which must not be keys
    diag = _diag_metric(model, (1, 2, 3))
    for h in oracle_metrics + [diag]:
        G = _frame_gram(h)
        for m, full in ((h.G6, G), (h.Ginv6, matrix_inverse(G))):
            assert not any(v.is_zero() for v in m.values())
            assert m == {(a, b): x for a, row in enumerate(full)
                         for b, x in enumerate(row) if not x.is_zero()}
    assert len(diag.G6) == len(diag.Ginv6) == 6


def test_star_of_omega_and_the_lee_form(oracle_metrics):
    # *omega = omega^2/2 in complex dimension 3, so the Lee form J d^* omega
    # = -J *d*omega equals -J *d(omega^2)/2
    for h in oracle_metrics:
        assert h.star(h.omega) == h.omega_sq.scale(Scalar.of(Fraction(1, 2)))
        assert h.lee_form == h.j_form(-h.star(h.star(h.omega).d()))
    assert not oracle_metrics[-1].lee_form.is_zero()


def test_codifferential_and_lee_zero(model, h0):
    # d^* omega = -*d*omega
    assert h0.star(h0.star(h0.omega).d()).is_zero()
    assert h0.lee_form.is_zero()


def test_lee_zero_even_for_nonstandard_diagonal(model):
    # every invariant metric here is balanced, so the Lee form vanishes
    # identically, including for the anisotropic diagonal metric
    h = _diag_metric(model, (2, 1, 1))
    assert h.lee_form.is_zero()
    assert h.omega.wedge(h.omega).d().is_zero()


def test_lee_nonzero_on_kt_model(kt_model):
    half_i = Scalar.of(0, Fraction(1, 2))
    omega = (kt_model.basis_form((0, 3)) + kt_model.basis_form((1, 4))
             + kt_model.basis_form((2, 5))).scale(half_i)
    h = HermitianStructure(kt_model, omega)
    theta = h.lee_form
    assert not theta.is_zero()
    # the sharp of a nonzero form is nonzero
    assert not vector_is_zero(h.sharp(theta))


def test_metric_objects_are_built_once(model):
    h = _diag_metric(model, (1, 2, 3))
    # every member is a plain attribute, built with the structure
    members = ("omega_sq_table", "omega_sq_lambda", "bismut", "lee_form",
               "lee_sharp", "lc_trace", "G6", "Ginv6", "Hm_T_rows",
               "Hm_inv_T_cols", "cotangent", "ddc_omega_sq", "c_vol",
               "volume")
    assert set(members) <= set(vars(h))
    assert not any(callable(getattr(h, name)) for name in members)
    # a second structure on the same metric builds its own, equal, objects
    other = _diag_metric(model, (1, 2, 3))
    assert other.bismut is not h.bismut
    assert other.bismut == h.bismut
    assert other.lee_form == h.lee_form
    # the connections do not point back at their structure, so dropping the
    # structure frees it at once, without the cyclic garbage collector
    ref = weakref.ref(other)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del other
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_bismut_equals_levi_civita_on_torus(abelian_model):
    half_i = Scalar.of(0, Fraction(1, 2))
    omega = (abelian_model.basis_form((0, 3)) + abelian_model.basis_form((1, 4))
             + abelian_model.basis_form((2, 5))).scale(half_i)
    h = HermitianStructure(abelian_model, omega)
    assert christoffel(h.bismut) == levi_civita(h)


def _metrics(model, h0, kt_model):
    """omega_0, omega_0 + DEFORMED_TAU, and the same on the Kodaira-Thurston-
    style model, whose d w3 is a (1,1) torus form."""
    return [h0, _deformed(model), _deformed(kt_model)]


def _frame_gram(h):
    """g(Z_a, Z_b) from omega by contractions: g(Z_j, Z_k') = -i omega(Z_j,
    Z_k') for (1,0) indices j and (0,1) indices k', symmetric, and zero on
    two vectors of the same type."""
    model, n = h.model, h.model.n
    Z = [frame_vector(model, a) for a in range(model.dim)]
    G = [[Scalar.zero()] * model.dim for _ in range(model.dim)]
    for j in range(n):
        for k in range(n, 2 * n):
            G[j][k] = G[k][j] = Scalar.of(0, -1) * apply(h.omega, Z[j], Z[k])
    return G


def test_bismut_torsion_is_skew_torsion(model, h0, kt_model):
    # the torsion 3-form of the Bismut connection is d^c omega: checking
    # g(T(Z_a, Z_b), Z_c) antisymmetrized equals d^c omega(Z_a, Z_b, Z_c),
    # with T(Z_a, Z_b)^d = Gamma^d_ab - Gamma^d_ba - [Z_a, Z_b]^d and the
    # bracket [Z_a, Z_b]^d = -d w^d(Z_a, Z_b) by contractions
    for h in _metrics(model, h0, kt_model):
        m, bi = h.model, christoffel(h.bismut)
        dc = h.omega.dc()
        Z = [frame_vector(m, a) for a in range(6)]
        G = _frame_gram(h)
        for a in range(6):
            for b in range(a + 1, 6):
                t = [bi[a][b][d] - bi[b][a][d] + apply(m.diff[d], Z[a], Z[b])
                     for d in range(6)]
                for c in range(6):
                    pair = Scalar.zero()
                    for d in range(6):
                        if not t[d].is_zero():
                            pair = pair + t[d] * G[d][c]
                    assert pair == apply(dc, Z[a], Z[b], Z[c])
        assert not dc.is_zero()


def test_levi_civita_is_torsion_free_and_metric(model, h0, kt_model):
    # Gamma^c_ab - Gamma^c_ba = [Z_a, Z_b]^c = -d w^c(Z_a, Z_b), and on
    # invariant fields Z_a g(Z_b, Z_c) = 0 = g(nabla_a Z_b, Z_c)
    # + g(Z_b, nabla_a Z_c); the Bismut connection is metric as well
    for h in _metrics(model, h0, kt_model):
        m = h.model
        Z = [frame_vector(m, a) for a in range(6)]
        G = _frame_gram(h)
        assert G == dense(h.G6, 6)
        lc, bi = levi_civita(h), christoffel(h.bismut)
        r = range(6)
        for a in r:
            for b in r:
                for c in r:
                    assert lc[a][b][c] - lc[b][a][c] == \
                        -apply(m.diff[c], Z[a], Z[b])
                for conn in (lc, bi):
                    g = conn[a]
                    for c in r:
                        assert sum((g[b][d] * G[d][c] + g[c][d] * G[b][d]
                                    for d in r), Scalar.zero()).is_zero()
        assert any(not x.is_zero() for row in lc for v in row for x in v)


def test_omega_sq_table_is_the_wedge_with_omega_sq(model, h0, kt_model):
    for h in _metrics(model, h0, kt_model):
        e = h.model.basis_form
        W = h.omega_sq_table
        for a in range(6):
            for b in range(6):
                assert W[a][b] == e((a, b)).wedge(h.omega_sq).top_coeff()
        assert sum(not x.is_zero() for row in W for x in row) >= 6
    # off a 6-dimensional model the complement of a 4-form is not a pair
    big = NilmanifoldModel(4, {})
    stand_in = types.SimpleNamespace(
        model=big, omega_sq=big.basis_form((0, 1, 4, 5)))
    with pytest.raises(ValueError):
        HermitianStructure._omega_sq_table(stand_in)


def _frame_contraction(h, F, G):
    """g^{ac} g^{bd} F_ab G_cd, summed over the raised F's entries."""
    M = h.raise_form(F)
    return sum((m * G.at(a, b) for (a, b), m in M.items()), Scalar.zero())


def test_frame_contraction_norm(model, h0, rng):
    from hslab.bundles import LineBundleTriple, curvature_from_triple
    from conftest import random_triple
    for _ in range(10):
        t = random_triple(rng)
        F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
        norm = sum(x * x for x in t)
        expect = Scalar.pi(2, -16 * norm)
        assert _frame_contraction(h0, F, F) == expect
    # bilinearity in the integer dot product, and symmetry
    t0, t1 = random_triple(rng), random_triple(rng)
    F0 = curvature_from_triple(model, LineBundleTriple(*t0, role="V0"))
    F1 = curvature_from_triple(model, LineBundleTriple(*t1, role="V1"))
    dot = sum(a * b for a, b in zip(t0, t1))
    assert _frame_contraction(h0, F1, F0) == Scalar.pi(2, -16 * dot)
    assert _frame_contraction(h0, F0, F1) == Scalar.pi(2, -16 * dot)


def test_only_complex_dimension_three_is_accepted():
    # omega = (i/2) sum w_j ^ w_j' is positive in any dimension n, but star,
    # omega_sq_table and the volume omega^3/6 are those of n = 3
    half_i = Scalar.of(0, Fraction(1, 2))
    for n in (1, 2, 4):
        other = NilmanifoldModel(n, {})
        omega = other.zero()
        for j in range(n):
            omega = omega + other.basis_form((j, j + n), half_i)
        with pytest.raises(ValueError, match="dimension n = %d" % n):
            HermitianStructure(other, omega)


def test_positivity_certificate(model):
    bad = model.basis_form((0, 3), Scalar.of(0, Fraction(-1, 2))) \
        + model.basis_form((1, 4), Scalar.of(0, Fraction(1, 2))) \
        + model.basis_form((2, 5), Scalar.of(0, Fraction(1, 2)))
    with pytest.raises(ValueError):
        HermitianStructure(model, bad)


def test_degenerate_omega_is_refused_by_its_leading_minor(model):
    # a degenerate omega stops at the first zero leading minor of g, so the
    # volume omega^3/6, a unit multiple of det g, is never zero
    half_i = Scalar.of(0, Fraction(1, 2))
    e = model.basis_form
    no_third = (e((0, 3)) + e((1, 4))).scale(half_i)
    rank_one = (e((0, 3)) + e((0, 4)) + e((1, 3)) + e((1, 4))
                + e((2, 5))).scale(half_i)
    for omega, k in ((no_third, 3), (rank_one, 2)):
        with pytest.raises(ValueError, match="leading minor %d is 0" % k):
            HermitianStructure(model, omega)


def test_matrix_inverse_roundtrip(rng):
    n = 4
    while True:
        rows = [[random_scalar(rng, allow_pi=False) for _ in range(n)]
                for _ in range(n)]
        try:
            inv = matrix_inverse(rows)
        except ValueError:  # singular: draw again
            continue
        break
    for i in range(n):
        for j in range(n):
            acc = Scalar.zero()
            for k in range(n):
                acc = acc + rows[i][k] * inv[k][j]
            assert acc == (Scalar.one() if i == j else Scalar.zero())
