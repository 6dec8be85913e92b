"""Line-bundle curvatures, coupling constant, characteristic constraints."""

from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.bundles import (LineBundleTriple, curvature_from_triple,
                           alpha_solve, DegenerateCoupling, SystemParams,
                           hs_residuals)

from hslab.iwasawa import FamilyConfig, make_family, omega0_structure

from conftest import (degree_and_slope, hermitian_curvature,
                      hermitian_matrix, make_params, random_pair,
                      random_triple)


def test_triple_validation():
    with pytest.raises(ValueError):
        LineBundleTriple(0, 0, 0)


def test_curvature_square(model, rng):
    for _ in range(20):
        t = random_triple(rng)
        F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
        norm = sum(x * x for x in t)
        expect = model.basis_form((0, 1, 3, 4), Scalar.pi(2, 2 * norm))
        assert (F.wedge(F) - expect).is_zero()


def test_curvature_matches_hermitian_matrix(model, rng):
    t = random_triple(rng)
    trip = LineBundleTriple(*t, role="V0")
    assert (curvature_from_triple(model, trip)
            - hermitian_curvature(model, hermitian_matrix(trip))).is_zero()


def test_curvature_closed_antireal(model, rng):
    t = random_triple(rng)
    F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
    assert F.d().is_zero()
    assert (F.conjugate() + F).is_zero()
    assert list(F.bigrade()) == [(1, 1)]


def test_alpha_closed_form(model, h0, rng):
    for _ in range(20):
        t0, t1 = random_pair(rng)
        F0 = curvature_from_triple(model, LineBundleTriple(*t0, role="V0"))
        F1 = curvature_from_triple(model, LineBundleTriple(*t1, role="V1"))
        alpha = alpha_solve(F0, F1, h0)
        s0 = sum(x * x for x in t0)
        s1 = sum(x * x for x in t1)
        assert alpha == Scalar.pi(-2, Fraction(1, 2 * (s0 - s1)))


def test_degenerate_coupling(model, h0):
    F0 = curvature_from_triple(model, LineBundleTriple(1, 0, 0, role="V0"))
    F1 = curvature_from_triple(model, LineBundleTriple(0, 1, 0, role="V1"))
    with pytest.raises(DegenerateCoupling):
        alpha_solve(F0, F1, h0)


def test_hs_residuals_and_alpha_perturbation(model, h0, Omega, rng):
    for _ in range(10):
        t0, t1 = random_pair(rng)
        s = make_params(model, h0, Omega, t0, t1)
        res = hs_residuals(s)
        assert all(r.is_zero() for r in res)
        # perturbing alpha (to another real monomial; alpha + 1/7 is
        # refused) breaks exactly the anomaly residual
        s_bad = make_params(model, h0, Omega, t0, t1,
                            alpha=s.alpha * Scalar.of(Fraction(8, 7)))
        res_bad = hs_residuals(s_bad)
        assert [r.is_zero() for r in res_bad] == [True, True, True, False]


def test_hym_residual(model, h0, rng):
    t = random_triple(rng)
    F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
    assert F.wedge(h0.omega_sq).is_zero()


def test_ch2_constraint(model, h0, rng):
    # the anomaly solve's alpha makes omega_0 / alpha a potential of
    # F0^2 - F1^2: at the sweep certificate's pair and at seeded pairs
    assert h0 is omega0_structure()
    pairs = [((1, 0, 0), (1, 1, 0)), ((1, 2, 2), (2, -1, 0))]
    pairs += [random_pair(rng) for _ in range(5)]
    for t0, t1 in pairs:
        F0 = curvature_from_triple(model, LineBundleTriple(*t0, role="V0"))
        F1 = curvature_from_triple(model, LineBundleTriple(*t1, role="V1"))
        alpha = alpha_solve(F0, F1, h0)
        witness = h0.omega.scale(alpha.inverse())
        assert witness.conjugate() == witness
        assert set(witness.bigrade()) == {(1, 1)}
        target = F0.wedge(F0) - F1.wedge(F1)
        assert not target.is_zero()
        assert witness.dc().d() == target


def test_degree_zero(model, h0, rng):
    b = h0.omega.wedge(h0.omega)
    assert b.dc().d().is_zero()  # an Aeppli class
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    for _ in range(10):
        t = random_triple(rng)
        F = curvature_from_triple(model, LineBundleTriple(*t, role="V0"))
        c = F.scale(i_2pi)
        assert c.d().is_zero()
        assert degree_and_slope(c, b, h0).is_zero()


def test_volume_form_validation(model, h0):
    with pytest.raises(ValueError):
        SystemParams(model=model, h=h0,
                     triple0=LineBundleTriple(1, 0, 0, role="V0"),
                     triple1=LineBundleTriple(1, 1, 0, role="V1"),
                     F0=model.zero(), F1=model.zero(),
                     alpha=Scalar.one(), Omega=model.basis_form((2, 4, 5)))


@pytest.mark.parametrize("alpha", [Scalar.zero(), Scalar.of(1, 1),
                                   Scalar.one() + Scalar.pi()])
def test_coupling_must_be_real_and_nonzero(model, h0, Omega, alpha):
    # refused when the family is built, before any Q-bundle object is; a
    # real sum of pi powers has no exactly decided sign, so the compatible
    # metric could not be built
    with pytest.raises(ValueError, match="real and nonzero") as err:
        make_params(model, h0, Omega, (1, 0, 0), (1, 1, 0), alpha=alpha)
    assert str(alpha) in str(err.value)
    with pytest.raises(ValueError, match="real and nonzero"):
        make_family(FamilyConfig(LineBundleTriple(1, 2, 2),
                                 LineBundleTriple(2, -1, 0), alpha=alpha))
