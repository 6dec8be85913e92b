"""Invariant exterior calculus on nilmanifold models."""

import itertools

import pytest

from hslab.scalars import Scalar
from hslab.cealg import NilmanifoldModel, InvariantVector

from conftest import random_form


def test_structure_equation(model):
    # d w3 = w1 ^ w2; the other generators are closed
    assert (model.diff[2] - model.basis_form((0, 1))).is_zero()
    for idx in (0, 1):
        assert model.diff[idx].is_zero()
    # conjugate structure equation follows by construction
    assert (model.diff[5] - model.basis_form((3, 4))).is_zero()


def test_d_squared_randomized(model, rng):
    for deg in (1, 2, 3, 4):
        for _ in range(25):
            a = random_form(model, rng, deg)
            assert a.d().d().is_zero()


def _ce_d_value(model, a, idx):
    """(da)(Z_i0, .., Z_ik) by the Chevalley-Eilenberg formula.

    sum_{p<q} (-1)^(p+q) a([Z_ip, Z_iq], Z_i0, .., Z_ik without Z_ip, Z_iq);
    the derivative terms vanish on invariant forms.  Brackets are read off
    the structure differential, [Z_a, Z_b] = -sum_c (d w_c)(Z_a, Z_b) Z_c,
    and every value is taken by contraction (apply).
    """
    Z = [model.basis_vector(c) for c in range(model.dim)]
    out = Scalar.zero()
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            x, y = Z[idx[p]], Z[idx[q]]
            bracket = InvariantVector(
                model, [-model.diff[c].apply(x, y) for c in range(model.dim)])
            rest = [Z[i] for j, i in enumerate(idx) if j not in (p, q)]
            value = a.apply(bracket, *rest)
            out = out - value if (p + q) % 2 else out + value
    return out


def test_d_matches_chevalley_eilenberg(model, abelian_model, kt_model, rng):
    # sign calibration: d w3 = w1 ^ w2 takes 1 on (Z_1, Z_2)
    assert _ce_d_value(model, model.basis_form((2,)), (0, 1)) == Scalar.one()
    nonzero = 0
    for m in (model, abelian_model, kt_model):
        for deg in range(6):
            for _ in range(4):
                a = random_form(m, rng, deg, nterms=4)
                da = a.d()
                nonzero += not da.is_zero()
                for idx in itertools.combinations(range(m.dim), deg + 1):
                    assert da.at(*idx) == _ce_d_value(m, a, idx), (deg, idx)
    assert nonzero >= 10


def test_leibniz_randomized(model, rng):
    for dega in (1, 2, 3):
        for _ in range(25):
            a = random_form(model, rng, dega)
            b = random_form(model, rng, rng.choice((1, 2)))
            lhs = a.wedge(b).d()
            sign = Scalar.of((-1) ** dega)
            rhs = a.d().wedge(b) + a.wedge(b.d()).scale(sign)
            assert (lhs - rhs).is_zero()


def test_wedge_graded_commutativity(model, rng):
    for dega, degb in ((1, 1), (1, 2), (2, 2), (2, 3)):
        for _ in range(20):
            a = random_form(model, rng, dega)
            b = random_form(model, rng, degb)
            sign = Scalar.of((-1) ** (dega * degb))
            assert (a.wedge(b) - b.wedge(a).scale(sign)).is_zero()


def test_conjugate_involution(model, rng):
    for _ in range(50):
        a = random_form(model, rng, rng.choice((1, 2, 3)))
        assert (a.conjugate().conjugate() - a).is_zero()
        # conjugation commutes with d (real structure equations)
        assert (a.d().conjugate() - a.conjugate().d()).is_zero()


def test_contract_antiderivation(model, rng):
    for _ in range(40):
        a = random_form(model, rng, 2)
        b = random_form(model, rng, 1)
        v = model.basis_vector(rng.randrange(6))
        lhs = a.wedge(b).contract(v)
        rhs = a.contract(v).wedge(b) + a.wedge(b.contract(v))
        assert (lhs - rhs).is_zero()


def test_apply_contraction_order(model):
    a = model.basis_form((0, 1))
    v1, v2 = model.basis_vector(0), model.basis_vector(1)
    assert a.apply(v1, v2) == Scalar.one()
    assert a.apply(v2, v1) == -Scalar.one()


def test_at_is_apply_on_frame_vectors(model, abelian_model, kt_model, rng):
    # a(Z_i1, .., Z_ik) read off the coefficients equals the contraction
    # oracle, with the permutation sign of unsorted indices and zero on a
    # repeated index; a mixed-degree form is read in degree k only
    for m in (model, abelian_model, kt_model):
        Z = [m.basis_vector(a) for a in range(6)]
        for deg in range(7):
            a = random_form(m, rng, deg) + random_form(m, rng, (deg + 1) % 7)
            cases = [rng.sample(key, len(key)) for key in a.terms if len(key) == deg]
            cases += [rng.sample(range(6), deg) for _ in range(5)]
            if deg >= 2:
                cases += [idx[:-1] + [idx[0]] for idx in cases[:3]]
            for idx in cases:
                assert a.at(*idx) == a.apply(*(Z[i] for i in idx)), (deg, idx)
            for key, v in a.terms.items():
                assert a.at(*key) == v
    assert model.basis_form((0, 1, 2)).at(2, 0, 1) == Scalar.one()
    assert model.basis_form((0, 1, 2)).at(1, 0, 2) == -Scalar.one()
    assert model.basis_form((0, 1)).at(1, 1).is_zero()


def test_bigrade_partition(model, rng):
    for _ in range(40):
        a = random_form(model, rng, rng.choice((2, 3)))
        total = model.zero()
        for (p, q) in a.bigrade():
            total = total + a.part(p, q)
        assert (total - a).is_zero()
    # dbar/partial split d on the bidegree components
    for _ in range(20):
        a = random_form(model, rng, 2)
        assert (a.d() - a.partial() - a.dbar()).is_zero()


def test_dc_convention(model):
    # d^c = i (dbar - partial)
    a = model.basis_form((0, 3))
    lhs = a.dc()
    rhs = (a.dbar() - a.partial()).scale(Scalar.of(0, 1))
    assert (lhs - rhs).is_zero()


def test_abelian_and_kt_models(abelian_model, kt_model):
    for idx in range(6):
        assert abelian_model.diff[idx].is_zero()
    assert (kt_model.diff[2] - kt_model.basis_form((0, 3))).is_zero()
    # d^2 = 0 holds in the Kodaira-Thurston-style model as well
    a = kt_model.basis_form((2,)) + kt_model.basis_form((5,))
    assert a.d().d().is_zero()


def test_non_integrable_model_rejected():
    # a (0,2) component in d of a (1,0) generator breaks integrability
    with pytest.raises(ValueError):
        NilmanifoldModel(3, {2: {(3, 4): Scalar.one()}})


def test_d_squared_enforced():
    # structure constants violating the Jacobi identity give d^2 != 0
    one = Scalar.one()
    with pytest.raises(ValueError):
        NilmanifoldModel(3, {0: {(0, 1): -one}, 1: {(1, 2): -one},
                             2: {(1, 2): -one}})
