"""Invariant exterior calculus on nilmanifold models."""

import itertools
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import NilmanifoldModel, InvariantVector

from conftest import apply, dbar, frame_vector, partial, random_form


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
    Z = [frame_vector(model, c) for c in range(model.dim)]
    out = Scalar.zero()
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            x, y = Z[idx[p]], Z[idx[q]]
            bracket = InvariantVector(
                model, [-apply(model.diff[c], x, y) for c in range(model.dim)])
            rest = [Z[i] for j, i in enumerate(idx) if j not in (p, q)]
            value = apply(a, bracket, *rest)
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


def test_top_pairing_is_the_top_coefficient_of_the_wedge(model, kt_model,
                                                          rng):
    # complementary degrees, and forms of mixed degree, whose other terms
    # meet no complement
    nonzero = 0
    for m in (model, kt_model):
        top = m.top_index()
        for key in itertools.chain.from_iterable(
                itertools.combinations(range(6), k) for k in range(7)):
            C, sign = m.complement(key)
            assert m.basis_form(C).wedge(m.basis_form(key)) == \
                m.basis_form(top, Scalar.of(sign))
        for deg in range(7):
            for _ in range(5):
                a = random_form(m, rng, deg, nterms=4)
                b = random_form(m, rng, 6 - deg, nterms=4)
                assert a.top_pairing(b) == a.wedge(b).top_coeff()
                nonzero += not a.top_pairing(b).is_zero()
        a = random_form(m, rng, 2) + random_form(m, rng, 3)
        b = random_form(m, rng, 4) + random_form(m, rng, 1)
        assert a.top_pairing(b) == a.wedge(b).top_coeff()
    assert nonzero >= 20
    with pytest.raises(ValueError, match="different models"):
        model.basis_form((0,)).top_pairing(kt_model.basis_form((1,)))


def test_forms_and_vectors_take_scalars_only(model):
    f = model.basis_form((0, 3))
    assert f.scale(Scalar.of(2)) == model.basis_form((0, 3), Scalar.of(2))
    for x in (2, Fraction(1, 2)):
        with pytest.raises(TypeError, match="Scalar"):
            f.scale(x)
    with pytest.raises(TypeError, match="Scalars"):
        InvariantVector(model, [1, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError, match="Scalars"):
        InvariantVector(model, [Scalar.one()] * 5 + [Fraction(1, 2)])


def test_reprs_are_pinned(model):
    # pytest shows a failing scalar, form or vector by its repr
    assert repr(Scalar.pi(-1, 2) + Scalar.of(1, -1)) == "2 pi^-1 + (1 - 1 i)"
    assert repr(Scalar.zero()) == "0"
    f = (model.basis_form((3, 0), Scalar.of(0, Fraction(1, 2)))
         + model.basis_form((), Scalar.pi(-1, 2))
         + model.basis_form((2,), Scalar.of(1, -1)))
    assert repr(f) == ("InvariantForm((2 pi^-1) + (-1/2 i) w1^w1' "
                       "+ ((1 - 1 i)) w3)")
    assert repr(model.zero()) == "InvariantForm(0)"
    z = Scalar.zero()
    v = InvariantVector(model, [Scalar.of(Fraction(1, 3)), z,
                                Scalar.pi(1, 0, 1), z, z, Scalar.of(-2)])
    assert repr(v) == "InvariantVector(1/3 Z(w1), 1 i pi Z(w3), -2 Z(w3'))"
    assert repr(InvariantVector(model, [z] * 6)) == "InvariantVector(0)"


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
        v = frame_vector(model, rng.randrange(6))
        lhs = a.wedge(b).contract(v)
        rhs = a.contract(v).wedge(b) + a.wedge(b.contract(v))
        assert (lhs - rhs).is_zero()


def test_apply_contraction_order(model):
    a = model.basis_form((0, 1))
    v1, v2 = frame_vector(model, 0), frame_vector(model, 1)
    assert apply(a, v1, v2) == Scalar.one()
    assert apply(a, v2, v1) == -Scalar.one()


def test_at_is_apply_on_frame_vectors(model, abelian_model, kt_model, rng):
    # a(Z_i1, .., Z_ik) read off the coefficients equals the contraction
    # oracle, with the permutation sign of unsorted indices and zero on a
    # repeated index; a mixed-degree form is read in degree k only
    for m in (model, abelian_model, kt_model):
        Z = [frame_vector(m, a) for a in range(6)]
        for deg in range(7):
            a = random_form(m, rng, deg) + random_form(m, rng, (deg + 1) % 7)
            cases = [rng.sample(key, len(key)) for key in a.terms if len(key) == deg]
            cases += [rng.sample(range(6), deg) for _ in range(5)]
            if deg >= 2:
                cases += [idx[:-1] + [idx[0]] for idx in cases[:3]]
            for idx in cases:
                assert a.at(*idx) == apply(a, *(Z[i] for i in idx)), (deg, idx)
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
        assert (a.d() - partial(a) - dbar(a)).is_zero()


def test_dc_convention(model, kt_model, rng):
    # d^c = i (dbar - partial), from one d per bidegree component, on forms
    # of mixed bidegree and on a model whose d is not of type (2,0)
    for m in (model, kt_model):
        cases = [model.basis_form((0, 3))] if m is model else []
        cases += [random_form(m, rng, rng.choice((1, 2, 3, 4)), nterms=5)
                  for _ in range(20)]
        for a in cases:
            rhs = (dbar(a) - partial(a)).scale(Scalar.of(0, 1))
            assert a.dc() == rhs


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
