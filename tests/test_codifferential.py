"""The contracted codifferential nabla_H_star against the double sum it reorders.

nabla_H_star contracts with Ginv before taking commutators and adds the
metric's Levi-Civita trace h.lc_trace, g^c = sum_{ab} Ginv[a][b]
Gamma^c_{ab}, as one term; the package reads it as the sharp of tr ad and
builds no Gamma.  The double sum below, with Gamma from the oracle
connection of conftest (levi_civita), is the definition it must reproduce
exactly: on real families, on a stand-in metric whose trace is nonzero
(the Iwasawa trace is zero, so no real family exercises that term), and
the Milnor identity that makes the trace vanish on the Iwasawa model is
checked on its own.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hslab.scalars import Scalar
from hslab.algebroid import QDIM, QOperator
from hslab.hermitian import HermitianStructure, _combination
from hslab.harmonic import nabla_H_star
from hslab.bundles import LineBundleTriple
from hslab.iwasawa import (FamilyConfig, PicardPoint, TauDeformation,
                           build_iwasawa, make_family, omega0_structure)

from conftest import (dense, forms, frame_vector, levi_civita, operator_of,
                      scalar_commutator, sparse)

TAU = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)
TAU_MENU = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4), Fraction(-1, 4)]


def _reference(s, B, T, gamma):
    """-sum_{ab} Ginv[a][b] ([B(Z_a), T(Z_b)] - Gamma^c_{ab} T(Z_c)), term by
    term, with Gamma[a][b][c] = Gamma^c_{ab} dense."""
    Ginv = dense(s.h.Ginv6, 6)
    Z = [frame_vector(s.model, a) for a in range(6)]
    # A(Z_a) by contracting each 1-form entry
    Bv, Tv = ([[[e.contract(z).terms.get((), Scalar.zero()) for e in row]
                for row in forms(X)] for z in Z] for X in (B, T))
    out = [[Scalar.zero()] * QDIM for _ in range(QDIM)]
    for a in range(6):
        for b in range(6):
            gab = Ginv[a][b]
            if gab.is_zero():
                continue
            term = scalar_commutator(Bv[a], Tv[b])
            for c in range(6):
                gam = gamma[a][b][c]
                if gam.is_zero():
                    continue
                term = [[x - gam * y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(term, Tv[c])]
            out = [[o - gab * v for o, v in zip(r1, r2)]
                   for r1, r2 in zip(out, term)]
    return out


def _j(T):
    """J T by the Hodge j_form of each 1-form entry."""
    h = omega0_structure()
    return operator_of(T.model, [[h.j_form(e) for e in row] for row in forms(T)])


def _family(t0, t1, **kw):
    return make_family(FamilyConfig(LineBundleTriple(*t0, role="V0"),
                                    LineBundleTriple(*t1, role="V1"), **kw)).params


FAMILIES = {
    "flat": lambda: _family((1, 2, 2), (2, -1, 0)),
    "picard": lambda: _family(
        (1, 2, 2), (2, -1, 0),
        picard=PicardPoint(a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
                           a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))),
    "deformed": lambda: _family((1, 1, 0), (1, 0, 0), tau=TAU),
    # the uncorrected family of test_moment_residuals_off_solution_pinned
    "off_solution": lambda: _family((1, 2, 2), (1, 1, 0), tau=TAU, correct=False),
}


def _trace(Ginv, gamma, c):
    return sum((Ginv[a][b] * gamma[a][b][c] for a in range(6) for b in range(6)),
               Scalar.zero())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_contracted_equals_double_sum(name):
    s = FAMILIES[name]()
    B, Psi = s.unitary_split
    JPsi = _j(Psi)
    # both are zero on the flat and Picard families (omega_0, every row of
    # Ginv with one entry); the stand-ins below give that path nonzero values
    gamma = levi_civita(s.h)
    for T in (Psi, JPsi):
        assert nabla_H_star(s, B, T) == sparse(_reference(s, B, T, gamma))


def test_deformed_metrics_have_multi_term_rows():
    # so the family comparison above also covers the accumulated S_a
    for name in ("deformed", "off_solution"):
        s = FAMILIES[name]()
        assert any(sum(not g.is_zero() for g in row) > 1
                   for row in dense(s.h.Ginv6, 6))


def _gaussian(rng, zero_share):
    if rng.random() < zero_share:
        return Scalar.zero()
    return Scalar.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                     Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _stand_in_inverse(rng, shape):
    """Seeded symmetric 6x6: one nonzero per row (a, a +- 3) as at omega_0,
    or several per row."""
    Ginv = [[Scalar.zero()] * 6 for _ in range(6)]
    for a in range(3):
        Ginv[a][a + 3] = Ginv[a + 3][a] = Scalar.of(Fraction(rng.randint(1, 5),
                                                             rng.randint(1, 3)))
    if shape == "multi":
        for a in range(6):
            for b in range(a, 6):
                if b != a + 3:
                    Ginv[a][b] = Ginv[b][a] = _gaussian(rng, 0.4)
            Ginv[a][a] = Scalar.of(rng.randint(1, 5))
    return Ginv


@pytest.mark.parametrize("shape", ["single", "multi"])
@pytest.mark.parametrize("seed", range(3))
def test_stand_in_metric_with_a_nonzero_trace(seed, shape):
    # a stand-in metric: seeded symmetric Ginv, seeded Gamma whose contracted
    # trace is nonzero; B and Psi from the off-solution family, whose
    # codifferentials are nonzero
    rng = random.Random(seed)
    real = FAMILIES["off_solution"]()
    B, Psi = real.unitary_split
    Ginv = _stand_in_inverse(rng, shape)
    gamma = [[[_gaussian(rng, 0.5) for _ in range(6)] for _ in range(6)]
             for _ in range(6)]
    terms = 1 if shape == "single" else 3
    assert all(sum(not g.is_zero() for g in row) >= terms for row in Ginv)
    # the trace by its definition, nonzero
    trace = [_trace(Ginv, gamma, c) for c in range(6)]
    assert any(not x.is_zero() for x in trace)
    s = SimpleNamespace(model=real.model, h=SimpleNamespace(
        Ginv6={(a, b): g for a, row in enumerate(Ginv)
               for b, g in enumerate(row) if not g.is_zero()},
        lc_trace=trace))
    for T in (Psi, _j(Psi)):
        out = nabla_H_star(s, B, T)
        assert out == sparse(_reference(s, B, T, gamma))
        assert out


def _seeded_operator(model, rng):
    """A QOperator with seeded Gaussian-rational entries, about a third of
    them nonzero."""
    return QOperator(model, [{(i, j): _gaussian(rng, 0.7) for i in range(QDIM)
                              for j in range(QDIM)} for _ in range(6)])


def test_codifferential_of_an_operator_along_itself_is_its_trace_term():
    # nabla_H_star(s, X, X) = sum_ab Ginv[a][b] [X^b, X^a] + the trace term,
    # and the sum is zero as Ginv6 is symmetric: moment_residuals rests on
    # this to read K off D^G and S = 2 Psi with no B.  At omega_0, at a
    # deformed metric and at the stand-in whose trace is nonzero
    rng = random.Random(20261020)
    model = build_iwasawa()[0]
    stand_in = _stand_in_inverse(rng, "multi")
    structures = [omega0_structure(), FAMILIES["deformed"]().h,
                  SimpleNamespace(Ginv6=sparse(stand_in), lc_trace=[
                      _gaussian(rng, 0) for _ in range(6)])]
    for h in structures:
        s = SimpleNamespace(model=model, h=h)
        for _ in range(3):
            X, Y = _seeded_operator(model, rng), _seeded_operator(model, rng)
            trace = _combination(h.lc_trace, X.comps)
            assert nabla_H_star(s, X, X) == trace
            # the commutators alone do not vanish for a second operator
            assert nabla_H_star(s, Y, X) != trace
    assert trace


def _seeded_taus(rng, count):
    out = []
    while len(out) < count:
        coeffs = [rng.choice(TAU_MENU) if rng.random() < 0.7 else Fraction(0)
                  for _ in range(4)]
        if any(coeffs):
            out.append(TauDeformation(*coeffs))
    return out


def test_levi_civita_trace_vanishes():
    # Milnor: g^{ab} Gamma^c_{ab} = tr ad_{Z_c} = 0 on the nilpotent Iwasawa
    # algebra, at omega_0 and at deformed metrics; this is why the trace
    # term of nabla_H_star adds nothing here (the code does not assume it)
    model, omega0, _ = build_iwasawa()
    taus = _seeded_taus(random.Random(20261018), 5)
    structures = [HermitianStructure(model, omega0 + tau.form(model))
                  for tau in [TauDeformation()] + taus]
    # and a corrected deformed metric (omega_0 + tau + the gamma correction)
    structures.append(FAMILIES["deformed"]().h)
    for h in structures:
        gamma = levi_civita(h)
        assert all(_trace(dense(h.Ginv6, 6), gamma, c).is_zero()
                   for c in range(6))
        assert all(g.is_zero() for g in h.lc_trace)
    # the Christoffel symbols themselves are not zero
    assert any(not x.is_zero() for plane in gamma for row in plane for x in row)
