"""The Hodge star checked against sympy as an independent oracle.

On seeded deformed metrics on the Iwasawa model, and on a deformed metric on
the Kodaira-Thurston-style model (whose Lee form is nonzero), the star of
every basis form e_J, and of a form with terms of several degrees, must equal
the image built in sympy from the minors of sympy's inverse of the Gram matrix
G6, the Pfaffian volume coefficient of omega and the permutation sign of
(I, complement of I).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from hslab.scalars import Scalar
from hslab.cealg import InvariantForm
from hslab.hermitian import HermitianStructure
from hslab.iwasawa import TauDeformation, build_iwasawa

from conftest import dense

TAU_MENU = [Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4), Fraction(-1, 4)]


def _to_sympy(x):
    out = sympy.Integer(0)
    for k, (re, im) in x.items():
        out += (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator)) * sympy.pi ** k
    return out


def _from_sympy(x):
    re, im = sympy.expand_complex(x).as_real_imag()
    assert re.is_Rational and im.is_Rational, x
    return Scalar.of(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _pfaffian(a):
    """Pfaffian of an antisymmetric sympy matrix, by expansion along row 0."""
    n = a.rows
    if n == 0:
        return sympy.Integer(1)
    out = sympy.Integer(0)
    for j in range(1, n):
        if a[0, j] != 0:
            rest = [r for r in range(n) if r not in (0, j)]
            out += (-1) ** (j - 1) * a[0, j] * _pfaffian(a.extract(rest, rest))
    return sympy.expand(out)


def _parity(seq):
    inversions = sum(1 for i, x in enumerate(seq) for y in seq[i + 1:] if x > y)
    return -1 if inversions % 2 else 1


def _structures():
    """HermitianStructures at omega_0 + tau for seeded tau from the menu."""
    model, omega0, _ = build_iwasawa()
    rng = random.Random(20261018)
    out = []
    while len(out) < 2:
        coeffs = [rng.choice(TAU_MENU) if rng.random() < 0.7 else Fraction(0)
                  for _ in range(4)]
        if any(coeffs):
            out.append(HermitianStructure(model, omega0 + TauDeformation(*coeffs).form(model)))
    return out


def _kt_structure(kt_model):
    """A deformed metric on the Kodaira-Thurston-style model."""
    half_i = Scalar.of(0, Fraction(1, 2))
    omega = (kt_model.basis_form((0, 3)) + kt_model.basis_form((1, 4))
             + kt_model.basis_form((2, 5))).scale(half_i)
    tau = TauDeformation(Fraction(1, 10), Fraction(0), Fraction(-1, 4), Fraction(0))
    return HermitianStructure(kt_model, omega + tau.form(kt_model))


@pytest.fixture(scope="module")
def structures(kt_model):
    return [(h, sympy.Matrix([[_to_sympy(x) for x in row]
                              for row in dense(h.G6, 6)]).inv())
            for h in _structures() + [_kt_structure(kt_model)]]


def test_star_of_every_basis_form_matches_sympy(structures, kt_model):
    # the last structure is not on the Iwasawa model and has a Lee form
    assert structures[-1][0].model is kt_model
    assert not structures[-1][0].lee_form.is_zero()
    for h, ginv in structures:
        # the off-diagonal blocks make some minors nonzero and the deformed
        # metric makes them more than products of diagonal entries
        Ginv = dense(h.Ginv6, 6)
        assert any(not Ginv[a][b].is_zero() for a in range(3) for b in range(3, 6) if b != a + 3)
        for k in range(7):
            for J in combinations(range(6), k):
                e_J = h.model.basis_form(J)
                assert h.star(e_J) == _sympy_star(h, ginv, e_J), J


def _sympy_star(h, ginv, form):
    """The star image in sympy: sum_J v_J sum_I <e_I, e_J> c_vol sign(I, I^c) e_{I^c}."""
    omega = sympy.zeros(6, 6)
    for (a, b), v in h.omega.terms.items():
        omega[a, b] = _to_sympy(v)
        omega[b, a] = -_to_sympy(v)
    c_vol = _pfaffian(omega)
    image = {}
    for J, v in form.terms.items():
        for I in combinations(range(6), len(J)):
            minor = ginv.extract(list(I), list(J)).det(method="berkowitz")
            if minor == 0:
                continue
            Ic = tuple(x for x in range(6) if x not in I)
            term = _to_sympy(v) * minor * c_vol * _parity(I + Ic)
            image[Ic] = image.get(Ic, 0) + term
    return InvariantForm(h.model, {k: _from_sympy(v) for k, v in image.items()})


def test_star_of_a_form_matches_sympy(structures):
    # an Iwasawa metric and the Kodaira-Thurston-style one
    for h, ginv in (structures[0], structures[-1]):
        rng = random.Random(7)
        terms = {}
        for k in (1, 2, 3, 4, 5):
            for _ in range(2):
                terms[tuple(sorted(rng.sample(range(6), k)))] = Scalar.of(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        form = InvariantForm(h.model, terms)
        star = h.star(form)
        assert star == _sympy_star(h, ginv, form)
        assert len(star.terms) > len(form.terms)
