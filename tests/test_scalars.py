"""Exact scalar ring: Laurent polynomials in pi over Gaussian rationals."""

import math
import random
from fractions import Fraction

import pytest

from hslab.scalars import Scalar

from conftest import random_scalar, sympy_reads_str


def test_constructors_and_basics():
    assert Scalar.zero().is_zero()
    assert (Scalar.i() * Scalar.i() + Scalar.one()).is_zero()
    assert Scalar.pi().evalf() == pytest.approx(math.pi)
    assert Scalar.pi(-2).evalf() == pytest.approx(math.pi ** -2)


def test_a_scalar_combines_only_with_scalars():
    # an int or a Fraction is not coerced on either side
    with pytest.raises(TypeError):
        Scalar.of(1) + 1
    with pytest.raises(TypeError):
        2 * Scalar.of(1)
    with pytest.raises(TypeError):
        Scalar.of(1) - Fraction(1, 2)
    assert (Scalar.zero() == 0) is False


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Scalar.zero()
        assert (a * b) * c == a * (b * c)


def test_conjugation():
    rng = random.Random(12)
    for _ in range(100):
        a, b = random_scalar(rng), random_scalar(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a


def test_monomial_inverse():
    rng = random.Random(13)
    for _ in range(100):
        a = random_scalar(rng)
        if a.is_zero() or not a.is_monomial():
            continue
        assert a * a.inverse() == Scalar.one()


def test_division_restrictions():
    binomial = Scalar.one() + Scalar.pi()
    with pytest.raises(ZeroDivisionError):
        binomial.inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()
    # dividing by a monomial is allowed
    assert (Scalar.pi(2) / Scalar.pi()) == Scalar.pi()


def test_str_parse_roundtrip():
    rng = random.Random(14)
    for _ in range(200):
        a = random_scalar(rng) + random_scalar(rng)
        assert sympy_reads_str(a)


def test_parse_formats():
    a = Scalar.pi(-1, Fraction(1, 2), Fraction(-3, 4)) + Scalar.pi(1, 2)
    assert str(a) == "(1/2 - 3/4 i) pi^-1 + 2 pi"
    assert sympy_reads_str(a)
    assert str(Scalar.zero()) == "0" and sympy_reads_str(Scalar.zero())


def test_evalf():
    a = Scalar.pi(2, Fraction(3, 2))
    assert a.evalf() == pytest.approx(1.5 * math.pi ** 2)
    assert Scalar.of(0, 1).evalf() == pytest.approx(1j)


def test_sign_exact_on_real_monomials_only():
    assert Scalar.pi(-2, Fraction(1, 8)).sign() == 1
    assert Scalar.pi(3, Fraction(-5, 7)).sign() == -1
    assert Scalar.zero().sign() == 0
    # pi - 3 > 0, but a float would have to decide it: refused
    for undecided in (Scalar.pi() - Scalar.of(3), Scalar.of(1, 1),
                      Scalar.i()):
        with pytest.raises(ValueError):
            undecided.sign()


def test_items_and_str_keep_fraction_parts():
    a = Scalar({-1: (Fraction(6, 4), 0), 2: (0, Fraction(-3, 9))})
    assert dict(a.items()) == {-1: (Fraction(3, 2), Fraction(0)),
                               2: (Fraction(0), Fraction(-1, 3))}
    assert all(isinstance(x, Fraction)
               for _, pair in a.items() for x in pair)
    assert str(a) == "3/2 pi^-1 + -1/3 i pi^2"
    assert sympy_reads_str(a)


def test_int_built_constants_match_fraction_built_ones():
    # exact ints skip Fraction in the constructor; bool still goes through it
    big = 3 ** 90
    for re, im, k in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 2),
                      (big, 0, 0), (-big, big + 1, -3), (6, -4, 1), (0, 7, -2)]:
        a = Scalar.of(re, im, k)
        b = Scalar.of(Fraction(re), Fraction(im), k)
        assert a == b and hash(a) == hash(b)
        assert a._c == b._c
        for t in a._c:
            assert all(type(x) is int for x in t)
            _, x, y, d = t
            assert d == 1 and math.gcd(x, y, d) == 1 and (x, y) != (0, 0)
    assert Scalar.one() == Scalar.of(Fraction(1))
    assert Scalar.one()._c == ((0, 1, 0, 1),)
    assert Scalar.of(0).is_zero() and Scalar.of(0)._c == ()
    assert Scalar.of(True, False) == Scalar.one()
    assert all(type(x) is int for x in Scalar.of(True, False)._c[0])
