"""Scalar arithmetic against sympy, on hypothesis-drawn Laurent polynomials.

Each Scalar is mapped to the sympy expression sum_k (re_k + im_k I) pi^k
with a symbolic positive pi; sums, products, negation, conjugation, monomial
inverses, the sum-of-products kernel, str -> parse_scalar and evalf must
agree with sympy's, and every result must hold its terms in the canonical
order that == and hash read.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hslab.scalars import Scalar  # noqa: E402

from conftest import sympy_reads_str, to_sympy  # noqa: E402

PI = sympy.Symbol("pi", positive=True)

# deterministic draws, and no example database written next to the tests
ORACLE = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)

# small entries, so that sums cancel often, and large ones for the gcds
rationals = st.one_of(
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)))
coefficients = st.tuples(rationals, rationals)
laurent = st.dictionaries(st.integers(-3, 3), coefficients,
                          max_size=4).map(Scalar)
monomials = st.builds(lambda k, c: Scalar({k: c}), st.integers(-4, 4),
                      coefficients).filter(lambda a: not a.is_zero())


def same(a, expr):
    return sympy.expand(to_sympy(a) - expr) == 0


def canonical(a):
    """The stored tuple of (k, a, b, d) terms, == and hash's key: k strictly
    increasing, exact ints, d > 0, gcd(a, b, d) = 1 and not both a, b zero
    (so zero is ())."""
    c = a._c
    return (c.__class__ is tuple
            and all(t.__class__ is tuple and len(t) == 4
                    and all(x.__class__ is int for x in t)
                    and t[3] > 0 and math.gcd(*t[1:]) == 1 and (t[1] or t[2])
                    for t in c)
            and all(s[0] < t[0] for s, t in zip(c, c[1:])))


@ORACLE
@given(laurent, laurent)
def test_sum_difference_product(a, b):
    x, y = to_sympy(a), to_sympy(b)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y),
                      (-a, -x)):
        assert canonical(got)
        assert same(got, want)


# the kernel's terms: mostly monomials, as in the matrix products, with
# small denominators so that equal and unequal ones both occur
factors = st.one_of(monomials, laurent)
term_lists = st.lists(st.tuples(factors, factors, st.sampled_from((1, -1))),
                      max_size=6)


def fold(terms):
    """sum sign x y by + and *, one reduction per operation."""
    out = Scalar.zero()
    for x, y, sign in terms:
        out = out + x * y if sign > 0 else out - x * y
    return out


@ORACLE
@given(term_lists)
def test_sum_of_products(terms):
    got = Scalar.sum_of_products(terms)
    assert canonical(got)
    assert got._c == fold(terms)._c
    assert same(got, sympy_sum(terms))


@ORACLE
@given(term_lists)
def test_sum_of_products_cancels_to_zero(terms):
    # each product once with its sign and once, factors swapped, against it
    back = [(y, x, -sign) for x, y, sign in reversed(terms)]
    assert Scalar.sum_of_products(terms + back)._c == ()


def test_sum_of_products_cases():
    q = Scalar.of
    half, third, quarter = q(Fraction(1, 2)), q(Fraction(1, 3)), \
        q(Fraction(1, 4))
    assert Scalar.sum_of_products([]) == Scalar.zero()
    assert Scalar.sum_of_products([(half, third, -1)]) == q(Fraction(-1, 6))
    # unequal denominators: 1/4 + 1/6 = 5/12, and 1/6 + 1/6 reduces to 1/3
    assert Scalar.sum_of_products([(half, half, 1), (half, third, 1)]) \
        == q(Fraction(5, 12))
    assert Scalar.sum_of_products([(half, third, 1), (third, half, 1)]) \
        == third
    # equal denominators add numerators, then reduce: 1/4 + 1/4 = 1/2
    assert Scalar.sum_of_products([(half, half, 1), (quarter, q(1), 1)]) \
        == half
    # pi-powers are kept apart and each cancels or survives on its own
    x = Scalar({0: (1, 2), 1: (Fraction(1, 3), 0)})
    got = Scalar.sum_of_products([(x, half, 1), (q(0, 1), q(0, 1, k=1), 1),
                                  (half, q(1), -1)])
    assert got == Scalar({0: (0, 1), 1: (Fraction(-5, 6), 0)})
    assert canonical(got)


def sympy_sum(terms):
    return sum((sign * to_sympy(x) * to_sympy(y) for x, y, sign in terms),
               sympy.Integer(0))


def on_power(n):
    """A term (x, y, sign) whose product, if nonzero, is on pi^n."""
    return st.builds(lambda k, c, e, sign: (Scalar({k: c}),
                                            Scalar({n - k: e}), sign),
                     st.integers(-3, 3), coefficients, coefficients,
                     st.sampled_from((1, -1)))


# every product on one pi-power, zero factors included: the running sum
one_power_lists = st.integers(-2, 2).flatmap(
    lambda n: st.lists(on_power(n), max_size=8))
# products of monomials whose power changes along the list
monomial_lists = st.lists(st.tuples(monomials, monomials,
                                    st.sampled_from((1, -1))),
                          min_size=2, max_size=8)


@ORACLE
@given(one_power_lists, monomial_lists)
def test_sum_of_products_of_monomials(one_power, mixed):
    for terms in (one_power, mixed):
        got = Scalar.sum_of_products(terms)
        assert canonical(got)
        assert got._c == fold(terms)._c
        assert same(got, sympy_sum(terms))
    assert len(Scalar.sum_of_products(one_power)._c) <= 1


@ORACLE
@given(laurent, laurent, monomials, term_lists)
def test_every_result_is_canonical(a, b, m, terms):
    # == and hash are the stored tuple's, so every result keeps its terms
    # in increasing k, reduced and nonzero
    for got in (a, a + b, a - b, a * b, -a, a.conjugate(), m.inverse(),
                a / m, Scalar.sum_of_products(terms)):
        assert canonical(got)


def test_sum_of_products_where_the_power_changes():
    q = Scalar.of
    x, y = q(Fraction(1, 2), Fraction(-1, 3)), q(Fraction(5, 6), 0, k=-1)
    third, pi = q(Fraction(1, 3), 1), q(Fraction(-2, 7), 0, k=1)
    laurent_x = Scalar({0: (1, 2), 2: (Fraction(1, 3), 0)})
    on_0 = [(x, third, 1), (third, x, -1), (y, pi, 1), (x, x, 1),
            (pi, y, -1), (third, third, 1)]
    odd = [(pi, pi, 1), (y, y, -1), (laurent_x, third, 1), (q(0), pi, 1)]
    # the empty list, one power, and one power that cancels to zero
    cases = [[], on_0, on_0 + [(b, a, -sign) for a, b, sign in on_0]]
    for t in odd:  # one term off pi^0 (or zero) first, in the middle, last
        cases += [[t] + on_0, on_0[:3] + [t] + on_0[3:], on_0 + [t]]
    # second powers that cancel later: pi^0 is left, then nothing is
    cases.append([(pi, pi, 1)] + on_0 + [(pi, pi, -1)])
    cases.append([(pi, pi, 1), (x, y, 1)] + [(pi, pi, -1), (y, x, -1)])
    for terms in cases:
        got = Scalar.sum_of_products(terms)
        assert canonical(got)
        assert got == fold(terms)
        assert same(got, sympy_sum(terms))
    assert Scalar.sum_of_products(cases[2]) == Scalar.zero()
    assert Scalar.sum_of_products(cases[-1]) == Scalar.zero()


@ORACLE
@given(laurent)
def test_conjugate(a):
    assert canonical(a.conjugate())
    assert same(a.conjugate(), sympy.conjugate(to_sympy(a)))


@ORACLE
@given(monomials, laurent)
def test_monomial_inverse_and_division(m, a):
    inv = m.inverse()
    assert canonical(inv) and inv.is_monomial()
    assert sympy.expand(to_sympy(inv) * to_sympy(m)) == 1
    assert same(a / m, sympy.expand(to_sympy(a) * to_sympy(inv)))


@ORACLE
@given(laurent, laurent)
def test_equality_and_hash_follow_the_value(a, b):
    c = (a + b) - b
    assert c == a and hash(c) == hash(a)
    assert (a == b) == same(a, to_sympy(b))


@ORACLE
@given(laurent)
def test_str_parse_roundtrip(a):
    assert sympy_reads_str(a)


@ORACLE
@given(laurent)
def test_evalf(a):
    want = complex(to_sympy(a).subs(PI, sympy.pi).evalf(40))
    scale = sum((abs(re) + abs(im)) * math.pi ** k
                for k, (re, im) in a.items())
    got = a.evalf()
    assert math.isclose(got.real, want.real, rel_tol=1e-12,
                        abs_tol=1e-12 * scale)
    assert math.isclose(got.imag, want.imag, rel_tol=1e-12,
                        abs_tol=1e-12 * scale)


@ORACLE
@given(laurent)
def test_sign_is_exact_or_refused(a):
    if a.is_zero():
        assert a.sign() == 0
    elif a.is_monomial() and a.is_real():
        assert a.sign() == sympy.sign(to_sympy(a))
    else:
        with pytest.raises(ValueError):
            a.sign()
