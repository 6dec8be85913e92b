"""Exact scalars: Laurent polynomials in pi over the Gaussian rationals.

Every coefficient manipulated by the engine is a finite sum

    sum_k (a_k + b_k i)/d_k pi^k,   a_k, b_k, d_k integers, d_k > 0, k integer,

stored sparsely by exponent: a Scalar keeps one dict {k: (a, b, d)} of
reduced Gaussian-integer triples (gcd(a, b, d) = 1, (a, b) != (0, 0)), so
equal values have equal dicts.  Each sum or product of two coefficients is
brought back to that form by one three-argument math.gcd; no Fraction is
built on the hot path.  Mixed Laurent polynomials and single pi-powers go
through the same code, with a shortcut for the product of two monomials.
sum_of_products, the kernel of every matrix product and wedge, reduces
each pi-power of a sum sign x y once at the end, not once per term.

A Scalar combines only with Scalars: +, -, *, / and == with an int, a
Fraction or anything else is Python's TypeError (== is False), so every
constant enters through a constructor (Scalar.of, Scalar.pi, ...).
Addition, multiplication and conjugation are closed; division is defined
only by monomials q pi^k with q != 0, which is all the geometry ever needs
(metric normalizations, alpha, volume factors).  sign() is exact on real
monomials and refuses anything else.  Floating-point evaluation at pi
(evalf) is for display only; no verdict depends on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

_gcd = math.gcd


def _triple(re, im):
    """Reduced (a, b, d) with (a + b i)/d = re + im i, or None for zero."""
    # exact ints (bool excluded) are already reduced over d = 1
    if re.__class__ is int and im.__class__ is int:
        return (re, im, 1) if re or im else None
    re = Fraction(re)
    im = Fraction(im)
    if not (re or im):
        return None
    p, q = re.numerator, re.denominator
    r, s = im.numerator, im.denominator
    d = q * s // _gcd(q, s)
    # lcm of reduced denominators: gcd(a, b, d) = 1 already
    return (p * (d // q), r * (d // s), d)


def _accumulate(terms):
    """sum sign x y over the terms (x, y, sign): unreduced numerators per
    pi-power over a common denominator (added directly when denominators
    are equal), each pi-power reduced by one math.gcd at the end."""
    acc = {}
    for x, y, sign in terms:
        for k1, (a, b, d) in x._c.items():
            if sign < 0:
                a, b = -a, -b
            for k2, (p, q, e) in y._c.items():
                k = k1 + k2
                re = a * p - b * q
                im = a * q + b * p
                de = d * e
                u = acc.get(k)
                if u is None:
                    acc[k] = (re, im, de)
                elif u[2] == de:
                    acc[k] = (u[0] + re, u[1] + im, de)
                else:
                    r, i, f = u
                    acc[k] = (r * de + re * f, i * de + im * f, f * de)
    c = {}
    for k, (re, im, d) in acc.items():
        if re or im:
            g = _gcd(re, im, d)
            c[k] = (re // g, im // g, d // g) if g != 1 else (re, im, d)
    return _new(c)


def _new(c):
    out = Scalar.__new__(Scalar)
    out._c = c
    return out


class Scalar:
    """An exact complex number sum_k (a_k + b_k i)/d_k pi^k."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, (re, im) in coeffs.items():
                t = _triple(re, im)
                if t is not None:
                    c[int(k)] = t
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return _new({0: (1, 0, 1)})

    @classmethod
    def of(cls, re, im=0, k=0):
        """The monomial (re + im i) pi^k."""
        return cls({k: (re, im)})

    @classmethod
    def i(cls):
        return cls({0: (0, 1)})

    @classmethod
    def pi(cls, k=1, re=1, im=0):
        return cls({k: (re, im)})

    # -- structure ---------------------------------------------------------

    def items(self):
        """(k, (re, im)) per pi-power, with Fraction real and imaginary parts."""
        return {k: (Fraction(a, d), Fraction(b, d))
                for k, (a, b, d) in self._c.items()}.items()

    def is_zero(self):
        return not self._c

    def is_real(self):
        return all(not b for _, b, _ in self._c.values())

    def is_monomial(self):
        return len(self._c) == 1

    def sign(self):
        """Exact sign of a real monomial q pi^k: the sign of q (0 for zero).

        Anything else (a non-real value or a sum of several pi-powers)
        raises ValueError: the sign is never guessed from a float.
        """
        c = self._c
        if not c:
            return 0
        if len(c) == 1:
            ((a, b, _),) = c.values()
            if not b:
                return 1 if a > 0 else -1
        raise ValueError("sign is decided only for real monomials, got %s"
                         % self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        c = dict(self._c)
        for k, t in other._c.items():
            u = c.get(k)
            if u is None:
                c[k] = t
                continue
            a, b, d = u
            x, y, e = t
            if d == e:
                a += x
                b += y
            else:
                a = a * e + x * d
                b = b * e + y * d
                d *= e
            if a or b:
                g = _gcd(a, b, d)
                c[k] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
            else:
                del c[k]
        return _new(c)

    def __neg__(self):
        return _new({k: (-a, -b, d) for k, (a, b, d) in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        sc = self._c
        oc = other._c
        if len(sc) == 1 and len(oc) == 1:
            ((k1, (a, b, d)),) = sc.items()
            ((k2, (x, y, e)),) = oc.items()
            # a product of nonzero Gaussian rationals is nonzero
            re = a * x - b * y
            im = a * y + b * x
            d *= e
            g = _gcd(re, im, d)
            if g != 1:
                return _new({k1 + k2: (re // g, im // g, d // g)})
            return _new({k1 + k2: (re, im, d)})
        return _accumulate([(self, other, 1)])

    @staticmethod
    def sum_of_products(terms):
        """sum sign x y over a list of Scalar terms (x, y, sign), sign +-1:
        the canonical Scalar that folding + and * gives, with one reduction
        per pi-power instead of two per term.  One term is x * y."""
        if len(terms) == 1:
            ((x, y, sign),) = terms
            return x * y if sign > 0 else -(x * y)
        return _accumulate(terms)

    def inverse(self):
        """Inverse of a monomial q pi^k; error on general sums."""
        if len(self._c) != 1:
            raise ZeroDivisionError(
                "scalar division is defined only by nonzero monomials, got %s" % self)
        ((k, (a, b, d)),) = self._c.items()
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        re, im, n = a * d, -b * d, a * a + b * b
        g = _gcd(re, im, n)
        return _new({-k: (re // g, im // g, n // g)})

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self):
        return _new({k: (a, -b, d) for k, (a, b, d) in self._c.items()})

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- evaluation and display --------------------------------------------

    def evalf(self):
        """Float value at pi = math.pi (display only)."""
        re = 0.0
        im = 0.0
        for k, (a, b, d) in self._c.items():
            w = math.pi ** k
            re += (a / d) * w
            im += (b / d) * w
        return complex(re, im)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c):
            a, b, d = self._c[k]
            re, im = Fraction(a, d), Fraction(b, d)
            if im == 0:
                body = str(re)
            elif re == 0:
                body = "%s i" % im
            elif im < 0:
                body = "(%s - %s i)" % (re, -im)
            else:
                body = "(%s + %s i)" % (re, im)
            if k == 0:
                parts.append(body)
            elif k == 1:
                parts.append("%s pi" % body)
            else:
                parts.append("%s pi^%d" % (body, k))
        return " + ".join(parts)

    def __repr__(self):
        return "Scalar(%s)" % self
