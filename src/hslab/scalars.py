"""Exact scalars: Laurent polynomials in pi over the Gaussian rationals.

Every coefficient manipulated by the engine is a finite sum

    sum_k (a_k + b_k i)/d_k pi^k,   a_k, b_k, d_k integers, d_k > 0, k integer,

stored sparsely by exponent: a Scalar keeps one tuple of (k, a, b, d)
terms, strictly increasing in k, each reduced (gcd(a, b, d) = 1) and
nonzero ((a, b) != (0, 0)), zero being (), so == and hash are the tuple's.
A sum or product of two coefficients is brought back to that form by one
three-argument math.gcd; no Fraction is built on the hot path.  Every
value the engine builds is one pi-power, so +, *, negation, conjugation
and inverse unpack the one term; mixed Laurent polynomials take a general
path.  sum_of_products, the kernel of every matrix product and wedge,
keeps one running sum until a second pi-power appears and reduces each
pi-power once at the end, not once per term.

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


def _term(k, re, im):
    """Reduced (k, a, b, d) with (a + b i)/d = re + im i, or None for zero."""
    # exact ints (bool excluded) are already reduced over d = 1
    if re.__class__ is int and im.__class__ is int:
        return (k, re, im, 1) if re or im else None
    re = Fraction(re)
    im = Fraction(im)
    if not (re or im):
        return None
    p, q = re.numerator, re.denominator
    r, s = im.numerator, im.denominator
    d = q * s // _gcd(q, s)
    # lcm of reduced denominators: gcd(a, b, d) = 1 already
    return (k, p * (d // q), r * (d // s), d)


def _accumulate(terms):
    """sum sign x y over the terms (x, y, sign): unreduced numerators over a
    common denominator (added directly when denominators are equal), in one
    running sum while every product lands on one pi-power, and in one sum
    per pi-power from the first product on another power (or with a
    Laurent factor) on; each sum is reduced by one math.gcd at the end."""
    k0 = None
    re = im = 0
    de = 1
    rest = iter(terms)
    for x, y, sign in rest:
        xc = x._c
        yc = y._c
        if len(xc) != 1 or len(yc) != 1:
            if xc and yc:
                break
            continue  # a zero factor
        ((k, a, b, d),) = xc
        ((j, p, q, e),) = yc
        if k + j != k0:
            if k0 is not None:
                break
            k0 = k + j
        r = sign * (a * p - b * q)
        i = sign * (a * q + b * p)
        e *= d
        if e == de:
            re += r
            im += i
        else:
            re, im, de = re * e + r * de, im * e + i * de, de * e
    else:
        out = object.__new__(Scalar)
        if re or im:
            g = _gcd(re, im, de)
            out._c = ((k0, re // g, im // g, de // g),)
        else:
            out._c = ()
        return out
    acc = {} if k0 is None else {k0: (re, im, de)}
    for x, y, sign in [(x, y, sign), *rest]:
        for k, a, b, d in x._c:
            for j, p, q, e in y._c:
                r, i, f = acc.get(k + j, (0, 0, 1))
                e *= d
                acc[k + j] = (r * e + sign * (a * p - b * q) * f,
                              i * e + sign * (a * q + b * p) * f, f * e)
    c = []
    for k in sorted(acc):
        r, i, e = acc[k]
        if r or i:
            g = _gcd(r, i, e)
            c.append((k, r // g, i // g, e // g))
    out = object.__new__(Scalar)
    out._c = tuple(c)
    return out


class Scalar:
    """An exact complex number sum_k (a_k + b_k i)/d_k pi^k."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = [t for k, (re, im) in (coeffs or {}).items()
             if (t := _term(int(k), re, im)) is not None]
        c.sort()
        self._c = tuple(c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        out = object.__new__(Scalar)
        out._c = ((0, 1, 0, 1),)
        return out

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
                for k, a, b, d in self._c}.items()

    def is_zero(self):
        return not self._c

    def is_real(self):
        return all(not b for _, _, b, _ in self._c)

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
            ((_, a, b, _),) = c
            if not b:
                return 1 if a > 0 else -1
        raise ValueError("sign is decided only for real monomials, got %s"
                         % self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        sc = self._c
        oc = other._c
        if len(sc) == 1 and len(oc) == 1:
            ((k, a, b, d),) = sc
            ((j, x, y, e),) = oc
            if k == j:
                if d == e:
                    a += x
                    b += y
                else:
                    a = a * e + x * d
                    b = b * e + y * d
                    d *= e
                out = object.__new__(Scalar)
                if a or b:
                    g = _gcd(a, b, d)
                    out._c = ((k, a // g, b // g, d // g),) if g != 1 \
                        else ((k, a, b, d),)
                else:
                    out._c = ()
                return out
        if not oc:
            return self
        if not sc:
            return other
        one = Scalar.one()  # mixed powers: x 1 + y 1 through the kernel
        return _accumulate(((self, one, 1), (other, one, 1)))

    def __neg__(self):
        out = object.__new__(Scalar)
        c = self._c
        if len(c) == 1:
            ((k, a, b, d),) = c
            out._c = ((k, -a, -b, d),)
        else:
            out._c = tuple([(k, -a, -b, d) for k, a, b, d in c])
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        sc = self._c
        oc = other._c
        if len(sc) == 1 and len(oc) == 1:
            ((k, a, b, d),) = sc
            ((j, x, y, e),) = oc
            # a product of nonzero Gaussian rationals is nonzero
            re = a * x - b * y
            im = a * y + b * x
            d *= e
            g = _gcd(re, im, d)
            out = object.__new__(Scalar)
            out._c = ((k + j, re // g, im // g, d // g),) if g != 1 \
                else ((k + j, re, im, d),)
            return out
        return _accumulate(((self, other, 1),))

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
        c = self._c
        if len(c) != 1:
            raise ZeroDivisionError(
                "scalar division is defined only by nonzero monomials, got %s" % self)
        ((k, a, b, d),) = c
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        re, im, n = a * d, -b * d, a * a + b * b
        g = _gcd(re, im, n)
        out = object.__new__(Scalar)
        out._c = ((-k, re // g, im // g, n // g),)
        return out

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self):
        out = object.__new__(Scalar)
        c = self._c
        if len(c) == 1:
            ((k, a, b, d),) = c
            out._c = ((k, a, -b, d),)
        else:
            out._c = tuple([(k, a, -b, d) for k, a, b, d in c])
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return bool(self._c)

    # -- evaluation and display --------------------------------------------

    def evalf(self):
        """Float value at pi = math.pi (display only)."""
        re = 0.0
        im = 0.0
        for k, a, b, d in self._c:
            w = math.pi ** k
            re += (a / d) * w
            im += (b / d) * w
        return complex(re, im)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k, a, b, d in self._c:
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

    __repr__ = __str__
