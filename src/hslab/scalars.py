"""Exact scalars: Laurent polynomials in pi over the Gaussian rationals.

Every coefficient manipulated by the engine is a finite sum

    sum_k (a_k + b_k i) pi^k,   a_k, b_k rational, k integer,

stored sparsely by exponent.  Addition, multiplication and conjugation are
closed; division is defined only by monomials q pi^k with q != 0, which is
all the geometry ever needs (metric normalizations, alpha, volume factors).
Floating-point evaluation at pi exists purely for positivity certificates
and display; no verdict depends on it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Scalar:
    """An exact complex number sum_k (re_k + im_k i) pi^k."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, (re, im) in coeffs.items():
                re = Fraction(re)
                im = Fraction(im)
                if re or im:
                    c[int(k)] = (re, im)
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: (_ONE, _ZERO)})

    @classmethod
    def of(cls, re, im=0, k=0):
        """The monomial (re + im i) pi^k."""
        return cls({k: (Fraction(re), Fraction(im))})

    @classmethod
    def i(cls):
        return cls({0: (_ZERO, _ONE)})

    @classmethod
    def pi(cls, k=1, re=1, im=0):
        return cls({k: (Fraction(re), Fraction(im))})

    # -- structure ---------------------------------------------------------

    def items(self):
        return self._c.items()

    def is_zero(self):
        return not self._c

    def is_real(self):
        return all(im == 0 for _, im in self._c.values())

    def is_rational(self):
        """True when the value is a plain rational number (pi-free, real)."""
        return all(k == 0 and im == 0 for k, (_, im) in self._c.items())

    def is_monomial(self):
        return len(self._c) == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, (re, im) in other._c.items():
            if k in c:
                re2, im2 = c[k]
                re, im = re + re2, im + im2
                if re or im:
                    c[k] = (re, im)
                else:
                    del c[k]
            else:
                c[k] = (re, im)
        out = Scalar.__new__(Scalar)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Scalar.__new__(Scalar)
        out._c = {k: (-re, -im) for k, (re, im) in self._c.items()}
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = {}
        for k1, (a, b) in self._c.items():
            for k2, (x, y) in other._c.items():
                k = k1 + k2
                re = a * x - b * y
                im = a * y + b * x
                if k in c:
                    re2, im2 = c[k]
                    re, im = re + re2, im + im2
                if re or im:
                    c[k] = (re, im)
                elif k in c:
                    del c[k]
        out = Scalar.__new__(Scalar)
        out._c = c
        return out

    __rmul__ = __mul__

    def inverse(self):
        """Inverse of a monomial q pi^k; error on general sums."""
        if len(self._c) != 1:
            raise ZeroDivisionError(
                "scalar division is defined only by nonzero monomials, got %s" % self)
        ((k, (re, im)),) = self._c.items()
        nrm = re * re + im * im
        return Scalar({-k: (re / nrm, -im / nrm)})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def conjugate(self):
        out = Scalar.__new__(Scalar)
        out._c = {k: (re, -im) for k, (re, im) in self._c.items()}
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- evaluation and display --------------------------------------------

    def evalf(self):
        """Float value at pi = math.pi (presentation/certificates only)."""
        re = 0.0
        im = 0.0
        for k, (a, b) in self._c.items():
            w = math.pi ** k
            re += float(a) * w
            im += float(b) * w
        return complex(re, im)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c):
            re, im = self._c[k]
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


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar({0: (Fraction(x), _ZERO)}) if x else Scalar()
    return NotImplemented


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|pi|i|[()+\-*/^])")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("bad scalar literal near %r" % text[pos:pos + 12])
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Sums of products of rationals, i, and pi^k, with implicit products.

    Accepts both the compact input style "1/2+3/4*i*pi^2" and the canonical
    report style "(1/2 - 3/4 i) pi^-1 + 2 pi".
    """

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ValueError("trailing tokens in scalar literal")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            if self.next() == "+":
                v = v + self.term()
            else:
                v = v - self.term()
        return v

    def term(self):
        v = self.factor()
        while True:
            t = self.peek()
            if t in ("*", "/"):
                self.next()
                rhs = self.factor()
                v = v * rhs if t == "*" else v / rhs
            elif t is not None and (t == "(" or t == "pi" or t == "i" or t.isdigit()):
                v = v * self.factor()
            else:
                return v

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        v = self.atom()
        if self.peek() == "^":
            self.next()
            esign = 1
            if self.peek() == "-":
                self.next()
                esign = -1
            t = self.next()
            if t is None or not t.isdigit():
                raise ValueError("bad exponent in scalar literal")
            v = _ipow(v, esign * int(t))
        return v if sign == 1 else -v

    def atom(self):
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of scalar literal")
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ValueError("unbalanced parenthesis in scalar literal")
            return v
        if t == "pi":
            return Scalar.pi()
        if t == "i":
            return Scalar.i()
        if t.isdigit():
            return Scalar.of(Fraction(int(t)))
        raise ValueError("unexpected token %r in scalar literal" % t)


def _ipow(v, e):
    if e >= 0:
        out = Scalar.one()
        for _ in range(e):
            out = out * v
        return out
    return _ipow(v, -e).inverse()


def parse_scalar(text):
    """Parse a scalar literal; inverse of str() on canonical output."""
    tokens = _tokenize(text)
    if not tokens:
        return Scalar.zero()
    return _Parser(tokens).parse()
