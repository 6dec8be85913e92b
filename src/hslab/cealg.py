"""Complexified Chevalley-Eilenberg exterior algebra on an invariant coframe.

A model is a complex n-dimensional nilmanifold (or any invariant complex
quotient) described by 2n coframe generators w_1..w_n, w_1'..w_n' (primes
denote conjugates) and the structure differential d on each generator.
Forms are sparse maps from strictly increasing multi-indices to exact
scalars; wedge, d, bidegree splitting, conjugation and contraction are all
closed operations with zero numerical tolerance.

Structure constants load from JSON documents of the shape

    {"n": 3, "d": {"w3": [["w1", "w2", "1"]]}}

listing, for each generator with nonzero differential, the terms
[label, label, scalar-literal] of its image.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scalars import Scalar, parse_scalar


def _merge_sign(left, right):
    """Concatenate two strictly increasing index tuples.

    Returns (merged tuple, sign) with the Koszul sign of sorting the
    concatenation, or (None, 0) when an index repeats.
    """
    i, j = 0, 0
    out = []
    sign = 1
    nl = len(left)
    while i < nl and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (nl - i) % 2:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out), sign


def _sort_sign(indices):
    """Sort an index sequence, tracking the permutation sign."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            if idx[j - 1] == idx[j]:
                return None, 0
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


class NilmanifoldModel:
    """Generators, structure differential, conjugation and bigrading.

    Index convention: generators 0..n-1 are the (1,0) coframe w_1..w_n,
    indices n..2n-1 their conjugates.  Construction verifies d^2 = 0 on
    every generator, compatibility of d with conjugation, and integrability
    of the complex structure (d of a (1,0) generator has no (0,2) part).
    """

    def __init__(self, n, diff_terms):
        """diff_terms: map generator index -> {increasing index pair: Scalar}."""
        self.n = n
        self.dim = 2 * n
        self.labels = ["w%d" % (j + 1) for j in range(n)] + \
                      ["w%d'" % (j + 1) for j in range(n)]
        self._dcache = {}
        full = []
        for a in range(2 * n):
            full.append(InvariantForm(self, diff_terms.get(a, {})))
        self.diff = full
        # fill conjugate generators not listed explicitly
        for a in range(n):
            ca = a + n
            if a in diff_terms and ca not in diff_terms:
                self.diff[ca] = self.diff[a].conjugate()
            elif ca in diff_terms and a not in diff_terms:
                self.diff[a] = self.diff[ca].conjugate()
        self._check()

    def _check(self):
        for a in range(self.dim):
            img = self.diff[a]
            if any(len(k) != 2 for k in img.terms):
                raise ValueError("structure differential of %s is not a 2-form"
                                 % self.labels[a])
            if not img.d().is_zero():
                raise ValueError("d^2 != 0 on generator %s" % self.labels[a])
            conj_idx = (a + self.n) % self.dim
            if self.diff[conj_idx] != img.conjugate():
                raise ValueError("conjugation incompatible with d on %s"
                                 % self.labels[a])
            if a < self.n:
                parts = img.bigrade()
                if (0, 2) in parts:
                    raise ValueError("non-integrable structure: d%s has a "
                                     "(0,2) part" % self.labels[a])

    # -- basic elements ------------------------------------------------------

    def zero(self):
        return InvariantForm(self, {})

    def gen(self, a, scalar=None):
        return InvariantForm(self, {(a,): scalar if scalar is not None else Scalar.one()})

    def basis_form(self, indices, scalar=None):
        idx, sign = _sort_sign(tuple(indices))
        if idx is None:
            return self.zero()
        s = scalar if scalar is not None else Scalar.one()
        if sign < 0:
            s = -s
        return InvariantForm(self, {idx: s})

    def basis_vector(self, a):
        coeffs = [Scalar.zero()] * self.dim
        coeffs[a] = Scalar.one()
        return InvariantVector(self, coeffs)

    def top_index(self):
        return tuple(range(self.dim))

    def label_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError("unknown generator label %r" % label)

    def d_gen(self, a):
        return self.diff[a]

    @classmethod
    def from_json(cls, doc):
        """Build a model from a JSON document or string (see module doc)."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        n = int(doc["n"])
        labels = ["w%d" % (j + 1) for j in range(n)] + \
                 ["w%d'" % (j + 1) for j in range(n)]

        def lab2idx(lab):
            if lab in labels:
                return labels.index(lab)
            raise ValueError("unknown generator label %r" % lab)

        diff_terms = {}
        for lab, terms in doc.get("d", {}).items():
            a = lab2idx(lab)
            acc = {}
            for l1, l2, lit in terms:
                s = parse_scalar(lit)
                idx, sign = _sort_sign((lab2idx(l1), lab2idx(l2)))
                if idx is None:
                    continue
                if sign < 0:
                    s = -s
                acc[idx] = acc.get(idx, Scalar.zero()) + s
            diff_terms[a] = {k: v for k, v in acc.items() if not v.is_zero()}
        return cls(n, diff_terms)


class InvariantForm:
    """Sparse element of the complexified invariant exterior algebra."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._same_model(other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            if k in t:
                s = t[k] + v
                if s.is_zero():
                    del t[k]
                else:
                    t[k] = s
            else:
                t[k] = v
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = t
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def scale(self, s):
        if not isinstance(s, Scalar):
            s = Scalar.of(Fraction(s))
        if s.is_zero():
            return self.model.zero()
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = {k: v * s for k, v in self.terms.items()}
        return out

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self.model is other.model and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _same_model(self, other):
        if self.model is not other.model:
            raise ValueError("forms live on different models")

    # -- grading -------------------------------------------------------------

    def degrees(self):
        return sorted({len(k) for k in self.terms})

    def degree(self):
        """Degree of a homogeneous form (0 for the zero form)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("form is not degree-homogeneous: %s" % degs)
        return degs[0]

    def bigrade(self):
        """Split into homogeneous (p,q) components."""
        n = self.model.n
        out = {}
        for k, v in self.terms.items():
            p = sum(1 for a in k if a < n)
            q = len(k) - p
            out.setdefault((p, q), {})[k] = v
        return {pq: InvariantForm(self.model, t) for pq, t in out.items()}

    def part(self, p, q):
        n = self.model.n
        t = {}
        for k, v in self.terms.items():
            kp = sum(1 for a in k if a < n)
            if kp == p and len(k) - kp == q:
                t[k] = v
        return InvariantForm(self.model, t)

    # -- multiplicative structure ----------------------------------------------

    def wedge(self, other):
        self._same_model(other)
        t = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k, sign = _merge_sign(k1, k2)
                if k is None:
                    continue
                v = v1 * v2
                if sign < 0:
                    v = -v
                if k in t:
                    s = t[k] + v
                    if s.is_zero():
                        del t[k]
                    else:
                        t[k] = s
                else:
                    t[k] = v
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = t
        return out

    def __xor__(self, other):
        return self.wedge(other)

    def d(self):
        """Graded Leibniz extension of the structure differential."""
        model = self.model
        out = model.zero()
        for k, v in self.terms.items():
            img = model._dcache.get(k)
            if img is None:
                img = model.zero()
                for j, a in enumerate(k):
                    da = model.diff[a]
                    if da.is_zero():
                        continue
                    rest = model.basis_form(k[:j] + k[j + 1:])
                    piece = da.wedge(rest)
                    if j % 2:
                        piece = -piece
                    img = img + piece
                model._dcache[k] = img
            if not img.is_zero():
                out = out + img.scale(v)
        return out

    def dbar(self):
        """(0,1)-part of d on a (p,q)-homogeneous form; sums over components."""
        out = self.model.zero()
        for (p, q), comp in self.bigrade().items():
            out = out + comp.d().part(p, q + 1)
        return out

    def partial(self):
        out = self.model.zero()
        for (p, q), comp in self.bigrade().items():
            out = out + comp.d().part(p + 1, q)
        return out

    def dc(self):
        """d^c = i (dbar - partial); calibrated by dd^c w_0 = w_{12 1'2'}."""
        return (self.dbar() - self.partial()).scale(Scalar.i())

    def conjugate(self):
        n = self.model.n
        t = {}
        for k, v in self.terms.items():
            idx, sign = _sort_sign(tuple((a + n) % (2 * n) for a in k))
            s = v.conjugate()
            if sign < 0:
                s = -s
            t[idx] = s
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = {k: v for k, v in t.items() if not v.is_zero()}
        return out

    def contract(self, vector):
        """Interior product i_v; graded derivation of degree -1."""
        if self.model is not vector.model:
            raise ValueError("vector and form live on different models")
        t = {}
        for k, v in self.terms.items():
            for j, a in enumerate(k):
                c = vector.coeffs[a]
                if c.is_zero():
                    continue
                s = v * c
                if j % 2:
                    s = -s
                key = k[:j] + k[j + 1:]
                if key in t:
                    acc = t[key] + s
                    if acc.is_zero():
                        del t[key]
                    else:
                        t[key] = acc
                else:
                    t[key] = s
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = t
        return out

    def apply(self, *vectors):
        """Evaluate a k-form on k vectors: a(v1, .., vk) as a Scalar."""
        f = self
        for v in vectors:
            f = f.contract(v)
        if f.is_zero():
            return Scalar.zero()
        return f.terms.get((), Scalar.zero())

    def top_coeff(self):
        return self.terms.get(self.model.top_index(), Scalar.zero())

    # -- serialization ---------------------------------------------------------

    def literal(self):
        """Canonical string form: '(scalar) w1^w2' + ... sorted by index."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == ():
                parts.append("(%s)" % v)
            else:
                parts.append("(%s) %s" % (v, "^".join(self.model.labels[a] for a in k)))
        return " + ".join(parts)

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return "InvariantForm(%s)" % self.literal()


def parse_form(model, text):
    """Inverse of InvariantForm.literal()."""
    text = text.strip()
    if text == "0":
        return model.zero()
    out = model.zero()
    depth = 0
    start = 0
    chunks = []
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            chunks.append(text[start:pos])
            start = pos + 1
    chunks.append(text[start:])
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk.startswith("("):
            raise ValueError("bad form literal term %r" % chunk)
        depth = 0
        for pos, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        scalar = parse_scalar(chunk[1:pos])
        rest = chunk[pos + 1:].strip()
        if rest:
            indices = tuple(model.label_index(lab) for lab in rest.split("^"))
        else:
            indices = ()
        out = out + model.basis_form(indices, scalar)
    return out


class InvariantVector:
    """Invariant vector field over the frame Z_1..Z_n, Z_1'..Z_n'."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != model.dim:
            raise ValueError("vector needs %d coefficients" % model.dim)
        self.model = model
        self.coeffs = [c if isinstance(c, Scalar) else Scalar.of(Fraction(c))
                       for c in coeffs]

    def __add__(self, other):
        return InvariantVector(self.model,
                               [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return InvariantVector(self.model, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return InvariantVector(self.model, [a * s for a in self.coeffs])

    def conjugate(self):
        n = self.model.n
        return InvariantVector(
            self.model,
            [self.coeffs[(a + n) % (2 * n)].conjugate() for a in range(2 * n)])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, InvariantVector):
            return NotImplemented
        return self.model is other.model and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join("%s Z(%s)" % (c, self.model.labels[a])
                         for a, c in enumerate(self.coeffs) if not c.is_zero())
        return "InvariantVector(%s)" % (body or "0")


def iwasawa_json():
    """Structure-constant document of the Iwasawa manifold."""
    return {"n": 3, "d": {"w3": [["w1", "w2", "1"]]}}


def build_iwasawa_model():
    return NilmanifoldModel.from_json(iwasawa_json())
