"""Complexified Chevalley-Eilenberg exterior algebra on an invariant coframe.

A model is a complex n-dimensional nilmanifold (or any invariant complex
quotient) described by 2n coframe generators w_1..w_n, w_1'..w_n' (primes
denote conjugates) and the structure differential d on each generator.
Forms are sparse maps from strictly increasing multi-indices to exact
scalars; wedge, d, bidegree splitting, conjugation and contraction are all
closed operations with zero numerical tolerance.

A model is built from its structure constants: for each generator with a
nonzero differential, the map from increasing index pairs to the Scalar
coefficients of its image, as build_iwasawa_model does for d w3 = w1 ^ w2.
The model builds its brackets from them, and nothing writes to it after
construction, so one model serves every metric and family on it.  d takes
each term of a form apart by the graded Leibniz rule, with no cache.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar


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

    brackets[a][b] is [Z_a, Z_b] by Maurer-Cartan: a term v e_a ^ e_b
    (a < b) of d w_c sets [Z_a, Z_b]^c = -v and [Z_b, Z_a]^c = v, the rest
    are zero.  A model is immutable after construction.
    """

    def __init__(self, n, diff_terms):
        """diff_terms: map generator index -> {increasing index pair: Scalar}."""
        self.n = n
        self.dim = 2 * n
        self.labels = ["w%d" % (j + 1) for j in range(n)] + \
                      ["w%d'" % (j + 1) for j in range(n)]
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
        dim = self.dim
        coeffs = [[[Scalar.zero()] * dim for _ in range(dim)] for _ in range(dim)]
        for c, dw in enumerate(self.diff):
            for (a, b), v in dw.terms.items():
                coeffs[a][b][c], coeffs[b][a][c] = -v, v
        self.brackets = [[InvariantVector(self, row) for row in rows]
                         for rows in coeffs]

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

    def __mul__(self, other):
        """self ^ other for a form, self scaled by other for anything else."""
        if isinstance(other, InvariantForm):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, s):
        return self.scale(s)

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

    def d(self):
        """Graded Leibniz extension of the structure differential: a term
        v e_k1 ^ .. ^ e_kp goes to sum_j (-1)^j d(e_kj) ^ v e_{k without kj}."""
        model = self.model
        out = model.zero()
        for k, v in self.terms.items():
            for j, a in enumerate(k):
                da = model.diff[a]
                if not da.is_zero():
                    rest = model.basis_form(k[:j] + k[j + 1:], -v if j % 2 else v)
                    out = out + da.wedge(rest)
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

    def at(self, *indices):
        """a(Z_i1, .., Z_ik) on frame vectors, as one signed coefficient lookup.

        Equals apply(basis_vector(i1), .., basis_vector(ik)): the permutation
        sign of the indices times the coefficient of their sorted tuple, and
        zero when an index repeats.
        """
        key, sign = _sort_sign(indices)
        v = self.terms.get(key)  # key is None, never a term, on a repeat
        if v is None:
            return Scalar.zero()
        return -v if sign < 0 else v

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

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __repr__(self):
        body = ", ".join("%s Z(%s)" % (c, self.model.labels[a])
                         for a, c in enumerate(self.coeffs) if not c.is_zero())
        return "InvariantVector(%s)" % (body or "0")


def build_iwasawa_model():
    """The Iwasawa manifold: d w3 = w1 ^ w2, every other (1,0) generator closed."""
    return NilmanifoldModel(3, {2: {(0, 1): Scalar.one()}})
