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
The model keeps them as the forms diff[c] = d w_c, which also give the
brackets of the dual frame ([Z_a, Z_b]^c = -d w_c(Z_a, Z_b)) and the
1-form ad_trace, and nothing writes to it after construction, so one model
serves every metric and family on it.  d takes each term of a form apart
by the graded Leibniz rule, with no cache.
"""

from __future__ import annotations

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

    The differentials are the structure constants: by Maurer-Cartan a term
    v e_a ^ e_b (a < b) of d w_c is [Z_a, Z_b]^c = -v, which is how the
    metric layer reads brackets.  ad_trace is the metric-free 1-form W ->
    tr ad_W = -sum_a d w_a(W, Z_a), zero on a unimodular (e.g. nilpotent)
    algebra.  A model is immutable after construction.
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
        # a term v e_x ^ e_y of d w_a adds -d w_a(Z_c, Z_a) to tr ad_{Z_c}:
        # -v at c = x when y = a, and v at c = y when x = a
        trace = {}
        for a, dw in enumerate(self.diff):
            for (x, y), v in dw.terms.items():
                if a in (x, y):
                    c, v = ((x,), -v) if y == a else ((y,), v)
                    trace[c] = trace[c] + v if c in trace else v
        self.ad_trace = InvariantForm(self, trace)

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

    def top_index(self):
        return tuple(range(self.dim))

    def complement(self, key):
        """(C, s): key's increasing complement C, e_C ^ e_key = s e_top."""
        c = tuple(a for a in range(self.dim) if a not in key)
        return c, _merge_sign(c, key)[1]


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
            raise TypeError("forms scale by a Scalar, got %r" % (s,))
        if s.is_zero():
            return self.model.zero()
        out = InvariantForm.__new__(InvariantForm)
        out.model = self.model
        out.terms = {k: v * s for k, v in self.terms.items()}
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return self.model is other.model and self.terms == other.terms

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
        """self ^ other: each key sums the coefficient products that merge
        into it, with their Koszul signs, as one Scalar.sum_of_products."""
        self._same_model(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k, sign = _merge_sign(k1, k2)
                if k is not None:
                    terms.setdefault(k, []).append((v1, v2, sign))
        return InvariantForm(self.model, {k: Scalar.sum_of_products(t)
                                          for k, t in terms.items()})

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

    def dc(self):
        """d^c = i (dbar - partial); calibrated by dd^c w_0 = w_{12 1'2'}.
        d of each (p, q) component is taken once and split: its (p, q+1)
        part is dbar's, its (p+1, q) part partial's."""
        n = self.model.n
        i = Scalar.i()
        terms = {}
        for (p, q), comp in self.bigrade().items():
            for k, v in comp.d().terms.items():
                kp = sum(1 for a in k if a < n)
                if kp == p or kp == p + 1:
                    terms.setdefault(k, []).append(
                        (v, i, 1 if kp == p else -1))
        return InvariantForm(self.model, {k: Scalar.sum_of_products(t)
                                          for k, t in terms.items()})

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

    def at(self, *indices):
        """a(Z_i1, .., Z_ik) on frame vectors, as one signed coefficient lookup.

        Equals the contractions by Z_i1, .., Z_ik in turn: the permutation
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

    def top_pairing(self, other):
        """(self ^ other)_top with no wedge built: a term w e_K of other
        meets only self's term v e_C at (C, s) = model.complement(K), and
        s v w goes into one Scalar.sum_of_products."""
        self._same_model(other)
        terms = []
        for K, w in other.terms.items():
            C, sign = self.model.complement(K)
            v = self.terms.get(C)
            if v is not None:
                terms.append((v, w, sign))
        return Scalar.sum_of_products(terms)

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
        if not all(isinstance(c, Scalar) for c in coeffs):
            raise TypeError("vector coefficients must be Scalars")
        self.model = model
        self.coeffs = coeffs

    def __repr__(self):
        body = ", ".join("%s Z(%s)" % (c, self.model.labels[a])
                         for a, c in enumerate(self.coeffs) if not c.is_zero())
        return "InvariantVector(%s)" % (body or "0")


def build_iwasawa_model():
    """The Iwasawa manifold: d w3 = w1 ^ w2, every other (1,0) generator closed."""
    return NilmanifoldModel(3, {2: {(0, 1): Scalar.one()}})
