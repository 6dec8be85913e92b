"""The orthogonal bundle Q = T (x) C + End V0 + End V1 in its invariant frame.

Frame conventions, fixed throughout:

* complexified frame (used by the connection D^G and all metrics):
  indices 0..5 are Z_1, Z_2, Z_3, Z_1', Z_2', Z_3' (primes = conjugates),
  index 6 is the End V0 direction, index 7 the End V1 direction.  The End
  frame element is the anti-Hermitian generator of u(1), so plain coefficient
  conjugation realizes the bundle real structure there.

* extension frame (used by the Dolbeault operator of the holomorphic
  extension 0 -> T* -> Q -> A_P -> 0): indices 0..2 are V_1..V_3 in T^{1,0},
  3 and 4 the End directions, 5..7 the T*^{1,0} components along w_1..w_3.

The two frames are identified by the Bismut isomorphism
V + xi -> V - (1/2) g^{-1} xi, and the equality of the (0,1)-part of D^G
with the transported Dolbeault operator is a pinned test, which calibrates
the sign convention in splitting a (1,1)-form into (0,1)-form-valued
cotangent components: c w_j ^ w_k' -> (-c w_k') (x) w_j.  The verifiers
never transport the operator: the cotangent subbundle's verdicts are read
in the extension frame, where T* is the span of e_5..e_7 (subbundle_report).

The verifiers here take a SystemParams and read its per-family objects,
each built once: metric_H, connection (D^G), curvature_omega_sq and
dolbeault (the Dolbeault operator in the extension frame).  What depends
on the metric alone is read off the HermitianStructure, built once per
metric: among it the cotangent span h.cotangent, with its Gram inverse and
its isotropy verdict under the pairing.

A 1-form-valued operator A = sum_a A^a e_a is a QOperator, six Scalar
matrices A^a, filled from coefficients and combined component by
component; only the witnesses (the extension class and the dbar_phi_23
entry) and tests read its entries as 1-forms.  Every top-degree residual
reads through one pairing, wedge_omega_sq_top: the HE residual and the
slope read the curvature of D^G only through F ^ omega^2 (Luebke &
Teleman, The Kobayashi-Hitchin Correspondence, 1995, 1.1), so no
curvature 2-form is built, and the whole Higgs obstruction dbar_Q phi ^
omega^2 is one call (harmonic.higgs_obstruction).

Every Scalar matrix on Q here (a component A^a, value_at, the top-degree
residuals and the cotangent span) is held in hermitian's
sparse form, the dict {(i, j): v} of its nonzero entries, and the
extension class is the dict {(i, j): form} of its nonzero 1-forms: a
matrix is zero iff its dict is empty.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .cealg import InvariantForm
from .hermitian import (_combination, _form_entries, _nonzero, _plus,
                        _product_sum)

QDIM = 8


class QOperator:
    """A 1-form-valued operator A = sum_a A^a e_a on Q: six Scalar matrices.

    comps[a] is the 8x8 matrix A^a = A(Z_a), held sparse as its nonzero
    entries {(i, j): A^a_ij} (empty for a zero component), so every
    operation visits only nonzero entries.
    """

    __slots__ = ("model", "comps")

    def __init__(self, model, comps):
        self.model = model
        self.comps = [_nonzero(m) for m in comps]

    def __add__(self, other):
        return QOperator(self.model, [_plus(x, y) for x, y in
                                      zip(self.comps, other.comps)])

    def __neg__(self):
        return QOperator(self.model, [{k: -v for k, v in m.items()}
                                      for m in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return QOperator(self.model, [{k: v * s for k, v in m.items()}
                                      for m in self.comps])

    def part(self, p, q):
        """The (1,0) components (e_a, a < n) or the (0,1) ones (a >= n)."""
        n = self.model.n
        return QOperator(self.model, [m if (p, q) == (int(a < n), int(a >= n))
                                      else {} for a, m in enumerate(self.comps)])

    def value_at(self, vector):
        """sum_a v^a A^a, the Scalar matrix of A on the vector v."""
        return _combination(vector.coeffs, self.comps)

    def form(self, i, j):
        """The 1-form sum_a A^a_ij e_a at entry (i, j)."""
        return InvariantForm(self.model, {(a,): m[(i, j)] for a, m in
                                          enumerate(self.comps) if (i, j) in m})


def wedge_omega_sq_top(h, L, pairs):
    """The Scalar matrix c with (dL + sum X ^ Y) ^ omega^2 = c e_top, over
    the (X, Y) in pairs.

    c = sum_a lam_a L^a + sum_ab W[a][b] X^a Y^b, W = h.omega_sq_table and
    lam = h.omega_sq_lambda (zero on the Iwasawa model, but computed): the
    products X^a V^a, V^a = sum_b W[a][b] Y^b.  W is zero off the mixed
    pairs, so only the (1,1) part of X ^ Y counts.
    """
    products = []
    for X, Y in pairs:
        products += [(x, _combination(row, Y.comps), 1)
                     for x, row in zip(X.comps, h.omega_sq_table)]
    return _plus(_product_sum(products),
                 _combination(h.omega_sq_lambda, L.comps))


def connection_DG(s):
    """The orthogonal connection of the solution, as a QOperator.

    Component c, on Z_c: the Bismut coefficients A^c_ab = Gamma^a_{cb} on
    T (x) C (h.bismut[c]), the columns -alpha g^{-1} F0(., Z_c) and
    alpha g^{-1} F1(., Z_c) coupling T to the End directions, and the End
    rows F_j(., Z_c) (the Chern connections are trivial in the invariant
    unitary frame).
    """
    h = s.h
    comps = [dict(m) for m in h.bismut]
    for e, F, r in ((6, s.F0, -s.alpha), (7, s.F1, s.alpha)):
        Fv = _form_entries(F)  # F(Z_b, Z_c)
        for (a, c), v in _product_sum([(h.Ginv6, Fv, 1)]).items():
            comps[c][a, e] = v * r
        for (b, c), v in Fv.items():
            comps[c][e, b] = v
    return QOperator(s.model, comps)


def he_residual_G(s):
    """The Scalar matrix c with F_{D^G} ^ omega^2 = c e_top
    (s.curvature_omega_sq); zero on solutions."""
    return s.curvature_omega_sq


def dolbeault_Q(cfg):
    """Dolbeault operator of Q in the extension frame, as a (0,1)-QOperator.

    Component c: column V_j holds F_k(Z_j, Z_c) in the End rows and
    T(Z_j, Z_l, Z_c), T = h.two_i_partial_omega, in cotangent row l (from
    the orderings of each term of T); the End columns hold the pairing
    2<F^{1,1}, r>, 2 alpha F0(Z_l, Z_c) and -2 alpha F1(Z_l, Z_c).  The
    coframe is holomorphic, so this is the whole operator on invariant
    sections.  Verifiers read it as cfg.dolbeault.
    """
    n = cfg.model.n
    comps = [{} for _ in range(2 * n)]
    for (a, b, c), v in cfg.h.two_i_partial_omega.terms.items():
        for j, l, k, x in ((a, b, c, v), (b, c, a, v), (c, a, b, v),
                           (b, a, c, -v), (a, c, b, -v), (c, b, a, -v)):
            if j < n and l < n:
                comps[k][5 + l, j] = x
    for e, F, r in ((3, cfg.F0, Scalar.of(2) * cfg.alpha),
                    (4, cfg.F1, Scalar.of(-2) * cfg.alpha)):
        for (j, c), v in _form_entries(F).items():
            if j < n:
                comps[c][e, j], comps[c][5 + j, e] = v, v * r
    return QOperator(cfg.model, comps)


def extension_class_gamma(cfg):
    """The Hom(A_P, T*)-valued extension-class block of the Dolbeault
    operator (rows 5..7 of columns 0..4), as the 1-forms {(i, j): D_ij} of
    its nonzero entries: empty iff the extension splits at the invariant
    level (flat bundles, partial(omega) = 0).
    """
    D = cfg.dolbeault
    block = {k for m in D.comps for k in m if k[0] >= 5 and k[1] < 5}
    return {k: D.form(*k) for k in block}


def subbundle_report(s):
    """Isotropy / invariance / slope report of the cotangent subbundle T*.

    In the extension frame T* is the span of e_5, e_6, e_7; the Bismut
    isomorphism P carries it to the span of the columns S = P[:, 5:] in the
    complexified frame, where the pairing lives.  S has rows in T only, so
    its metric part is s.h.cotangent (hermitian.metric_span), built once per
    metric: S, S^dagger H, the Gram inverse and the isotropy verdict.

    * isotropic: S^T . pairing . S = 0, read off s.h.cotangent.
    * holomorphic_invariant: P is a constant invertible matrix, so the
      transported operator P A P^-1 maps P T* into P T* (x) forms exactly
      when the Dolbeault matrix A maps e_5..e_7 into their span (x) forms,
      that is when rows 0..4 of columns 5..7 of s.dolbeault are zero: one
      block read, the mirror of extension_class_gamma (rows 5..7 of columns
      0..4).  No P^-1 and no solve is needed.
    * slope: the Chern-Weil slope against [omega^2] (_span_slope), whose
      only per-family product is the compressed curvature.
    """
    span = s.h.cotangent
    return {
        "isotropic": span.isotropic,
        "holomorphic_invariant": not any(i < 5 <= j for m in s.dolbeault.comps
                                         for i, j in m),
        "slope": _span_slope(s, span),
    }


def _span_slope(s, span):
    """Chern-Weil slope against [omega^2] of the subbundle spanned by the k
    columns of span.S, a hermitian.MetricSpan (metric_span).

    The compressed curvature (S^dagger H S)^-1 S^dagger H F S has trace
    tr(inv M), inv = (S^dagger H S)^-1 and M = S^dagger H F S, so with
    F ^ omega^2 = c e_top the slope is (i/2pi) tr(inv M_c) / c_vol / k,
    M_c = S^dagger H c S.  span holds S^dagger H and inv, which depend on
    the metric alone; per family only M_c is formed, by two sparse
    products to a k x k matrix, with no 8x8 projector.
    """
    inv, k = span.inv, len(span.inv)
    M = _product_sum([(_product_sum([(span.SdH, s.curvature_omega_sq, 1)]),
                       span.S, 1)])
    # tr(inv M) = sum_ab inv[a][b] M[b][a]
    trace = Scalar.sum_of_products([(inv[a][b], y, 1)
                                    for (b, a), y in M.items()
                                    if not inv[a][b].is_zero()])
    return trace * Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1) \
        * (s.h.c_vol * Scalar.of(k)).inverse()
