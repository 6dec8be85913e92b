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
dolbeault (the Dolbeault operator in the extension frame).  pairing_matrix
is the C-bilinear pairing of a metric and coupling.  A QOperator's wedge is
a hermitian.matmul product, whose entries multiply with * (forms by wedge,
a form and a Scalar by scaling).

The HE residual and the slope read the curvature F of D^G only through
F ^ omega^2, a multiple of the volume (Luebke & Teleman, The
Kobayashi-Hitchin Correspondence, 1995, 1.1), whose coefficients
curvature_wedge_omega_sq takes from the connection's scalar coefficients:
the verify path builds no curvature 2-form.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .cealg import InvariantForm
from .hermitian import matmul, matrix_inverse, sandwich

QDIM = 8


class QOperator:
    """8x8 matrix of invariant forms acting on the frame of Q."""

    __slots__ = ("model", "entries")

    def __init__(self, model, entries=None):
        self.model = model
        if entries is None:
            z = model.zero()
            entries = [[z for _ in range(QDIM)] for _ in range(QDIM)]
        self.entries = entries

    def __add__(self, other):
        return QOperator(self.model,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return QOperator(self.model, [[-a for a in row] for row in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return QOperator(self.model, [[a.scale(s) for a in row] for row in self.entries])

    def wedge(self, other):
        """Matrix product with entrywise wedge: (A ^ B)_ij = sum_k A_ik ^ B_kj."""
        return QOperator(self.model, matmul(self.entries, other.entries,
                                            self.model.zero()))

    def d(self):
        return QOperator(self.model, [[a.d() for a in row] for row in self.entries])

    def part(self, p, q):
        return QOperator(self.model, [[a.part(p, q) for a in row] for row in self.entries])

    def map_entries(self, fn):
        return QOperator(self.model, [[fn(a) for a in row] for row in self.entries])

    def value_at(self, vector):
        """Scalar 8x8 matrix of a 1-form-valued operator evaluated on a vector."""
        z = Scalar.zero()
        return [[z if a.is_zero() else a.contract(vector).terms.get((), z)
                 for a in row] for row in self.entries]

    def is_zero(self):
        return all(a.is_zero() for row in self.entries for a in row)

    def __repr__(self):
        nz = sum(1 for row in self.entries for a in row if not a.is_zero())
        return "QOperator(%d nonzero entries)" % nz


def _with_end(block, e0, e1):
    """8x8 Scalar matrix: the 6x6 block on T, diag(e0, e1) on End."""
    z = Scalar.zero()
    return [row + [z, z] for row in block] + [[z] * 6 + [e0, z], [z] * 7 + [e1]]


def pairing_matrix(h, alpha):
    """The C-bilinear pairing of Q in the complexified frame: -g_C on T,
    diag(-alpha, alpha) on End."""
    return _with_end([[-x for x in row] for row in h.G6], -alpha, alpha)


def connection_DG(s):
    """The orthogonal connection of the solution, as a 1-form-valued matrix.

    Blocks: Bismut connection on T (x) C, curvature contractions coupling T
    with the End directions weighted by alpha, and flat End diagonals (the
    Chern connections are trivial in the invariant unitary frame).
    """
    model, h, z = s.model, s.h, s.model.zero()
    # T block: the metric's Bismut 1-forms, sum_c Gamma^a_{cb} w^c
    E = [row + [z, z] for row in h.bismut_forms] + [[z] * QDIM, [z] * QDIM]
    # iF[b] = (i_{Z_b} F0, i_{Z_b} F1)
    iF = [[F.contract(model.basis_vector(b)) for F in (s.F0, s.F1)]
          for b in range(6)]
    cols = matmul(h.Ginv6, iF, model.zero())
    for a in range(6):
        # T <- End columns: g^{-1} alpha tr(i_V F0 .) and -g^{-1} alpha tr(i_V F1 .)
        E[a][6] = cols[a][0].scale(-s.alpha)
        E[a][7] = cols[a][1].scale(s.alpha)
        # End <- T rows: -F_j(V, .)
        E[6][a], E[7][a] = iF[a]
    return QOperator(model, E)


def curvature(A):
    """F = dA + A ^ A of a connection matrix."""
    return A.d() + A.wedge(A)


def curvature_wedge_omega_sq(s):
    """8x8 Scalars c with F_ij ^ omega^2 = c_ij e_top, F the curvature of D^G.

    With A_ij = sum_a A^a_ij e_a and W = h.omega_sq_table, F = dA + A ^ A
    gives c_ij = sum_k sum_a A^a_ik V^a_kj: V^a_kj = sum_b W[a][b] A^b_kj,
    plus lam_a = (d e_a ^ omega^2)_top, read through W, when k = j (lam is
    zero on Iwasawa, but computed).  No curvature 2-form is built.
    """
    model, W, zero = s.model, s.h.omega_sq_table, Scalar.zero()
    lams = ((a, sum((v * W[b][c] for (b, c), v in da.terms.items()), zero))
            for a, da in enumerate(model.diff))
    lam = {a: x for a, x in lams if not x.is_zero()}
    cols = [[(a, w[b]) for a, w in enumerate(W) if not w[b].is_zero()]
            for b in range(model.dim)]
    V = [[] for _ in range(QDIM)]  # V[k]: (j, {a: V^a_kj}) for V_kj != 0
    for k, row in enumerate(s.connection.entries):
        for j, e in enumerate(row):
            acc = dict(lam) if k == j else {}
            for (b,), v in e.terms.items():
                for a, w in cols[b]:
                    acc[a] = acc[a] + w * v if a in acc else w * v
            if acc:
                V[k].append((j, acc))
    c = [[zero] * QDIM for _ in range(QDIM)]
    for out, row in zip(c, s.connection.entries):
        for e, Vk in zip(row, V):
            for (a,), u in e.terms.items():
                for j, acc in Vk:
                    if a in acc:
                        out[j] = out[j] + u * acc[a]
    return c


def he_residual_G(s):
    """F_{D^G} ^ omega^2 = c e_top (c = s.curvature_omega_sq); zero on solutions."""
    top = s.model.top_index()
    return QOperator(s.model, [[InvariantForm(s.model, {top: x}) for x in row]
                               for row in s.curvature_omega_sq])


def _split_components(model, X):
    """(1,1)-form X -> list of 3 (0,1)-forms: X = sum_j w_j ^ (-component_j)."""
    Z = [model.basis_vector(j) for j in range(3)]
    return [-X.contract(Z[j]) for j in range(3)]


def dolbeault_Q(cfg):
    """Dolbeault operator of Q in the extension frame, as a (0,1)-matrix.

    cfg is a SystemParams; the cotangent coupling is 2i partial(omega).
    The returned matrix is the connection part; the coframe itself is
    holomorphic, so this is the whole operator on invariant sections.
    Verifiers read it as cfg.dolbeault, built once per family.
    """
    model = cfg.model
    two_i_del = cfg.h.omega.partial().scale(Scalar.of(0, 2))
    Z = [model.basis_vector(j) for j in range(3)]
    A = QOperator(model)
    E = A.entries
    for j in range(3):
        # column V_j
        E[3][j] = cfg.F0.contract(Z[j])
        E[4][j] = cfg.F1.contract(Z[j])
        X = -two_i_del.contract(Z[j])
        for l, comp in enumerate(_split_components(model, X)):
            E[5 + l][j] = comp
    # columns r0, r1: 2<F^{1,1}, r> with pairing (-alpha, +alpha)
    for l, comp in enumerate(_split_components(model, cfg.F0.scale(Scalar.of(-2) * cfg.alpha))):
        E[5 + l][3] = comp
    for l, comp in enumerate(_split_components(model, cfg.F1.scale(Scalar.of(2) * cfg.alpha))):
        E[5 + l][4] = comp
    return A


def extension_class_gamma(cfg):
    """The Hom(A_P, T*)-valued extension-class block of the Dolbeault operator.

    Zero iff the extension splits at the invariant level (flat bundles and
    partial(omega) = 0).
    """
    z = cfg.model.zero()
    return QOperator(cfg.model, [[e if i >= 5 and j < 5 else z
                                  for j, e in enumerate(row)]
                                 for i, row in enumerate(cfg.dolbeault.entries)])


def bismut_iso_matrix(h):
    """Scalar matrix of the isomorphism extension frame -> complexified frame."""
    z, half = Scalar.zero(), Scalar.of(Fraction(1, 2))
    P = [[z] * QDIM for _ in range(QDIM)]
    for i, j in ((0, 0), (1, 1), (2, 2), (6, 3), (7, 4)):
        P[i][j] = Scalar.one()
    # xi_k = w_k maps to -(1/2) g^{-1} w_k
    for k in range(3):
        for a in range(6):
            if not h.Ginv6[a][k].is_zero():
                P[a][5 + k] = -half * h.Ginv6[a][k]
    return P


def subbundle_report(s):
    """Isotropy / invariance / slope report of the cotangent subbundle T*.

    In the extension frame T* is the span of e_5, e_6, e_7; the Bismut
    isomorphism P (bismut_iso_matrix) carries it to the span of the columns
    S = P[:, 5:] in the complexified frame, where the pairing lives.

    * isotropic: S^T . pairing . S = 0.
    * holomorphic_invariant: P is a constant invertible matrix, so the
      transported operator P A P^-1 maps P T* into P T* (x) forms exactly
      when the Dolbeault matrix A maps e_5..e_7 into their span (x) forms,
      that is when rows 0..4 of columns 5..7 of s.dolbeault are zero: one
      block read, the mirror of extension_class_gamma (rows 5..7 of columns
      0..4).  No P^-1 and no solve is needed.
    * slope: the Chern-Weil slope against [omega^2] (_span_slope).
    """
    S = [row[5:] for row in bismut_iso_matrix(s.h)]  # 8 x 3
    gram = sandwich([list(col) for col in zip(*S)],
                    pairing_matrix(s.h, s.alpha), S, Scalar.zero())
    return {
        "isotropic": all(x.is_zero() for row in gram for x in row),
        "holomorphic_invariant": all(e.is_zero() for row in
                                     s.dolbeault.entries[:5] for e in row[5:]),
        "slope": _span_slope(s, S),
    }


def _span_slope(s, S):
    """Chern-Weil slope against [omega^2] of the subbundle spanned by the
    columns of the 8 x k Scalar matrix S.

    The compressed curvature (S^dagger H S)^-1 S^dagger H F S has trace
    sum_ab Pr[b][a] F[a][b], Pr = S (S^dagger H S)^-1 S^dagger H, so with
    F ^ omega^2 = c e_top the slope is (i/2pi) sum_ab Pr[b][a] c[a][b] /
    c_vol / k.
    """
    zero = Scalar.zero()
    SdH = matmul([[c.conjugate() for c in col] for col in zip(*S)],
                 s.metric_H.Hm, zero)
    Pr = sandwich(S, matrix_inverse(matmul(SdH, S, zero)), SdH, zero)
    trace = sum((Pr[b][a] * x for a, row in enumerate(s.curvature_omega_sq)
                 for b, x in enumerate(row) if not x.is_zero()), zero)
    return trace * Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1) \
        * (s.h.c_vol * Scalar.of(len(S[0]))).inverse()
