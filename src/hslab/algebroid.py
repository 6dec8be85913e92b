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
cotangent components: c w_j ^ w_k' -> (-c w_k') (x) w_j.

The verifiers here take a SystemParams and read its per-family objects,
each built once: frame, metric_H, connection (D^G), connection_curvature,
dolbeault (the Dolbeault operator in the extension frame) and bismut_iso.
QFrame holds the C-bilinear pairing.  A QOperator's wedge, its action on a
section and the pairing of sections are hermitian.matmul products, whose
entries multiply with * (forms by wedge, a form and a Scalar by scaling).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .hermitian import matmul, matrix_inverse, rref, sandwich, solve

QDIM = 8


class QSection:
    """Constant-coefficient section of Q over the complexified frame."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != QDIM:
            raise ValueError("Q sections have 8 components")
        self.model = model
        self.coeffs = [c if isinstance(c, Scalar) else Scalar.of(Fraction(c))
                       for c in coeffs]

    def __add__(self, other):
        return QSection(self.model, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return QSection(self.model, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, QSection):
            return NotImplemented
        return self.model is other.model and self.coeffs == other.coeffs

    def __repr__(self):
        return "QSection(%s)" % ", ".join(str(c) for c in self.coeffs)


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
        rows = []
        for row in self.entries:
            rows.append([a.contract(vector).terms.get((), Scalar.zero())
                         if not a.is_zero() else Scalar.zero() for a in row])
        return rows

    def apply(self, section):
        """Apply to a constant section; result is a list of 8 forms."""
        column = [[c] for c in section.coeffs]
        out = matmul(self.entries, column, self.model.zero())
        return [row[0] for row in out]

    def is_zero(self):
        return all(a.is_zero() for row in self.entries for a in row)

    def dump(self):
        """JSON-ready 8x8 array of form literals (golden-file format)."""
        return [[a.literal() for a in row] for row in self.entries]

    def __repr__(self):
        nz = sum(1 for row in self.entries for a in row if not a.is_zero())
        return "QOperator(%d nonzero entries)" % nz


def _with_end(block, e0, e1):
    """8x8 Scalar matrix: the 6x6 block on T, diag(e0, e1) on End."""
    z = Scalar.zero()
    return [row + [z, z] for row in block] + [[z] * 6 + [e0, z], [z] * 7 + [e1]]


def scalar_commutator(a, b):
    ab = matmul(a, b, Scalar.zero())
    ba = matmul(b, a, Scalar.zero())
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


class QFrame:
    """The C-bilinear pairing of Q for a fixed (h, alpha)."""

    def __init__(self, h, alpha):
        if alpha.is_zero() or not alpha.is_real():
            raise ValueError("coupling constant must be real and nonzero")
        self.h = h
        self.model = h.model
        self.alpha = alpha
        # pairing in the complexified frame: -g_C on T, diag(-alpha, alpha) on End
        self.pairing = _with_end([[-x for x in row] for row in h.G6],
                                 -alpha, alpha)

    def pair(self, x, y):
        """C-bilinear pairing of sections: x^T . pairing . y."""
        return sandwich([x.coeffs], self.pairing, [[c] for c in y.coeffs],
                        Scalar.zero())[0][0]


def connection_DG(s):
    """The orthogonal connection of the solution, as a 1-form-valued matrix.

    Blocks: Bismut connection on T (x) C, curvature contractions coupling T
    with the End directions weighted by alpha, and flat End diagonals (the
    Chern connections are trivial in the invariant unitary frame).
    """
    model = s.model
    h = s.h
    bi = h.bismut()
    A = QOperator(model)
    E = A.entries
    # T block: entry (a, b) = sum_c Gamma^a_{cb} w^c
    for a in range(6):
        for b in range(6):
            acc = model.zero()
            for c in range(6):
                coef = bi.gamma[c][b][a]
                if not coef.is_zero():
                    acc = acc + model.gen(c, coef)
            E[a][b] = acc
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
    return A


def curvature(A):
    """F = dA + A ^ A of a connection matrix."""
    return A.d() + A.wedge(A)


def he_residual_G(s):
    """F_{D^G} ^ omega^2, each entry through h.wedge_omega_sq.

    Vanishes exactly on Hull-Strominger solutions.
    """
    return s.connection_curvature.map_entries(s.h.wedge_omega_sq)


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
    A = cfg.dolbeault
    out = QOperator(cfg.model)
    for l in range(3):
        for c in range(5):
            out.entries[5 + l][c] = A.entries[5 + l][c]
    return out


def bismut_iso_matrix(h):
    """Scalar matrix of the isomorphism extension frame -> complexified frame."""
    z = Scalar.zero()
    P = [[z] * QDIM for _ in range(QDIM)]
    for j in range(3):
        P[j][j] = Scalar.one()
    P[6][3] = Scalar.one()
    P[7][4] = Scalar.one()
    half = Scalar.of(Fraction(1, 2))
    for k in range(3):
        # xi_k = w_k maps to -(1/2) g^{-1} w_k
        for a in range(6):
            gi = h.Ginv6[a][k]
            if not gi.is_zero():
                P[a][5 + k] = -half * gi
    return P


def transport_dolbeault(cfg):
    """The Dolbeault operator conjugated into the complexified frame, P A P^-1.

    P = cfg.bismut_iso is a 0/1 permutation but for its T* columns, -(1/2)
    g^-1, so P^-1 is P^T but for its T* rows, -2 g (rows 0..2 of -2 G6).
    """
    P, z, m2 = cfg.bismut_iso, Scalar.zero(), Scalar.of(-2)
    Pinv = [list(col) for col in zip(*P)][:5] \
        + [[m2 * x for x in row] + [z, z] for row in cfg.h.G6[:3]]
    return QOperator(cfg.model, sandwich(P, cfg.dolbeault.entries, Pinv,
                                         cfg.model.zero()))


def subbundle_report(s, span, b_class=None):
    """Isotropy / invariance / slope report for an invariant subbundle of s.

    span: list of QSections over the complexified frame.  Invariance is
    checked against the transported Dolbeault matrix of s; the slope against
    b_class uses the Chern-Weil trace of the induced connection, which
    vanishes for constant isotropic frames paired against closed classes
    whenever the induced curvature trace does.
    """
    # linear independence over the scalars (rational entries expected)
    mat = [[sec.coeffs[a] for a in range(QDIM)] for sec in span]
    if len(rref(mat, QDIM)[1]) != len(span):
        raise ValueError("subbundle span is linearly dependent")
    frame = s.frame
    dolbeault = transport_dolbeault(s)
    out = {
        "isotropic": all(frame.pair(x, y).is_zero() for x in span for y in span),
        # each image must be a combination of span with form coefficients
        "holomorphic_invariant": all(_form_membership(dolbeault.apply(sec), span)
                                     for sec in span),
    }
    if b_class is not None:
        out["slope"] = _span_slope(s, span, b_class)
    return out


def _form_membership(img, span):
    """Whether the 8-vector of forms img lies in span (x) forms, exactly."""
    # collect all (generator-index-tuple) keys appearing
    keys = set()
    for f in img:
        keys.update(f.terms)
    mat = [[sec.coeffs[a] for sec in span] for a in range(QDIM)]
    for key in keys:
        rhs = [f.terms.get(key, Scalar.zero()) for f in img]
        if solve(mat, rhs) is None:
            return False
    return True


def _span_trace(s, span):
    """Trace 2-form of the curvature of D^G compressed to the span.

    With S the 8 x k matrix of the span, tr((S^dagger H S)^-1 S^dagger H F S)
    is sum_ab Pr[b][a] F[a][b], Pr = S (S^dagger H S)^-1 S^dagger H.
    """
    zero = Scalar.zero()
    S = [[sec.coeffs[a] for sec in span] for a in range(QDIM)]  # 8 x k
    SdH = matmul([[c.conjugate() for c in sec.coeffs] for sec in span],
                 s.metric_H.Hm, zero)
    Pr = sandwich(S, matrix_inverse(matmul(SdH, S, zero)), SdH, zero)
    return sum((f.scale(Pr[b][a])
                for a, row in enumerate(s.connection_curvature.entries)
                for b, f in enumerate(row) if not Pr[b][a].is_zero()),
               s.model.zero())


def _span_slope(s, span, b_class):
    """Chern-Weil slope of the spanned subbundle against a 4-class:
    the integral of (i/2pi) tr F_span ^ b (see _span_trace) over the rank."""
    c1 = _span_trace(s, span).scale(Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1))
    top = c1.wedge(b_class.rep)
    return s.h.integrate(top) * Scalar.of(Fraction(1, len(span)))
