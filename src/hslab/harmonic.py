"""Harmonic-metric and moment-map residuals for the canonical connection.

A compatible positive metric on Q is fixed by the underlying Hermitian
metric on tangent directions and |alpha| on both End directions.  Relative
to it the connection splits into a unitary part and a self-adjoint 1-form
(the second fundamental form), A = B + Psi, and separately into a
Chern-type connection plus a (1,0)-form field, A = C + phi = C + 2 Psi^{1,0}.
The three moment-map residuals I, J, K and the harmonicity residual are
computed exactly; the closed-form criteria (the pairing of one curvature
against the torsion coclosure, plus the coupled frame contraction of the
two curvatures) are exposed for cross-checks.  dbar_Q phi is computed
entry by entry (higgs_dbar_entry), so a caller builds only what it reads.

Every residual reads its SystemParams' per-family objects (metric,
connection, splittings), each built once per family, and the metric's
members (Lee form and its sharp, *d^c omega, the Levi-Civita trace), built
once per metric when its HermitianStructure is.  Harmonicity reads K
alone, so moment_residuals builds I and J only when they are first looked
up.

K and J both go through nabla_H_star, the codifferential of nabla^H.  It
contracts with the inverse metric, sums the commutators as two stacked
matrix products and adds the contracted Levi-Civita trace (the metric's
lc_trace) as one term, computed rather than assumed to be zero.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .cealg import InvariantVector
from .hermitian import matmul, sandwich
from .algebroid import QDIM, QOperator, _with_end


class CompatibleMetricH:
    """Positive Hermitian metric on Q and the induced adjoint operation.

    Hm is g(Z_a, conj Z_b) = G6[a][(b + 3) % 6] on T and |alpha| on End, so
    row a of its inverse is Ginv6[(a + 3) % 6] on T, and 1/|alpha| on End.
    """

    def __init__(self, h, alpha):
        self.model = h.model
        G6, Ginv6 = h.G6, h.Ginv6
        aabs = alpha if alpha.sign() > 0 else -alpha
        inv = aabs.inverse()
        self.Hm = _with_end([[row[(b + 3) % 6] for b in range(6)] for row in G6],
                            aabs, aabs)
        self.Hm_inv = _with_end([Ginv6[(a + 3) % 6] for a in range(6)], inv, inv)

    def adjoint(self, A: QOperator) -> QOperator:
        """A^{*H} on form-valued matrices.

        Conjugation acts on the matrix entries and on the form directions
        (generator indices swap with their conjugates), then the result is
        transposed and sandwiched by the metric.
        """
        conj_t = [[e.conjugate() for e in col] for col in zip(*A.entries)]
        return QOperator(self.model,
                         sandwich(self.Hm_inv, conj_t, self.Hm, self.model.zero()))


def decompose_unitary(A: QOperator, H: CompatibleMetricH):
    """A = B + Psi with B anti-self-adjoint (unitary part) and Psi self-adjoint."""
    half = Scalar.of(Fraction(1, 2))
    Astar = H.adjoint(A)
    B = (A - Astar).scale(half)
    Psi = (A + Astar).scale(half)
    return B, Psi


def _j_vector(model, vec):
    return InvariantVector(model, [c * Scalar.of(0, 1 if a < model.n else -1)
                                   for a, c in enumerate(vec.coeffs)])


def _accumulate(out, M, c):
    """out += c * M, touching only the nonzero entries of M."""
    for orow, mrow in zip(out, M):
        for j, v in enumerate(mrow):
            if not v.is_zero():
                orow[j] = orow[j] + c * v


def _frame_values(A: QOperator, a):
    """A.value_at(Z_a) for a 1-form-valued operator: each entry's Z_a coefficient."""
    zero = Scalar.zero()
    return [[e.terms.get((a,), zero) for e in row] for row in A.entries]


def nabla_H_star(s, B: QOperator, T: QOperator):
    """Codifferential of a 1-form-valued endomorphism T for nabla^H = d + B.

    Returns the scalar matrix -sum_{ab} Ginv[a][b] ([B(Z_a), T(Z_b)]
    - Gamma^c_{ab} T(Z_c)) with Gamma the Levi-Civita coefficients,
    contracted before any commutator is taken:

        sum_a [B(Z_a), S_a] + sum_c g^c T(Z_c),
        S_a = -sum_b Ginv[a][b] T(Z_b),  g^c = sum_{ab} Ginv[a][b] Gamma^c_{ab}.

    The six commutators are two stacked products, [B_0|..|B_5] . [S_0;..;S_5]
    - [S_0|..|S_5] . [B_0;..;B_5], with B_a = B(Z_a).  The trace g^c
    (h.lc_trace, built with the metric) is tr ad_{Z_c}, zero on a
    unimodular (e.g. nilpotent) algebra (Milnor, Adv. Math. 21, 1976), so
    on the Iwasawa model the second sum adds nothing; it is still computed,
    not assumed, so any NilmanifoldModel whose algebra is not unimodular
    gets the full codifferential.
    """
    zero = Scalar.zero()
    Tv = [_frame_values(T, a) for a in range(6)]
    Bv = [_frame_values(B, a) for a in range(6)]
    # the nonzero entries (b, Ginv[a][b]) of each row a
    rows = [[(b, g) for b, g in enumerate(grow) if not g.is_zero()]
            for grow in s.h.Ginv6]
    S = [[[zero] * QDIM for _ in range(QDIM)] for _ in rows]
    for S_a, row in zip(S, rows):
        for b, g in row:
            _accumulate(S_a, Tv[b], -g)
    out = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(
        matmul([sum(rs, []) for rs in zip(*Bv)], sum(S, []), zero),
        matmul([sum(rs, []) for rs in zip(*S)], sum(Bv, []), zero))]
    for c, trace in enumerate(s.h.lc_trace):
        if not trace.is_zero():
            _accumulate(out, Tv[c], trace)
    return out


def _add_matrices(a, b, sign=1):
    s = Scalar.of(sign)
    return [[x + s * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def matrix_is_zero(rows):
    return all(x.is_zero() for row in rows for x in row)


class _MomentResiduals(dict):
    """The moment-map residuals, with I and J built on first lookup.

    K is stored at construction.  Indexing "I" or "J" builds that residual
    from the family's unitary decomposition, stores it and returns it.  A
    residual not yet indexed is not a key, so len(), iteration and get()
    see only what has been built.
    """

    def __init__(self, s, K):
        super().__init__(K=K)
        self._s = s

    def __missing__(self, key):
        s = self._s
        h = s.h
        B, Psi = s.unitary_split
        if key == "I":
            # (F_B + Psi ^ Psi) ^ omega^2 with F_B = dB + B ^ B
            FB = B.d() + B.wedge(B)
            value = (FB + Psi.wedge(Psi)).map_entries(h.wedge_omega_sq)
        elif key == "J":
            # (nabla^H)^* (J Psi) - i_{J theta^sharp} Psi
            JPsi = Psi.map_entries(h.j_form)
            value = _add_matrices(nabla_H_star(s, B, JPsi),
                                  Psi.value_at(_j_vector(s.model, h.lee_sharp)),
                                  sign=-1)
        else:
            raise KeyError(key)
        self[key] = value
        return value


def moment_residuals(s):
    """The three moment-map residuals of the canonical connection.

    I and J are form-valued matrices (top-degree and scalar respectively
    after the stated contractions), K a scalar matrix.  All vanish exactly
    iff the connection is a critical point compatible with the full
    hyperkaehler-type system.  Only K is computed here; I and J are built
    when first indexed, so a caller reading K alone pays for K alone.
    """
    B, Psi = s.unitary_split
    # K: (nabla^H)^* Psi + i_{theta^sharp} Psi
    K_res = _add_matrices(nabla_H_star(s, B, Psi),
                          Psi.value_at(s.h.lee_sharp))
    return _MomentResiduals(s, K_res)


def harmonic_residual(s):
    """Scalar-matrix residual whose vanishing is the harmonicity of H."""
    return moment_residuals(s)["K"]


def harmonic_criteria(s):
    """Closed-form harmonicity criteria equivalent to the K residual.

    Returns the 4-form F0 ^ *(d^c omega) (coclosure pairing of the first
    curvature against the torsion) and the scalar |alpha| times the frame
    contraction of the two curvatures (the cross coupling of the End
    blocks, equal to the off-diagonal entries of the K residual).  Both
    vanish iff the compatible metric is harmonic.
    """
    h = s.h
    torsion_pairing = s.F0.wedge(h.star_dc_omega)
    cross = s.alpha * h.frame_contraction(s.F1, s.F0)
    if s.alpha.sign() < 0:
        cross = -cross
    return {"torsion_pairing": torsion_pairing, "cross": cross}


def harmonic_vs_moment_gap(s):
    """Difference between the J-type codifferential and its moment-map form.

    Computes (nabla^H)^*(J Psi) - *((nabla^H Psi) ^ omega^2)/2
    - i_{J theta^sharp} Psi, that is the J residual minus the star term.
    The gap vanishes on solutions (not off them); exposed so the identity
    can be pinned by tests.
    """
    B, Psi = s.unitary_split
    h = s.h
    nabla_Psi = Psi.d() + B.wedge(Psi) + Psi.wedge(B)
    half = Scalar.of(Fraction(1, 2))
    star_term = nabla_Psi.map_entries(
        lambda f: h.star(h.wedge_omega_sq(f)).scale(half))
    star_rows = [[e.terms.get((), Scalar.zero()) for e in row]
                 for row in star_term.entries]
    return _add_matrices(moment_residuals(s)["J"], star_rows, sign=-1)


def higgs_dbar_entry(s, i, j):
    """Entry (i, j) of dbar_Q phi = (d phi)^{1,1} + A^{0,1} ^ phi + phi ^ A^{0,1}.

    A^{0,1} is the (0,1)-part of C (and of D^G: phi is of type (1,0)), so
    both products are already of type (1,1).  The one formula of dbar_Q phi.
    """
    C, phi = s.chern_split
    A, P = C.entries, phi.entries
    out = P[i][j].d().part(1, 1)
    for k in range(QDIM):
        out = out + A[i][k].part(0, 1).wedge(P[k][j]) \
            + P[i][k].wedge(A[k][j].part(0, 1))
    return out


def higgs_equation_residuals(s):
    """Residuals of the Higgs-bundle-type rewriting of the moment maps.

    Returns the curvature-type K residual (F_H + [phi ^ phi^{*H}]/2) ^ w^2,
    the combined IJ residuals, dbar_Q phi, the holomorphicity obstruction
    dbar_Q phi ^ w^2 whose nonvanishing certifies that the configuration is
    not of Higgs type, and the integrability term del^H phi + phi ^ phi.
    """
    C, phi = s.chern_split
    H = s.metric_H
    wedge_w2 = s.h.wedge_omega_sq

    FH = C.d() + C.wedge(C)
    phi_star = H.adjoint(phi)  # (0,1)-form valued
    r = range(QDIM)
    dbar_phi = QOperator(s.model, [[higgs_dbar_entry(s, i, j) for j in r]
                                   for i in r])
    del_phi_star = (phi_star.d() + C.wedge(phi_star)
                    + phi_star.wedge(C)).part(1, 1)
    half = Scalar.of(Fraction(1, 2))

    bracket = phi.wedge(phi_star) + phi_star.wedge(phi)
    K_res = (FH + bracket.scale(half)).map_entries(wedge_w2)
    IJ_first = (FH + dbar_phi.scale(half) - del_phi_star.scale(half)) \
        .map_entries(wedge_w2)
    IJ_second = (dbar_phi + del_phi_star).map_entries(wedge_w2)
    integrability = (phi.d() + C.wedge(phi) + phi.wedge(C)).part(2, 0) \
        + phi.wedge(phi)
    return {
        "K": K_res,
        "IJ_curvature": IJ_first,
        "IJ_mixed": IJ_second,
        "integrability": integrability,
        "holomorphicity_obstruction": dbar_phi.map_entries(wedge_w2),
        "dbar_phi": dbar_phi,
    }
