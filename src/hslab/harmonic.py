"""Harmonic-metric and moment-map residuals for the canonical connection.

A compatible positive metric on Q is fixed by the underlying Hermitian
metric on tangent directions and |alpha| on both End directions.  Relative
to it the connection splits into a unitary part and a self-adjoint 1-form
(the second fundamental form), and separately into a Chern-type connection
plus a (1,0)-form field.  The three moment-map residuals I, J, K and the
harmonicity residual are computed exactly; the closed-form criteria (the
pairing of one curvature against the torsion coclosure, plus the coupled
frame contraction of the two curvatures) are exposed for cross-checks.

Every residual here reads the per-family objects of its SystemParams
(frame, compatible metric, connection, unitary and Chern splittings), which
are built once per family; the metric-only objects they share (Levi-Civita,
Bismut, Lee form) are built once per HermitianStructure.  Harmonicity reads
K alone, so moment_residuals computes K and builds I and J only when they
are first looked up.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .cealg import InvariantVector
from .hermitian import matrix_inverse, sandwich
from .algebroid import QDIM, QFrame, QOperator, scalar_commutator


class CompatibleMetricH:
    """Positive Hermitian metric on Q and the induced adjoint operation."""

    def __init__(self, frame: QFrame):
        self.frame = frame
        self.model = frame.model
        self.Hm = frame.metric_H_matrix()
        self.Hm_inv = matrix_inverse(self.Hm)

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


def decompose_chern(A: QOperator, H: CompatibleMetricH):
    """A = C + phi with C of Chern type and phi a (1,0)-form field.

    C keeps the full (0,1)-part of A; its (1,0)-part is minus the adjoint of
    that (0,1)-part, which makes C unitary.  The remainder phi is purely
    (1,0) and self-adjointness of Psi forces phi^{*H} = 2 Psi^{0,1}.
    """
    A01 = A.part(0, 1)
    A01_star = H.adjoint(A01)  # a (1,0)-form-valued matrix
    C = A01 - A01_star
    phi = A.part(1, 0) + A01_star
    return C, phi


def _j_vector(model, vec):
    n = model.n
    coeffs = list(vec.coeffs)
    out = []
    for a, c in enumerate(coeffs):
        out.append(c * (Scalar.of(0, 1) if a < n else Scalar.of(0, -1)))
    return InvariantVector(model, out)


def nabla_H_star(s, B: QOperator, T: QOperator):
    """Codifferential of a 1-form-valued endomorphism T for nabla^H = d + B.

    Returns the scalar matrix -sum_{ab} Ginv[a][b] ([B(Z_a), T(Z_b)]
    - Gamma^c_{ab} T(Z_c)) with Gamma the Levi-Civita coefficients.
    """
    h = s.h
    model = s.model
    lc = h.levi_civita()
    Z = [model.basis_vector(a) for a in range(6)]
    Bv = [B.value_at(Z[a]) for a in range(6)]
    Tv = [T.value_at(Z[a]) for a in range(6)]
    out = [[Scalar.zero()] * QDIM for _ in range(QDIM)]
    for a in range(6):
        for b in range(6):
            gab = h.Ginv6[a][b]
            if gab.is_zero():
                continue
            term = scalar_commutator(Bv[a], Tv[b])
            for c in range(6):
                gam = lc.gamma[a][b][c]
                if gam.is_zero():
                    continue
                term = [[x - gam * y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(term, Tv[c])]
            for i in range(QDIM):
                for j in range(QDIM):
                    v = term[i][j]
                    if not v.is_zero():
                        out[i][j] = out[i][j] - gab * v
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
            w2 = h.omega.wedge(h.omega)
            FB = B.d() + B.wedge(B)
            value = (FB + Psi.wedge(Psi)).map_entries(lambda f: f.wedge(w2))
        elif key == "J":
            # (nabla^H)^* (J Psi) - i_{J theta^sharp} Psi
            JPsi = Psi.map_entries(h.j_form)
            theta_sharp = h.sharp(h.lee_form())
            value = _add_matrices(nabla_H_star(s, B, JPsi),
                                  Psi.value_at(_j_vector(s.model, theta_sharp)),
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
    theta_sharp = s.h.sharp(s.h.lee_form())
    # K: (nabla^H)^* Psi + i_{theta^sharp} Psi
    K_res = _add_matrices(nabla_H_star(s, B, Psi),
                          Psi.value_at(theta_sharp))
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
    dc = h.omega.dc()
    torsion_pairing = s.F0.wedge(h.star(dc))
    cross = s.alpha * h.frame_contraction(s.F1, s.F0)
    if s.alpha.evalf().real < 0:
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
    w2 = h.omega.wedge(h.omega)
    nabla_Psi = Psi.d() + B.wedge(Psi) + Psi.wedge(B)
    half = Scalar.of(Fraction(1, 2))
    star_term = nabla_Psi.map_entries(
        lambda f: h.star(f.wedge(w2)).scale(half))
    star_rows = [[e.terms.get((), Scalar.zero()) for e in row]
                 for row in star_term.entries]
    return _add_matrices(moment_residuals(s)["J"], star_rows, sign=-1)


def higgs_field(s):
    """The Chern-type decomposition data (C, phi) of the connection."""
    return s.chern_split


def higgs_dbar(s):
    """dbar_Q phi = (d phi)^{(1,1)} + A^{0,1} ^ phi + phi ^ A^{0,1}."""
    C, phi = s.chern_split
    A01 = C.part(0, 1)
    return (phi.d() + A01.wedge(phi) + phi.wedge(A01)).part(1, 1)


def higgs_obstruction(s, dbar_phi):
    """dbar_Q phi ^ omega^2, from dbar_phi = higgs_dbar(s).

    Its nonvanishing certifies that the configuration is not of Higgs type.
    """
    w2 = s.h.omega.wedge(s.h.omega)
    return dbar_phi.map_entries(lambda f: f.wedge(w2))


def _chern_d(C, a):
    return a.d() + C.wedge(a) + a.wedge(C)


def higgs_equation_residuals(s):
    """Residuals of the Higgs-bundle-type rewriting of the moment maps.

    Returns the curvature-type K residual (F_H + [phi ^ phi^{*H}]/2) ^ w^2,
    the combined IJ residuals, the holomorphicity obstruction
    dbar_Q phi ^ w^2 whose nonvanishing certifies that the configuration is
    not of Higgs type, and the integrability term del^H phi + phi ^ phi.
    """
    C, phi = s.chern_split
    H = s.metric_H
    h = s.h
    w2 = h.omega.wedge(h.omega)

    FH = C.d() + C.wedge(C)
    phi_star = H.adjoint(phi)  # (0,1)-form valued
    dbar_phi = higgs_dbar(s)
    del_phi_star = _chern_d(C, phi_star).part(1, 1)
    half = Scalar.of(Fraction(1, 2))

    bracket = phi.wedge(phi_star) + phi_star.wedge(phi)
    K_res = (FH + bracket.scale(half)).map_entries(lambda f: f.wedge(w2))
    IJ_first = (FH + dbar_phi.scale(half) - del_phi_star.scale(half)) \
        .map_entries(lambda f: f.wedge(w2))
    IJ_second = (dbar_phi + del_phi_star).map_entries(lambda f: f.wedge(w2))
    integrability = _chern_d(C, phi).part(2, 0) + phi.wedge(phi)
    return {
        "K": K_res,
        "IJ_curvature": IJ_first,
        "IJ_mixed": IJ_second,
        "integrability": integrability,
        "holomorphicity_obstruction": higgs_obstruction(s, dbar_phi),
        "dbar_phi": dbar_phi,
    }
