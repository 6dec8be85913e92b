"""Line bundles from integer triples and the Hull-Strominger residuals.

A triple (m,n,p) in Z^3 \\ {0} determines a purely imaginary invariant
(1,1)-curvature form pulled back from the torus base,

    F = pi (m (w_{11'} - w_{22'}) + n (w_{12'} + w_{21'}) + ip (w_{12'} - w_{21'})),

the curvature of a Hermitian holomorphic line bundle.  This module houses
the curvature map, Hermitian-Yang-Mills and Bianchi residuals, the exact
coupling constant solve, degree/slope pairings against balanced classes
and the second-Chern-character constraint.

SystemParams is also the per-family context of the orthogonal bundle Q:
its frame, compatible metric H, connection D^G, F_{D^G} ^ omega^2, the
Dolbeault operator of Q, the Bismut isomorphism and the unitary (B, Psi)
and Chern (C, phi) splittings of D^G are built on first use and kept, so
every verifier of one family reads the same objects; the Chern split is
read off the unitary one, phi = 2 Psi^{1,0}.  Only the selftest and tests
build the curvature 2-forms.  The dataclass is frozen, which keeps them
valid, and none of them refers back to the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .scalars import Scalar
from .cealg import InvariantForm
from .hermitian import solve
from .algebroid import (QFrame, bismut_iso_matrix, connection_DG, curvature,
                        curvature_wedge_omega_sq, dolbeault_Q)
from .harmonic import CompatibleMetricH, decompose_unitary


@dataclass(frozen=True)
class LineBundleTriple:
    """Integer curvature parameters of one line bundle summand."""
    m: int
    n: int
    p: int
    role: str = "V0"

    def __post_init__(self):
        if (self.m, self.n, self.p) == (0, 0, 0):
            raise ValueError("line bundle triple must be nonzero")

    def hermitian_matrix(self):
        """The 2x2 Hermitian coefficient matrix M with F = pi sum M_{jk'} w_{jk'}."""
        m, n, p = self.m, self.n, self.p
        return [[Scalar.of(m), Scalar.of(n, p)],
                [Scalar.of(n, -p), Scalar.of(-m)]]


def curvature_from_triple(model, triple):
    """Invariant curvature form of the line bundle L(m,n,p)."""
    B = model.basis_form
    m, n, p = triple.m, triple.n, triple.p
    f = (B((0, 3)) - B((1, 4))).scale(m) \
        + (B((0, 4)) + B((1, 3))).scale(n) \
        + (B((0, 4)) - B((1, 3))).scale(Scalar.of(0, p))
    return f.scale(Scalar.pi())


def hermitian_curvature(model, M):
    """Curvature pi sum_{jk} M_{jk'} w_j ^ w_{k'} of a 2x2 Hermitian matrix."""
    out = model.zero()
    for j in range(2):
        for k in range(2):
            out = out + model.basis_form((j, k + 3), M[j][k])
    return out.scale(Scalar.pi())


class CohClass:
    """A cohomology class by invariant representative, closedness-checked."""

    def __init__(self, rep, flavor="bottChern"):
        if flavor not in ("deRham", "bottChern", "aeppli"):
            raise ValueError("unknown cohomology flavor %r" % flavor)
        if flavor == "aeppli":
            if not rep.dc().d().is_zero():
                raise ValueError("Aeppli representative is not dd^c-closed")
        else:
            if not rep.d().is_zero():
                raise ValueError("%s representative is not closed" % flavor)
        self.rep = rep
        self.flavor = flavor


def degree_and_slope(c, b, h):
    """Degree lambda(c ^ b) under the unit-volume normalization: the slope
    of a line bundle, whose rank is 1."""
    if c.rep.degree() not in (0, 2) or b.rep.degree() != 4:
        raise ValueError("slope pairing needs a 2-class against a 4-class")
    top = c.rep.wedge(b.rep)
    return h.integrate(top)


def ch2_constraint(model, F0, F1):
    """Decide whether F0^2 - F1^2 is in the image of dd^c on invariant (1,1)-forms.

    Returns (True, witness) with dd^c(witness) = F0^2 - F1^2, or (False, None).
    """
    for F in (F0, F1):
        if not F.d().is_zero():
            raise ValueError("curvature input is not closed")
        for pq in F.bigrade():
            if pq != (1, 1):
                raise ValueError("curvature input is not of bidegree (1,1)")
    n = model.n
    basis = [(j, k + n) for j in range(n) for k in range(n)]
    images = [model.basis_form(idx).dc().d() for idx in basis]
    target = F0.wedge(F0) - F1.wedge(F1)
    keys = sorted(set().union(*[set(f.terms) for f in images + [target]]))
    if not keys:
        return True, model.zero()
    rows = [[img.terms.get(key, Scalar.zero()) for img in images] for key in keys]
    rhs = [target.terms.get(key, Scalar.zero()) for key in keys]
    sol = solve(rows, rhs)
    if sol is None:
        return False, None
    witness = model.zero()
    for x, idx in zip(sol, basis):
        if not x.is_zero():
            witness = witness + model.basis_form(idx, x)
    return True, witness


def alpha_solve(F0, F1, h):
    """The unique alpha with dd^c omega = alpha (F0^2 - F1^2), exactly.

    Raises on degenerate coupling (the quadratic terms cancel) and when the
    two sides are not proportional.
    """
    lhs = h.ddc_omega
    rhs = F0.wedge(F0) - F1.wedge(F1)
    if rhs.is_zero():
        raise DegenerateCoupling("tr F0^2 = tr F1^2: no coupling constant exists")
    key, val = next(iter(rhs.terms.items()))
    alpha = lhs.terms.get(key, Scalar.zero()) * val.inverse()
    if rhs.scale(alpha) != lhs:
        raise ValueError("Bianchi sides are not proportional; no exact alpha")
    if alpha.is_zero():
        raise DegenerateCoupling("dd^c omega = 0 is incompatible with coupling")
    return alpha


class DegenerateCoupling(ValueError):
    """Raised when m_0^2+n_0^2+p_0^2 = m_1^2+n_1^2+p_1^2 (no alpha exists)."""


@dataclass(frozen=True)
class SystemParams:
    """One verifiable Hull-Strominger configuration and its Q-bundle objects.

    The Q-bundle objects below are built on first use and kept: the family
    is frozen, so they stay valid.
    """
    model: object
    h: object                 # HermitianStructure
    triple0: LineBundleTriple
    triple1: LineBundleTriple
    F0: InvariantForm
    F1: InvariantForm
    alpha: Scalar
    Omega: InvariantForm

    def __post_init__(self):
        if not self.alpha.is_real():
            raise ValueError("coupling constant must be real")
        if not self.Omega.d().is_zero():
            raise ValueError("holomorphic volume form must be closed")
        for pq in self.Omega.bigrade():
            if pq != (3, 0):
                raise ValueError("volume form must have bidegree (3,0)")

    @cached_property
    def frame(self):
        return QFrame(self.h, self.alpha)

    @cached_property
    def metric_H(self):
        return CompatibleMetricH(self.frame)

    @cached_property
    def connection(self):
        return connection_DG(self)

    @cached_property
    def connection_curvature(self):
        """F = dA + A ^ A of the connection D^G."""
        return curvature(self.connection)

    @cached_property
    def curvature_omega_sq(self):
        """8x8 Scalars c with F_ij ^ omega^2 = c_ij e_top, F as above."""
        return curvature_wedge_omega_sq(self)

    @cached_property
    def dolbeault(self):
        """The Dolbeault operator of Q in the extension frame."""
        return dolbeault_Q(self)

    @cached_property
    def bismut_iso(self):
        return bismut_iso_matrix(self.h)

    @cached_property
    def unitary_split(self):
        """(B, Psi): unitary part and self-adjoint 1-form of the connection."""
        return decompose_unitary(self.connection, self.metric_H)

    @cached_property
    def chern_split(self):
        """(C, phi) = (D^G - phi, 2 Psi^{1,0}), with Psi from unitary_split.

        The adjoint conjugates form entries, so (A^{*H})^{1,0} = (A^{0,1})^{*H}:
        no second adjoint, and C = A^{0,1} - (A^{0,1})^{*H} is unitary.
        """
        phi = self.unitary_split[1].part(1, 0).scale(Scalar.of(2))
        return self.connection - phi, phi


def hs_residuals(s: SystemParams):
    """The four Hull-Strominger residual forms.

    Returns (F0 ^ omega^2, F1 ^ omega^2, d(omega^2), dd^c omega - alpha F0^2
    + alpha F1^2).  The conformally-balanced residual d(|Omega| omega^2)
    equals the constant |Omega| times the third entry: |Omega| is constant
    on invariant data, so the zero locus is unchanged and the returned form
    keeps exact coefficients.  The metric h gives d(omega^2), dd^c omega
    and F_j ^ omega^2 (h.d_omega_sq, h.ddc_omega, h.wedge_omega_sq).
    """
    h = s.h
    bianchi = h.ddc_omega \
        - s.F0.wedge(s.F0).scale(s.alpha) + s.F1.wedge(s.F1).scale(s.alpha)
    return (h.wedge_omega_sq(s.F0), h.wedge_omega_sq(s.F1), h.d_omega_sq,
            bianchi)
