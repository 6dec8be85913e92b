"""Line bundles from integer triples and the Hull-Strominger residuals.

A triple (m,n,p) in Z^3 \\ {0} determines a purely imaginary invariant
(1,1)-curvature form pulled back from the torus base,

    F = pi (m (w_{11'} - w_{22'}) + n (w_{12'} + w_{21'}) + ip (w_{12'} - w_{21'})),

the curvature of a Hermitian holomorphic line bundle.  This module houses
the curvature map, Hermitian-Yang-Mills and Bianchi residuals, the exact
coupling constant solve, degree/slope pairings against balanced classes,
the second-Chern-character constraint, and the holomorphic-volume-form norm.

SystemParams is also the per-family context of the orthogonal bundle Q:
its frame, compatible metric H, connection D^G, the curvature of D^G, the
Dolbeault operator of Q and the unitary (B, Psi) and Chern (C, phi)
splittings of D^G are built on first use and kept, so every verifier of
one family reads the same objects.  The dataclass is frozen, which keeps
them valid, and none of them refers back to the family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt

from .scalars import Scalar, parse_scalar
from .cealg import InvariantForm, parse_form
from .hermitian import HermitianStructure, solve
from .algebroid import QFrame, connection_DG, curvature, dolbeault_Q
from .harmonic import CompatibleMetricH, decompose_chern, decompose_unitary


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

    def norm_sq(self):
        return self.m * self.m + self.n * self.n + self.p * self.p

    def dot(self, other):
        return self.m * other.m + self.n * other.n + self.p * other.p

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


def hym_residual(F, h):
    """F ^ omega^2; zero iff the bundle is Hermitian-Yang-Mills for omega."""
    return F.wedge(h.omega).wedge(h.omega)


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


def degree_and_slope(c, b, rank, h):
    """Slope lambda(c ^ b) / rank under the unit-volume normalization."""
    if c.rep.degree() not in (0, 2) or b.rep.degree() != 4:
        raise ValueError("slope pairing needs a 2-class against a 4-class")
    top = c.rep.wedge(b.rep)
    return h.integrate(top) * Scalar.of(Fraction(1, rank))


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
    lhs = h.omega.dc().d()
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
    tau_coeffs: tuple = (Fraction(0),) * 4

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
    def dolbeault(self):
        """The Dolbeault operator of Q in the extension frame."""
        return dolbeault_Q(self)

    @cached_property
    def unitary_split(self):
        """(B, Psi): unitary part and self-adjoint 1-form of the connection."""
        return decompose_unitary(self.connection, self.metric_H)

    @cached_property
    def chern_split(self):
        """(C, phi): Chern-type part and (1,0)-form field of the connection."""
        return decompose_chern(self.connection, self.metric_H)

    def to_json(self):
        return {
            "triple0": [self.triple0.m, self.triple0.n, self.triple0.p],
            "triple1": [self.triple1.m, self.triple1.n, self.triple1.p],
            "tau": [str(t) for t in self.tau_coeffs],
            "alpha": str(self.alpha),
            "omega": self.h.omega.literal(),
            "Omega": self.Omega.literal(),
        }

    @classmethod
    def from_json(cls, model, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        t0 = LineBundleTriple(*doc["triple0"], role="V0")
        t1 = LineBundleTriple(*doc["triple1"], role="V1")
        h = HermitianStructure(model, parse_form(model, doc["omega"]))
        return cls(
            model=model, h=h, triple0=t0, triple1=t1,
            F0=curvature_from_triple(model, t0),
            F1=curvature_from_triple(model, t1),
            alpha=parse_scalar(doc["alpha"]),
            Omega=parse_form(model, doc["Omega"]),
            tau_coeffs=tuple(Fraction(t) for t in doc.get("tau", ["0"] * 4)),
        )


def hs_residuals(s: SystemParams):
    """The four Hull-Strominger residual forms.

    Returns (F0 ^ omega^2, F1 ^ omega^2, d(omega^2), dd^c omega - alpha F0^2
    + alpha F1^2).  The conformally-balanced residual d(|Omega| omega^2)
    equals the constant |Omega| times the third entry: |Omega| is constant
    on invariant data, so the zero locus is unchanged and the returned form
    keeps exact coefficients.
    """
    h = s.h
    w2 = h.omega.wedge(h.omega)
    bianchi = h.omega.dc().d() \
        - s.F0.wedge(s.F0).scale(s.alpha) + s.F1.wedge(s.F1).scale(s.alpha)
    return (s.F0.wedge(w2), s.F1.wedge(w2), w2.d(), bianchi)


def omega_norm(Omega, h):
    """Norm of the holomorphic volume form from Omega ^ conj(Omega).

    Returns the pair (|Omega|^2, |Omega|).  Convention: Omega ^ conj(Omega)
    = -8 i |Omega|^2 omega^3/3!, calibrated so that |w_123| = 1 for the
    standard structure.  The square is exact; the norm is a float since the
    square root is generally irrational.
    """
    if Omega.is_zero():
        raise ValueError("volume form is zero")
    c_n = Scalar.of(0, -8)
    lhs = Omega.wedge(Omega.conjugate())
    norm_sq = h.integrate(lhs) * c_n.inverse()
    if not norm_sq.is_real():
        raise ValueError("norm square is not real")
    val = norm_sq.evalf().real
    if val <= 0:
        raise ValueError("norm square is not positive")
    return norm_sq, sqrt(val)


def conformally_balanced_residual(Omega, h):
    """d^c log |Omega| - d^* omega; the log term vanishes on invariant data."""
    omega_norm(Omega, h)  # validates constancy/positivity conventions
    return -h.codifferential(h.omega)
