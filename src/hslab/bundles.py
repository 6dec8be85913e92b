"""Line bundles from integer triples and the Hull-Strominger residuals.

A triple (m,n,p) in Z^3 \\ {0} determines a purely imaginary invariant
(1,1)-curvature form pulled back from the torus base,

    F = pi (m (w_{11'} - w_{22'}) + n (w_{12'} + w_{21'}) + ip (w_{12'} - w_{21'})),

the curvature of a Hermitian holomorphic line bundle.  This module houses
the curvature map, the Hermitian-Yang-Mills and Bianchi residuals and the
exact coupling constant solve.  The solve also decides the second Chern
character condition: when it succeeds, dd^c(omega/alpha) = F0^2 - F1^2,
so the difference is dd^c-exact with the real (1,1)-form omega/alpha as
potential (iwasawa._ch2_holds).  A line bundle's degree against the
balanced class [omega^2] is read off its HYM residual F ^ omega^2
(iwasawa.verify_family).

SystemParams is also the per-family context of the orthogonal bundle Q:
its compatible metric H, connection A = D^G, F_{D^G} ^ omega^2, the
Dolbeault operator of Q, S = A + A^{*H} = 2 Psi from the family's one
adjoint, the Higgs field phi = 2 Psi^{1,0} = S^{1,0} and the unitary split
(B, Psi) = (A - S/2, S/2) are built on first use and kept, so every
verifier of one family reads the same objects.  Only moment_I, moment_J
and the gap read the unitary split: K and phi read S.  The Chern-type
connection C = D^G - phi is not built: phi has type (1,0), so C^{0,1} =
(D^G)^{0,1}, and that is all of C the Higgs verdict reads.  F_{D^G} ^
omega^2 is read off the connection's components, so no curvature 2-form
is built.  Each attribute of a SystemParams is set once, which keeps them
valid, and none of them refers back to the family.  The coupling alpha is
checked once, at construction: a nonzero real monomial q pi^k, whose sign
is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .scalars import Scalar
from .cealg import InvariantForm
from .algebroid import connection_DG, dolbeault_Q, wedge_omega_sq_top
from .harmonic import CompatibleMetricH


class _Triple(NamedTuple):
    m: int
    n: int
    p: int
    role: str = "V0"


class LineBundleTriple(_Triple):
    """Integer curvature parameters of one line bundle summand."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the generated constructor takes the call forms, _make checks
        return cls._make(_Triple(*args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        """The triple of the given fields, as the constructor and _replace
        build it; the zero triple is a ValueError."""
        self = super()._make(iterable)
        if (self.m, self.n, self.p) == (0, 0, 0):
            raise ValueError("line bundle triple must be nonzero")
        return self


def curvature_from_triple(model, triple):
    """Invariant curvature form of the line bundle L(m,n,p)."""
    m, n, p = triple.m, triple.n, triple.p
    return InvariantForm(model, {(0, 3): Scalar.pi(1, m),
                                 (1, 4): Scalar.pi(1, -m),
                                 (0, 4): Scalar.pi(1, n, p),
                                 (1, 3): Scalar.pi(1, n, -p)})


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


class SystemParams:
    """One verifiable Hull-Strominger configuration and its Q-bundle objects.

    The Q-bundle objects below are built on first use and kept: no field
    can be assigned again, so they stay valid.
    """

    def __init__(self, model, h, triple0: LineBundleTriple,
                 triple1: LineBundleTriple, F0: InvariantForm,
                 F1: InvariantForm, alpha: Scalar, Omega: InvariantForm):
        # the metric needs alpha's sign, exact on monomials only
        if alpha.is_zero() or not (alpha.is_real() and alpha.is_monomial()):
            raise ValueError("coupling constant must be real and nonzero, "
                             "a monomial q pi^k: got %s" % alpha)
        if not Omega.d().is_zero():
            raise ValueError("holomorphic volume form must be closed")
        for pq in Omega.bigrade():
            if pq != (3, 0):
                raise ValueError("volume form must have bidegree (3,0)")
        self.model = model
        self.h = h                # HermitianStructure
        self.triple0 = triple0
        self.triple1 = triple1
        self.F0 = F0
        self.F1 = F1
        self.alpha = alpha
        self.Omega = Omega

    def __setattr__(self, name, *value):
        """Sets an attribute once: a field, in __init__.  Setting an
        attribute already set or a Q-bundle object (which cached_property
        writes to vars(self) itself), or deleting any attribute, is an
        AttributeError."""
        if not value or name in vars(self) or hasattr(SystemParams, name):
            raise AttributeError("SystemParams is frozen: cannot %s %s"
                                 % ("assign" if value else "delete", name))
        vars(self)[name] = value[0]

    __delattr__ = __setattr__

    @cached_property
    def metric_H(self):
        return CompatibleMetricH(self.h, self.alpha)

    @cached_property
    def connection(self):
        return connection_DG(self)

    @cached_property
    def curvature_omega_sq(self):
        """The sparse Scalar matrix c with F_ij ^ omega^2 = c_ij e_top, F =
        dA + A ^ A the curvature of D^G, read off the connection's
        components (the pairing with L = X = Y = A)."""
        A = self.connection
        return wedge_omega_sq_top(self.h, A, [(A, A)])

    @cached_property
    def dolbeault(self):
        """The Dolbeault operator of Q in the extension frame."""
        return dolbeault_Q(self)

    @cached_property
    def adjoint_sum(self):
        """S = A + A^{*H} = 2 Psi, A the connection: the family's one
        adjoint."""
        A = self.connection
        return A + self.metric_H.adjoint(A)

    @cached_property
    def unitary_split(self):
        """(B, Psi) = (A - S/2, S/2): unitary part and self-adjoint 1-form
        of the connection A, S = adjoint_sum."""
        Psi = self.adjoint_sum.scale(Scalar.of(Fraction(1, 2)))
        return self.connection - Psi, Psi

    @cached_property
    def higgs_field(self):
        """phi = 2 Psi^{1,0} = S^{1,0}, S = adjoint_sum: a (1,0)-form
        valued endomorphism, D^G = C + phi with C of Chern type."""
        return self.adjoint_sum.part(1, 0)


def hs_residuals(s: SystemParams):
    """The four Hull-Strominger residual forms.

    Returns (F0 ^ omega^2, F1 ^ omega^2, d(omega^2), dd^c omega - alpha F0^2
    + alpha F1^2).  The conformally-balanced residual d(|Omega| omega^2)
    equals the constant |Omega| times the third entry: |Omega| is constant
    on invariant data, so the zero locus is unchanged and the returned form
    keeps exact coefficients.  The metric h gives d(omega^2), dd^c omega
    and F_j ^ omega^2 = c_j e_top (h.d_omega_sq, h.ddc_omega, and c_j =
    h.omega_sq_top(F_j), read off the table (e_a ^ e_b ^ omega^2)_top).
    """
    h, top = s.h, s.model.top_index()
    bianchi = h.ddc_omega \
        - s.F0.wedge(s.F0).scale(s.alpha) + s.F1.wedge(s.F1).scale(s.alpha)
    hym = (s.model.basis_form(top, h.omega_sq_top(F)) for F in (s.F0, s.F1))
    return (*hym, h.d_omega_sq, bianchi)
