"""Concrete catalog on the Iwasawa manifold: families, verifiers, sweeps.

Backgrounds are parametrized by two nonzero integer triples (m, n, p), a
rational torus-direction deformation tau, and a Picard twist by two closed
invariant (0,1)-forms.  The family constructor assembles the deformed
Hermitian form, solves for the coupling constant exactly, and corrects the
metric by a closed torus (1,1)-form gamma so that the deformed family
solves the full system with zero remainder (the naive omega + tau family
fails the instanton equations at second order in tau; gamma is the unique
correction in the span of the two curvature directions).

Every family lives on one Iwasawa model with one SU(3) structure
(model, omega_0, Omega), built at import; build_iwasawa returns that tuple.
The HermitianStructure of omega_0 is built at import too: every family of
metric omega_0 (tau = 0, with any Picard twist) and the sweep's certificate
share it (omega0_structure).  The model and the structure are immutable,
so sharing them across families, the certificate and the selftest leaves
no state between calls.

verify_family produces an exact report over every displayed condition.
It reads one family's Q-bundle objects from the SystemParams that builds
each of them once: the frame and compatible metric H, the connection D^G
and its curvature, the Dolbeault operator, and the unitary (B, Psi) and
Chern (C, phi) splittings of D^G.

The sweep (iter_sweep) enumerates integer pairs in one process: one engine
certificate of the moment-map residual K, then closed-form records, row by
row.  K of a triple against its orthogonal partner is a polynomial of
degree <= 2 in the triple, so _certify_base proves it zero on every triple
from 30 exact engine runs on unisolvent samples and guards, at any --max.
A row is one triple t0 against every triple t1; _sweep_row makes its
records in one loop and returns them as one text, which iter_sweep yields
and the CLI writes with one write.  Memory is bounded by one row, not by
the record count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from fractions import Fraction
from itertools import product

from .scalars import Scalar
from .cealg import build_iwasawa_model
from .hermitian import HermitianStructure, matrix_inverse, solve
from .bundles import (LineBundleTriple, curvature_from_triple, alpha_solve,
                      ch2_constraint, CohClass, degree_and_slope,
                      SystemParams, hs_residuals)
from .algebroid import (QDIM, QSection, he_residual_G, extension_class_gamma,
                        subbundle_report)
from .harmonic import (harmonic_residual, harmonic_criteria, higgs_dbar_entry,
                       matrix_is_zero)


def su3_structure(model):
    """The canonical SU(3) data: balanced form omega_0 and volume Omega."""
    half_i = Scalar.of(0, Fraction(1, 2))
    omega0 = (model.basis_form((0, 3)) + model.basis_form((1, 4))
              + model.basis_form((2, 5))).scale(half_i)
    Omega = model.basis_form((0, 1, 2))
    return omega0, Omega


_MODEL = build_iwasawa_model()
_IWASAWA = (_MODEL, *su3_structure(_MODEL))
_OMEGA0_STRUCTURE = HermitianStructure(_MODEL, _IWASAWA[1])


def build_iwasawa():
    """The process's Iwasawa model and its SU(3) structure (model, omega_0,
    Omega): the same immutable objects on every call."""
    return _IWASAWA


def omega0_structure():
    """The process's HermitianStructure of omega_0, the same on every call."""
    return _OMEGA0_STRUCTURE


@dataclass(frozen=True)
class TauDeformation:
    """Real torus-fiber deformation tau = sum t_i tau_i of the metric."""
    t1: Fraction = Fraction(0)
    t2: Fraction = Fraction(0)
    t3: Fraction = Fraction(0)
    t4: Fraction = Fraction(0)

    def __post_init__(self):
        for t in self.coeffs():
            if abs(Fraction(t)) > Fraction(1, 2):
                raise ValueError("deformation coefficients must satisfy |t_i| <= 1/2")

    def coeffs(self):
        return (self.t1, self.t2, self.t3, self.t4)

    def is_zero(self):
        return all(t == 0 for t in self.coeffs())

    def form(self, model):
        i = Scalar.of(0, 1)
        tau1 = model.basis_form((0, 5)) - model.basis_form((2, 3))
        tau2 = (model.basis_form((0, 5)) + model.basis_form((2, 3))).scale(i)
        tau3 = model.basis_form((1, 5)) - model.basis_form((2, 4))
        tau4 = (model.basis_form((1, 5)) + model.basis_form((2, 4))).scale(i)
        out = model.zero()
        for t, basis in zip(self.coeffs(), (tau1, tau2, tau3, tau4)):
            if t:
                out = out + basis.scale(Scalar.of(Fraction(t)))
        return out


@dataclass(frozen=True)
class PicardPoint:
    """Flat twist of the two bundle metrics by closed invariant (0,1)-forms.

    Coefficients are over the closed coframe directions w_1', w_2' (the
    third direction is excluded: it is not Dolbeault-closed).
    """
    a0: tuple = (Scalar.zero(), Scalar.zero())
    a1: tuple = (Scalar.zero(), Scalar.zero())

    def forms(self, model):
        out = []
        for pair in (self.a0, self.a1):
            f = model.zero()
            for c, idx in zip(pair, (3, 4)):
                if not c.is_zero():
                    f = f + model.basis_form((idx,), c)
            out.append(f)
        return out


@dataclass(frozen=True)
class FamilyConfig:
    triple0: LineBundleTriple
    triple1: LineBundleTriple
    tau: TauDeformation = TauDeformation()
    picard: PicardPoint = PicardPoint()
    alpha: Scalar = None          # None: solve exactly from the anomaly equation
    correct: bool = True          # apply the exact gamma-correction to omega


@dataclass
class SolutionCandidate:
    params: SystemParams
    config: FamilyConfig
    tau_form: object
    gamma_form: object


def _gamma_correction(omega0, tau_form, F0, F1):
    """Closed torus (1,1)-form gamma with F_j ^ (tau^2 + 2 omega_0 ^ gamma) = 0.

    gamma is sought in the real span of the two curvature directions; the
    resulting family solves the instanton equations exactly, not just to
    second order.
    """
    i_over_pi = Scalar.of(0, 1) * Scalar.pi(-1)
    g_basis = [F0.scale(i_over_pi), F1.scale(i_over_pi)]
    tau_sq = tau_form.wedge(tau_form)
    two = Scalar.of(2)
    rows = []
    rhs = []
    for F in (F0, F1):
        rows.append([F.wedge(omega0).wedge(g).top_coeff() * two
                     for g in g_basis])
        rhs.append(-(F.wedge(tau_sq).top_coeff()))
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError("inconsistent correction system")
    x, y = sol
    return g_basis[0].scale(x) + g_basis[1].scale(y)  # scale(0) is zero


def make_family(cfg: FamilyConfig) -> SolutionCandidate:
    """Assemble the exact solution candidate for a family configuration."""
    model, omega0, Omega = build_iwasawa()
    F0 = curvature_from_triple(model, cfg.triple0)
    F1 = curvature_from_triple(model, cfg.triple1)
    # Picard twists shift the Chern connections by closed forms; the
    # curvatures pick up exact differentials, which vanish identically here.
    a0_form, a1_form = cfg.picard.forms(model)
    F0 = F0 + a0_form.d()
    F1 = F1 + a1_form.d()

    tau_form = cfg.tau.form(model)
    if cfg.correct and not cfg.tau.is_zero():
        gamma = _gamma_correction(omega0, tau_form, F0, F1)
    else:
        gamma = model.zero()
    omega = omega0 + tau_form + gamma
    try:
        h = (omega0_structure() if omega == omega0
             else HermitianStructure(model, omega))
    except ValueError as exc:
        raise ValueError("deformation is not positive: %s" % exc) from exc
    alpha = cfg.alpha
    if alpha is None:
        alpha = alpha_solve(F0, F1, h)
    params = SystemParams(model=model, h=h, triple0=cfg.triple0,
                          triple1=cfg.triple1, F0=F0, F1=F1, alpha=alpha,
                          Omega=Omega)
    return SolutionCandidate(params=params, config=cfg,
                             tau_form=tau_form, gamma_form=gamma)


@dataclass
class VerificationReport:
    """Exact verification record for one family."""
    family_id: str
    params: dict
    residuals: list
    verdicts: dict
    scalars: dict

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(**doc)

    def comparable(self):
        """Report content with the parameter echo stripped.

        Used for invariance assertions (Picard twists change the echo but
        no verified quantity).
        """
        d = asdict(self)
        d.pop("params")
        d.pop("family_id")
        return d

    def human_summary(self):
        lines = ["family %s" % self.family_id]
        for r in self.residuals:
            lines.append("  residual %-22s %s" % (r["name"],
                                                  "= 0" if r["zero"] else "!= 0 [%s]" % r["witness"]))
        for k in sorted(self.verdicts):
            lines.append("  verdict  %-22s %s" % (k, self.verdicts[k]))
        for k in sorted(self.scalars):
            v = self.scalars[k]
            lines.append("  scalar   %-22s %s (~ %s)" % (k, v["exact"], v["display"]))
        return "\n".join(lines)


def _residual_entry(name, form_or_matrix):
    """Zero flag and witness of a residual form or matrix (of scalars or forms).

    The witness of a matrix is its first nonzero entry in row order.
    """
    if isinstance(form_or_matrix, list):
        zero = matrix_is_zero(form_or_matrix)
        witness = ""
        if not zero:
            i, j, v = next((i, j, v) for i, row in enumerate(form_or_matrix)
                           for j, v in enumerate(row) if not v.is_zero())
            witness = "entry (%d,%d): %s" % (i, j, v)
    else:
        zero = form_or_matrix.is_zero()
        witness = "" if zero else form_or_matrix.literal()
    return {"name": name, "zero": zero, "witness": witness}


def _scalar_entry(value):
    return {"exact": str(value), "display": repr(value.evalf())}


def verify_family(candidate: SolutionCandidate) -> VerificationReport:
    """Run every exact verifier on an assembled family."""
    s = candidate.params
    model, h = s.model, s.h
    cfg = candidate.config

    residuals = []
    hs = hs_residuals(s)
    hs_names = ("hym_V0", "hym_V1", "balanced", "anomaly")
    for name, form in zip(hs_names, hs):
        residuals.append(_residual_entry(name, form))
    hs_ok = all(r["zero"] for r in residuals)

    he = he_residual_G(s)
    residuals.append(_residual_entry("hermitian_einstein_G", he.entries))
    he_ok = residuals[-1]["zero"]

    kres = harmonic_residual(s)
    residuals.append(_residual_entry("harmonic_K", kres))
    harmonic = residuals[-1]["zero"]
    crit = harmonic_criteria(s)
    residuals.append(_residual_entry("torsion_pairing", crit["torsion_pairing"]))
    residuals.append(_residual_entry("cross_coupling",
                                     [[crit["cross"]]]))

    gamma_ext = extension_class_gamma(s)
    residuals.append(_residual_entry("extension_class", gamma_ext.entries))
    gamma_nonzero = not residuals[-1]["zero"]

    # dbar_Q phi ^ omega^2 != 0?  Entry (6,7), the witness, nearly always decides
    dbar_23 = higgs_dbar_entry(s, 6, 7)
    residuals.append(_residual_entry("dbar_phi_23", dbar_23))
    higgs_nonholomorphic = not h.wedge_omega_sq(dbar_23).is_zero() or any(
        not h.wedge_omega_sq(higgs_dbar_entry(s, i, j)).is_zero()
        for i in range(QDIM) for j in range(QDIM) if (i, j) != (6, 7))

    # slope of the cotangent subbundle and degrees of the two line bundles
    b = CohClass(h.omega_sq, flavor="aeppli")
    P = s.bismut_iso
    span = [QSection(model, [P[a][5 + k] for a in range(QDIM)])
            for k in range(3)]
    rep = subbundle_report(s, span)
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    deg0 = degree_and_slope(CohClass(s.F0.scale(i_2pi)), b, h)
    deg1 = degree_and_slope(CohClass(s.F1.scale(i_2pi)), b, h)

    verdicts = {
        "hs_solution": hs_ok,
        "hermitian_einstein": he_ok,
        "harmonic": harmonic,
        "higgs_nonholomorphic": higgs_nonholomorphic,
        "extension_class_nonzero": gamma_nonzero,
        "cotangent_isotropic": rep["isotropic"],
        "cotangent_holomorphic_invariant": rep["holomorphic_invariant"],
    }
    scalars = {
        "alpha": _scalar_entry(s.alpha),
        "degree_L0": _scalar_entry(deg0),
        "degree_L1": _scalar_entry(deg1),
        "slope_cotangent": _scalar_entry(rep["slope"]),
    }
    t0, t1 = cfg.triple0, cfg.triple1
    family_id = "L0(%d,%d,%d)+L1(%d,%d,%d)" % (t0.m, t0.n, t0.p, t1.m, t1.n, t1.p)
    params = {
        "triple0": [t0.m, t0.n, t0.p],
        "triple1": [t1.m, t1.n, t1.p],
        "tau": [str(t) for t in cfg.tau.coeffs()],
        "picard": [str(c) for c in cfg.picard.a0 + cfg.picard.a1],
    }
    return VerificationReport(family_id=family_id, params=params,
                              residuals=residuals, verdicts=verdicts,
                              scalars=scalars)


# -- sweep ------------------------------------------------------------------

# max_abs ceiling: at 20, 68,920 triples precede the first of ~2.4e9 lines
SWEEP_MAX_ABS = 20


def _triples(max_abs):
    rng = range(-max_abs, max_abs + 1)
    return [t for t in product(rng, repeat=3) if t != (0, 0, 0)]


def _orthogonal_partner(t):
    m, n, p = t
    if (m, n) != (0, 0):
        return (n, -m, 0)
    return (1, 0, 0)


# Per branch of _orthogonal_partner: sample triples on which interpolation
# of degree <= 2 is unique (unisolvent), then a guard triple off them.
_SAMPLES = {
    "plane": ([(1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (2, 0, 0),
               (1, 1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, -1, 1)],
              (2, -1, 1)),
    "axis": ([(0, 0, 1), (0, 0, 2), (0, 0, -1)], (0, 0, -2)),
}


def _monomials(t):
    """1, x_i and x_i x_j (i <= j), x the variables of t's branch."""
    x = t if t[:2] != (0, 0) else t[2:]
    return [Scalar.of(v) for v in (1, *x)] + [
        Scalar.of(a * b) for i, a in enumerate(x) for b in x[i:]]


def _certify_base():
    """Engine certificate that the harmonicity base residual is zero.

    The moment-map residual of a pair is a part depending only on the
    triple of the self-adjoint block (linear in the coupling) plus a cross
    term on the off-diagonal End entries, alpha times the frame contraction
    of the curvatures.  The base part is the engine's K of the triple
    against an orthogonal partner (no cross term) at two couplings.

    At omega_0 and a fixed coupling the curvatures are linear in the
    triple, connection_DG is affine in them, the unitary split is linear
    and K = nabla_H_star(B, Psi) + i_{theta^sharp} Psi is bilinear in
    (B, Psi) plus linear in Psi: K is a polynomial of degree <= 2 in the
    triple's branch variables.  A polynomial of degree <= 2 that vanishes
    on a unisolvent set is zero, so the engine runs on each branch's
    samples only, at alpha = 1 and 2, and the guard checks the degree
    bound: 30 runs certify the base part zero on every triple at any --max.

    Raises ValueError (singular) before any engine run if a branch's
    samples are not unisolvent, and AssertionError if a sample's or a
    guard's K is nonzero.
    """
    for samples, _ in _SAMPLES.values():
        matrix_inverse([_monomials(t) for t in samples])
    model, _, Omega = build_iwasawa()
    h = omega0_structure()

    def engine_K_is_zero(triple, aval):
        t0 = LineBundleTriple(*triple, role="V0")
        t1 = LineBundleTriple(*_orthogonal_partner(triple), role="V1")
        s = SystemParams(model=model, h=h, triple0=t0, triple1=t1,
                         F0=curvature_from_triple(model, t0),
                         F1=curvature_from_triple(model, t1),
                         alpha=aval, Omega=Omega)
        K = harmonic_residual(s)
        # the cross entries must vanish for the orthogonal partner
        if not (K[6][7].is_zero() and K[7][6].is_zero()):
            raise AssertionError("cross term leaked into base computation")
        return matrix_is_zero(K)

    for samples, guard in _SAMPLES.values():
        for aval in (Scalar.one(), Scalar.of(2)):
            for t in samples:
                if not engine_K_is_zero(t, aval):
                    raise AssertionError("base K is nonzero at %s" % (t,))
            if not engine_K_is_zero(guard, aval):
                raise AssertionError("K is not of degree <= 2 in the triple")


# json.dumps(record, sort_keys=True) of a sweep record, keys in sorted
# order, and the newline that ends its catalog line.  dbar_phi_23 is nonzero
# on every pair: its End-block entry is -4 pi^2 |alpha| times a product whose
# components are dot(t0, t1) and those of t0 x t1 up to sign, and
# dot^2 + |t0 x t1|^2 = |t0|^2 |t1|^2 > 0 (Lagrange's identity)
_LINE = ('{"alpha": %s, "dbar_phi_23_nonzero": true, "flags": '
         '{"hermitian_einstein": true, "hs_solution": true}, '
         '"harmonic": %s, "params": {"triple0": %s, "triple1": %s}}\n')
_BOOL = (json.dumps(False), json.dumps(True))


def _sweep_row(t0, s0, j0, cols, alphas, require_harmonic=False):
    """(text, records, harmonic) of the row t0: its pairs (t0, t1), t1 in cols.

    text is the row's catalog lines in cols order, each ending in a newline;
    records counts them and harmonic counts those with a harmonic verdict.
    A pair of equal squared norms has no line (its coupling is degenerate),
    and with require_harmonic neither has a non-harmonic pair.  s0 and j0 are
    the squared norm and JSON text of t0; cols holds (t1, s1, j1) likewise,
    computed once per sweep.  alphas: s0 - s1 -> JSON text of alpha, a
    per-sweep cache (the literal depends on that difference alone).
    """
    m0, n0, p0 = t0
    lines = []
    harmonic = 0
    for t1, s1, j1 in cols:
        if s0 == s1:
            continue
        m1, n1, p1 = t1
        # K is its base part, zero by _certify_base, plus the cross term:
        # |alpha| times the frame contraction of the two curvatures,
        # -16 pi^2 |alpha| dot, on the End off-diagonal entries; alpha != 0,
        # so K vanishes iff dot == 0
        harm = m0 * m1 + n0 * n1 + p0 * p1 == 0
        if require_harmonic and not harm:
            continue
        alpha = alphas.get(s0 - s1)
        if alpha is None:
            alpha = alphas[s0 - s1] = json.dumps(
                str(Scalar.pi(-2, Fraction(1, 2 * (s0 - s1)))))
        lines.append(_LINE % (alpha, _BOOL[harm], j0, j1))
        harmonic += harm
    return "".join(lines), len(lines), harmonic


def _ch2_holds():
    """Whether F0^2 - F1^2 is dd^c-exact, decided once for every pair.

    F(t)^2 = 2 pi^2 |t|^2 w_{121'2'} for every triple t (the selftest's
    F(m,n,p)^2 identity), so each pair's target is a nonzero multiple of one
    4-form and any one pair decides the whole sweep.
    """
    model, _, _ = build_iwasawa()
    F0 = curvature_from_triple(model, LineBundleTriple(1, 0, 0, role="V0"))
    F1 = curvature_from_triple(model, LineBundleTriple(1, 1, 0, role="V1"))
    return ch2_constraint(model, F0, F1)[0]


def iter_sweep(max_abs, require_harmonic=False, require_ch2=False, raw=False):
    """The sweep catalog as (text, records, harmonic), one tuple per row.

    Pairs of triples in [-max_abs, max_abs]^3 in deterministic lexicographic
    parameter order, identified up to simultaneous sign flips unless raw is
    set; byte-stable for fixed arguments.  require_ch2 keeps only pairs whose
    F0^2 - F1^2 is dd^c-exact: every pair here (_ch2_holds).  A row is one
    triple t0 against every triple t1 (_sweep_row); rows come in catalog
    order, and with raw unset only the canonical ones.  The engine
    certificate of the base residual comes first (_certify_base, skipped when
    there are no triples); then each row's lines are yielded as one text as
    soon as they are made, so memory is bounded by one row, at most
    (2 max_abs + 1)^3 - 1 lines.
    """
    if not 0 <= max_abs <= SWEEP_MAX_ABS:
        raise ValueError("max_abs must be between 0 and %d" % SWEEP_MAX_ABS)
    if require_ch2 and not _ch2_holds():
        return
    triples = _triples(max_abs)
    if triples:
        _certify_base()
    alphas = {}
    cols = [(t, sum(x * x for x in t), json.dumps(list(t))) for t in triples]
    for t0, s0, j0 in cols:
        # (t0, t1) is canonical iff (t0, t1) <= (-t0, -t1); t0 != -t0 for a
        # nonzero t0, so that is t0 < -t0, decided once per row
        if raw or t0 < tuple(-x for x in t0):
            yield _sweep_row(t0, s0, j0, cols, alphas, require_harmonic)
