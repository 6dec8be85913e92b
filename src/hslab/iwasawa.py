"""Concrete catalog on the Iwasawa manifold: families, verifiers, sweeps.

Backgrounds are parametrized by two nonzero integer triples (m, n, p), a
rational torus-direction deformation tau, and a Picard twist by two closed
invariant (0,1)-forms.  The family constructor assembles the deformed
Hermitian form, solves for the coupling constant exactly, and corrects the
metric by a closed torus (1,1)-form gamma so that the deformed family
solves the full system with zero remainder (the naive omega + tau family
fails the instanton equations at second order in tau; gamma is the unique
correction in the span of the two curvature directions).

verify_family produces an exact report over every displayed condition.
It reads one family's Q-bundle objects from the SystemParams that builds
each of them once: the frame and compatible metric H, the connection D^G
and its curvature, the Dolbeault operator, and the unitary (B, Psi) and
Chern (C, phi) splittings of D^G.

sweep enumerates integer pairs and certifies harmonicity through an
engine decomposition of the moment-map residual, in two steps on one code
path (iter_sweep): per-triple engine flags (_base_flags, contiguous chunks
of the triples), then per-pair records, one task per row of pairs with the
same first triple.  Both steps map their tasks in order through a process
pool of at most os.cpu_count() workers, or through the builtin map when
that is one.  Records are yielded row by row, so the catalog is streamed:
the pairs are never listed and memory does not grow with the record count.
sweep() is list(iter_sweep(...)).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, asdict
from fractions import Fraction
from concurrent.futures import ProcessPoolExecutor

from .scalars import Scalar
from .cealg import build_iwasawa_model
from .hermitian import HermitianStructure, solve
from .bundles import (LineBundleTriple, curvature_from_triple, alpha_solve,
                      ch2_constraint, CohClass, degree_and_slope,
                      SystemParams, hs_residuals)
from .algebroid import (QDIM, QSection, he_residual_G, extension_class_gamma,
                        bismut_iso_matrix, subbundle_report)
from .harmonic import (harmonic_residual, harmonic_criteria, higgs_dbar,
                       higgs_obstruction, matrix_is_zero)


def su3_structure(model):
    """The canonical SU(3) data: balanced form omega_0 and volume Omega."""
    half_i = Scalar.of(0, Fraction(1, 2))
    omega0 = (model.basis_form((0, 3)) + model.basis_form((1, 4))
              + model.basis_form((2, 5))).scale(half_i)
    Omega = model.basis_form((0, 1, 2))
    return omega0, Omega


def build_iwasawa():
    """Iwasawa model together with its SU(3) structure (model, omega_0, Omega)."""
    model = build_iwasawa_model()
    omega0, Omega = su3_structure(model)
    return model, omega0, Omega


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

    def is_zero(self):
        return all(c.is_zero() for c in self.a0 + self.a1)

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


def _gamma_correction(model, omega0, tau_form, F0, F1):
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
    gamma = model.zero()
    if not x.is_zero():
        gamma = gamma + g_basis[0].scale(x)
    if not y.is_zero():
        gamma = gamma + g_basis[1].scale(y)
    return gamma


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
        gamma = _gamma_correction(model, omega0, tau_form, F0, F1)
    else:
        gamma = model.zero()
    omega = omega0 + tau_form + gamma
    try:
        h = HermitianStructure(model, omega)
    except ValueError as exc:
        raise ValueError("deformation is not positive: %s" % exc) from exc
    if cfg.alpha is not None:
        alpha = cfg.alpha
    else:
        alpha = alpha_solve(F0, F1, h)
    params = SystemParams(model=model, h=h, triple0=cfg.triple0,
                          triple1=cfg.triple1, F0=F0, F1=F1, alpha=alpha,
                          Omega=Omega,
                          tau_coeffs=tuple(Fraction(t) for t in cfg.tau.coeffs()))
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

    dbar_phi = higgs_dbar(s)
    residuals.append(_residual_entry("dbar_phi_23", dbar_phi.entries[6][7]))
    higgs_nonholomorphic = not higgs_obstruction(s, dbar_phi).is_zero()

    # slope of the cotangent subbundle and degrees of the two line bundles
    w2 = h.omega.wedge(h.omega)
    b = CohClass(w2, flavor="aeppli")
    P = bismut_iso_matrix(h)
    span = [QSection(model, [P[a][5 + k] for a in range(QDIM)])
            for k in range(3)]
    rep = subbundle_report(s, span, b_class=b)
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    deg0 = degree_and_slope(CohClass(s.F0.scale(i_2pi)), b, 1, h)
    deg1 = degree_and_slope(CohClass(s.F1.scale(i_2pi)), b, 1, h)

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

def _triples(max_abs):
    rng = range(-max_abs, max_abs + 1)
    out = []
    for m in rng:
        for n in rng:
            for p in rng:
                if (m, n, p) != (0, 0, 0):
                    out.append((m, n, p))
    return out


def _orthogonal_partner(t):
    m, n, p = t
    if (m, n) != (0, 0):
        return (n, -m, 0)
    return (1, 0, 0)


def _base_flags(triples):
    """Per-triple engine certification of the harmonicity base residual.

    The moment-map residual of a pair splits into a part depending only on
    the triple carried by the self-adjoint block (a function linear in the
    coupling constant) plus a cross term supported on the two off-diagonal
    End entries, proportional to alpha times the frame contraction of the
    curvatures.  The base part is evaluated by the engine at two couplings
    per triple against an orthogonal partner (where the cross term provably
    vanishes) and extrapolated linearly.

    Returns {triple: base part is zero}.  Each flag is a pure function of
    its triple, so chunks of the triples can be flagged in any process and
    the dicts merged.
    """
    model, omega0, Omega = build_iwasawa()
    h = HermitianStructure(model, omega0)
    flags = {}
    for triple in triples:
        t0 = LineBundleTriple(*triple, role="V0")
        t1 = LineBundleTriple(*_orthogonal_partner(triple), role="V1")
        F0 = curvature_from_triple(model, t0)
        F1 = curvature_from_triple(model, t1)
        flat = True
        for aval in (Scalar.one(), Scalar.of(2)):
            s = SystemParams(model=model, h=h, triple0=t0, triple1=t1,
                             F0=F0, F1=F1, alpha=aval, Omega=Omega)
            K = harmonic_residual(s)
            # the cross entries must vanish for the orthogonal partner
            if not (K[6][7].is_zero() and K[7][6].is_zero()):
                raise AssertionError("cross term leaked into base computation")
            if not matrix_is_zero(K):
                flat = False
        flags[triple] = flat
    return flags


def _canonical(pair):
    t0, t1 = pair
    flipped = (tuple(-x for x in t0), tuple(-x for x in t1))
    return pair <= flipped


def _sweep_record(pair, base_flags):
    t0, t1 = pair
    s0 = sum(x * x for x in t0)
    s1 = sum(x * x for x in t1)
    if s0 == s1:
        return None
    alpha = Scalar.pi(-2, Fraction(1, 2 * (s0 - s1)))
    dot = sum(a * b for a, b in zip(t0, t1))
    # cross term of the K residual: |alpha| times the frame contraction of
    # the two curvatures, supported on the End off-diagonal entries
    sgn = 1 if s0 > s1 else -1
    cross = alpha * Scalar.pi(2, -16 * sgn * dot)
    psi_triple = t0 if s0 > s1 else t1
    base_zero = base_flags[psi_triple]
    harmonic = base_zero and cross.is_zero()
    # holomorphicity obstruction: the End-block entry of dbar phi in closed
    # form is -4 pi^2 |alpha| (Mb Ms)_{jk} with Mb the heavier factor;
    # nonzero iff the product is nonzero, which holds whenever both triples
    # are nonzero (the matrices are invertible), and the zero locus of the
    # four components below is insensitive to the factor order
    m0, n0, p0 = t0
    m1, n1, p1 = t1
    e11 = (m0 * m1 + n0 * n1 + p0 * p1, p0 * n1 - n0 * p1)
    e12 = (m0 * n1 - m1 * n0, m0 * p1 - m1 * p0)
    dphi_nonzero = any(v != 0 for v in e11 + e12)
    return {
        "params": {"triple0": list(t0), "triple1": list(t1)},
        "alpha": str(alpha),
        "flags": {"hs_solution": True, "hermitian_einstein": True},
        "harmonic": harmonic,
        "dbar_phi_23_nonzero": dphi_nonzero,
    }


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


def _chunks(items, n):
    """items split into at most n contiguous runs, in order."""
    size = max(1, (len(items) + n - 1) // n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _row_records(args):
    """Records of the pairs (t0, t1), t1 over every triple in order: one row."""
    t0, triples, raw, base_flags = args
    out = []
    for t1 in triples:
        pair = (t0, t1)
        if raw or _canonical(pair):
            rec = _sweep_record(pair, base_flags)
            if rec is not None:
                out.append(rec)
    return out


def iter_sweep(max_abs, require_harmonic=False, require_ch2=False, raw=False,
               threads=1):
    """The records of sweep(), yielded one at a time in the same order.

    The engine flags of every triple are computed first (_base_flags, in
    chunks).  Then each row of pairs, one per first triple t0, is a task;
    rows are mapped in order and each is yielded as soon as it is back, so
    memory holds the rows done but not yet consumed, never a list of all
    pairs or records.  threads > 1 runs both steps in one process pool of
    min(threads, os.cpu_count(), number of triples) workers; otherwise both
    run in this process.
    """
    if max_abs < 0:
        raise ValueError("max_abs must be nonnegative")
    if require_ch2 and not _ch2_holds():
        return
    triples = _triples(max_abs)
    workers = max(1, min(threads or 1, os.cpu_count() or 1, len(triples)))
    pool = (ProcessPoolExecutor(max_workers=workers) if workers > 1
            else contextlib.nullcontext())
    with pool as ex:
        run = ex.map if ex is not None else map
        flags = {}
        for part in run(_base_flags, _chunks(triples, workers)):
            flags.update(part)
        rows = ((t0, triples, raw, flags) for t0 in triples)
        for row in run(_row_records, rows):
            for rec in row:
                if rec["harmonic"] or not require_harmonic:
                    yield rec


def sweep(max_abs, require_harmonic=False, require_ch2=False, raw=False,
          threads=1):
    """Enumerate integer families and report exact verdicts per pair.

    Returns a list of JSON-ready records in deterministic lexicographic
    parameter order (pairs identified up to simultaneous sign flips unless
    raw is set).  The result is byte-stable for fixed arguments, whatever
    the thread count.  threads > 1 runs the work in a process pool of
    min(threads, os.cpu_count()) workers.  require_ch2 keeps only pairs
    whose F0^2 - F1^2 is dd^c-exact, which on this model is every pair
    (see _ch2_holds).  iter_sweep yields the same records one at a time.
    """
    return list(iter_sweep(max_abs, require_harmonic=require_harmonic,
                           require_ch2=require_ch2, raw=raw, threads=threads))
