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
each of them once: the compatible metric H, the connection A = D^G and
its F ^ omega^2, the Dolbeault operator, S = A + A^{*H} from the family's
one adjoint, and the Higgs field phi = S^{1,0}; it builds no unitary
split.

The sweep (iter_sweep) enumerates integer pairs in one process: one engine
certificate of the moment-map residual K, then closed-form records, row by
row.  K of a triple against its orthogonal partner is a polynomial of
degree <= 2 in the triple, so _certify_base proves it zero on every triple
from 30 exact engine runs on unisolvent samples and guards, at any --max,
and checks by one anomaly solve that F0^2 - F1^2 is dd^c-exact (one pair
decides every pair).  A row is one triple t0 against every triple t1;
_sweep_row builds its record heads once per squared norm of t1 and
verdict, puts the non-harmonic head of each column by its norm into a
per-sweep list that alternates head slots with t1's tails (_columns,
built once per sweep), and puts in the harmonic heads only at the columns
on the plane t0 . t1 = 0, which it enumerates (_orthogonal) instead of
testing every column.  The list is joined once into the row's text, which iter_sweep
yields and the CLI writes with one write.  Memory is bounded by one row
and the per-sweep columns, not by the record count.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .scalars import Scalar
from .cealg import build_iwasawa_model
from .hermitian import HermitianStructure, _nonzero, matrix_inverse, solve
from .bundles import (LineBundleTriple, curvature_from_triple, alpha_solve,
                      SystemParams, hs_residuals)
from .algebroid import he_residual_G, extension_class_gamma, subbundle_report
from .harmonic import (harmonic_residual, harmonic_criteria, higgs_dbar_entry,
                       higgs_obstruction)


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


class _Tau(NamedTuple):
    t1: Fraction = Fraction(0)
    t2: Fraction = Fraction(0)
    t3: Fraction = Fraction(0)
    t4: Fraction = Fraction(0)


class TauDeformation(_Tau):
    """Real torus-fiber deformation tau = sum t_i tau_i of the metric."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the generated constructor takes the call forms, _make checks
        return cls._make(_Tau(*args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        """The deformation of the given coefficients, as the constructor and
        _replace build it; a coefficient above 1/2 in size is a ValueError."""
        self = super()._make(iterable)
        for t in self.coeffs():
            if abs(Fraction(t)) > Fraction(1, 2):
                raise ValueError("deformation coefficients must satisfy |t_i| <= 1/2")
        return self

    def coeffs(self):
        return (self.t1, self.t2, self.t3, self.t4)

    def is_zero(self):
        return all(t == 0 for t in self.coeffs())

    def form(self, model):
        """sum t_k tau_k over the t_k != 0: tau_1 = w1^w3' - w3^w1', tau_2 =
        i (w1^w3' + w3^w1'), and tau_3, tau_4 the same with w2 for w1."""
        out = model.zero()
        for k, t in enumerate(self.coeffs()):
            if t:
                c = Scalar.of(0, t) if k % 2 else Scalar.of(t)
                x, y = ((0, 5), (2, 3)) if k < 2 else ((1, 5), (2, 4))
                out = out + model.basis_form(x, c) \
                    + model.basis_form(y, c if k % 2 else -c)
        return out


class PicardPoint(NamedTuple):
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


class FamilyConfig(NamedTuple):
    triple0: LineBundleTriple
    triple1: LineBundleTriple
    tau: TauDeformation = TauDeformation()
    picard: PicardPoint = PicardPoint()
    alpha: Scalar = None          # None: solve exactly from the anomaly equation
    correct: bool = True          # apply the exact gamma-correction to omega


class SolutionCandidate(NamedTuple):
    params: SystemParams
    config: FamilyConfig
    tau_form: object
    gamma_form: object


def _gamma_correction(omega0, tau_form, F0, F1):
    """Closed torus (1,1)-form gamma with F_j ^ (tau^2 + 2 omega_0 ^ gamma) = 0.

    gamma is sought in the real span of the two curvature directions; the
    resulting family solves the instanton equations exactly, not just to
    second order.  Each entry is a top_pairing, so no 6-form is built.
    """
    i_over_pi = Scalar.of(0, 1) * Scalar.pi(-1)
    g_basis = [F0.scale(i_over_pi), F1.scale(i_over_pi)]
    tau_sq = tau_form.wedge(tau_form)
    two = Scalar.of(2)
    rows = [[F_omega0.top_pairing(g) * two for g in g_basis]
            for F_omega0 in (F0.wedge(omega0), F1.wedge(omega0))]
    rhs = [-F.top_pairing(tau_sq) for F in (F0, F1)]
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


class VerificationReport(NamedTuple):
    """Exact verification record for one family."""
    family_id: str
    params: dict
    residuals: list
    verdicts: dict
    scalars: dict

    def to_json(self):
        return json.dumps(self._asdict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(**doc)

    def comparable(self):
        """Report content with the parameter echo stripped.

        Used for invariance assertions (Picard twists change the echo but
        no verified quantity).  The dict shares its values with the report.
        """
        return {"residuals": self.residuals, "verdicts": self.verdicts,
                "scalars": self.scalars}

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


def _residual_entry(name, form_or_matrix, shown=str):
    """Zero flag and witness of a residual form or sparse matrix.

    A matrix is the dict {(i, j): v} of its nonzero entries (Scalars or
    forms), zero iff empty; its witness is shown(v) at min(keys), the
    first nonzero entry in row order whatever the dict's insertion order.
    """
    if isinstance(form_or_matrix, dict):
        zero = not form_or_matrix
        witness = ""
        if not zero:
            i, j = min(form_or_matrix)
            witness = "entry (%d,%d): %s" % (i, j, shown(form_or_matrix[i, j]))
    else:
        zero = form_or_matrix.is_zero()
        witness = "" if zero else form_or_matrix.literal()
    return {"name": name, "zero": zero, "witness": witness}


def _scalar_entry(value):
    return {"exact": str(value), "display": repr(value.evalf())}


def verify_family(candidate: SolutionCandidate) -> VerificationReport:
    """Run every exact verifier on an assembled family.

    What depends on the metric alone is read off s.h, built once per
    metric: the Aeppli check of [omega^2] (h.ddc_omega_sq) and the
    cotangent span of subbundle_report.  The degrees of the closed F_j are
    (i/2pi) lambda(F_j ^ omega^2), read off the HYM residuals of
    hs_residuals.  A nonzero h.ddc_omega_sq or a curvature F_j that is not
    closed is a ValueError before any verifier runs.  The Higgs verdict
    pairs the dbar_phi_23 witness with omega^2 (entry (6,7) of
    dbar_Q phi ^ omega^2) and builds the whole matrix (higgs_obstruction)
    only when that is zero.
    """
    s = candidate.params
    h = s.h
    cfg = candidate.config
    if not h.ddc_omega_sq.is_zero():
        raise ValueError("Aeppli representative is not dd^c-closed")
    if not (s.F0.d().is_zero() and s.F1.d().is_zero()):
        raise ValueError("a degree pairs closed 2-forms only")

    residuals = []
    hs = hs_residuals(s)
    hs_names = ("hym_V0", "hym_V1", "balanced", "anomaly")
    for name, form in zip(hs_names, hs):
        residuals.append(_residual_entry(name, form))
    hs_ok = all(r["zero"] for r in residuals)

    top = s.model.top_index()  # an entry c is shown as the form c e_top
    residuals.append(_residual_entry("hermitian_einstein_G", he_residual_G(s),
                                     lambda c: s.model.basis_form(top, c)))
    he_ok = residuals[-1]["zero"]

    kres = harmonic_residual(s)
    residuals.append(_residual_entry("harmonic_K", kres))
    harmonic = residuals[-1]["zero"]
    crit = harmonic_criteria(s)
    residuals.append(_residual_entry("torsion_pairing", crit["torsion_pairing"]))
    residuals.append(_residual_entry("cross_coupling",
                                     _nonzero({(0, 0): crit["cross"]})))

    residuals.append(_residual_entry("extension_class",
                                     extension_class_gamma(s)))
    gamma_nonzero = not residuals[-1]["zero"]

    # dbar_Q phi ^ omega^2 != 0?  Its entry (6,7) is witness ^ omega^2
    witness = higgs_dbar_entry(s, 6, 7)
    residuals.append(_residual_entry("dbar_phi_23", witness))
    higgs_nonholomorphic = (not h.omega_sq_top(witness).is_zero()
                            or bool(higgs_obstruction(s)))

    # slope of the cotangent subbundle and degrees of the two line bundles
    rep = subbundle_report(s)
    i_2pi = Scalar.of(0, Fraction(1, 2)) * Scalar.pi(-1)
    deg0, deg1 = (h.integrate(F_omega_sq) * i_2pi for F_omega_sq in hs[:2])

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


def _base_K_is_zero(triple, alpha):
    """Whether K of the triple against its orthogonal partner, at omega_0
    and the coupling alpha, is zero; a cross entry is an AssertionError."""
    model, _, Omega = _IWASAWA
    t0 = LineBundleTriple(*triple, role="V0")
    t1 = LineBundleTriple(*_orthogonal_partner(triple), role="V1")
    K = harmonic_residual(SystemParams(
        model=model, h=_OMEGA0_STRUCTURE, triple0=t0, triple1=t1,
        F0=curvature_from_triple(model, t0),
        F1=curvature_from_triple(model, t1), alpha=alpha, Omega=Omega))
    if (6, 7) in K or (7, 6) in K:
        raise AssertionError("cross term leaked into base computation")
    return not K


def _certify_base():
    """Engine certificate that the harmonicity base residual is zero for
    every positive coupling.

    The moment-map residual of a pair is a part depending only on the
    triple of the self-adjoint block plus a cross term on the off-diagonal
    End entries, alpha times the frame contraction of the curvatures.  The
    base part is the engine's K of the triple against an orthogonal
    partner (_base_K_is_zero) at two couplings.

    At omega_0 and a fixed coupling the curvatures are linear in the
    triple, A = connection_DG and S = A + A^{*H} are affine in them, and K
    is bilinear in (A, S) plus linear in S (moment_residuals): a
    polynomial of degree <= 2 in the triple's branch variables.  One that
    vanishes on a unisolvent set is zero, so the engine runs on each
    branch's samples only, and the guard checks the degree bound.  On each
    sign of alpha, the entries of S at (a, e), a in T and e in End, are
    linear in |alpha| (alpha in A, |alpha| in H) and the others constant;
    no two (a, e) entries multiply, so K is affine in |alpha|.  The 30 runs
    at alpha = 1 and 2 thus certify the base part zero on every triple at
    any --max for alpha > 0 only; a test runs the check at -1 and -2.
    Last, _ch2_holds checks by the anomaly solve behind the catalog's
    hs_solution that F0^2 - F1^2 is dd^c-exact for every pair.

    Raises ValueError (singular) before any engine run if a branch's
    samples are not unisolvent, and AssertionError if a sample's or a
    guard's K is nonzero or the dd^c check fails.
    """
    for samples, _ in _SAMPLES.values():
        matrix_inverse([_monomials(t) for t in samples])
    for samples, guard in _SAMPLES.values():
        for aval in (Scalar.one(), Scalar.of(2)):
            for t in samples:
                if not _base_K_is_zero(t, aval):
                    raise AssertionError("base K is nonzero at %s" % (t,))
            if not _base_K_is_zero(guard, aval):
                raise AssertionError("K is not of degree <= 2 in the triple")
    if not _ch2_holds():
        raise AssertionError("F0^2 - F1^2 is not dd^c-exact")


# json.dumps(record, sort_keys=True) of a sweep record up to the text of
# triple0, keys in sorted order; a catalog line is this prefix, the row's
# json.dumps(triple0) + ', "triple1": ' and the column's tail,
# json.dumps(triple1) + "}}\n".  dbar_phi_23 is nonzero on
# every pair: its End-block entry is -4 pi^2 |alpha| times a product whose
# components are dot(t0, t1) and those of t0 x t1 up to sign, and
# dot^2 + |t0 x t1|^2 = |t0|^2 |t1|^2 > 0 (Lagrange's identity)
_HEAD = ('{"alpha": %s, "dbar_phi_23_nonzero": true, "flags": '
         '{"hermitian_einstein": true, "hs_solution": true}, '
         '"harmonic": %s, "params": {"triple0": ')


def _orthogonal(t0, max_abs):
    """The triples t1 of _triples(max_abs) with t0 . t1 = 0, for a nonzero t0.

    One coordinate k of t0 is nonzero: the other two coordinates of t1 range
    over [-max_abs, max_abs] and fix t1[k], kept when it is an integer in
    range and t1 is nonzero, so (2 max_abs + 1)^2 candidates are tried, not
    (2 max_abs + 1)^3.  Ordered by those two coordinates.
    """
    k = next(i for i, x in enumerate(t0) if x)
    c, (i, j) = t0[k], [x for x in range(3) if x != k]
    a, b = t0[i], t0[j]
    rng = range(-max_abs, max_abs + 1)
    out = []
    for x in rng:
        for y in rng:
            z, r = divmod(-(a * x + b * y), c)
            if not r and -max_abs <= z <= max_abs and (x or y or z):
                t1 = [0, 0, 0]
                t1[i], t1[j], t1[k] = x, y, z
                out.append(tuple(t1))
    return out


def _columns(triples, max_abs):
    """The per-sweep columns (norms, by_norm, pieces, position, max_abs) of
    the triples, every one in [-max_abs, max_abs]^3.

    Column i is the triple t1 = triples[i]: norms[i] is its squared norm,
    position maps t1 to i, and by_norm lists the columns of each squared
    norm.  pieces holds two strings per column: a head slot at 2 i, empty
    here and filled by _sweep_row row by row, and at 2 i + 1 the tail
    json.dumps(t1) + "}}\n" that ends each of the column's lines.
    """
    norms = [sum(x * x for x in t) for t in triples]
    by_norm = {}
    for i, s in enumerate(norms):
        by_norm.setdefault(s, []).append(i)
    pieces = [""] * (2 * len(triples))
    pieces[1::2] = [json.dumps(list(t)) + "}}\n" for t in triples]
    return (norms, by_norm, pieces, {t: i for i, t in enumerate(triples)},
            max_abs)


def _sweep_row(t0, s0, j0, cols, prefixes, require_harmonic=False):
    """(text, records, harmonic) of the row t0: its pairs (t0, t1), t1 in cols.

    text is the row's catalog lines in column order, each ending in a
    newline; records counts them and harmonic counts those with a harmonic
    verdict.  A pair of equal squared norms has no line (its coupling is
    degenerate), and with require_harmonic neither has a non-harmonic pair.
    s0 and j0 are the squared norm and JSON text of t0; cols is the
    sweep's _columns.  prefixes, filled per sweep, maps s0 - s1 to the
    _HEAD texts of the non-harmonic and the harmonic verdict (alpha's
    literal depends on that difference alone).

    A line is a head, everything before its column's tail, and the tail.
    The row builds its heads once per squared norm and verdict (s0's head
    is empty) and fills every head slot of pieces with one slice
    assignment, each column's non-harmonic head by its norm.  Only the
    harmonic columns, the plane t0 . t1 = 0 (_orthogonal), are then
    visited to put in their harmonic heads, and harmonic counts them.  The
    tails of s0's columns are blanked, pieces is joined once and those
    tails are put back, so the next row finds every tail in place.  With
    require_harmonic only the plane's lines are joined, in column order.
    """
    norms, by_norm, pieces, position, max_abs = cols
    mid = j0 + ', "triple1": '
    plain, on_plane = {s0: ""}, {s0: None}
    for s1 in by_norm:
        if s1 != s0:
            pair = prefixes.get(s0 - s1)
            if pair is None:
                alpha = json.dumps(
                    str(Scalar.pi(-2, Fraction(1, 2 * (s0 - s1)))))
                pair = prefixes[s0 - s1] = (_HEAD % (alpha, "false"),
                                            _HEAD % (alpha, "true"))
            plain[s1] = pair[0] + mid
            on_plane[s1] = pair[1] + mid
    # K is its base part, zero by _certify_base, plus the cross term:
    # |alpha| times the frame contraction of the two curvatures,
    # -16 pi^2 |alpha| dot, on the End off-diagonal entries; alpha != 0,
    # so K vanishes iff dot == 0
    harmonic = [(i, head) for t1 in _orthogonal(t0, max_abs)
                if (i := position.get(t1)) is not None
                and (head := on_plane[norms[i]])]
    if require_harmonic:
        harmonic.sort()
        text = "".join(head + pieces[2 * i + 1] for i, head in harmonic)
        return text, len(harmonic), len(harmonic)
    pieces[0::2] = map(plain.__getitem__, norms)
    for i, head in harmonic:
        pieces[2 * i] = head
    own = [2 * i + 1 for i in by_norm.get(s0, ())]
    tails = [pieces[k] for k in own]
    for k in own:
        pieces[k] = ""
    text = "".join(pieces)
    for k, tail in zip(own, tails):
        pieces[k] = tail
    return text, len(norms) - len(own), len(harmonic)


def _ch2_holds():
    """Whether F0^2 - F1^2 is dd^c-exact, decided for every pair by one
    anomaly solve at omega_0: a solve that succeeds has checked dd^c omega_0
    = alpha (F0^2 - F1^2) exactly, alpha real and nonzero, so the real
    (1,1)-form omega_0 / alpha is a potential.  F(t)^2 = 2 pi^2 |t|^2
    w_{121'2'} for every triple t (the selftest's F(m,n,p)^2 identity), so
    one pair decides every pair.  A failed solve (a ValueError) is False.
    """
    model, _, _ = build_iwasawa()
    F0 = curvature_from_triple(model, LineBundleTriple(1, 0, 0, role="V0"))
    F1 = curvature_from_triple(model, LineBundleTriple(1, 1, 0, role="V1"))
    try:
        alpha_solve(F0, F1, omega0_structure())
    except ValueError:  # DegenerateCoupling among them
        return False
    return True


def iter_sweep(max_abs, require_harmonic=False, raw=False):
    """The sweep catalog as (text, records, harmonic), one tuple per row.

    Pairs of triples in [-max_abs, max_abs]^3 in deterministic lexicographic
    parameter order, identified up to simultaneous sign flips unless raw is
    set; byte-stable for fixed arguments.  A row is one triple t0 against
    every triple t1 (_sweep_row).  The columns (_columns: each triple's
    squared norm, position and line tail, the columns of each squared norm,
    and the list of pieces a row's text is joined from) are built once per
    sweep; each row fills the head slots of the pieces, enumerates its
    harmonic columns from the plane t0 . t1 = 0 and counts them from that
    enumeration.  Rows come in catalog order, and with raw unset only the
    canonical ones.  The engine certificate comes first (_certify_base,
    skipped when there are no triples); then each row's lines are yielded
    as one text as soon as they are made, so memory is bounded by one row,
    at most (2 max_abs + 1)^3 - 1 lines, and the per-sweep columns.  The
    pieces belong to this one generator: another sweep builds its own.
    """
    if not 0 <= max_abs <= SWEEP_MAX_ABS:
        raise ValueError("max_abs must be between 0 and %d" % SWEEP_MAX_ABS)
    triples = _triples(max_abs)
    if triples:
        _certify_base()
    prefixes = {}
    cols = _columns(triples, max_abs)
    for t0, s0 in zip(triples, cols[0]):
        # (t0, t1) is canonical iff (t0, t1) <= (-t0, -t1); t0 != -t0 for a
        # nonzero t0, so that is t0 < -t0, decided once per row
        if raw or t0 < tuple(-x for x in t0):
            yield _sweep_row(t0, s0, json.dumps(list(t0)), cols, prefixes,
                             require_harmonic)
