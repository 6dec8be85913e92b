"""Shared fixtures: the standard model, metric, and family builders.

Also the test oracles, among them the dense 8x8 matrices of forms of a Q
operator (forms, matmul, curvature), the Chern-type connection
(chern_split) and the Higgs-type form of the moment maps
(higgs_equation_residuals): the package holds each Q operator only as its
sparse components and reads C = D^G - phi only through its (0,1) part.
The pairing of Q (pairing_matrix), the Bismut isomorphism
(bismut_iso_matrix) and the degree pairing of a closed 2-form with a
dd^c-closed 4-form (degree_and_slope) are oracles of what the package reads off the metric
(h.cotangent) and off the HYM residuals (the report's degrees), and the
Levi-Civita connection (levi_civita) is the oracle of the metric's trace
h.lc_trace, the package's only use of it.  The unitary split by its two
half sums (unitary_reference) and K by its definition on that split
(moment_K_reference) are oracles of the split and of K, which the package
reads off D^G and S = D^G + (D^G)^{*H} with no B.
"""

import json
import random
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import InvariantForm, InvariantVector, NilmanifoldModel
from hslab.hermitian import (HermitianStructure, _combination, _nonzero,
                             _plus, matrix_inverse)
from hslab.algebroid import QDIM, QOperator, wedge_omega_sq_top
from hslab.harmonic import higgs_dbar_entry, nabla_H_star
from hslab.bundles import (LineBundleTriple, curvature_from_triple,
                           alpha_solve, SystemParams)
from hslab.iwasawa import (FamilyConfig, TauDeformation, build_iwasawa,
                           make_family, omega0_structure, su3_structure,
                           iter_sweep)

TAU_MENU = (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4), Fraction(-1, 4))
DEFORMED_TAU = TauDeformation(Fraction(1, 10), Fraction(0), Fraction(-1, 4),
                              Fraction(0))


@pytest.fixture(scope="session")
def model():
    return build_iwasawa()[0]


@pytest.fixture(scope="session")
def h0():
    """The process's shared structure of omega_0."""
    return omega0_structure()


@pytest.fixture(scope="session")
def Omega(model):
    return model.basis_form((0, 1, 2))


@pytest.fixture(scope="session")
def abelian_model():
    return NilmanifoldModel(3, {})


@pytest.fixture(scope="session")
def kt_model():
    # Kodaira-Thurston-style model: one torus (1,1) differential
    return NilmanifoldModel(3, {2: {(0, 3): Scalar.one()}})


@pytest.fixture(scope="session")
def oracle_metrics(model, h0, abelian_model, kt_model):
    """Metrics on which structured inverses are checked against elimination.

    omega_0; omega_0 + t tau_i for every t in TAU_MENU and each of the four
    directions tau_i; the gamma-corrected metric of the deformed family
    (1,1,0),(1,0,0) at DEFORMED_TAU; and omega_0 + DEFORMED_TAU on the
    abelian and on the Kodaira-Thurston-style model (nonzero Lee form), last.
    """
    out = [h0]
    for t in TAU_MENU:
        for i in range(4):
            coeffs = [Fraction(0)] * 4
            coeffs[i] = t
            tau = TauDeformation(*coeffs).form(model)
            out.append(HermitianStructure(model, h0.omega + tau))
    cfg = FamilyConfig(LineBundleTriple(1, 1, 0), LineBundleTriple(1, 0, 0),
                       tau=DEFORMED_TAU)
    out.append(make_family(cfg).params.h)
    for m in (abelian_model, kt_model):
        out.append(HermitianStructure(
            m, su3_structure(m)[0] + DEFORMED_TAU.form(m)))
    return out


def make_params(model, h, Omega, t0, t1, alpha=None):
    tt0 = LineBundleTriple(*t0, role="V0")
    tt1 = LineBundleTriple(*t1, role="V1")
    F0 = curvature_from_triple(model, tt0)
    F1 = curvature_from_triple(model, tt1)
    if alpha is None:
        alpha = alpha_solve(F0, F1, h)
    return SystemParams(model=model, h=h, triple0=tt0, triple1=tt1,
                        F0=F0, F1=F1, alpha=alpha, Omega=Omega)


def sweep_records(max_abs, **options):
    """The sweep catalog as a list of records, read from iter_sweep."""
    return [json.loads(line) for text, _, _ in iter_sweep(max_abs, **options)
            for line in text.splitlines()]


def apply(form, *vectors):
    """form(v1, .., vk) by contracting v1, .., vk in turn: the 0-form left."""
    for v in vectors:
        form = form.contract(v)
    return form.terms.get((), Scalar.zero())


def dbar(form):
    """(0,1)-part of d on each (p,q) component, summed: the oracle of the
    split that InvariantForm.dc makes of one d per component."""
    out = form.model.zero()
    for (p, q), comp in form.bigrade().items():
        out = out + comp.d().part(p, q + 1)
    return out


def partial(form):
    """(1,0)-part of d on each (p,q) component, summed."""
    out = form.model.zero()
    for (p, q), comp in form.bigrade().items():
        out = out + comp.d().part(p + 1, q)
    return out


def vector_is_zero(v):
    return all(c.is_zero() for c in v.coeffs)


def christoffel(conn):
    """Dense Gamma[a][b][d] = Gamma^d_{ab} of a connection held as one sparse
    matrix {(d, b): Gamma^d_{ab}} of nabla_{Z_a} per frame direction a."""
    r, zero = range(len(conn)), Scalar.zero()
    return [[[m.get((d, b), zero) for d in r] for b in r] for m in conn]


def levi_civita(h):
    """Dense Gamma[a][b][c] = Gamma^c_{ab} of the Levi-Civita connection of
    h, as christoffel gives it, by Koszul's formula on invariant fields:
    g(nabla_{Z_a} Z_b, Z_z) = (L_abz - L_bza + L_zab) / 2 with L_xyz =
    g([Z_x, Z_y], Z_z) and [Z_x, Z_y]^c = -d w^c(Z_x, Z_y) by contractions,
    raised by the inverse of dense(h.G6), every sum over the whole frame."""
    m = h.model
    r, zero, half = range(m.dim), Scalar.zero(), Scalar.of(Fraction(1, 2))
    Z = [frame_vector(m, a) for a in r]
    G = dense(h.G6, m.dim)
    Ginv = matrix_inverse(G)
    bracket = [[[-apply(m.diff[c], Z[x], Z[y]) for c in r] for y in r]
               for x in r]
    L = [[[sum((bracket[x][y][c] * G[c][z] for c in r), zero) for z in r]
          for y in r] for x in r]
    return [[[sum(((L[a][b][z] - L[b][z][a] + L[z][a][b]) * half * Ginv[c][z]
                   for z in r), zero) for c in r] for b in r] for a in r]


def dense(m, n=8):
    """The n x n Scalar matrix of a sparse one {(i, j): v} of nonzero entries
    (n = 8 for a matrix on Q)."""
    zero = Scalar.zero()
    return [[m.get((i, j), zero) for j in range(n)] for i in range(n)]


def sparse(rows):
    """The dict {(i, j): v} of the nonzero entries of a dense matrix."""
    return {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)
            if not x.is_zero()}


def matrix_is_zero(rows):
    """Whether every entry of a dense matrix (of Scalars or forms) is zero."""
    return all(x.is_zero() for row in rows for x in row)


def raised(h, F):
    """Dense Ginv6 . F . Ginv6 of a 2-form F, F_cd = F(Z_c, Z_d): F with
    both indices raised, by the definition."""
    Ginv, r = dense(h.Ginv6, h.model.dim), range(h.model.dim)
    return [[sum((Ginv[a][c] * F.at(c, d) * Ginv[d][b] for c in r
                  for d in r), Scalar.zero()) for b in r] for a in r]


def frame_contraction(h, F, G):
    """g^{ac} g^{bd} F_ab G_cd of two 2-forms, summed over every index."""
    r = range(h.model.dim)
    M = raised(h, F)
    return sum((M[c][d] * G.at(c, d) for c in r for d in r), Scalar.zero())


def q_metric(h, alpha):
    """Dense Hm and Hm^-1 of the metric on Q, by their definition.

    Hm[a][b] = g(Z_a, conj Z_b) = G6[a][sigma(b)] and Hm^-1[a][b] =
    Ginv6[sigma(a)][b] on T, sigma(a) = (a + 3) % 6, and |alpha| and
    1/|alpha| on the two End directions: an oracle of CompatibleMetricH
    that reads only the Gram matrices of h.
    """
    G, Ginv, zero = dense(h.G6, 6), dense(h.Ginv6, 6), Scalar.zero()
    aabs = -alpha if alpha.sign() < 0 else alpha
    Hm = [[zero] * 8 for _ in range(8)]
    Hm_inv = [[zero] * 8 for _ in range(8)]
    for a in range(6):
        for b in range(6):
            Hm[a][b] = G[a][(b + 3) % 6]
            Hm_inv[a][b] = Ginv[(a + 3) % 6][b]
    for e in (6, 7):
        Hm[e][e], Hm_inv[e][e] = aabs, Scalar.one() / aabs
    return Hm, Hm_inv


def pairing_matrix(h, alpha):
    """The C-bilinear pairing of Q in the complexified frame, sparse: -g_C
    on T, diag(-alpha, alpha) on End."""
    return _nonzero({**{k: -x for k, x in h.G6.items()},
                     (6, 6): -alpha, (7, 7): alpha})


def bismut_iso_matrix(h):
    """The sparse Scalar matrix P of the Bismut isomorphism, extension frame
    -> complexified frame: V + xi -> V - (1/2) g^{-1} xi."""
    half, one = Scalar.of(Fraction(1, 2)), Scalar.one()
    P = {k: one for k in ((0, 0), (1, 1), (2, 2), (6, 3), (7, 4))}
    # xi_k = w_k maps to -(1/2) g^{-1} w_k
    for (a, k), x in h.Ginv6.items():
        if k < 3:
            P[a, 5 + k] = -half * x
    return P


def degree_and_slope(c, b, h):
    """Degree lambda(c ^ b) of a 2-form c against a 4-form b under the
    unit-volume normalization, by its own wedge: the slope of a line
    bundle, whose rank is 1.  The caller checks that c is closed and b
    dd^c-closed, so that the degree is one of their classes."""
    if c.degree() not in (0, 2) or b.degree() != 4:
        raise ValueError("slope pairing needs a 2-form against a 4-form")
    return h.integrate(c.wedge(b))


def hermitian_matrix(t):
    """The 2x2 Hermitian coefficient matrix M of a triple, with
    F = pi sum M_{jk'} w_j ^ w_k'."""
    return [[Scalar.of(t.m), Scalar.of(t.n, t.p)],
            [Scalar.of(t.n, -t.p), Scalar.of(-t.m)]]


def hermitian_curvature(model, M):
    """Curvature pi sum_{jk} M_{jk'} w_j ^ w_{k'} of a 2x2 Hermitian matrix."""
    out = model.zero()
    for j in range(2):
        for k in range(2):
            out = out + model.basis_form((j, k + 3), M[j][k])
    return out.scale(Scalar.pi())


def frame_vector(model, a):
    """The frame vector Z_a of a model."""
    return InvariantVector(model, [Scalar.of(int(b == a))
                                   for b in range(model.dim)])


def operator_of(model, E):
    """The QOperator whose entry (i, j) is the 1-form E[i][j]."""
    return QOperator(model, [{(i, j): e.terms[(a,)] for i, row in enumerate(E)
                              for j, e in enumerate(row) if (a,) in e.terms}
                             for a in range(model.dim)])


def matmul(a, b, zero):
    """a . b of dense matrices whose entries are forms or Scalars, skipping
    zero factors; zero is the product entries' zero.

    Each product has a form among its factors: two forms wedge, and a
    Scalar scales the form.
    """
    def times(x, y):
        if isinstance(x, InvariantForm):
            return x.wedge(y) if isinstance(y, InvariantForm) else x.scale(y)
        return y.scale(x)

    out = []
    for row in a:
        sums = [zero] * len(b[0])
        for k, x in enumerate(row):
            if not x.is_zero():
                for j, y in enumerate(b[k]):
                    if not y.is_zero():
                        sums[j] = sums[j] + times(x, y)
        out.append(sums)
    return out


def forms(A):
    """The 8x8 matrix of 1-forms of a QOperator: entry (i, j) is A.form(i, j)."""
    return [[A.form(i, j) for j in range(QDIM)] for i in range(QDIM)]


def curvature(A):
    """F = dA + A ^ A of a QOperator, as an 8x8 list of 2-forms."""
    E = forms(A)
    return [[e.d() + x for e, x in zip(r1, r2)]
            for r1, r2 in zip(E, matmul(E, E, A.model.zero()))]


def unitary_reference(A, H):
    """(B, Psi) = ((A - A^*)/2, (A + A^*)/2) of a QOperator A under the
    metric H on Q, each a _combination per component."""
    half = Scalar.of(Fraction(1, 2))
    pairs = list(zip(A.comps, H.adjoint(A).comps))
    return tuple(QOperator(A.model, [_combination(c, m) for m in pairs])
                 for c in ((half, -half), (half, half)))


def moment_K_reference(s):
    """K = (nabla^H)^* Psi + i_{theta^sharp} Psi, nabla^H = d + B, by its
    definition on the unitary split (B, Psi) of D^G (unitary_reference):
    the oracle of moment_residuals, which reads K off D^G and S = 2 Psi."""
    B, Psi = unitary_reference(s.connection, s.metric_H)
    return _plus(nabla_H_star(s, B, Psi), Psi.value_at(s.h.lee_sharp))


def chern_split(s):
    """(C, phi) = (D^G - phi, phi), phi = s.higgs_field = 2 Psi^{1,0}: the
    Chern-type connection, which the package never builds.

    The adjoint conjugates the form directions, so (A^{*H})^{1,0} =
    (A^{0,1})^{*H}: no second adjoint, and C = A^{0,1} - (A^{0,1})^{*H}
    is unitary.  phi has type (1,0), so C^{0,1} = (D^G)^{0,1}.
    """
    return s.connection - s.higgs_field, s.higgs_field


def higgs_equation_residuals(s):
    """Residuals of the Higgs-bundle-type rewriting of the moment maps.

    An oracle of K, I and J along a second code path: the Chern split
    (C, phi) and the adjoint phi^{*H}, where moment_residuals reads the
    unitary split and the codifferential.  Returns the curvature-type K
    residual (F_H + [phi ^ phi^{*H}]/2) ^ w^2, the combined IJ residuals
    and the holomorphicity obstruction dbar_Q phi ^ w^2 (each a sparse
    Scalar matrix of top coefficients, through the pairing), dbar_Q phi,
    and the integrability term del^H phi + phi ^ phi (dense 8x8 matrices
    of 2-forms).
    """
    C, phi = chern_split(s)
    h, A = s.h, C.part(0, 1)
    phi_star = s.metric_H.adjoint(phi)  # (0,1)-form valued
    half = Scalar.of(Fraction(1, 2))
    hphi, hstar = phi.scale(half), phi_star.scale(half)
    r = range(QDIM)
    Cf, Pf, zero = forms(C), forms(phi), s.model.zero()
    CP, PC, PP = matmul(Cf, Pf, zero), matmul(Pf, Cf, zero), matmul(Pf, Pf, zero)
    return {
        "K": wedge_omega_sq_top(h, C, [(C, C), (hphi, phi_star),
                                       (hstar, phi)]),
        # (F_H + dbar_Q phi / 2 - del^H phi^* / 2) ^ w^2
        "IJ_curvature": wedge_omega_sq_top(
            h, C + hphi - hstar, [(C, C), (A, hphi), (hphi, A),
                                  (C, -hstar), (-hstar, C)]),
        # (dbar_Q phi + del^H phi^*) ^ w^2
        "IJ_mixed": wedge_omega_sq_top(
            h, phi + phi_star, [(A, phi), (phi, A), (C, phi_star),
                                (phi_star, C)]),
        "integrability": [[(Pf[i][j].d() + CP[i][j] + PC[i][j]).part(2, 0)
                           + PP[i][j] for j in r] for i in r],
        "holomorphicity_obstruction": wedge_omega_sq_top(
            h, phi, [(A, phi), (phi, A)]),
        "dbar_phi": [[higgs_dbar_entry(s, i, j) for j in r] for i in r],
    }


def dbar_reference(s):
    """The whole matrix dbar_Q phi of a family, (d phi + A01 ^ phi + phi ^
    A01)^{1,1}, by two products of its 8x8 matrices of 1-forms."""
    C, phi = chern_split(s)
    A01 = [[e.part(0, 1) for e in row] for row in forms(C)]
    P, zero = forms(phi), s.model.zero()
    return [[(p.d() + x + y).part(1, 1) for p, x, y in zip(*rows)]
            for rows in zip(P, matmul(A01, P, zero), matmul(P, A01, zero))]


def split_curvature(B, Psi):
    """F_B + Psi ^ Psi + (d Psi + B ^ Psi + Psi ^ B), by products of the 8x8
    matrices of 1-forms of B and Psi."""
    Bf, Pf, zero = forms(B), forms(Psi), B.model.zero()
    products = [matmul(x, y, zero)
                for x, y in ((Bf, Bf), (Pf, Pf), (Bf, Pf), (Pf, Bf))]
    return [[b.d() + p.d() + w + x + y + z for b, p, w, x, y, z in zip(*rows)]
            for rows in zip(Bf, Pf, *products)]


def random_triple(rng, lo=-5, hi=5):
    while True:
        t = tuple(rng.randint(lo, hi) for _ in range(3))
        if t != (0, 0, 0):
            return t


def random_pair(rng, lo=-5, hi=5):
    """Random non-degenerate pair (distinct squared norms)."""
    while True:
        t0 = random_triple(rng, lo, hi)
        t1 = random_triple(rng, lo, hi)
        if sum(x * x for x in t0) != sum(x * x for x in t1):
            return t0, t1


def random_scalar(rng, allow_pi=True):
    k = rng.choice((-2, -1, 0, 1, 2)) if allow_pi else 0
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Scalar.pi(k, re, im)


def scalar_product(a, b):
    """a . b of dense Scalar matrices by the defining sums.

    A test oracle that shares no code with the package's products.
    """
    r = range(len(b))
    return [[sum((row[k] * b[k][j] for k in r
                  if not row[k].is_zero() and not b[k][j].is_zero()),
                 Scalar.zero()) for j in range(len(b[0]))] for row in a]


def scalar_commutator(a, b):
    """ab - ba of square Scalar matrices by the defining sums
    (scalar_product)."""
    return [[x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(scalar_product(a, b), scalar_product(b, a))]


def to_sympy(a):
    """The Scalar a as sum_k (re_k + im_k I) pi^k, pi a positive sympy symbol."""
    sympy = pytest.importorskip("sympy")
    pi = sympy.Symbol("pi", positive=True)
    return sum(((sympy.Rational(re.numerator, re.denominator)
                 + sympy.I * sympy.Rational(im.numerator, im.denominator))
                * pi ** k for k, (re, im) in a.items()), sympy.Integer(0))


def sympy_reads_str(a):
    """Whether sympy's own parser reads str(a) as the value of a.

    An oracle of Scalar.__str__ that shares no code with the package: the
    report's exact strings are read with implicit products and ^ as power.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor, implicit_multiplication_application, parse_expr,
        standard_transformations)
    back = parse_expr(str(a), local_dict={
        "i": sympy.I, "pi": sympy.Symbol("pi", positive=True)},
        transformations=standard_transformations + (
            implicit_multiplication_application, convert_xor))
    return sympy.expand(back - to_sympy(a)) == 0


def random_form(model, rng, degree, nterms=3):
    import itertools
    out = model.zero()
    indices = list(itertools.combinations(range(6), degree))
    for _ in range(nterms):
        out = out + model.basis_form(rng.choice(indices), random_scalar(rng))
    return out


@pytest.fixture
def rng():
    return random.Random(20260826)
