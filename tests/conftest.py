"""Shared fixtures: the standard model, metric, and family builders."""

import json
import random
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import NilmanifoldModel
from hslab.hermitian import HermitianStructure
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


def dbar_reference(s):
    """The whole matrix dbar_Q phi of a family by two operator wedges."""
    C, phi = s.chern_split
    A01 = C.part(0, 1)
    return (phi.d() + A01.wedge(phi) + phi.wedge(A01)).part(1, 1)


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


def scalar_commutator(a, b):
    """ab - ba of square Scalar matrices by the defining sums.

    A test oracle that shares no code with hermitian.matmul.
    """
    r = range(len(a))

    def entry(x, y, i, j):
        return sum((x[i][k] * y[k][j] for k in r
                    if not x[i][k].is_zero() and not y[k][j].is_zero()),
                   Scalar.zero())
    return [[entry(a, b, i, j) - entry(b, a, i, j) for j in r] for i in r]


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
