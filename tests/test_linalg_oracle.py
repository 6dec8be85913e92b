"""The exact linear-algebra core checked against sympy as an independent oracle.

rref, solve and matrix_inverse run on seeded random Gaussian-rational
matrices (square, rectangular, singular, inconsistent) and are compared
entry by entry with sympy.Matrix; HermitianStructure's positivity
certificate is compared with sympy's leading minors.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hslab.scalars import Scalar
from hslab.cealg import build_iwasawa_model
from hslab.hermitian import HermitianStructure, rref, solve, matrix_inverse

SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 5), (5, 3)]
SEEDS = range(4)


def _entry(rng):
    if rng.random() < 0.3:
        return Scalar.zero()
    return Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _matrix(rng, nrows, ncols):
    return [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def _singular(rng, nrows, ncols):
    """nrows x ncols with the last row a combination of the others."""
    rows = _matrix(rng, nrows - 1, ncols)
    coeffs = [_entry(rng) for _ in rows]
    last = [sum((c * row[j] for c, row in zip(coeffs, rows)), Scalar.zero())
            for j in range(ncols)]
    return rows + [last]


def _cases(rng, nrows, ncols):
    yield _matrix(rng, nrows, ncols)
    if nrows > 1:
        yield _singular(rng, nrows, ncols)


def _times(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Scalar.zero()) for row in rows]


def _to_sympy(x):
    out = sympy.Integer(0)
    for k, (re, im) in x.items():
        out += (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator)) * sympy.pi ** k
    return out


def _sym(rows):
    return sympy.Matrix([[_to_sympy(x) for x in row] for row in rows])


def _from_sympy(x):
    re, im = sympy.expand_complex(x).as_real_imag()
    assert re.is_Rational and im.is_Rational, x
    return Scalar.of(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _from_sym(m):
    return [[_from_sympy(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _power(x, k):
    """The pi^k coefficient of a Scalar, as a pi-free Scalar."""
    return Scalar({0: dict(x.items()).get(k, (0, 0))})


def test_rref_and_rank_match_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        for nrows, ncols in SHAPES:
            for rows in _cases(rng, nrows, ncols):
                reduced, pivots = rref(rows, ncols)
                expect, expect_pivots = _sym(rows).rref()
                assert pivots == list(expect_pivots)
                assert reduced == _from_sym(expect)
                assert len(pivots) == _sym(rows).rank()


def _hermitian(rng):
    """A 3 x 3 Hermitian matrix: rational diagonal, Gaussian-rational
    entries above it and their conjugates below."""
    g = [[None] * 3 for _ in range(3)]
    for j in range(3):
        g[j][j] = Scalar.of(Fraction(rng.randint(-1, 6), rng.randint(1, 3)))
        for k in range(j + 1, 3):
            g[j][k] = _entry(rng)
            g[k][j] = g[j][k].conjugate()
    return g


def test_inverse_and_det_match_sympy():
    singular = invertible = 0
    for seed in SEEDS:
        rng = random.Random(100 + seed)
        for n in range(1, 5):
            for rows in _cases(rng, n, n):
                m = _sym(rows)
                if m.det() == 0:
                    singular += 1
                    with pytest.raises(ValueError):
                        matrix_inverse(rows)
                else:
                    invertible += 1
                    assert matrix_inverse(rows) == _from_sym(m.inv())
    assert singular and invertible
    # positivity: omega with omega(Z_j, Z_k') = i g_jk is accepted exactly
    # when sympy's three leading minors of g are positive; otherwise the
    # message names the first that is not, with its value
    model, i = build_iwasawa_model(), Scalar.i()
    positive = refused = 0
    for seed in SEEDS:
        rng = random.Random(400 + seed)
        for _ in range(6):
            g = _hermitian(rng)
            omega = model.zero()
            for j in range(3):
                for k in range(3):
                    omega = omega + model.basis_form((j, k + 3), i * g[j][k])
            m = _sym(g)
            minors = [m[:k, :k].det() for k in (1, 2, 3)]
            bad = [k for k, v in enumerate(minors, 1) if not v > 0]
            if not bad:
                positive += 1
                assert HermitianStructure(model, omega).g == g
                continue
            refused += 1
            k = bad[0]
            text = "leading minor %d is %s)" % (k, _from_sympy(minors[k - 1]))
            with pytest.raises(ValueError) as err:
                HermitianStructure(model, omega)
            assert str(err.value).endswith(text)
    assert positive and refused


def test_solve_pi_bearing_rhs_per_power():
    powers = (-1, 0, 2)
    for seed in SEEDS:
        rng = random.Random(200 + seed)
        for nrows, ncols in SHAPES:
            for rows in _cases(rng, nrows, ncols):
                # a consistent right-hand side with one rational part per power
                parts = {k: _times(rows, [_entry(rng) for _ in range(ncols)])
                         for k in powers}
                rhs = [sum((v[r] * Scalar.pi(k) for k, v in parts.items()),
                           Scalar.zero()) for r in range(nrows)]
                x = solve(rows, rhs)
                assert _times(rows, x) == rhs
                m = _sym(rows)
                for k in powers:
                    sol, params = m.gauss_jordan_solve(_sym([[b] for b in parts[k]]))
                    sol = sol.subs({p: 0 for p in params})
                    assert [_power(v, k) for v in x] == [row[0] for row in _from_sym(sol)]


def test_solve_inconsistent_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(300 + seed)
        for nrows, ncols in SHAPES:
            if nrows < 2:
                continue
            rows = _singular(rng, nrows, ncols)
            rhs = _times(rows, [_entry(rng) for _ in range(ncols)])
            # the last row is a combination of the others; its right-hand
            # side picks up a pi part that the same combination cannot match
            rhs[-1] = rhs[-1] + Scalar.pi()
            assert solve(rows, rhs) is None
            m = _sym(rows)
            with pytest.raises(ValueError):
                m.gauss_jordan_solve(_sym([[_power(b, 1)] for b in rhs]))
            assert m.rank() < m.row_join(_sym([[b] for b in rhs])).rank()


def test_non_monomial_pivot():
    one_plus_pi = Scalar.one() + Scalar.pi()
    one, zero = Scalar.one(), Scalar.zero()
    # the column's only nonzero entry is not a monomial: no exact pivot
    rows = [[one_plus_pi, one], [zero, one]]
    with pytest.raises(ValueError):
        rref(rows, 2)
    with pytest.raises(ValueError):
        matrix_inverse(rows)
    with pytest.raises(ValueError):
        solve(rows, [one, one])
    # a monomial lower in the same column is taken as the pivot instead
    rows = [[one_plus_pi, one], [one, zero]]
    reduced, pivots = rref(rows, 2)
    expect, expect_pivots = _sym(rows).rref()
    assert pivots == list(expect_pivots)
    assert reduced == _from_sym(expect)
    assert matrix_inverse(rows) == [[zero, one], [one, -one_plus_pi]]
