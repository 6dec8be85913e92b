"""The exact linear-algebra core checked against sympy as an independent oracle.

rref, solve, matrix_inverse and matrix_det run on seeded random
Gaussian-rational matrices (square, rectangular, singular, inconsistent)
and are compared entry by entry with sympy.Matrix.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hslab.scalars import Scalar
from hslab.hermitian import rref, solve, matrix_inverse, matrix_det

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


def test_inverse_and_det_match_sympy():
    singular = invertible = 0
    for seed in SEEDS:
        rng = random.Random(100 + seed)
        for n in range(1, 5):
            for rows in _cases(rng, n, n):
                m = _sym(rows)
                det = matrix_det(rows)
                assert det == _from_sympy(m.det())
                if det.is_zero():
                    singular += 1
                    with pytest.raises(ValueError):
                        matrix_inverse(rows)
                else:
                    invertible += 1
                    assert matrix_inverse(rows) == _from_sym(m.inv())
    assert singular and invertible


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
        matrix_det(rows)
    with pytest.raises(ValueError):
        solve(rows, [one, one])
    # a monomial lower in the same column is taken as the pivot instead
    rows = [[one_plus_pi, one], [one, zero]]
    reduced, pivots = rref(rows, 2)
    expect, expect_pivots = _sym(rows).rref()
    assert pivots == list(expect_pivots)
    assert reduced == _from_sym(expect)
    assert matrix_det(rows) == _from_sympy(_sym(rows).det())
    assert matrix_inverse(rows) == [[zero, one], [one, -one_plus_pi]]
