"""The matrix products against the loops they replaced.

The test oracle matmul(a, b, zero) of conftest multiplies dense matrices
of forms: a Scalar and a form (scale) or two forms (wedge).  The A ^ A of
the oracle curvature goes through it, and left . mid . right is two of
them.  Sparse Scalar matrices multiply by the package's _product_sum.  The
references here are test-only copies of the entrywise-wedge triple loop
and of the single-loop sandwich, each term mid[k][l] (left[i][k]
right[l][j]), that they replaced, and the commutator oracle of conftest.
"""

import random
from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.hermitian import _product_sum
from hslab.algebroid import QDIM
from hslab.bundles import LineBundleTriple
from hslab.iwasawa import (FamilyConfig, PicardPoint, TauDeformation,
                           make_family)

from conftest import (curvature, forms, matmul, q_metric, random_form,
                      random_scalar, scalar_commutator, sparse)


def _wedge_reference(a, b, zero):
    out = [[zero] * QDIM for _ in range(QDIM)]
    for i in range(QDIM):
        for k in range(QDIM):
            x = a[i][k]
            if x.is_zero():
                continue
            for j in range(QDIM):
                y = b[k][j]
                if not y.is_zero():
                    out[i][j] = out[i][j] + x.wedge(y)
    return out


def _sandwich_reference(left, mid, right, zero):
    out = []
    for lrow in left:
        orow = []
        for j in range(len(right[0])):
            acc = zero
            for k, x in enumerate(lrow):
                if x.is_zero():
                    continue
                for l, m in enumerate(mid[k]):
                    y = right[l][j]
                    if m.is_zero() or y.is_zero():
                        continue
                    xy = x * y
                    acc = acc + (m * xy if isinstance(m, Scalar)
                                 else m.scale(xy))
            orow.append(acc)
        out.append(orow)
    return out


def _scalar_reference(a, b):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Scalar.zero())
             for j in range(len(b[0]))] for row in a]


def _forms(model, rng, nrows, ncols):
    """Seeded form-valued matrix, about 40% of its entries zero."""
    return [[model.zero() if rng.random() < 0.4
             else random_form(model, rng, rng.choice((1, 2)), nterms=2)
             for _ in range(ncols)] for _ in range(nrows)]


def _scalars(rng, nrows, ncols):
    return [[Scalar.zero() if rng.random() < 0.4 else random_scalar(rng)
             for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("seed", range(4))
def test_product_of_operators_is_the_entrywise_wedge(model, seed):
    rng = random.Random(seed)
    a, b = _forms(model, rng, QDIM, QDIM), _forms(model, rng, QDIM, QDIM)
    expect = _wedge_reference(a, b, model.zero())
    assert sum(1 for row in expect for e in row if not e.is_zero()) >= 32
    assert matmul(a, b, model.zero()) == expect


@pytest.mark.parametrize("shape", [(8, 8, 8), (1, 8, 1), (3, 5, 2)])
def test_product_of_scalar_matrices(shape):
    rng = random.Random(sum(shape))
    n, k, m = shape
    a, b = _scalars(rng, n, k), _scalars(rng, k, m)
    assert _product_sum([(sparse(a), sparse(b), 1)]) == \
        sparse(_scalar_reference(a, b))
    c = _scalars(rng, k, n)
    mid = _scalars(rng, k, k)
    assert _product_sum([(_product_sum([(sparse(a), sparse(mid), 1)]),
                          sparse(c), 1)]) == \
        sparse(_sandwich_reference(a, mid, c, Scalar.zero()))


@pytest.mark.parametrize("seed", range(3))
def test_stacked_products_are_a_sum_of_commutators(seed):
    # sum_a [B_a, S_a] = [B_0|..|B_5] . [S_0;..;S_5] - [S_0|..|S_5] . [B_0;..;B_5]
    rng = random.Random(seed)
    Bs = [_scalars(rng, QDIM, QDIM) for _ in range(6)]
    Ss = [_scalars(rng, QDIM, QDIM) for _ in range(6)]
    zero = Scalar.zero()

    def hcat(blocks):
        return [sum(rows, []) for rows in zip(*blocks)]

    got = _product_sum([(sparse(hcat(Bs)), sparse(sum(Ss, [])), 1),
                        (sparse(hcat(Ss)), sparse(sum(Bs, [])), -1)])
    expect = [[zero] * QDIM for _ in range(QDIM)]
    for B, S in zip(Bs, Ss):
        expect = [[x + y for x, y in zip(r1, r2)]
                  for r1, r2 in zip(expect, scalar_commutator(B, S))]
    assert got == sparse(expect)
    assert scalar_commutator(Bs[0], Ss[0]) == [
        [x - y for x, y in zip(r1, r2)] for r1, r2 in
        zip(_scalar_reference(Bs[0], Ss[0]), _scalar_reference(Ss[0], Bs[0]))]


@pytest.mark.parametrize("seed", range(3))
def test_sandwich_of_forms_matches_the_single_loop(model, seed):
    rng = random.Random(seed)
    left, right = _scalars(rng, QDIM, QDIM), _scalars(rng, QDIM, QDIM)
    mid = _forms(model, rng, QDIM, QDIM)
    zero = model.zero()
    assert matmul(matmul(left, mid, zero), right, zero) == \
        _sandwich_reference(left, mid, right, zero)


_TAU = TauDeformation(Fraction(1, 10), Fraction(0), Fraction(-1, 4),
                      Fraction(0))
_TWIST = PicardPoint(a0=(Scalar.of(Fraction(1, 3)), Scalar.zero()),
                     a1=(Scalar.zero(), Scalar.of(Fraction(-2, 7))))


@pytest.mark.parametrize("t0, t1, tau, picard", [
    ((1, 2, 2), (2, -1, 0), _TAU, PicardPoint()),
    # omega_0, where both factors are diagonal, and alpha < 0
    ((1, 0, 0), (0, 1, 1), TauDeformation(), PicardPoint()),
    ((1, 2, 2), (2, -1, 0), _TAU, _TWIST),
], ids=["deformed", "omega0-negative-alpha", "deformed-picard"])
def test_sandwich_by_a_deformed_metric(t0, t1, tau, picard):
    s = make_family(FamilyConfig(LineBundleTriple(*t0, role="V0"),
                                 LineBundleTriple(*t1, role="V1"),
                                 tau=tau, picard=picard)).params
    H, zero = s.metric_H, s.model.zero()
    Hm, Hm_inv = q_metric(s.h, s.alpha)
    off_diagonal = any(not Hm[a][b].is_zero()
                       for a in range(6) for b in range(6) if a != b)
    # the outer factors are diagonal at omega_0, not at a deformed metric
    assert off_diagonal == (not tau.is_zero())
    if tau.is_zero():
        assert s.alpha.sign() < 0
    # the adjoint of the connection's components against the conjugate
    # transpose of its 1-form entries, sandwiched by the single loop
    A = forms(s.connection)
    conj_t = [[e.conjugate() for e in col] for col in zip(*A)]
    expect = _sandwich_reference(Hm_inv, conj_t, Hm, zero)
    assert forms(H.adjoint(s.connection)) == expect
    F = curvature(s.connection)
    assert matmul(matmul(Hm_inv, F, zero), Hm, zero) == \
        _sandwich_reference(Hm_inv, F, Hm, zero)
