"""Every Scalar matrix on Q that the engine returns is held in one sparse form.

A Scalar matrix is the dict {(i, j): v} of its nonzero entries, and it is
zero iff the dict is empty: the residual verdicts and witnesses read it so.
This checks, on a flat, a Picard-twisted, a deformed and an off-solution
family, that each such matrix is a dict over Q's index pairs with no zero
value, and that the extension class is the dict of its nonzero 1-forms.
"""

from fractions import Fraction

import pytest

from hslab.scalars import Scalar
from hslab.cealg import InvariantVector
from hslab.hermitian import _plus
from hslab.algebroid import (QDIM, extension_class_gamma, he_residual_G,
                             wedge_omega_sq_top)
from hslab.bundles import LineBundleTriple
from hslab.harmonic import (harmonic_vs_moment_gap, moment_I, moment_J,
                            moment_residuals, nabla_H_star)
from hslab.iwasawa import (FamilyConfig, PicardPoint, TauDeformation,
                           make_family)

from conftest import higgs_equation_residuals

TAU = TauDeformation(Fraction(1, 10), 0, Fraction(-1, 4), 0)

FAMILIES = {
    "flat": ((1, 1, 0), (1, 0, 0), {}),
    "picard": ((1, 2, 2), (2, -1, 0), {"picard": PicardPoint(
        a0=(Scalar.of(Fraction(1, 3)), Scalar.of(0, 2)),
        a1=(Scalar.of(-1), Scalar.of(Fraction(1, 2), 1)))}),
    "deformed": ((1, 1, 0), (1, 0, 0), {"tau": TAU}),
    "off_solution": ((1, 2, 2), (1, 1, 0), {"tau": TAU, "correct": False}),
}


def _is_sparse(m, nonzero=lambda v: not v.is_zero()):
    return isinstance(m, dict) and all(
        isinstance(k, tuple) and len(k) == 2
        and all(isinstance(x, int) and 0 <= x < QDIM for x in k)
        and nonzero(v) for k, v in m.items())


def _scalar_matrices(s):
    """name -> each Scalar matrix on Q the engine returns for s."""
    B, Psi = s.unitary_split
    out = {"K": moment_residuals(s)["K"], "I": moment_I(s), "J": moment_J(s)}
    out["gap"] = harmonic_vs_moment_gap(s)
    out["curvature_omega_sq"] = s.curvature_omega_sq
    out["he_residual_G"] = he_residual_G(s)
    out["nabla_H_star"] = nabla_H_star(s, B, Psi)
    vectors = [s.h.lee_sharp, InvariantVector(
        s.model, [Scalar.of(x) for x in (1, 2, 0, -1, 0, 3)])]
    for k, v in enumerate(vectors):
        out["value_at_%d" % k] = Psi.value_at(v)
    out["wedge_omega_sq_top"] = wedge_omega_sq_top(s.h, Psi, [(B, Psi),
                                                             (Psi, B)])
    out["cotangent_S"] = s.h.cotangent.S
    out["cotangent_SdH"] = s.h.cotangent.SdH
    higgs = higgs_equation_residuals(s)
    for name in ("K", "IJ_curvature", "IJ_mixed",
                 "holomorphicity_obstruction"):
        out["higgs_" + name] = higgs[name]
    return out


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_scalar_matrices_hold_only_nonzero_entries(kind):
    t0, t1, kw = FAMILIES[kind]
    s = make_family(FamilyConfig(LineBundleTriple(*t0, role="V0"),
                                 LineBundleTriple(*t1, role="V1"),
                                 **kw)).params
    matrices = _scalar_matrices(s)
    for name, m in matrices.items():
        assert _is_sparse(m), name
    # a nonzero residual is a nonempty dict, on every family
    assert matrices["cotangent_S"] and matrices["cotangent_SdH"]
    assert matrices["higgs_holomorphicity_obstruction"]
    gamma = extension_class_gamma(s)
    assert gamma and _is_sparse(gamma, lambda f: not f.is_zero())


def test_a_sum_drops_the_entries_that_cancel():
    # no family above has an entry that cancels in a sum, so the branch is
    # checked on its own
    a, b, c = Scalar.of(2), Scalar.pi(1, Fraction(1, 3), -1), Scalar.of(0, 5)
    x, y = {(0, 0): a, (1, 2): b}, {(0, 0): -a, (3, 3): c}
    assert _plus(x, y) == {(1, 2): b, (3, 3): c}
    assert _plus(x, {k: -v for k, v in x.items()}) == {}
    assert x == {(0, 0): a, (1, 2): b}
