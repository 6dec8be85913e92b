"""The component operator against the form-entry algorithms it replaced.

A QOperator holds the six Scalar matrices A^a of A = sum_a A^a e_a.  The
references here work on its 8x8 matrix of 1-form entries, as the engine
did before: the adjoint as the conjugate transpose of the entries
multiplied by the metric on both sides, the bidegree part and the contraction with a
vector entry by entry, and every top-degree coefficient as the wedge of a
2-form with omega^2.  They are checked on four families and on seeded
operators on every oracle metric, the last of which (the
Kodaira-Thurston-style stand-in) has a nonzero lam_a = (d e_a ^ omega^2)_top.
The last test guards what the dbar_phi_23 witness rests on: phi has type
(1,0), so the Chern-type C = D^G - phi keeps the (0,1) part of D^G.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hslab.scalars import Scalar
from hslab.cealg import InvariantVector
from hslab.algebroid import QDIM, wedge_omega_sq_top
from hslab.harmonic import (CompatibleMetricH, higgs_dbar_entry,
                            higgs_obstruction)
from hslab.bundles import (LineBundleTriple, SystemParams,
                           curvature_from_triple)
from hslab.iwasawa import FamilyConfig, PicardPoint, make_family

from conftest import (DEFORMED_TAU, chern_split, dbar_reference, forms,
                      matmul, operator_of, q_metric, random_form,
                      random_scalar, sparse)


def _adjoint_reference(Q, E):
    """Hm^-1 . conj(E)^T . Hm, with (Hm, Hm^-1) = Q dense (q_metric)."""
    Hm, Hm_inv = Q
    conj_t = [[e.conjugate() for e in col] for col in zip(*E)]
    zero = E[0][0].model.zero()
    return matmul(matmul(Hm_inv, conj_t, zero), Hm, zero)


def _value_reference(E, vector):
    zero = Scalar.zero()
    return [[e.contract(vector).terms.get((), zero) for e in row] for row in E]


def _top_reference(h, L, pairs):
    """(dL + sum X ^ Y) ^ omega^2, entry by entry, on the 1-form matrices."""
    zero, out = h.model.zero(), [[e.d() for e in row] for row in forms(L)]
    for X, Y in pairs:
        out = [[a + b for a, b in zip(r1, r2)] for r1, r2 in
               zip(out, matmul(forms(X), forms(Y), zero))]
    return [[f.wedge(h.omega_sq).top_coeff() for f in row] for row in out]


def _family(kind):
    triples = ((1, 2, 2), (2, -1, 0)) if kind in ("flat", "picard") \
        else ((1, 1, 0), (1, 0, 0))
    kw = {"deformed": {"tau": DEFORMED_TAU},
          "uncorrected": {"tau": DEFORMED_TAU, "correct": False},
          "picard": {"picard": PicardPoint((Scalar.of(1, 2), Scalar.zero()),
                                           (Scalar.zero(), Scalar.of(0, -3)))},
          "flat": {}}[kind]
    return make_family(FamilyConfig(*(LineBundleTriple(*t) for t in triples),
                                    **kw)).params


def _check_operator(A, H, Q, vectors):
    """Form view, adjoint, parts and values of A against the references;
    Q is the dense metric on Q of H, from q_metric."""
    E = forms(A)
    assert operator_of(A.model, E).comps == A.comps
    assert forms(H.adjoint(A)) == _adjoint_reference(Q, E)
    for p, q in ((1, 0), (0, 1)):
        assert forms(A.part(p, q)) == [[e.part(p, q) for e in row]
                                        for row in E]
    for v in vectors:
        assert A.value_at(v) == sparse(_value_reference(E, v))


def _check_obstruction(s):
    """dbar_Q phi ^ omega^2 against the whole-matrix reference wedged with
    omega^2, and each 2-form entry against the reference's; returns the
    number of nonzero entries."""
    whole = dbar_reference(s)
    c = higgs_obstruction(s)
    assert c == sparse([[e.wedge(s.h.omega_sq).top_coeff() for e in row]
                        for row in whole])
    for i in range(QDIM):
        for j in range(QDIM):
            assert higgs_dbar_entry(s, i, j) == whole[i][j]
    return len(c)


@pytest.mark.parametrize("kind", ["flat", "picard", "deformed", "uncorrected"])
def test_families_match_the_form_entry_algorithms(kind):
    s = _family(kind)
    B, Psi = s.unitary_split
    phi = s.higgs_field
    vectors = [s.h.lee_sharp, InvariantVector(
        s.model, [Scalar.of(x) for x in (1, 2, 0, -1, 0, 3)])]
    for A in (s.connection, Psi, phi):
        _check_operator(A, s.metric_H, q_metric(s.h, s.alpha), vectors)
    assert _check_obstruction(s) >= 4
    # the top-degree pairings of the verify path and of I
    assert s.curvature_omega_sq == sparse(_top_reference(
        s.h, s.connection, [(s.connection, s.connection)]))
    assert wedge_omega_sq_top(s.h, B, [(B, B), (Psi, Psi)]) == \
        sparse(_top_reference(s.h, B, [(B, B), (Psi, Psi)]))


def _random_operator(m, rng):
    return operator_of(m, [[m.zero() if rng.random() < 0.4
                            else random_form(m, rng, 1, nterms=2)
                            for _ in range(QDIM)] for _ in range(QDIM)])


def test_seeded_operators_on_every_oracle_metric(oracle_metrics):
    rng = random.Random(23)
    lam_seen = 0
    for h in oracle_metrics:
        m = h.model
        L, X, Y, C = (_random_operator(m, rng) for _ in range(4))
        phi = _random_operator(m, rng).part(1, 0)
        vectors = [InvariantVector(m, [random_scalar(rng) for _ in range(6)])]
        for alpha in (Scalar.of(Fraction(3, 2)), Scalar.pi(-2, Fraction(-2, 7))):
            _check_operator(X, CompatibleMetricH(h, alpha),
                            q_metric(h, alpha), vectors)
        pairs = [(X, Y), (Y, C)]
        c = wedge_omega_sq_top(h, L, pairs)
        assert c == sparse(_top_reference(h, L, pairs))
        assert c
        s = SimpleNamespace(model=m, h=h, connection=C, higgs_field=phi)
        assert _check_obstruction(s) >= 16
        lam_seen += any(not x.is_zero() for x in h.omega_sq_lambda)
    # the stand-in's lam term is exercised, and it is the last metric
    assert lam_seen == 1
    assert any(not x.is_zero() for x in oracle_metrics[-1].omega_sq_lambda)


def test_phi_is_of_type_1_0_and_c_keeps_the_01_part_of_dg(oracle_metrics):
    # the Higgs verdict reads C = D^G - phi only through its (0,1) part, and
    # reads that off D^G: phi has no (0,1) component
    kt = oracle_metrics[-1]  # the Kodaira-Thurston-style stand-in
    m = kt.model
    t0, t1 = LineBundleTriple(1, 2, 2), LineBundleTriple(2, -1, 0, role="V1")
    stand_in = SystemParams(
        model=m, h=kt, triple0=t0, triple1=t1,
        F0=curvature_from_triple(m, t0), F1=curvature_from_triple(m, t1),
        alpha=Scalar.of(Fraction(3, 2)), Omega=m.basis_form((0, 1, 2)))
    kinds = ("flat", "picard", "deformed", "uncorrected")
    for s in [_family(kind) for kind in kinds] + [stand_in]:
        n = s.model.n
        C, phi = chern_split(s)
        assert any(phi.comps[:n])
        assert phi.comps[n:] == [{}] * n
        for a in range(n, 2 * n):
            assert C.comps[a] == s.connection.comps[a]
