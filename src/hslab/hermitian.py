"""Metric-dependent operators on invariant forms.

Everything is driven by a Hermitian fundamental form omega: the complexified
Gram matrix G6 = [[0, g], [g^T, 0]] and its inverse Ginv6 from the 3x3
inverse of g, each held once as a sparse matrix, a C-bilinear Hodge star,
the Lee form J d^* omega from d(omega^2), the pairings of 2-forms with
omega^2 and with the star of a 3-form, and the Bismut connection.

The module also holds the package's one exact linear-algebra core.  A
Scalar matrix is held sparse, as the dict {(i, j): v} of its nonzero
entries, from the metric to every residual: _nonzero drops zero entries,
_plus adds two such matrices, _combination forms sum_a c_a M^a, and
_product_sum multiplies them with one Scalar.sum_of_products per entry;
_form_entries reads a 2-form as such a matrix.  Dense rows are kept only
for elimination: rref (Gauss-Jordan with monomial pivots) with solve and
matrix_inverse built on it, and the positivity certificate's one forward
elimination of g.

A HermitianStructure is finished at construction: it builds everything that
depends on the metric alone (omega^2, d(omega^2), dd^c(omega^2) for the
Aeppli check of [omega^2], d^c omega, 2i partial(omega), dd^c omega, the
table W[a][b] = (e_a ^ e_b ^ omega^2)_top, the volume, G6 and Ginv6, what
CompatibleMetricH, subbundle_report and connection_DG read, the Lee form
and the Levi-Civita trace of the codifferential) and nothing is written to
it afterwards, so one structure serves every verifier and family of its
metric.  Top-degree products with omega^2 are read off the table, itself
read off the terms of omega^2: F ^ omega^2 = (sum_{a<b} F_ab W[a][b]) e_top
for a 2-form F (omega_sq_top), and vol = omega^3/6 = c_vol e_top with
c_vol = omega_sq_top(omega)/6.  The torsion pairing F ^ *T is one
contraction of the volume (wedge_star).  star builds the image of each
basis form e_J on every call, the volume contracted by the metric duals
(sharp) of the factors of e_J in order, for the Lee form and the selftest.

All operations stay in exact scalars; frame orthonormalization (which would
need square roots) is never performed.  Positivity of the Gram matrix is
certified exactly: Sylvester's criterion on its leading principal minors,
read as running products of the pivots of one elimination without row
exchanges (Golub & Van Loan, Matrix Computations, section 4.2), each
signed by Scalar.sign().
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalars import Scalar
from .cealg import InvariantForm, InvariantVector


def _pivot_row(a, col, start):
    """First row at or below start whose entry in col is a nonzero monomial.

    Returns None when the column is zero from start down, and raises
    ValueError when its nonzero entries there are all non-monomial: only
    monomials q pi^k can be inverted exactly.
    """
    nonzero = False
    for r in range(start, len(a)):
        x = a[r][col]
        if x.is_monomial():
            return r
        nonzero = nonzero or not x.is_zero()
    if nonzero:
        raise ValueError("column %d has no monomial pivot" % col)
    return None


def rref(rows, ncols):
    """Gauss-Jordan reduction of a Scalar matrix over its first ncols columns.

    Returns (reduced, pivots): the reduced rows, each pivot scaled to one and
    cleared from every other row, and the pivot columns in order.  Columns
    from ncols on (an augmented block) are carried along but never pivoted.
    Zero entries are kept as they are when a row is scaled or subtracted, so
    no product has a zero factor.  Raises ValueError when a column offers
    only non-monomial pivots.
    """
    a = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = _pivot_row(a, col, row)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        s = a[row][col].inverse()
        a[row] = [x if x.is_zero() else x * s for x in a[row]]
        for r in range(len(a)):
            f = a[r][col]
            if r != row and not f.is_zero():
                a[r] = [x if y.is_zero() else x - f * y
                        for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots


def solve(rows, rhs):
    """One exact solution of rows . x = rhs, with free unknowns set to 0.

    Returns None when the system is inconsistent.  The right-hand side may
    carry any powers of pi; pivots come from rows only.
    """
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(not row[ncols].is_zero() for row in reduced[len(pivots):]):
        return None
    x = [Scalar.zero()] * ncols
    for row, col in zip(reduced, pivots):
        x[col] = row[ncols]
    return x


def matrix_inverse(rows):
    """Exact inverse of a square Scalar matrix: rref of [A | I].

    Pivots must be invertible scalars (monomials q pi^k); this covers every
    Gram matrix the engine builds, whose entries are Gaussian rationals.
    """
    n = len(rows)
    one, zero = Scalar.one(), Scalar.zero()
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def _nonzero(m):
    return {k: v for k, v in m.items() if not v.is_zero()}


def _plus(x, y):
    """x + y of two sparse matrices, without the entries that cancel."""
    out = dict(x)
    for k, v in y.items():
        if k not in out:
            out[k] = v
        elif (t := out[k] + v):
            out[k] = t
        else:
            del out[k]
    return out


def _combination(coeffs, mats):
    """sum_a coeffs[a] M^a of sparse matrices, skipping zero coefficients."""
    terms = {}
    for c, m in zip(coeffs, mats):
        if m and not c.is_zero():
            for k, v in m.items():
                terms.setdefault(k, []).append((c, v, 1))
    return _nonzero({k: Scalar.sum_of_products(t) for k, t in terms.items()})


def _product_sum(pairs):
    """sum sign X . Y over the (X, Y, sign) in pairs, of sparse matrices, as
    a sparse matrix: each nonzero X_il meets the nonzero entries of row l
    of Y."""
    terms = {}
    for X, Y, sign in pairs:
        rows = {}
        for (l, j), y in Y.items():
            rows.setdefault(l, []).append((j, y))
        for (i, l), x in X.items():
            for j, y in rows.get(l, ()):
                terms.setdefault((i, j), []).append((x, y, sign))
    return _nonzero({k: Scalar.sum_of_products(t) for k, t in terms.items()})


def _form_entries(F):
    """The nonzero entries {(a, b): F(Z_a, Z_b)} of a 2-form, as a sparse
    matrix read off its terms: v at (a, b) and -v at (b, a) for each."""
    out = {}
    for (a, b), v in F.terms.items():
        out[a, b], out[b, a] = v, -v
    return out


class MetricSpan(NamedTuple):
    """The metric part of a span of k columns in T (x) C (metric_span)."""
    S: dict          # the sparse 8 x k matrix of the columns
    SdH: dict        # S^dagger H, k x 8
    inv: list        # (S^dagger H S)^-1, dense k x k
    isotropic: bool  # S^T . pairing . S = 0


def metric_span(h, S):
    """The MetricSpan of the columns of S, a sparse 8 x k Scalar matrix whose
    k columns are nonzero and whose rows are all in T (indices 0..5).

    H is the metric on Q and the pairing its C-bilinear form, -g_C on T.
    Neither the |alpha| block of H nor the End block of the pairing meets
    a row in T, so the span depends on the metric alone: H is read as
    Hm_T_rows and the pairing as -G6, in sparse products.  Only the k x k
    Gram matrix is made dense, for matrix_inverse.  A row outside T is a
    ValueError.
    """
    if any(i >= h.model.dim for i, _ in S):
        raise ValueError("a metric span has rows in T only")
    zero, k = Scalar.zero(), len({j for _, j in S})
    Hm = {(p, q): x for p, row in enumerate(h.Hm_T_rows) for q, x in row}
    SdH = _product_sum([({(j, i): v.conjugate() for (i, j), v in S.items()},
                         Hm, 1)])
    gram = _product_sum([(SdH, S, 1)])
    inv = matrix_inverse([[gram.get((a, b), zero) for b in range(k)]
                          for a in range(k)])
    St = {(j, i): v for (i, j), v in S.items()}
    pairing = _product_sum([(_product_sum([(St, h.G6, -1)]), S, 1)])
    return MetricSpan(S, SdH, inv, not pairing)


class HermitianStructure:
    """A Hermitian metric on an invariant complex model, given by omega.

    The model must have complex dimension n = 3; any other is a ValueError.

    The Bismut connection bismut holds, for each frame direction a, the
    sparse matrix {(d, b): Gamma^d_{ab}} of nabla_{Z_a} (so nabla_{Z_a} Z_b
    = Gamma^d_{ab} Z_d): the components connection_DG puts on T.  It is
    its only form.

    So is the metric: G6 and Ginv6 are sparse matrices {(a, b): v} of
    their nonzero entries (g stays for Sylvester's criterion), and
    Hm_T_rows[a] and Hm_inv_T_cols[b] list the nonzero (index, value) of
    row a of the metric on Q and of column b of its inverse on T.

    No Levi-Civita connection is built.  Its one reader is the trace
    lc_trace = sum_{ab} g^{ab} nabla_{Z_a} Z_b of the codifferential, and
    by Koszul's formula on invariant fields g(lc_trace, W) = tr ad_W
    (Milnor, Curvatures of left invariant metrics on Lie groups, Adv.
    Math. 21, 1976), so lc_trace is the sharp of the model's metric-free
    1-form ad_trace.

    cotangent is the metric_span of T*, carried to the complexified frame
    by the Bismut isomorphism: the columns S = -(1/2) g^{-1} w_k, S^dagger
    H, the 3x3 Gram inverse and the isotropy verdict S^T . pairing . S = 0,
    none of which meets the coupling.  ddc_omega_sq = dd^c(omega^2) is the
    Aeppli check of the class [omega^2] that degrees and slopes pair with.

    Every member is a plain attribute built here, and nothing writes to the
    structure, to omega or to any member afterwards, so one structure can
    serve any number of families and callers at once; code that changed a
    member in place would change every later caller's value too.
    """

    def __init__(self, model, omega):
        if model.n != 3:
            # star, the omega^2 table and the volume omega^3/6 assume n = 3
            raise ValueError("Hermitian structures need complex dimension 3, "
                             "got a model of dimension n = %d" % model.n)
        self.model = model
        self.omega = omega
        if omega.conjugate() != omega:
            raise ValueError("fundamental form is not real")
        for pq in omega.bigrade():
            if pq != (1, 1):
                raise ValueError("fundamental form is not of bidegree (1,1)")
        n, dim = model.n, model.dim
        mi = Scalar.of(0, -1)
        # g(Z_j, Z_k') = -i omega(Z_j, Z_k')
        self.g = [[mi * omega.at(j, k + n) for k in range(n)]
                  for j in range(n)]
        # certified before g is inverted, so a degenerate g names its minor;
        # det g > 0 also makes the volume's coefficient c_vol nonzero
        self._certify_positive()
        # G6 = [[0, g], [g^T, 0]], so Ginv6 = [[0, g^-T], [g^-1, 0]]: the
        # nonzero entries of the mixed blocks, row by row
        ginv = matrix_inverse(self.g)
        mixed = [(a, b) for a in range(dim) for b in range(dim)
                 if (a < n) != (b < n)]
        self.G6 = _nonzero({(a, b): self.g[a][b - n] if a < n
                            else self.g[b][a - n] for a, b in mixed})
        self.Ginv6 = _nonzero({(a, b): ginv[b - n][a] if a < n
                               else ginv[a - n][b] for a, b in mixed})
        # Hm[a][b] = G6[a][sigma(b)] and Hm^-1[a][b] = Ginv6[sigma(a)][b] on
        # T, sigma(a) = (a + 3) % 6: the rows and columns the adjoint of
        # harmonic.CompatibleMetricH reads, each in index order
        self.Hm_T_rows = [[] for _ in range(dim)]
        self.Hm_inv_T_cols = [[] for _ in range(dim)]
        for (a, b), x in self.G6.items():
            self.Hm_T_rows[a].append(((b + n) % dim, x))
        for (a, b), x in self.Ginv6.items():
            self.Hm_inv_T_cols[b].append(((a + n) % dim, x))
        # T* of the extension frame, carried by the Bismut isomorphism V + xi
        # -> V - (1/2) g^-1 xi to the columns S[a][k] = -(1/2) Ginv6[a][k],
        # k < 3, of the complexified frame (algebroid.subbundle_report)
        m_half = Scalar.of(Fraction(-1, 2))
        self.cotangent = metric_span(self, {(a, k): m_half * x for (a, k), x
                                            in self.Ginv6.items() if k < n})
        self.omega_sq = omega.wedge(omega)
        self.d_omega_sq = dw2 = self.omega_sq.d()
        # the Aeppli check of the balanced class [omega^2]: omega^2 is (2,2),
        # so d^c(omega^2) = i ((d omega^2)^{2,3} - (d omega^2)^{3,2})
        self.ddc_omega_sq = (dw2.part(2, 3) - dw2.part(3, 2)).scale(
            Scalar.i()).d()
        self.dc_omega = omega.dc()
        # omega is (1,1), so (d^c omega)^{2,1} = -i partial(omega)
        self.two_i_partial_omega = self.dc_omega.part(2, 1).scale(Scalar.of(-2))
        self.ddc_omega = self.dc_omega.d()
        self.omega_sq_table = self._omega_sq_table()
        # vol = omega^3/6 = c_vol e_top, lam[a] = (d e_a ^ omega^2)_top
        self.c_vol = self.omega_sq_top(omega) * Scalar.of(Fraction(1, 6))
        self.volume = model.basis_form(model.top_index(), self.c_vol)
        self.omega_sq_lambda = [self.omega_sq_top(da) for da in model.diff]
        self.bismut = self._bismut()
        # theta = J d^* omega = -J *d(omega^2)/2, as d^* = -*d* and *omega =
        # omega^2/2 in complex dimension 3 (Huybrechts, Complex Geometry, 1.2)
        self.lee_form = self.j_form(
            -self.star(self.d_omega_sq.scale(Scalar.of(Fraction(1, 2)))))
        self.lee_sharp = self.sharp(self.lee_form)
        # g^c = sum_{ab} Ginv[a][b] Gamma^c_{ab} of Levi-Civita, by Koszul
        self.lc_trace = self.sharp(model.ad_trace).coeffs

    def _certify_positive(self):
        """Exact Sylvester certificate that the Hermitian Gram matrix is positive.

        One elimination of g without row exchanges: its k-th pivot is
        minor_k / minor_{k-1} (Golub & Van Loan, Matrix Computations,
        section 4.2), so the running product of the pivots is each leading
        minor exactly.  Each must be real with sign +1, or ValueError names
        the first that is not; a minor whose sign is not decided exactly
        (Scalar.sign) raises ValueError as well.  Positive minor_k and
        minor_{k-1} make the pivot a monomial, so it inverts exactly.
        """
        a = [list(row) for row in self.g]
        minor = Scalar.one()
        for k in range(len(a)):
            row = a[k]
            minor = minor * row[k]
            if not minor.is_real() or minor.sign() != 1:
                raise ValueError("Gram matrix is not positive definite "
                                 "(leading minor %d is %s)" % (k + 1, minor))
            s = row[k].inverse()
            for r in range(k + 1, len(a)):
                f = a[r][k] * s
                a[r] = [x - f * y for x, y in zip(a[r], row)]

    # -- star and Lee form -----------------------------------------------------

    def star(self, form):
        """C-linear Hodge star with volume omega^3/3!.

        The image of a basis form e_J = e_j1 ^ .. ^ e_jk is the volume
        contracted by the metric duals of its factors, i_{#e_jk} .. i_{#e_j1}
        vol: the form with e_I ^ *e_J = <e_I, e_J> vol for every e_I.
        """
        terms = {}
        for J, v in form.terms.items():
            for K, w in self._star_image(J).items():
                x = w * v
                u = terms.get(K)
                terms[K] = x if u is None else u + x
        return InvariantForm(self.model, terms)

    def _star_image(self, J):
        out = self.volume
        for a in J:
            out = out.contract(self.sharp(self.model.basis_form((a,))))
        return out.terms

    def omega_sq_top(self, form):
        """The c with form ^ omega^2 = c e_top, for a 2-form: sum_{a<b}
        form_ab W[a][b], read off the table.  A nonzero form of another
        degree, or of mixed degree, is a ValueError."""
        if form.terms and form.degree() != 2:
            raise ValueError("the omega^2 pairing takes a 2-form, got a "
                             "%d-form" % form.degree())
        W = self.omega_sq_table
        return Scalar.sum_of_products([(v, W[a][b], 1) for (a, b), v
                                       in form.terms.items()])

    def _omega_sq_table(self):
        """W[a][b] = (e_a ^ e_b ^ omega^2)_top: a term v e_K of omega^2 sets
        W[a][b] = -W[b][a] = s v, {a < b} the complement of K and s the sign
        of e_a ^ e_b ^ e_K; a complement that is not a pair is a ValueError."""
        dim = self.model.dim
        W = [[Scalar.zero()] * dim for _ in range(dim)]
        for K, v in self.omega_sq.terms.items():
            (a, b), sign = self.model.complement(K)
            v = v if sign > 0 else -v
            W[a][b], W[b][a] = v, -v
        return W

    def j_form(self, form):
        """(J a)(X,..) = a(JX,..): multiplies a (p,q) term by i^(p-q)."""
        n = self.model.n
        powers = (Scalar.one(), Scalar.i(), Scalar.of(-1), Scalar.of(0, -1))
        # p - q = 2p - (p + q) for a term of degree p + q
        return InvariantForm(self.model, {
            k: v * powers[(2 * sum(1 for a in k if a < n) - len(k)) % 4]
            for k, v in form.terms.items()})

    def sharp(self, oneform):
        """Metric dual vector of a 1-form."""
        coeffs = [Scalar.zero()] * self.model.dim
        for (b, a), gi in self.Ginv6.items():
            v = oneform.terms.get((a,))
            if v is not None:
                coeffs[b] = coeffs[b] + gi * v
        return InvariantVector(self.model, coeffs)

    def integrate(self, form):
        """lambda: top coefficient normalized so the total volume is 1."""
        return form.top_coeff() * self.c_vol.inverse()

    def raise_form(self, F):
        """M = Ginv6 . F . Ginv6 (Ginv6 is symmetric): the sparse matrix
        {(a, b): F^{ab}} of a 2-form with both indices raised.  Summed
        against the entries of a 2-form G it is the double contraction
        g^{ac} g^{bd} F_ab G_cd."""
        Ginv = self.Ginv6
        return _product_sum([(_product_sum([(Ginv, _form_entries(F), 1)]),
                              Ginv, 1)])

    def wedge_star(self, M, T):
        """F ^ *T = i_{sharp Y} vol, Y_c = sum_{a<b} M_ab T_abc, of a 2-form
        F given as M = raise_form(F) and a 3-form T: no star image is built.

        For every 1-form gamma, gamma ^ F ^ *T = <gamma ^ F, T> vol =
        <gamma, Y> vol = gamma ^ *Y, and *Y = i_{sharp Y} vol (Huybrechts,
        Complex Geometry, 1.2).  A term v e_ijk of T adds v M_ij to Y_k,
        v M_jk to Y_i and v M_ki to Y_j.
        """
        terms = {}
        for (i, j, k), v in T.terms.items():
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                m = M.get((a, b))
                if m is not None:
                    terms.setdefault((c,), []).append((m, v, 1))
        Y = InvariantForm(self.model, {c: Scalar.sum_of_products(t)
                                       for c, t in terms.items()})
        return self.volume.contract(self.sharp(Y))

    # -- connection ---------------------------------------------------------

    def _bismut(self):
        """The Bismut connection nabla^- = nabla + (1/2) g^{-1} d^c omega
        (Levi-Civita nabla plus a totally skew torsion), as one product.

        Koszul's formula on invariant fields (derivative terms vanish) reads
        g(nabla_{Z_a} Z_b, Z_z) = P_abz - P_bza + P_zab with P_xyz =
        (1/2) g([Z_x, Z_y], Z_z), and [Z_x, Z_y]^c = -d w^c(Z_x, Z_y): the
        terms of the d w^c paired with G6 give every nonzero P_xyz, and the
        three Koszul terms are P with its keys permuted.  With the torsion
        rows (1/2) d^c omega(Z_a, Z_b, Z_z), read off the terms of d^c
        omega, they are summed into one matrix, raised by one product with
        Ginv6 whose entry (d, (a, b)) goes to the matrix of direction a.  So
        the cost follows the nonzero structure constants and torsion terms.
        """
        half = Scalar.of(Fraction(1, 2))
        brackets = {}  # ((x, y), c): (1/2) [Z_x, Z_y]^c
        for c, dw in enumerate(self.model.diff):
            for (x, y), v in dw.terms.items():
                v = half * v
                brackets[(x, y), c], brackets[(y, x), c] = -v, v
        P = _product_sum([(brackets, self.G6, 1)])
        # the matrices below hold the entry for nabla_{Z_a} Z_b at (z, (a, b))
        koszul = [{(z, (x, y)): v for ((x, y), z), v in P.items()},
                  {(y, (z, x)): v for ((x, y), z), v in P.items()},
                  {(x, (y, z)): v for ((x, y), z), v in P.items()}]
        torsion = {}
        for (i, j, k), v in self.dc_omega.terms.items():
            for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                torsion[z, (a, b)], torsion[z, (b, a)] = v, -v
        one = Scalar.one()
        lowered = _combination([one, -one, one, half], koszul + [torsion])
        gamma = _product_sum([(self.Ginv6, lowered, 1)])
        out = [{} for _ in range(self.model.dim)]
        for (d, (a, b)), v in gamma.items():
            out[a][d, b] = v
        return out
