"""Metric-dependent operators on invariant forms.

Everything is driven by a Hermitian fundamental form omega: the complexified
Gram matrix G6 = [[0, g], [g^T, 0]], its inverse from the 3x3 block inverse
of g, a C-bilinear Hodge star, the Lee form J d^* omega from d(omega^2),
double metric contractions of 2-forms, and the Levi-Civita / Bismut
connection coefficients on the invariant frame.

The module also holds the package's one exact linear-algebra core over
Scalar matrices: rref (Gauss-Jordan with monomial pivots) with solve and
matrix_inverse built on it, matrix_det (forward elimination that stops at
the first zero column), and matmul, one zero-skipping product, with
sandwich (left . mid . right) as two of them: a Scalar entry is one
Scalar.sum_of_products, and for curvatures it multiplies matrices of
forms with * (a wedge, itself one sum of products per key).
_product_sum multiplies sparse matrices, dicts of their nonzero entries,
with one sum of products per entry; _form_entries reads a 2-form as such
a matrix.

A HermitianStructure is finished at construction: it builds everything that
depends on the metric alone (omega^2, d(omega^2), d^c omega, 2i
partial(omega), dd^c omega, the volume, the table (e_a ^ e_b ^ omega^2)_top
and its companion (d e_a ^ omega^2)_top, the Levi-Civita and Bismut
coefficients, the Bismut matrices of nabla^-_{Z_c} and Ginv6 as sparse
matrices (bismut_sparse, Ginv6_sparse: what connection_DG and
frame_contraction read), the Lee form and its sharp, *d^c omega and the
Levi-Civita trace of the codifferential) and nothing is written to it
afterwards, so one structure serves every verifier and family of its
metric.  The brackets are the model's (NilmanifoldModel.brackets), built
once per model.  The Bismut torsion rows and the table are read off the
nonzero terms of d^c omega and of omega^2, and Levi-Civita pairs only the
nonzero brackets with G6, so their cost follows the nonzero structure
constants.  wedge_omega_sq is the wedge with omega^2; star builds the image
of each basis form e_J on every call: the volume contracted by the metric
duals (sharp) of the factors of e_J, in order.

All operations stay in exact scalars; frame orthonormalization (which would
need square roots) is never performed.  Positivity of the Gram matrix is
certified exactly: Sylvester's criterion on its leading principal minors,
each signed by Scalar.sign().
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .cealg import InvariantForm, InvariantVector, _merge_sign


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


def matrix_det(rows):
    """Exact determinant by forward elimination on Scalars.

    Kept apart from rref: it needs no reduced form and stops at the first
    zero column.  The positivity certificate's leading minors use it.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    det = Scalar.one()
    for col in range(n):
        piv = _pivot_row(a, col, col)
        if piv is None:
            return Scalar.zero()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        s = a[col][col].inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            f = a[r][col] * s
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _sparse(M):
    """The nonzero entries {(i, j): M[i][j]} of a Scalar matrix."""
    return {(i, j): v for i, row in enumerate(M) for j, v in enumerate(row)
            if not v.is_zero()}


def _nonzero(m):
    return {k: v for k, v in m.items() if not v.is_zero()}


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


def matmul(a, b, zero):
    """Matrix product a . b, skipping zero factors; zero is the entries' zero.

    Each entry gathers the products its nonzero factors meet.  Over Scalars
    it is one Scalar.sum_of_products; otherwise the products are taken with
    * (a Scalar and a form scale, two forms wedge) and added, so one product
    serves Scalar matrices and matrices of forms alike.
    """
    ncols = len(b[0]) if b else 0
    if zero.__class__ is Scalar:
        total = Scalar.sum_of_products
    else:
        def total(t):
            return sum((x * y for x, y, _ in t), zero)
    out = []
    for row in a:
        terms = [None] * ncols
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            for j, y in enumerate(b[k]):
                if not y.is_zero():
                    if terms[j] is None:
                        terms[j] = []
                    terms[j].append((x, y, 1))
        out.append([zero if t is None else total(t) for t in terms])
    return out


def sandwich(left, mid, right, zero):
    """left . mid . right, with mid of Scalars or forms; zero is mid's zero."""
    return matmul(matmul(left, mid, zero), right, zero)


def metric_trace(Ginv, gamma):
    """g^c = sum_{ab} Ginv[a][b] Gamma^c_{ab} for every c, skipping zeros."""
    zero = Scalar.zero()
    return [sum((g * gamma[a][b][c] for a, row in enumerate(Ginv)
                 for b, g in enumerate(row) if not g.is_zero()
                 and not gamma[a][b][c].is_zero()), zero)
            for c in range(len(Ginv))]


class HermitianStructure:
    """A Hermitian metric on an invariant complex model, given by omega.

    The model must have complex dimension n = 3; any other is a ValueError.

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
        zero = Scalar.zero()
        # G6 = [[0, g], [g^T, 0]], so Ginv6 = [[0, g^-T], [g^-1, 0]]
        ginv = matrix_inverse(self.g)
        self.G6 = [[zero for _ in range(dim)] for _ in range(dim)]
        self.Ginv6 = [[zero for _ in range(dim)] for _ in range(dim)]
        for j in range(n):
            for k in range(n):
                self.G6[j][k + n] = self.G6[k + n][j] = self.g[j][k]
                self.Ginv6[j][k + n] = self.Ginv6[k + n][j] = ginv[k][j]
        self.omega_sq = omega.wedge(omega)
        self.d_omega_sq = self.omega_sq.d()
        self.dc_omega = omega.dc()
        # omega is (1,1), so (d^c omega)^{2,1} = -i partial(omega)
        self.two_i_partial_omega = self.dc_omega.part(2, 1).scale(-2)
        self.ddc_omega = self.dc_omega.d()
        self.volume = self.omega_sq.wedge(omega).scale(Fraction(1, 6))
        self.c_vol = self.volume.top_coeff()
        self.omega_sq_table = self._omega_sq_table()
        self.levi_civita = self._levi_civita()
        self.bismut = self._bismut()
        self.Ginv6_sparse = _sparse(self.Ginv6)
        self.bismut_sparse = [_sparse(zip(*g)) for g in self.bismut.gamma]
        # lam[a] = (d e_a ^ omega^2)_top, read through the table
        W = self.omega_sq_table
        self.omega_sq_lambda = [sum((v * W[b][c] for (b, c), v in
                                     da.terms.items()), zero)
                                for da in model.diff]
        # theta = J d^* omega = -J *d(omega^2)/2, as d^* = -*d* and *omega =
        # omega^2/2 in complex dimension 3 (Huybrechts, Complex Geometry, 1.2)
        self.lee_form = self.j_form(
            -self.star(self.d_omega_sq.scale(Fraction(1, 2))))
        self.lee_sharp = self.sharp(self.lee_form)
        self.star_dc_omega = self.star(self.dc_omega)
        self.lc_trace = metric_trace(self.Ginv6, self.levi_civita.gamma)

    def _certify_positive(self):
        """Exact Sylvester certificate that the Hermitian Gram matrix is positive.

        Each leading minor must be real with sign +1; a minor whose sign is
        not decided exactly (Scalar.sign) raises ValueError as well.
        """
        n = self.model.n
        for k in range(1, n + 1):
            minor = matrix_det([[self.g[i][j] for j in range(k)] for i in range(k)])
            if not minor.is_real() or minor.sign() != 1:
                raise ValueError("Gram matrix is not positive definite "
                                 "(leading minor %d is %s)" % (k, minor))

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

    def wedge_omega_sq(self, form):
        """form ^ omega^2."""
        return form.wedge(self.omega_sq)

    def _omega_sq_table(self):
        """W[a][b] = (e_a ^ e_b ^ omega^2)_top: a term v e_K of omega^2 sets
        W[a][b] = -W[b][a] = s v, {a < b} the complement of K and s the sign
        of e_a ^ e_b ^ e_K; a complement that is not a pair is a ValueError."""
        dim = self.model.dim
        W = [[Scalar.zero()] * dim for _ in range(dim)]
        for K, v in self.omega_sq.terms.items():
            a, b = ab = tuple(i for i in range(dim) if i not in K)
            v = v if _merge_sign(ab, K)[1] > 0 else -v
            W[a][b], W[b][a] = v, -v
        return W

    def j_form(self, form):
        """(J a)(X,..) = a(JX,..): multiplies a (p,q) term by i^(p-q)."""
        n = self.model.n
        t = {}
        for k, v in form.terms.items():
            p = sum(1 for a in k if a < n)
            q = len(k) - p
            r = (p - q) % 4
            if r == 1:
                v = v * Scalar.i()
            elif r == 2:
                v = -v
            elif r == 3:
                v = v * Scalar.of(0, -1)
            t[k] = v
        return InvariantForm(self.model, t)

    def sharp(self, oneform):
        """Metric dual vector of a 1-form."""
        dim = self.model.dim
        coeffs = [Scalar.zero()] * dim
        for (a,), v in oneform.terms.items():
            for b in range(dim):
                gi = self.Ginv6[b][a]
                if not gi.is_zero():
                    coeffs[b] = coeffs[b] + gi * v
        return InvariantVector(self.model, coeffs)

    def integrate(self, form):
        """lambda: top coefficient normalized so the total volume is 1."""
        return form.top_coeff() * self.c_vol.inverse()

    def frame_contraction(self, F, G):
        """Double metric contraction g^{ac} g^{bd} F_{ab} G_{cd}.

        Equals the orthonormal-frame sum sum_{ij} F(e_i,e_j) G(e_i,e_j)
        without leaving exact arithmetic.
        """
        # M = Ginv . F . Ginv (Ginv6 is symmetric), then contract with G,
        # both over the nonzero entries only
        Ginv, Gv = self.Ginv6_sparse, _form_entries(G)
        M = _product_sum([(_product_sum([(Ginv, _form_entries(F), 1)]),
                           Ginv, 1)])
        return Scalar.sum_of_products([(m, Gv[k], 1) for k, m in M.items()
                                       if k in Gv])

    # -- connections --------------------------------------------------------

    def _levi_civita(self):
        """Koszul formula on invariant fields (derivative terms vanish).

        g(nabla_{Z_a} Z_b, Z_c) = (1/2)(g([Z_a, Z_b], Z_c) - g([Z_b, Z_c], Z_a)
        + g([Z_c, Z_a], Z_b)): the nonzero brackets times G6 give every nonzero
        g([Z_x, Z_y], Z_z), each added into the three places it appears in, so
        the zero brackets (all but a few on a nilpotent model) cost nothing.
        """
        dim, zero, br = self.model.dim, Scalar.zero(), self.model.brackets
        pairs = [(x, y) for x in range(dim) for y in range(dim)
                 if any(br[x][y].coeffs)]
        gb = matmul([br[x][y].coeffs for x, y in pairs], self.G6, zero)
        half = Scalar.of(Fraction(1, 2))
        koszul = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (x, y), row in zip(pairs, gb):
            for z, v in enumerate(row):
                if v.is_zero():
                    continue
                v = half * v
                koszul[x][y][z] = koszul[x][y][z] + v
                koszul[z][x][y] = koszul[z][x][y] - v
                koszul[y][z][x] = koszul[y][z][x] + v
        gamma = [matmul(kvals, self.Ginv6, zero) for kvals in koszul]
        return ConnectionCoefficients(self.model, gamma)

    def _bismut(self):
        """nabla^- = nabla + (1/2) g^{-1} d^c omega (totally skew torsion), the
        rows T(Z_a, Z_b, .) filled in from the terms of (1/2) d^c omega."""
        dim = self.model.dim
        T = [[Scalar.zero()] * dim for _ in range(dim * dim)]
        for (i, j, k), v in self.dc_omega.scale(Fraction(1, 2)).terms.items():
            T[i * dim + j][k] = T[j * dim + k][i] = T[k * dim + i][j] = v
            T[j * dim + i][k] = T[k * dim + j][i] = T[i * dim + k][j] = -v
        corr = matmul(T, self.Ginv6, Scalar.zero())
        gamma = [[[x if y.is_zero() else x + y
                   for x, y in zip(self.levi_civita.gamma[a][b],
                                   corr[a * dim + b])]
                  for b in range(dim)] for a in range(dim)]
        return ConnectionCoefficients(self.model, gamma)


class ConnectionCoefficients:
    """Invariant connection coefficients: nabla_{Z_a} Z_b = Gamma^d_{ab} Z_d.

    Keeps the model but not the metric's structure: the structure keeps its
    connections, and a reference back would make a cycle that only the
    cyclic garbage collector frees, so every metric's objects would outlive
    it.
    """

    def __init__(self, model, gamma):
        self.model = model
        self.gamma = gamma
