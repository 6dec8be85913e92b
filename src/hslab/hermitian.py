"""Metric-dependent operators on invariant forms.

Everything is driven by a Hermitian fundamental form omega: the complexified
Gram matrix, its exact inverse, a C-bilinear Hodge star, the codifferential
d^* = -*d*, the Lee form J d^* omega, double metric contractions of 2-forms,
and the Levi-Civita / Bismut connection coefficients on the invariant frame.

The module also holds the package's one exact linear-algebra core over
Scalar matrices: rref (Gauss-Jordan with monomial pivots) with solve and
matrix_inverse built on it, matrix_det (forward elimination that stops at
the first zero column), matmul, and sandwich (left . mid . right with a
middle matrix of Scalars or forms).

A HermitianStructure builds its brackets, Levi-Civita and Bismut
coefficients and Lee form at most once and then returns the same object on
every call, as star does with its table of basis images; the metric a
structure was built for never changes.

All operations stay in exact scalars; frame orthonormalization (which would
need square roots) is never performed.  Positivity of Gram data is certified
by evaluating leading principal minors as floats at pi, which affects no
exact verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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
    Raises ValueError when a column offers only non-monomial pivots.
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
        a[row] = [x * s for x in a[row]]
        for r in range(len(a)):
            f = a[r][col]
            if r != row and not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
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

    Kept apart from rref: it stops at the first zero column, which is what
    makes the Hodge star's many singular minors cheap.
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


def matmul(a, b):
    """Product of two Scalar matrices, skipping zero factors."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Scalar.zero()] * ncols
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            for j, y in enumerate(b[k]):
                if not y.is_zero():
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def sandwich(left, mid, right, zero):
    """left . mid . right for Scalar matrices left, right around any mid.

    mid may hold Scalars or forms (anything with is_zero, + and * Scalar);
    zero is its additive zero.  Each term is mid[k][l] * (left[i][k] *
    right[l][j]): the two outer scalars multiply first, so every middle
    entry is scaled once per term rather than once per factor.
    """
    ncols = len(right[0]) if right else 0
    out = []
    for lrow in left:
        orow = []
        for j in range(ncols):
            acc = zero
            for k, x in enumerate(lrow):
                if x.is_zero():
                    continue
                for l, m in enumerate(mid[k]):
                    y = right[l][j]
                    if m.is_zero() or y.is_zero():
                        continue
                    acc = acc + m * (x * y)
            orow.append(acc)
        out.append(orow)
    return out


class HermitianStructure:
    """A Hermitian metric on an invariant complex model, given by omega.

    brackets(), levi_civita(), bismut() and lee_form() are built on first
    call and the same object is returned afterwards.  That is sound because
    omega, the returned connection coefficients and the returned forms are
    never modified after construction; code that changed them in place
    would change every later caller's value too.
    """

    def __init__(self, model, omega):
        self.model = model
        self.omega = omega
        if omega.conjugate() != omega:
            raise ValueError("fundamental form is not real")
        for pq in omega.bigrade():
            if pq != (1, 1):
                raise ValueError("fundamental form is not of bidegree (1,1)")
        n = model.n
        mi = Scalar.of(0, -1)
        Z = [model.basis_vector(a) for a in range(2 * n)]
        # g(Z_j, Z_k') = -i omega(Z_j, Z_k')
        self.g = [[mi * omega.apply(Z[j], Z[k + n]) for k in range(n)]
                  for j in range(n)]
        zero = Scalar.zero()
        self.G6 = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
        for j in range(n):
            for k in range(n):
                self.G6[j][k + n] = self.g[j][k]
                self.G6[k + n][j] = self.g[j][k]
        self.Ginv6 = matrix_inverse(self.G6)
        self.volume = omega.wedge(omega).wedge(omega).scale(Fraction(1, 6))
        self.c_vol = self.volume.top_coeff()
        if self.c_vol.is_zero():
            raise ValueError("degenerate fundamental form: omega^3 = 0")
        self._star_cache = {}
        self._brackets = None
        self._levi_civita = None
        self._bismut = None
        self._lee_form = None
        self._certify_positive()

    def _certify_positive(self):
        """Float certificate that the Hermitian Gram matrix is positive."""
        n = self.model.n
        for k in range(1, n + 1):
            minor = matrix_det([[self.g[i][j] for j in range(k)] for i in range(k)])
            val = minor.evalf()
            if abs(val.imag) > 1e-9 or val.real <= 0:
                raise ValueError("Gram matrix is not positive definite "
                                 "(leading minor %d evaluates to %s)" % (k, val))

    # -- frame pairing helpers -----------------------------------------------

    def dual_pairing(self, I, J):
        """C-bilinear dual metric <e_I, e_J> = det of generator pairings."""
        if len(I) != len(J):
            return Scalar.zero()
        if not I:
            return Scalar.one()
        rows = [[self.Ginv6[a][b] for b in J] for a in I]
        return matrix_det(rows)

    def form_values(self, F):
        """Matrix F(Z_a, Z_b) of a 2-form over the complexified frame."""
        dim = self.model.dim
        zero = Scalar.zero()
        out = [[zero for _ in range(dim)] for _ in range(dim)]
        for (a, b), v in F.terms.items():
            out[a][b] = v
            out[b][a] = -v
        return out

    # -- star, codifferential, Lee form ----------------------------------------

    def star(self, form):
        """C-linear Hodge star with volume omega^3/3!."""
        model = self.model
        out = model.zero()
        dim = model.dim
        for J, v in form.terms.items():
            key = J
            image = self._star_cache.get(key)
            if image is None:
                k = len(J)
                image = model.zero()
                for I in combinations(range(dim), k):
                    pairing = self.dual_pairing(I, J)
                    if pairing.is_zero():
                        continue
                    Ic = tuple(x for x in range(dim) if x not in I)
                    merged, sign = _merge_sign(I, Ic)
                    s = pairing * self.c_vol
                    if sign < 0:
                        s = -s
                    image = image + InvariantForm(model, {Ic: s})
                self._star_cache[key] = image
            out = out + image.scale(v)
        return out

    def codifferential(self, form):
        """d^* = -*d* in real dimension six."""
        return -self.star(self.star(form).d())

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

    def lee_form(self):
        """theta = J d^* omega; vanishes iff d(omega^2) = 0."""
        if self._lee_form is None:
            self._lee_form = self.j_form(self.codifferential(self.omega))
        return self._lee_form

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
        zero = Scalar.zero()
        # M = Ginv . F . Ginv (Ginv6 is symmetric), then contract with G
        M = sandwich(self.Ginv6, self.form_values(F), self.Ginv6, zero)
        out = zero
        for mrow, grow in zip(M, self.form_values(G)):
            for m, g in zip(mrow, grow):
                if not m.is_zero() and not g.is_zero():
                    out = out + m * g
        return out

    # -- connections --------------------------------------------------------

    def brackets(self):
        """Lie brackets [Z_a, Z_b] from the Maurer-Cartan equations."""
        if self._brackets is not None:
            return self._brackets
        model = self.model
        dim = model.dim
        Z = [model.basis_vector(a) for a in range(dim)]
        out = [[None] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                coeffs = [-(model.diff[c].apply(Z[a], Z[b])) for c in range(dim)]
                out[a][b] = InvariantVector(model, coeffs)
        self._brackets = out
        return out

    def levi_civita(self):
        """Koszul formula on invariant fields (derivative terms vanish)."""
        if self._levi_civita is not None:
            return self._levi_civita
        dim = self.model.dim
        # gb[a][b][c] = g([Z_a, Z_b], Z_c)
        gb = [matmul([v.coeffs for v in row], self.G6) for row in self.brackets()]
        half = Scalar.of(Fraction(1, 2))
        gamma = []
        for a in range(dim):
            kvals = [[half * (gb[a][b][c] - gb[b][c][a] + gb[c][a][b])
                      for c in range(dim)] for b in range(dim)]
            gamma.append(matmul(kvals, self.Ginv6))
        self._levi_civita = ConnectionCoefficients(self, gamma)
        return self._levi_civita

    def bismut(self):
        """nabla^- = nabla + (1/2) g^{-1} d^c omega (totally skew torsion)."""
        if self._bismut is not None:
            return self._bismut
        lc = self.levi_civita()
        model = self.model
        dim = model.dim
        T = self.omega.dc()
        Z = [model.basis_vector(a) for a in range(dim)]
        half = Scalar.of(Fraction(1, 2))
        gamma = [[[Scalar.zero()] * dim for _ in range(dim)] for _ in range(dim)]
        for a in range(dim):
            for b in range(dim):
                tvals = [half * T.apply(Z[a], Z[b], Z[c]) for c in range(dim)]
                for d in range(dim):
                    acc = lc.gamma[a][b][d]
                    for c in range(dim):
                        if not tvals[c].is_zero() and not self.Ginv6[c][d].is_zero():
                            acc = acc + tvals[c] * self.Ginv6[c][d]
                    gamma[a][b][d] = acc
        self._bismut = ConnectionCoefficients(self, gamma)
        return self._bismut


class ConnectionCoefficients:
    """Invariant connection coefficients: nabla_{Z_a} Z_b = Gamma^d_{ab} Z_d.

    Keeps the structure's model and brackets but not the structure itself:
    the structure keeps its connections, and a reference back would make a
    cycle that only the cyclic garbage collector frees, so every metric's
    objects would outlive it.
    """

    def __init__(self, structure, gamma):
        self.model = structure.model
        self._brackets = structure.brackets()
        self.gamma = gamma

    def nabla(self, a, b):
        """The vector nabla_{Z_a} Z_b."""
        return InvariantVector(self.model, list(self.gamma[a][b]))

    def torsion(self, a, b):
        """T(Z_a, Z_b) = nabla_a Z_b - nabla_b Z_a - [Z_a, Z_b]."""
        return self.nabla(a, b) - self.nabla(b, a) - self._brackets[a][b]
