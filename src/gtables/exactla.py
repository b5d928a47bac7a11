"""Exact rational linear algebra: echelon forms, kernels, solving, quotient coordinates.

All scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  Elimination is fraction-free (Bareiss) on
integer-scaled sparse rows, with a final normalization pass; pivoting always
picks the first nonzero entry in column order, so every result is
deterministic and canonical.  Matrices are stored as tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Q = Fraction


class AmbiguousCoordinates(Exception):
    """Raised when representatives are linearly dependent modulo the subspace."""


def scalar_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def scalar_from_str(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError("zero denominator in %r" % s)
        return Fraction(int(num), den)
    return Fraction(int(s))


def _rref_sparse(rows, ncols):
    """Reduced row echelon form of rows given and returned as {col: Fraction}.

    Returns (pivot columns, reduced rows).  Forward pass is integer Bareiss on
    rows scaled by their common denominator; normalization happens once at the
    end.
    """
    m = []
    for row in rows:
        den = 1
        for x in row.values():
            den = den * x.denominator // gcd(den, x.denominator)
        m.append({j: int(x * den) for j, x in row.items() if x})
    nrows = len(m)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i].get(c, 0) != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i].get(c, 0)
            if mic == 0 and piv == prev:
                continue
            mr = m[r]
            mi = m[i]
            cols = set(mi) | set(mr)
            new = {}
            for j in cols:
                v = (mi.get(j, 0) * piv - mic * mr.get(j, 0)) // prev
                if v:
                    new[j] = v
            new.pop(c, None)
            m[i] = new
        prev = piv
        pivots.append(c)
        r += 1
    red = [{j: Fraction(v) for j, v in m[i].items()} for i in range(len(pivots))]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        piv = red[i][c]
        red[i] = {j: v / piv for j, v in red[i].items()}
        for k in range(i):
            f = red[k].get(c, 0)
            if f:
                row = dict(red[k])
                for j, v in red[i].items():
                    w = row.get(j, Fraction(0)) - f * v
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
                red[k] = row
    return pivots, red


def rref(rows, ncols):
    """Reduced echelon form; rows is an iterable of Fraction sequences.

    Returns (pivot columns, reduced rows as Fraction lists).
    """
    srows = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]
    pivots, red = _rref_sparse(srows, ncols)
    zero = Fraction(0)
    return pivots, [[row.get(j, zero) for j in range(ncols)] for row in red]


class Matrix:
    """Immutable exact matrix."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows  # tuple of row tuples

    @staticmethod
    def from_rows(rows, ncols=None):
        rows = [tuple(x if type(x) is Fraction else Fraction(x) for x in r)
                for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return Matrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def from_cols(cols, nrows=None):
        cols = list(cols)
        if nrows is None:
            nrows = len(cols[0])
        rows = [[Fraction(c[i]) for c in cols] for i in range(nrows)]
        return Matrix.from_rows(rows, ncols=len(cols))

    @staticmethod
    def zeros(nrows, ncols):
        return Matrix.from_rows([[Fraction(0)] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(n):
        return Matrix.from_rows(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)], n)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def col(self, j):
        return tuple(self[i, j] for i in range(self.nrows))

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def transpose(self):
        return Matrix.from_rows(
            [[self[i, j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows)

    def matvec(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        nz = [(j, y) for j, y in enumerate(v) if y]
        if 2 * len(nz) < self.ncols:
            out = [Fraction(0)] * self.nrows
            for i, r in enumerate(self._rows):
                acc = Fraction(0)
                for j, y in nz:
                    if r[j]:
                        acc += r[j] * y
                out[i] = acc
            return tuple(out)
        return tuple(sum((x * y for x, y in zip(r, v) if x and y), Fraction(0))
                     for r in self._rows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = [self.matvec(other.col(j)) for j in range(other.ncols)]
        return Matrix.from_cols(cols, nrows=self.nrows)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix.from_rows(
            [[self[i, j] + other[i, j] for j in range(self.ncols)]
             for i in range(self.nrows)], self.ncols)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, a):
        a = Fraction(a)
        return Matrix.from_rows(
            [[a * self[i, j] for j in range(self.ncols)] for i in range(self.nrows)],
            self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self.shape != other.shape:
            return NotImplemented if not isinstance(other, Matrix) else False
        return all(self[i, j] == other[i, j]
                   for i in range(self.nrows) for j in range(self.ncols))

    def __hash__(self):
        return hash((self.shape, tuple(self.row(i) for i in range(self.nrows))))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    def rank(self):
        pivots, _ = rref([self.row(i) for i in range(self.nrows)], self.ncols)
        return len(pivots)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse needs a square matrix")
        n = self.nrows
        aug = [list(self.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)]
               for i in range(n)]
        pivots, red = rref(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_rows([r[n:] for r in red], n)


class Subspace:
    """Subspace of Q^n with a canonical reduced-echelon basis.

    Two subspaces are equal iff their stored bases are identical, which holds
    whenever they have the same span.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        pivots, red = rref(vectors, ambient_dim)
        self.basis = tuple(tuple(r) for r in red)

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return all(x == 0 for x in self.reduce(v))

    def reduce(self, v):
        """Residual of v after eliminating the pivot coordinates of the basis."""
        v = list(map(Fraction, v))
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            f = v[lead]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)


def kernel(M: Matrix) -> Subspace:
    """Null space {v : Mv = 0} with canonical basis."""
    pivots, red = rref([M.row(i) for i in range(M.nrows)], M.ncols)
    pivset = set(pivots)
    free = [c for c in range(M.ncols) if c not in pivset]
    vecs = []
    for f in free:
        v = [Fraction(0)] * M.ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        vecs.append(v)
    return Subspace(M.ncols, vecs)


def solve(M: Matrix, b):
    """Solve Mx = b exactly.

    Returns (particular solution, kernel subspace), or None when b is outside
    the column span.
    """
    b = list(map(Fraction, b))
    if len(b) != M.nrows:
        raise ValueError("length of b must equal row count")
    aug = [list(M.row(i)) + [b[i]] for i in range(M.nrows)]
    pivots, red = rref(aug, M.ncols + 1)
    if M.ncols in pivots:
        return None
    x = [Fraction(0)] * M.ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][M.ncols]
    return tuple(x), kernel(M)


def coords_modulo(z, reps, W: Subspace):
    """Coefficients lam with z - sum(lam_i * reps_i) in W.

    Returns None when z is outside span(reps) + W; raises
    AmbiguousCoordinates when the reps are dependent modulo W.
    """
    reps = [list(map(Fraction, r)) for r in reps]
    cols = reps + [list(r) for r in W.basis]
    n = W.ambient_dim
    for r in reps:
        if len(r) != n:
            raise ValueError("ambient dimension mismatch")
    if len(z) != n:
        raise ValueError("ambient dimension mismatch")
    if not cols:
        return () if all(x == 0 for x in z) else None
    # one elimination of [reps | W | z]: pivots among the first k columns do
    # not depend on z, so they certify independence before z is looked at
    k = len(cols)
    pivots, red = rref([[c[i] for c in cols] + [z[i]] for i in range(n)], k + 1)
    if pivots[:k] != list(range(k)):
        raise AmbiguousCoordinates("representatives dependent modulo subspace")
    if len(pivots) > k:
        return None
    return tuple(red[i][k] for i in range(len(reps)))
