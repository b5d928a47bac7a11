"""Exact rational linear algebra: echelon forms, kernels, solving, quotient coordinates.

Every stored scalar is canonical: an ``int`` when it is integral, otherwise a
``fractions.Fraction`` in lowest terms with denominator > 1, and never a
``float`` or a ``bool``.  ``canon`` is the one normalizer and rejects anything
else; ``div`` is the one exact division, since ``int / int`` is the only way a
float can get in.  Matrices, subspaces and elimination share one storage:
sparse rows ``{col: scalar}`` that never store a zero; dense vectors are built
only on request (``Matrix.row``, ``Subspace.basis``).  Elimination is
fraction-free (Bareiss) on integer-scaled sparse rows, back substitution stays
in integers, and each stored entry is divided by its pivot once at the end;
pivoting always picks the first nonzero entry in column order, so every
result is deterministic and canonical.

A system with fixed independent columns and many right-hand sides is
factored once (``ColumnSolver``): columns and right-hand sides are sparse
rows too, each solve multiplies by a stored inverse and then checks C x == z
on every row, which certifies the result exactly.  ``coords_modulo`` is the
one-shot form of that solver on dense vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class AmbiguousCoordinates(Exception):
    """Raised when the columns of a ColumnSolver are linearly dependent; for
    coords_modulo, when the representatives are dependent modulo the subspace."""


def canon(x):
    """The canonical form of an exact scalar: x as an int when it is
    integral, else as a Fraction.  Raises TypeError on anything that is not
    an int or a Fraction, so a float or a bool never becomes a scalar."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("exact scalar expected (int or Fraction), got %s %r"
                    % (type(x).__name__, x))


def div(a, b):
    """The exact quotient a / b of two scalars, canonical.  This is the one
    true division of the package: ``int / int`` would give a float."""
    a, b = canon(a), canon(b)
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canon(Fraction(a) / b)


def scalar_to_str(x) -> str:
    x = canon(x)
    if type(x) is int:
        return str(x)
    return "%d/%d" % (x.numerator, x.denominator)


def signed_term(c, name, scalar=scalar_to_str, sep=" ") -> str:
    """The term c * name for ``join_terms``: name for 1, -name for -1, else
    the scalar as ``scalar`` renders it, then sep, then name."""
    if c == 1:
        return name
    if c == -1:
        return "-" + name
    return scalar(c) + sep + name


def join_terms(terms) -> str:
    """Rendered terms joined by " + ", or by " - " before a term with a
    leading minus sign, whose sign it takes over."""
    out = terms[0]
    for b in terms[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def scalar_from_str(s: str):
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError("zero denominator in %r" % s)
        return div(int(num), den)
    return int(s)


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows {col: scalar}.

    Zero entries may appear in the input rows; none is stored in the output.
    Returns (pivot columns, reduced rows as {col: scalar}, canonical).  The
    forward pass is integer Bareiss on rows scaled by their common
    denominator; back substitution clears the pivot columns in integers,
    keeping each row primitive, and each stored entry is divided by its
    row's pivot once at the end.
    """
    m = []
    for row in rows:
        try:
            den = lcm(*[x.denominator for x in row.values()])
        except AttributeError:
            for x in row.values():
                canon(x)  # raises TypeError on the entry that is not a scalar
            raise
        m.append({j: x.numerator * (den // x.denominator)
                  for j, x in row.items() if x})
    nrows = len(m)
    pivots = []
    prev = 1
    r = 0
    # fill-in stays within the columns the rows hold: only those can pivot
    for c in sorted(j for j in set().union(*m) if j < ncols):
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
    for i in range(r - 1, 0, -1):
        c = pivots[i]
        mi = m[i]
        piv = mi[c]
        for k in range(i):
            f = m[k].get(c)
            if f:
                # row k := (piv * row k - f * row i) / g, which clears column c
                g = gcd(piv, f)
                a = piv // g
                b = f // g
                row = {j: v * a for j, v in m[k].items()}
                for j, v in mi.items():
                    w = row.get(j, 0) - b * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                g = gcd(*row.values())
                m[k] = {j: v // g for j, v in row.items()} if g != 1 else row
    red = []
    for i, c in enumerate(pivots):
        piv = m[i][c]
        red.append(m[i] if piv == 1 else {j: div(v, piv) for j, v in m[i].items()})
    return pivots, red


class Matrix:
    """Immutable exact matrix on sparse rows {col: scalar} of canonical
    scalars; zeros are never stored, so equal matrices have equal rows."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows  # tuple of {col: scalar}, canonical

    @staticmethod
    def from_rows(rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return Matrix(len(rows), ncols, tuple(
            {j: x for j, x in enumerate(map(canon, r)) if x} for r in rows))

    @staticmethod
    def from_cols(cols, nrows=None):
        cols = list(cols)
        if nrows is None:
            nrows = len(cols[0])
        rows = tuple({} for _ in range(nrows))
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("ragged columns")
            for i, x in enumerate(map(canon, c)):
                if x:
                    rows[i][j] = x
        return Matrix(nrows, len(cols), rows)

    @staticmethod
    def block_diag(blocks):
        """The block-diagonal matrix with the given blocks, in order."""
        rows = []
        off = 0
        for B in blocks:
            rows.extend({off + j: x for j, x in r.items()} for r in B._rows)
            off += B.ncols
        return Matrix(len(rows), off, tuple(rows))

    @staticmethod
    def zeros(nrows, ncols):
        return Matrix(nrows, ncols, tuple({} for _ in range(nrows)))

    @staticmethod
    def identity(n):
        return Matrix(n, n, tuple({i: 1} for i in range(n)))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= i < self.nrows:
            raise IndexError("row %r out of range" % (i,))
        if not 0 <= j < self.ncols:
            raise IndexError("column %r out of range" % (j,))
        return self._rows[i].get(j, 0)

    def row(self, i):
        r = self._rows[i]
        return tuple([r.get(j, 0) for j in range(self.ncols)])

    def col(self, j):
        return tuple([r.get(j, 0) for r in self._rows])

    def entries(self):
        """The nonzero entries as (i, j, x), row by row."""
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                yield i, j, x

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def transpose(self):
        rows = tuple({} for _ in range(self.ncols))
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                rows[j][i] = x
        return Matrix(self.ncols, self.nrows, rows)

    def matvec(self, v):
        v = tuple(v)
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for r in self._rows:
            acc = 0
            for j, x in r.items():
                y = v[j]
                if y:
                    acc += x * y
            out.append(canon(acc))
        return tuple(out)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows = []
        for r in self._rows:
            acc = {}
            for t, a in r.items():
                for j, b in other._rows[t].items():
                    acc[j] = acc.get(j, 0) + a * b
            rows.append({j: canon(x) for j, x in acc.items() if x})
        return Matrix(self.nrows, other.ncols, tuple(rows))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        rows = []
        for r, s in zip(self._rows, other._rows):
            acc = dict(r)
            for j, x in s.items():
                acc[j] = acc.get(j, 0) + x
            rows.append({j: canon(x) for j, x in acc.items() if x})
        return Matrix(self.nrows, self.ncols, tuple(rows))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        a = canon(a)
        return Matrix(self.nrows, self.ncols, tuple(
            {j: canon(a * x) for j, x in r.items()} if a else {}
            for r in self._rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self.shape, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    def rank(self):
        return len(rref(self._rows, self.ncols)[0])

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse needs a square matrix")
        n = self.nrows
        pivots, red = rref([{**r, n + i: 1} for i, r in enumerate(self._rows)],
                           2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, tuple({j - n: x for j, x in r.items() if j >= n}
                                  for r in red))


class Subspace:
    """Subspace of Q^n with a canonical reduced-echelon basis, stored as the
    sparse rows ``rref`` returns: ``rows``, a tuple of {col: scalar} in order
    of leading column (``min(row)``) that never holds a zero.  ``basis`` is the
    dense view, built on request.

    Two subspaces are equal iff their rows are equal, which holds whenever
    they have the same span.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim, vectors=()):
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("every vector must have length %d" % ambient_dim)
            rows.append(dict(enumerate(map(canon, v))))
        self.ambient_dim = ambient_dim
        self.rows = tuple(rref(rows, ambient_dim)[1])

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim)

    @staticmethod
    def from_echelon(ambient_dim, rows):
        """Subspace whose reduced echelon basis is already known: sparse rows
        {col: scalar} without zeros, in order of their leading column.  No
        elimination runs, so the caller guarantees the form."""
        S = Subspace.__new__(Subspace)
        S.ambient_dim = ambient_dim
        S.rows = tuple(rows)
        return S

    @property
    def basis(self):
        n = self.ambient_dim
        return tuple([tuple([r.get(j, 0) for j in range(n)]) for r in self.rows])

    @property
    def dim(self):
        return len(self.rows)

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_echelon(
            self.ambient_dim, rref(self.rows + other.rows, self.ambient_dim)[1])

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim,
                     tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)


def kernel(M: Matrix) -> Subspace:
    """Null space {v : Mv = 0} with canonical basis.

    One elimination, with the columns reversed.  Each free column f' of that
    reduced form gives the null vector 1 at f' and minus the row entries at
    f' on the pivots, which lie left of f'.  Turned back, every vector leads
    at its own free column with a 1, and its other entries sit on pivot
    columns, where no other vector leads: the vectors are the reduced echelon
    basis, in order of their free columns.
    """
    n = M.ncols
    last = n - 1
    pivots, red = rref([{last - j: x for j, x in r.items()} for r in M._rows], n)
    # reversed free column -> [(pivot column, entry of the null vector)],
    # pivot columns decreasing
    entries = {}
    for c, row in zip(pivots, red):
        for j, x in row.items():
            if j != c:
                entries.setdefault(j, []).append((last - c, -x))
    pivset = set(pivots)
    vecs = []
    for f in range(n):
        if last - f not in pivset:
            v = {f: 1}
            for c, x in reversed(entries.get(last - f, ())):
                v[c] = x
            vecs.append(v)
    return Subspace.from_echelon(n, vecs)


def solve(M: Matrix, b):
    """Solve Mx = b exactly.

    Returns (particular solution, kernel subspace), or None when b is outside
    the column span.
    """
    b = list(b)
    if len(b) != M.nrows:
        raise ValueError("length of b must equal row count")
    n = M.ncols
    pivots, red = rref([{**r, n: y} for r, y in zip(M._rows, b)], n + 1)
    if n in pivots:
        return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = red[i].get(n, 0)
    return tuple(x), kernel(M)


class ColumnSolver:
    """C x = z for the n x k matrix C with columns ``cols``, factored once.

    Each column is sparse, {row index: scalar}.  One elimination of
    [C^T | I] picks k independent rows P of C (its pivot columns) and yields
    E with E C^T[:, P] = I, so (C[P])^{-1} = E^T.  Raises AmbiguousCoordinates
    when the columns are dependent, before any z is seen.
    """

    __slots__ = ("n", "_inv", "_cols")

    def __init__(self, cols, n):
        cols = [{i: x for i, x in c.items() if x} for c in cols]
        if any(not 0 <= i < n for c in cols for i in c):
            raise ValueError("every row index must be in range(%d)" % n)
        k = len(cols)
        pivots, red = rref([{**c, n + j: 1} for j, c in enumerate(cols)], n + k)
        if pivots and pivots[-1] >= n:
            raise AmbiguousCoordinates("columns are linearly dependent")
        self.n = n
        # (P_r, row r of E) per pivot row r: x_j = sum_r E[r][j] z[P_r]
        self._inv = [(p, {j - n: x for j, x in r.items() if j >= n})
                     for p, r in zip(pivots, red)]
        self._cols = [list(c.items()) for c in cols]

    def solve(self, z):
        """The unique x with C x = z, or None when z is outside the span.

        z is sparse like the columns, {row index: scalar}, and zero entries
        are dropped.  x is read off the rows P alone; checking C x == z on
        every row is what certifies it.
        """
        z = {i: v for i, v in ((i, canon(v)) for i, v in z.items()) if v}
        if any(not 0 <= i < self.n for i in z):
            raise ValueError("every row index must be in range(%d)" % self.n)
        x = [0] * len(self._cols)
        for p, e in self._inv:
            zp = z.get(p)
            if zp:
                for j, v in e.items():
                    x[j] += v * zp
        y = {}
        for col, xj in zip(self._cols, x):
            if xj:
                for i, c in col:
                    y[i] = y.get(i, 0) + c * xj
        if {i: v for i, v in y.items() if v} != z:
            return None
        return tuple([canon(v) for v in x])


def coords_modulo(z, reps, W: Subspace):
    """Coefficients lam with z - sum(lam_i * reps_i) in W, for dense z and reps.

    Returns None when z is outside span(reps) + W; raises
    AmbiguousCoordinates when the reps are dependent modulo W.  For many z,
    factor the ColumnSolver over [reps | W.rows] once; it takes sparse z.
    """
    n = W.ambient_dim
    if len(z) != n or any(len(r) != n for r in reps):
        raise ValueError("ambient dimension mismatch")
    cols = [{i: x for i, x in enumerate(r) if x} for r in reps]
    lam = ColumnSolver(cols + list(W.rows), n).solve(dict(enumerate(z)))
    return None if lam is None else lam[:len(reps)]
