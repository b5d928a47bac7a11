"""Bigraded cochains Lambda^p g* (x) Lambda^q g with cup product, super bracket,
Chevalley-Eilenberg differential d = {mu,-}, and cohomology.

A monomial xi_I (x) e_J is keyed by two integers, the bit masks of I and J,
with the sign of the increasing order absorbed into the coefficient.
``BigradedElement.monomial`` builds one from index sequences in any order, and
``repr`` shows the index lists.  The bracket is the degree (-1,-1) Lie super
bracket generated by {g,g} = {g*,g*} = 0 and {xi, e} = xi(e), extended as a
biderivation.  In closed form it is the odd-Poisson formula

    {a, b} = sum_g (a d<-/dg)(d->/dg* b)

over the degree-one generators g and their partners g* (xi_i <-> e_i), with a
right derivative on a and a left derivative on b.  The tests compare it with
the biderivation extension computed by peeling one factor at a time.

A repeated letter is a shared bit, and every sign is a count of
transpositions read off popcounts: the position of a letter is the popcount
of the mask below it, and merging the sorted letters of Y into those of X
takes inv(X, Y) = sum_{y in Y} popcount(X >> (y + 1)) of them.  No index list
is built or sorted.

An action of sl(2) on g by derivations X acts on cochains through the same
bracket: X^ = -sum X[b, j] xi_j (x) e_b in C^{1,1} has {X^, e_j} = X e_j and
{X^, xi_i} = -(X^T xi)_i, so ``sl2_act`` is {X^, -}.  The context checks on
load that the matrices satisfy the sl(2) relations and that {mu, X^} = 0,
i.e. that each X is a derivation of g.

Cohomology is computed one weight block at a time.  The diagonal derivations
e_i -> w_i e_i of g (w_i + w_j = w_k for every term xi_i xi_j (x) e_k of mu)
form a torus, and xi_I (x) e_J has weight sum w_J - sum w_I under it.  mu has
weight 0, so d = {mu, -} maps each weight space of C^{p,q} into the one of
C^{p+1,q} with the same weight.  Kernels, boundaries and the choice of
representatives are taken per block and merged by leading monomial index:
the reduced echelon basis of a direct sum is the union of the blocks' bases,
so the result is the one the whole bidegree would give
(``verify._cohomology_unblocked`` is that reference).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, lcm

from .exactla import (
    AmbiguousCoordinates,
    ColumnSolver,
    Matrix,
    Subspace,
    canon,
    kernel,
    rref,
    scalar_to_str,
)
from .repkit import GModule


class NotACocycle(Exception):
    pass


class BigradedElement:
    """Finite linear combination of monomials xi_I (x) e_J, as
    {(I mask, J mask): c}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = canon(c)
                if c:
                    if not (type(key) is tuple and len(key) == 2
                            and type(key[0]) is int and type(key[1]) is int
                            and key[0] >= 0 and key[1] >= 0):
                        raise ValueError("monomial key %r is not a pair of "
                                         "bit masks" % (key,))
                    clean[key] = c
        self.terms = clean

    @staticmethod
    def zero():
        return BigradedElement()

    @staticmethod
    def one():
        return BigradedElement({(0, 0): 1})

    @staticmethod
    def monomial(I, J, c=1):
        """c xi_I (x) e_J for index sequences in any order; the sign of sorting
        them is absorbed into c, and a repeated index gives zero."""
        c = canon(c)
        key = []
        for seq in (I, J):
            m = 0
            for i in seq:
                bit = 1 << i
                if m & bit:
                    return BigradedElement()
                # i moves past each letter above it, the set bits of m >> i
                if (m >> i).bit_count() & 1:
                    c = -c
                m |= bit
            key.append(m)
        return BigradedElement({tuple(key): c})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BigradedElement(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a):
        a = canon(a)
        return BigradedElement({k: a * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BigradedElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def parts(self):
        """Homogeneous components as {(p, q): element}."""
        out = {}
        for (I, J), c in self.terms.items():
            out.setdefault((I.bit_count(), J.bit_count()), {})[(I, J)] = c
        return {pq: BigradedElement(t) for pq, t in out.items()}

    def bidegree(self):
        degs = {(I.bit_count(), J.bit_count()) for (I, J) in self.terms}
        if len(degs) != 1:
            raise ValueError("element is not homogeneous: %s" % sorted(degs))
        return next(iter(degs))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            "%s*(%s|%s)" % (scalar_to_str(c), list(I), list(J))
            for I, J, c in sorted((_indices(I), _indices(J), c)
                                  for (I, J), c in self.terms.items()))


def _indices(mask):
    """The increasing index tuple of a bit mask."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _inv(X, Y):
    """The pairs x > y with x in X and y in Y, for bit masks X and Y: the
    transpositions that merge the increasing letters of Y into those of X."""
    n = 0
    while Y:
        low = Y & -Y
        n += (X & -(low << 1)).bit_count()  # the bits of X above low
        Y ^= low
    return n


def vee(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Super-commutative product: (phi(x)v)(psi(x)w) = (-1)^(p2 q1) phi^psi (x) v^w.

    Sorting I1 + I2 and J1 + J2 into increasing order takes inv(I1, I2) and
    inv(J1, J2) transpositions; a repeated index gives zero.
    """
    terms = b.terms.items()
    out = {}
    for (I1, J1), c1 in a.terms.items():
        q1 = J1.bit_count()
        for (I2, J2), c2 in terms:
            if I1 & I2 or J1 & J2:
                continue
            c = c1 * c2
            if (_inv(I1, I2) + _inv(J1, J2) + I2.bit_count() * q1) & 1:
                c = -c
            key = (I1 | I2, J1 | J2)
            out[key] = out.get(key, 0) + c
    return BigradedElement(out)


def _word_bracket(a_terms, b_terms):
    """{(I mask, J mask): coefficient} of the bracket of two sums of terms,
    each given as {(I mask, J mask): c}.

    A monomial xi_I e_J is the word of odd letters xi_I then e_J, each part
    increasing.  A pair of words gives one term per letter g of a whose
    partner g* occurs in b: first xi_i against e_i for each bit i of
    I_a & J_b, then e_j against xi_j for each bit j of J_a & I_b, both in
    increasing order.  The term is zero when the remainders a', b' share a
    letter.  Its sign exponent is (len(a) - 1 - pos_a) for moving g to the
    end of a, pos_b for moving g* to the front of b, and the transpositions
    that sort a'_I a'_J b'_I b'_J: inv(a'_I, b'_I) + |a'_J| |b'_I| +
    inv(a'_J, b'_J).  Positions are popcounts below the letter.
    """
    b_terms = b_terms.items()
    out = {}
    for (AI, AJ), c1 in a_terms.items():
        pa, qa = AI.bit_count(), AJ.bit_count()
        last = pa + qa - 1
        for (BI, BJ), c2 in b_terms:
            pb = BI.bit_count()
            m = AI & BJ
            while m:
                bit = m & -m
                m ^= bit
                aI = AI ^ bit
                bJ = BJ ^ bit
                if aI & BI or AJ & bJ:
                    continue
                e = (last - (AI & (bit - 1)).bit_count()
                     + pb + (BJ & (bit - 1)).bit_count()
                     + _inv(aI, BI) + qa * pb + _inv(AJ, bJ))
                c = c1 * c2
                key = (aI | BI, AJ | bJ)
                out[key] = out.get(key, 0) + (-c if e & 1 else c)
            m = AJ & BI
            while m:
                bit = m & -m
                m ^= bit
                aJ = AJ ^ bit
                bI = BI ^ bit
                if AI & bI or aJ & BJ:
                    continue
                e = (last - pa - (AJ & (bit - 1)).bit_count()
                     + (BI & (bit - 1)).bit_count()
                     + _inv(AI, bI) + (qa - 1) * (pb - 1) + _inv(aJ, BJ))
                c = c1 * c2
                key = (AI | bI, aJ | BJ)
                out[key] = out.get(key, 0) + (-c if e & 1 else c)
    return out


def bracket(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Poisson super bracket, bidegree (-1,-1).

    {a, b} = sum_g (a d<-/dg)(d->/dg* b), summed over the generators g and
    their partners g* (xi_i <-> e_i); both kinds of letter take the same sign.
    """
    return BigradedElement(_word_bracket(a.terms, b.terms))


class ComplexContext:
    """Dimension, Lie structure mu, optional sl2 action on g.

    mu lives in bidegree (2,1) on indices in range(n); {mu,mu} = 0 is verified
    on construction, which is exactly the Jacobi identity for the encoded
    bracket (and gives d^2 = 0).  ``sl2`` maps E, H, F to n x n matrices; they
    must satisfy the sl(2) relations and act on g by derivations,
    {mu, X^} = 0.
    """

    def __init__(self, n, mu, sl2=None):
        self.n = n
        self.mu = mu
        self.sl2 = sl2
        self._cache = {}
        if any(I.bit_count() != 2 or J.bit_count() != 1 for (I, J) in mu.terms):
            raise ValueError("mu must be homogeneous of bidegree (2,1)")
        for I, J in mu.terms:
            if (I | J) >> n:
                raise ValueError("mu term %s (x) %s has an index outside "
                                 "range(%d)" % (_indices(I), _indices(J), n))
        if not bracket(mu, mu).is_zero():
            raise ValueError("{mu,mu} != 0: structure constants violate Jacobi")
        self._hats = {}  # op -> X^, read by every sl2_act
        if sl2 is not None:
            GModule("SL2", n, sl2)  # n x n operators and the sl(2) relations
            for op, X in sl2.items():
                hat = BigradedElement({(1 << j, 1 << b): -x
                                       for b, j, x in X.entries()})
                if not bracket(mu, hat).is_zero():
                    raise ValueError("sl2 operator %s is not a derivation of g"
                                     % op)
                self._hats[op] = hat

    @staticmethod
    def from_brackets(n, brackets, sl2=None):
        """mu = sum_{i<j} xi_i xi_j (x) [e_i, e_j] from {(i,j): {k: c}};
        ValueError names an index that is not an int in range(n), or an image
        that is not a dict."""
        terms = {}
        for (i, j), img in brackets.items():
            if not isinstance(img, dict):
                raise ValueError("the image of [e_%r, e_%r] is not a dict"
                                 % (i, j))
            for k in (i, j, *img):
                if type(k) is not int or not 0 <= k < n:
                    raise ValueError("index %r of [e_%r, e_%r] is not an int "
                                     "in range(%d)" % (k, i, j, n))
            if not i < j:
                raise ValueError("use keys with i < j")
            for k, c in img.items():
                key = (1 << i | 1 << j, 1 << k)
                terms[key] = terms.get(key, 0) + canon(c)
        return ComplexContext(n, BigradedElement(terms), sl2)


def heisenberg_context() -> ComplexContext:
    """The 3-dimensional Heisenberg algebra [x_1, x_-1] = h_0 as an SL2-complex.

    g basis order (x_1, x_-1, h_0); g* basis order (x^-1, x^1, h^0), so the
    dual index i pairs with the primal index i.
    """
    sl2 = {
        "E": Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        "H": Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        "F": Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    }
    return ComplexContext.from_brackets(3, {(0, 1): {2: 1}}, sl2=sl2)


def differential(c: BigradedElement, ctx: ComplexContext) -> BigradedElement:
    """d c = {mu, c}."""
    return bracket(ctx.mu, c)


def sl2_act(op, c: BigradedElement, ctx: ComplexContext) -> BigradedElement:
    """X c = {X^, c}, the derivation extension of the action of X = sl2[op]
    on g (duals carry minus the transpose).  ValueError names an operator
    that the context's sl2 lacks."""
    if op not in ctx._hats:
        raise ValueError("the context has no sl2 operator %r" % (op,))
    return bracket(ctx._hats[op], c)


# ---------------------------------------------------------------------------
# coordinates and cohomology

def monomial_basis(n, p, q):
    """The (I mask, J mask) of C^{p,q}: I outer and J inner, each in the order
    of ``combinations(range(n), .)``."""
    return list(product(*[[sum([1 << i for i in c])
                            for c in combinations(range(n), k)]
                           for k in (p, q)]))


def to_coords(elt: BigradedElement, basis):
    """Coordinates of elt in basis, a monomial_basis; ValueError names a term
    outside it."""
    sparse = _sparse_coords(elt, basis, {m: i for i, m in enumerate(basis)})
    return tuple([sparse.get(i, 0) for i in range(len(basis))])


def _sparse_coords(elt: BigradedElement, basis, index):
    """{i: c} over the terms c basis[i] of elt, for index = {basis[i]: i};
    ValueError names a term outside the basis."""
    out = {}
    for (I, J), c in elt.terms.items():
        i = index.get((I, J))
        if i is None:
            where = ("bidegree (%d, %d)" % tuple(m.bit_count() for m in basis[0])
                     if basis else "an empty bidegree")
            raise ValueError("monomial %r is outside the basis of %s"
                             % ((_indices(I), _indices(J)), where))
        out[i] = c
    return out


def from_coords(v, basis):
    return BigradedElement({m: c for m, c in zip(basis, v) if c})


def _weights(ctx):
    """Weight of each e_i under a basis of the diagonal derivations of g, as
    a tuple of integers; memoized.

    e_i -> w_i e_i is a derivation iff w_i + w_j = w_k for every term
    xi_i xi_j (x) e_k of mu, so the w are the kernel of those constraint rows
    (a term with i = k leaves e_j alone), each basis vector scaled to integers.
    """
    if "weights" not in ctx._cache:
        rows = []
        for I, J in ctx.mu.terms:
            (i, j), (k,) = _indices(I), _indices(J)
            row = {i: 1, j: 1}  # i < j
            row[k] = row.get(k, 0) - 1
            rows.append({a: x for a, x in row.items() if x})
        torus = []
        for w in kernel(Matrix(len(rows), ctx.n, tuple(rows))).rows:
            den = lcm(*[x.denominator for x in w.values()])
            torus.append({i: x.numerator * (den // x.denominator)
                          for i, x in w.items()})
        ctx._cache["weights"] = [tuple(w.get(i, 0) for w in torus)
                                 for i in range(ctx.n)]
    return ctx._cache["weights"]


def _by_weight(ctx, p, q):
    """Indices into monomial_basis(n, p, q) grouped by the weight
    sum w_J - sum w_I of their monomials, increasing within each block;
    memoized, since the blocks of C^{p,q} read those of p - 1, p and p + 1.

    A weight w is keyed by the integer sum_r w[r] * 2^(shift * r).  That
    packing is linear, and one-to-one on monomial weights: each component is
    a sum of at most 2n components of the w_i, so below 2^(shift - 1) in
    absolute value.
    """
    key = ("weight", p, q)
    if key not in ctx._cache:
        w = _weights(ctx)
        shift = (2 * ctx.n * max((abs(x) for v in w for x in v), default=0)
                 ).bit_length() + 1
        packed = [sum(x << (shift * r) for r, x in enumerate(v)) for v in w]
        sums = [[sum(packed[i] for i in c)
                 for c in combinations(range(ctx.n), k)] for k in (p, q)]
        blocks = {}
        # I outer and J inner, in the order of monomial_basis
        for t, (wI, wJ) in enumerate(product(*sums)):
            blocks.setdefault(wJ - wI, []).append(t)
        ctx._cache[key] = blocks
    return ctx._cache[key]


def _d_images(ctx, p, q):
    """d of each monomial of C^{p,q}, as {index into C^{p+1,q}: scalar};
    memoized, so that C^{p,q} (its cocycles) and C^{p+1,q} (its boundaries)
    share one computation per monomial.  Each row is the bracket of mu with
    the monomial, keyed by the masks of C^{p+1,q}."""
    key = ("d", p, q)
    if key not in ctx._cache:
        index = {m: t for t, m in enumerate(monomial_basis(ctx.n, p + 1, q))}
        ctx._cache[key] = [
            {index[k]: canon(c) for k, c in
             _word_bracket(ctx.mu.terms, {m: 1}).items() if c}
            for m in monomial_basis(ctx.n, p, q)]
    return ctx._cache[key]


def _blocks(ctx, p, q):
    """(boundary rows, cocycle rows) of each weight block of C^{p,q}.

    d preserves weight, so the cocycles of a block are the kernel of d from it
    to the block of C^{p+1,q} of the same weight, and its boundaries are
    spanned by the images of that block of C^{p-1,q}.  Rows are the block's
    reduced echelon basis as sparse {monomial index: scalar}.  Every image
    is read, also where the other bidegree has no block of that weight: a
    term outside the block of its weight would raise KeyError.
    """
    blocks = _by_weight(ctx, p, q)
    boundary = {}
    if p >= 1:
        images = _d_images(ctx, p - 1, q)
        for w, src in _by_weight(ctx, p - 1, q).items():
            index = blocks.get(w, [])
            local = {t: s for s, t in enumerate(index)}
            rows = [{local[t]: c for t, c in images[u].items()} for u in src]
            if index:
                _, red = rref(rows, len(index))
                boundary[w] = [{index[s]: x for s, x in r.items()} for r in red]
    above = {}
    if p < ctx.n:
        images = _d_images(ctx, p, q)
        above = _by_weight(ctx, p + 1, q)
    out = []
    for w, index in blocks.items():
        rows = {t: {} for t in above.get(w, ())}
        if p < ctx.n:
            for s, u in enumerate(index):
                for t, c in images[u].items():
                    rows[t][s] = c
        if rows:
            Z = kernel(Matrix(len(rows), len(index), tuple(rows.values())))
            Z = [{index[s]: x for s, x in r.items()} for r in Z.rows]
        else:  # nothing of weight w in C^{p+1,q}: d is zero on the block
            Z = [{t: 1} for t in index]
        out.append((boundary.get(w, []), Z))
    return out


def _graded(ctx, p, q):
    """(cocycles, boundary, rows of the default representatives) of C^{p,q},
    memoized, from the weight blocks.

    The echelon basis of a direct sum is the union of the blocks' bases in
    order of leading index.  Independence modulo boundaries splits by block
    as well, since the vectors are homogeneous, so the representatives are
    chosen block by block; a block without boundaries keeps its whole
    (independent) cocycle basis.
    """
    key = (p, q)
    if key not in ctx._cache:
        dim = comb(ctx.n, p) * comb(ctx.n, q)
        blocks = _blocks(ctx, p, q)
        chosen = [Z[t] for B, Z in blocks
                  for t in (_independent_modulo(B, Z) if B and Z
                            else range(len(Z)))]
        ctx._cache[key] = (
            Subspace.from_echelon(dim, sorted((r for _, Z in blocks for r in Z),
                                              key=min)),
            Subspace.from_echelon(dim, sorted((r for B, _ in blocks for r in B),
                                              key=min)),
            sorted(chosen, key=min))
    return ctx._cache[key]


def _independent_modulo(W, vecs):
    """Indices of the vectors outside span(W) + span(the vectors before them).

    Vectors are sparse {index: scalar}.  These are the pivot columns past W's
    of the column matrix [W | vecs]: W is independent, so each of its columns
    is a pivot.  Zero rows and the order of rows do not move the pivots.
    """
    rows = {}
    for j, c in enumerate(list(W) + list(vecs)):
        for i, x in c.items():
            rows.setdefault(i, {})[j] = x
    pivots, _ = rref(list(rows.values()), len(W) + len(vecs))
    return [c - len(W) for c in pivots[len(W):]]


def cohomology(ctx: ComplexContext, p, q):
    """Representatives and boundary subspace for H^p(g, Lambda^q g).

    The representatives are the echelon-canonical cocycles that are
    independent modulo the boundaries and the cocycles before them.  Other
    representatives are certified by ``class_coordinates``.
    """
    basis = monomial_basis(ctx.n, p, q)
    cocycles, boundary, chosen = _graded(ctx, p, q)
    assert len(chosen) == cocycles.dim - boundary.dim
    return ([BigradedElement({basis[i]: c for i, c in r.items()})
             for r in chosen], boundary)


def class_coordinates(ctx: ComplexContext, reps):
    """The map z -> coefficients (a tuple) of the class of z over ``reps``.

    ``reps`` are homogeneous cochains of any bidegrees.  The reps of each
    bidegree are counted against its Betti number (ValueError) and checked
    closed (NotACocycle); then one ColumnSolver is factored over [reps |
    boundary rows], which fails when they are dependent modulo boundaries
    (ValueError), so it certifies them as a basis of the cohomology.  A
    component of z that does not solve is then not closed (NotACocycle).  A
    bidegree without reps is factored over its boundary rows alone on first
    use, where a closed component has the zero class if its cohomology is
    zero; elsewhere it raises ValueError.
    """
    positions = {}
    for t, z in enumerate(reps):
        positions.setdefault(z.bidegree(), []).append(t)
    solvers = {}

    def factor(p, q, where):
        chosen, boundary = cohomology(ctx, p, q)
        if len(where) != len(chosen):
            raise ValueError("expected %d representatives, got %d"
                             % (len(chosen), len(where)))
        if not all(differential(reps[t], ctx).is_zero() for t in where):
            raise NotACocycle("injected representative is not closed")
        basis = monomial_basis(ctx.n, p, q)
        index = {m: i for i, m in enumerate(basis)}
        cols = [_sparse_coords(reps[t], basis, index) for t in where]
        try:
            solver = ColumnSolver(cols + list(boundary.rows), len(basis))
        except AmbiguousCoordinates:
            raise ValueError("representatives dependent modulo boundaries"
                             ) from None
        solvers[(p, q)] = basis, index, where, solver

    for (p, q), where in positions.items():
        factor(p, q, where)

    def coords(z):
        out = [0] * len(reps)
        for pq, part in z.parts().items():
            if pq not in solvers:
                if cohomology(ctx, *pq)[0]:
                    raise ValueError("no representatives in bidegree %s" % (pq,))
                factor(*pq, [])
            basis, index, where, solver = solvers[pq]
            x = solver.solve(_sparse_coords(part, basis, index))
            if x is None:
                raise NotACocycle("component of bidegree %s is not closed"
                                  % (pq,))
            # the reps come first; the boundary coefficients are dropped
            for t, c in zip(where, x):
                out[t] = c
        return tuple(out)

    return coords
