"""Bigraded cochains Lambda^p g* (x) Lambda^q g with cup product, super bracket,
Chevalley-Eilenberg differential d = {mu,-}, and cohomology.

Monomials are stored canonically: strictly increasing dual index tuple I,
strictly increasing primal index tuple J, signs absorbed into the coefficient.
The bracket is the degree (-1,-1) Lie super bracket generated by
{g,g} = {g*,g*} = 0 and {xi, e} = xi(e), extended as a biderivation.  In
closed form it is the odd-Poisson formula

    {a, b} = sum_g (a d<-/dg)(d->/dg* b)

over the degree-one generators g and their partners g* (xi_i <-> e_i), with a
right derivative on a and a left derivative on b.  The tests compare it with
the biderivation extension computed by peeling one factor at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exactla import (
    Matrix,
    Subspace,
    coords_modulo,
    kernel,
    rref,
    scalar_to_str,
)

F = Fraction


class NotACocycle(Exception):
    pass


def _sort_tuple(seq):
    """Sort index sequence, returning (sign, tuple) or None on a repeat."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return None
    return sign, tuple(seq)


class BigradedElement:
    """Finite linear combination of monomials xi_I (x) e_J."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (I, J), c in terms.items():
                c = F(c)
                if c:
                    clean[(tuple(I), tuple(J))] = c
        self.terms = clean

    @staticmethod
    def zero():
        return BigradedElement()

    @staticmethod
    def one():
        return BigradedElement({((), ()): F(1)})

    @staticmethod
    def monomial(I, J, c=1):
        """Monomial with arbitrary index order; the sign is canonicalized away."""
        si = _sort_tuple(I)
        sj = _sort_tuple(J)
        if si is None or sj is None:
            return BigradedElement()
        return BigradedElement({(si[1], sj[1]): F(c) * si[0] * sj[0]})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, F(0)) + c
        return BigradedElement(out)

    def __sub__(self, other):
        return self + other.scale(F(-1))

    def __neg__(self):
        return self.scale(F(-1))

    def scale(self, a):
        a = F(a)
        return BigradedElement({k: a * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BigradedElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def parts(self):
        """Homogeneous components as {(p, q): element}."""
        out = {}
        for (I, J), c in self.terms.items():
            out.setdefault((len(I), len(J)), {})[(I, J)] = c
        return {pq: BigradedElement(t) for pq, t in out.items()}

    def bidegree(self):
        degs = {(len(I), len(J)) for (I, J) in self.terms}
        if len(degs) != 1:
            raise ValueError("element is not homogeneous: %s" % sorted(degs))
        return next(iter(degs))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (I, J) in sorted(self.terms):
            c = self.terms[(I, J)]
            bits.append("%s*(%s|%s)" % (scalar_to_str(c), list(I), list(J)))
        return " + ".join(bits)


def vee(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Super-commutative product: (phi(x)v)(psi(x)w) = (-1)^(p2 q1) phi^psi (x) v^w."""
    out = {}
    for (I1, J1), c1 in a.terms.items():
        q1 = len(J1)
        for (I2, J2), c2 in b.terms.items():
            mi = _sort_tuple(I1 + I2)
            if mi is None:
                continue
            mj = _sort_tuple(J1 + J2)
            if mj is None:
                continue
            sign = mi[0] * mj[0] * (-1 if (len(I2) * q1) % 2 else 1)
            key = (mi[1], mj[1])
            out[key] = out.get(key, F(0)) + sign * c1 * c2
    return BigradedElement(out)


def _word(I, J):
    """xi_I e_J as a word of odd letters: (0, i) for xi_i, (1, j) for e_j."""
    return [(0, i) for i in I] + [(1, j) for j in J]


def _word_bracket(wa, wb):
    """Terms (sign, I, J) of the bracket of two monomial words.

    One term per letter g of a whose partner g* occurs in b: moving g to the
    end of a passes len(a) - 1 - p letters, moving g* to the front of b passes
    s letters, and sorting what is left into canonical order gives the rest
    of the sign.
    """
    out = []
    last = len(wa) - 1
    for p, (kind, i) in enumerate(wa):
        partner = (1 - kind, i)
        if partner not in wb:
            continue
        s = wb.index(partner)
        st = _sort_tuple(wa[:p] + wa[p + 1:] + wb[:s] + wb[s + 1:])
        if st is None:
            continue
        sign, word = st
        if (last - p + s) % 2:
            sign = -sign
        out.append((sign, tuple(x for k, x in word if not k),
                    tuple(x for k, x in word if k)))
    return out


def bracket(a: BigradedElement, b: BigradedElement) -> BigradedElement:
    """Poisson super bracket, bidegree (-1,-1).

    {a, b} = sum_g (a d<-/dg)(d->/dg* b), summed over the generators g and
    their partners g* (xi_i <-> e_i); both kinds of letter take the same sign.
    """
    words = [(_word(I, J), c) for (I, J), c in b.terms.items()]
    out = {}
    for (I1, J1), c1 in a.terms.items():
        wa = _word(I1, J1)
        for wb, c2 in words:
            for sign, I, J in _word_bracket(wa, wb):
                out[(I, J)] = out.get((I, J), F(0)) + sign * c1 * c2
    return BigradedElement(out)


class ComplexContext:
    """Dimension, basis names, Lie structure mu, optional sl2 action on g.

    mu lives in bidegree (2,1); {mu,mu} = 0 is verified on construction, which
    is exactly the Jacobi identity for the encoded bracket (and gives d^2 = 0).
    """

    def __init__(self, n, mu, gnames=None, gstar_names=None, sl2=None,
                 validate=True):
        self.n = n
        self.mu = mu
        self.gnames = gnames or ["e%d" % i for i in range(n)]
        self.gstar_names = gstar_names or ["x%d" % i for i in range(n)]
        self.sl2 = sl2
        self._dual = None
        self._cache = {}
        if validate:
            if any(len(I) != 2 or len(J) != 1 for (I, J) in mu.terms):
                raise ValueError("mu must be homogeneous of bidegree (2,1)")
            if not bracket(mu, mu).is_zero():
                raise ValueError("{mu,mu} != 0: structure constants violate Jacobi")

    @staticmethod
    def from_brackets(n, brackets, gnames=None, gstar_names=None, sl2=None,
                      validate=True):
        """mu = sum_{i<j} xi_i xi_j (x) [e_i, e_j] from {(i,j): {k: c}}."""
        terms = {}
        for (i, j), img in brackets.items():
            if not i < j:
                raise ValueError("use keys with i < j")
            for k, c in img.items():
                key = ((i, j), (k,))
                terms[key] = terms.get(key, F(0)) + F(c)
        return ComplexContext(n, BigradedElement(terms), gnames, gstar_names,
                              sl2, validate)

    def dual_action(self, op):
        if self._dual is None:
            self._dual = {}
        if op not in self._dual:
            self._dual[op] = self.sl2[op].transpose().scale(-1)
        return self._dual[op]


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
    return ComplexContext.from_brackets(
        3, {(0, 1): {2: 1}},
        gnames=["x_1", "x_-1", "h_0"],
        gstar_names=["x^-1", "x^1", "h^0"],
        sl2=sl2)


def differential(c: BigradedElement, ctx: ComplexContext) -> BigradedElement:
    return bracket(ctx.mu, c)


def sl2_act(op, c: BigradedElement, ctx: ComplexContext) -> BigradedElement:
    """Derivation extension of the g-action (duals carry minus transpose)."""
    X = ctx.sl2[op]
    Xd = ctx.dual_action(op)
    out = BigradedElement()
    for (I, J), coef in c.terms.items():
        for t, i in enumerate(I):
            for a in range(ctx.n):
                x = Xd[a, i]
                if x:
                    out = out + BigradedElement.monomial(
                        I[:t] + (a,) + I[t + 1:], J, coef * x)
        for t, j in enumerate(J):
            for b in range(ctx.n):
                x = X[b, j]
                if x:
                    out = out + BigradedElement.monomial(
                        I, J[:t] + (b,) + J[t + 1:], coef * x)
    return out


# ---------------------------------------------------------------------------
# coordinates and cohomology

def monomial_basis(n, p, q):
    return [(I, J) for I in combinations(range(n), p)
            for J in combinations(range(n), q)]


def to_coords(elt: BigradedElement, basis):
    index = {m: i for i, m in enumerate(basis)}
    v = [F(0)] * len(basis)
    for key, c in elt.terms.items():
        v[index[key]] = c
    return tuple(v)


def from_coords(v, basis):
    return BigradedElement({m: F(c) for m, c in zip(basis, v) if c})


def _d_matrix(ctx, p, q):
    """Matrix of d: C^{p,q} -> C^{p+1,q} on the monomial bases, memoized."""
    key = ("d", p, q)
    if key not in ctx._cache:
        src = monomial_basis(ctx.n, p, q)
        dst = monomial_basis(ctx.n, p + 1, q)
        cols = [to_coords(differential(BigradedElement({m: F(1)}), ctx), dst)
                for m in src]
        ctx._cache[key] = Matrix.from_cols(cols, nrows=len(dst))
    return ctx._cache[key]


def _spaces(ctx, p, q):
    key = (p, q)
    if key not in ctx._cache:
        src = monomial_basis(ctx.n, p, q)
        if p + 1 <= ctx.n:
            cocycles = kernel(_d_matrix(ctx, p, q))
        else:
            cocycles = Subspace(len(src), [tuple(F(1 if i == t else 0)
                                                 for i in range(len(src)))
                                           for t in range(len(src))])
        if p >= 1:
            D = _d_matrix(ctx, p - 1, q)
            boundary = Subspace(len(src), [D.col(j) for j in range(D.ncols)])
        else:
            boundary = Subspace.zero(len(src))
        ctx._cache[key] = (cocycles, boundary)
    return ctx._cache[key]


def _independent_modulo(W: Subspace, vecs):
    """Indices of the vectors outside W + span(the vectors before them).

    These are the pivot columns past W's of the column matrix [W | vecs]:
    W's basis is independent, so each of its columns is a pivot.
    """
    cols = list(W.basis) + list(vecs)
    pivots, _ = rref([{j: c[i] for j, c in enumerate(cols)}
                      for i in range(W.ambient_dim)], len(cols))
    return [c - W.dim for c in pivots[W.dim:]]


def cohomology(ctx: ComplexContext, p, q, reps=None):
    """Representatives and boundary subspace for H^p(g, Lambda^q g).

    Default representatives are the echelon-canonical cocycles that are
    independent modulo the boundaries and the cocycles before them; ``reps``
    may inject explicit ones (verified to be cocycles, independent modulo
    boundaries, and of the right count).
    """
    basis = monomial_basis(ctx.n, p, q)
    cocycles, boundary = _spaces(ctx, p, q)
    betti = cocycles.dim - boundary.dim
    if reps is not None:
        if len(reps) != betti:
            raise ValueError("expected %d representatives, got %d"
                             % (betti, len(reps)))
        vecs = []
        for z in reps:
            if not differential(z, ctx).is_zero():
                raise NotACocycle("injected representative is not closed")
            v = to_coords(z, basis)
            if not cocycles.contains(v):
                raise NotACocycle("representative outside the cocycle space")
            vecs.append(v)
        if len(_independent_modulo(boundary, vecs)) != len(vecs):
            raise ValueError("representatives dependent modulo boundaries")
        return list(reps), boundary
    out = [from_coords(cocycles.basis[t], basis)
           for t in _independent_modulo(boundary, cocycles.basis)]
    assert len(out) == betti
    return out, boundary


def class_coords(z: BigradedElement, reps, boundary, ctx):
    """Coordinates of the class [z] in the representative basis."""
    if not differential(z, ctx).is_zero():
        raise NotACocycle("class_coords needs a cocycle")
    if z.is_zero():
        return tuple(F(0) for _ in reps)
    p, q = reps[0].bidegree() if reps else z.bidegree()
    basis = monomial_basis(ctx.n, p, q)
    lam = coords_modulo(to_coords(z, basis),
                        [to_coords(r, basis) for r in reps], boundary)
    assert lam is not None, "cocycle not spanned by representatives mod boundaries"
    return lam


# ---------------------------------------------------------------------------
# rendering

def element_to_text(elt: BigradedElement, ctx: ComplexContext) -> str:
    if elt.is_zero():
        return "0"
    bits = []
    for (I, J) in sorted(elt.terms):
        c = elt.terms[(I, J)]
        left = "".join(ctx.gstar_names[i] for i in I) or "1"
        right = "".join(ctx.gnames[j] for j in J) or "1"
        mono = "%s⊗%s" % (left, right)
        if c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append("-" + mono)
        else:
            bits.append("%s %s" % (scalar_to_str(c), mono))
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def element_to_json(elt: BigradedElement):
    return {"terms": [{"I": list(I), "J": list(J),
                       "c": scalar_to_str(elt.terms[(I, J)])}
                      for (I, J) in sorted(elt.terms)]}
