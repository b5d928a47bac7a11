"""Property suites: randomized algebra corpus and identity checks.

Everything is seeded, so `verify` output and the test suite are deterministic.
The corpus builds small G-algebras directly from registry pieces: a module is
a block sum of model irreducibles, tau maps are scaled block inclusions, and
the product is assembled from randomly drawn table coefficients, which makes
it equivariant by construction and gives extraction an exact target to
recover.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from . import supercochain as sc
from .exactla import AmbiguousCoordinates, Matrix, Subspace, kernel, rref, solve
from .gtable import (
    ExpandedAlgebra,
    GMatrix,
    GTable,
    check_morphism,
    corollary_check,
    extract,
    morphism_oracle,
)
from .repkit import (
    Decomposition,
    IrrepId,
    Summand,
    block_decomposition,
    builtin_labeling,
)

F = Fraction

COEFF_POOL = [F(0), F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2)]


def random_galgebra(rng, registry, irrep_pool, n_summands, prefix="A"):
    """(decomposition, table entries, product callable) for a random algebra."""
    irreps = [irrep_pool[rng.randrange(len(irrep_pool))] for _ in range(n_summands)]
    blocks = block_decomposition(
        registry, [("%s%d" % (prefix, t), irr) for t, irr in enumerate(irreps)])
    summands = [Summand(s.id, s.irrep, s.tau.scale(
                    F(rng.choice([1, 1, 2, -1]), rng.choice([1, 1, 2]))))
                for s in blocks.summands]
    dec = Decomposition(blocks.module, registry, summands)
    entries = {}
    for r1 in summands:
        for r2 in summands:
            cell = []
            for s in summands:
                for q in range(1, registry.d(r1.irrep, r2.irrep, s.irrep) + 1):
                    c = rng.choice(COEFF_POOL)
                    if c:
                        cell.append((s.id, q, c))
            if cell:
                entries[(r1.id, r2.id)] = cell
    table = GTable(dec, dec, registry, entries)
    product = _product_from_table(table)
    return dec, table, product


def _product_from_table(table):
    # the module reference of expand(), which shares extraction's candidate
    # columns; it works over the concatenated tau-image basis, so module
    # coordinates are translated through the basis matrix on both ends
    E = _expand_via_module(table)
    B = table.source.basis_matrix()
    Binv = B.inverse()
    Bt = table.target.basis_matrix()

    def product(u, v):
        w = E.product_coords(Binv.matvec(u), Binv.matvec(v))
        return Bt.matvec(w)

    return product


def random_gmatrix(rng, source, target):
    entries = {}
    for x in target.summands:
        for r in source.summands:
            if x.irrep == r.irrep:
                c = rng.choice(COEFF_POOL)
                if c:
                    entries[(x.id, r.id)] = c
    return GMatrix(source, target, entries)


def _registry_pools():
    sl2 = builtin_labeling("SL2")
    s3 = builtin_labeling("S3")
    gl3 = builtin_labeling("GLk", k=3)
    return [
        (sl2, [IrrepId("SL2", 0), IrrepId("SL2", 1), IrrepId("SL2", 2)], 3),
        (s3, [IrrepId("S3", "tr"), IrrepId("S3", "sg"), IrrepId("S3", "std")], 3),
        (gl3, [IrrepId("GL3", "trivial"), IrrepId("GL3", "adjoint")], 2),
    ]


def morphism_corpus(cases=100, seed=2024):
    """Yield (tA, tB, f) over randomized small G-algebras.

    Every third case uses the identity map on a shared table (a guaranteed
    morphism) so that both outcomes of the equivalence are exercised.
    """
    rng = random.Random(seed)
    pools = _registry_pools()
    for c in range(cases):
        registry, pool, maxs = pools[c % len(pools)]
        nA = rng.randint(2, maxs)
        decA, tA, prodA = random_galgebra(rng, registry, pool, nA, prefix="a")
        got = extract(prodA, decA, registry)
        assert got == tA, "extraction failed to recover a constructed table"
        if c % 3 == 0:
            yield tA, tA, GMatrix.identity(decA)
            continue
        nB = rng.randint(2, maxs)
        decB, tB, _ = random_galgebra(rng, registry, pool, nB, prefix="b")
        yield tA, tB, random_gmatrix(rng, decA, decB)


def run_morphism_equivalence(cases=100, seed=2024):
    """check_morphism vs direct phi(ab) = phi(a)phi(b), plus the plain corollary.

    Returns (cases run, number where all three agreed, number of morphisms seen).
    """
    agree = 0
    hits = 0
    total = 0
    for tA, tB, f in morphism_corpus(cases, seed):
        total += 1
        fast = check_morphism(tA, tB, f)
        slow = morphism_oracle(tA, tB, f)
        plain = corollary_check(tA, tB, f)
        if fast == slow == plain:
            agree += 1
        if fast:
            hits += 1
    return total, agree, hits


# ---------------------------------------------------------------------------
# named suites for the CLI

def _scale_to_int(row):
    # common denominator per row; scaling a row never changes row space,
    # kernels or solution sets of the system the row belongs to
    den = 1
    for x in row:
        if x:
            den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def _rref_dense(rows, ncols):
    """Dense reference for exactla.rref, which eliminates on sparse rows.

    Takes rows as Fraction sequences and returns (pivot columns, reduced rows
    as Fraction lists).  Forward pass is integer Bareiss on lists;
    normalization happens once at the end.
    """
    m = [_scale_to_int(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic == 0 and piv == prev:
                continue
            mr = m[r]
            mi = m[i]
            for j in range(c, ncols):
                mi[j] = (mi[j] * piv - mic * mr[j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    # back substitution over Q, leading entries normalized to 1 by the
    # Fraction reciprocal of the pivot, independently of exactla.div
    red = [[Fraction(x) for x in m[i]] for i in range(len(pivots))]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        piv = red[i][c]
        inv = Fraction(piv.denominator, piv.numerator)
        red[i] = [x * inv for x in red[i]]
        for k in range(i):
            f = red[k][c]
            if f:
                red[k] = [a - f * b for a, b in zip(red[k], red[i])]
    return pivots, red


def _coords_modulo_rref(z, reps, W):
    """Reference for exactla.coords_modulo, which solves against a factored
    ColumnSolver: one elimination of [reps | W | z] per call."""
    n = W.ambient_dim
    if len(z) != n or any(len(r) != n for r in reps):
        raise ValueError("ambient dimension mismatch")
    cols = list(reps) + list(W.basis)
    if not cols:
        return () if not any(z) else None
    # pivots among the first k columns do not depend on z, so they certify
    # independence before z is looked at
    k = len(cols)
    cols.append(z)
    pivots, red = rref([{j: c[i] for j, c in enumerate(cols)} for i in range(n)],
                       k + 1)
    if pivots[:k] != list(range(k)):
        raise AmbiguousCoordinates("representatives dependent modulo subspace")
    if len(pivots) > k:
        return None
    return tuple(F(red[i].get(k, 0)) for i in range(len(reps)))


def _expand_via_module(table):
    """Reference for gtable.expand, which reads the constants off the table,
    and the source of the corpus products that extraction must recover.

    Maps each candidate image into the target module and takes coordinates
    with the inverse of the target's basis matrix.
    """
    src = table.source
    tgt = table.target
    reg = table.registry
    Binv = tgt.basis_matrix().inverse()
    struct = {}
    offsets = {}
    pos = 0
    for s in src.summands:
        offsets[s.id] = pos
        pos += s.tau.ncols
    for r1 in src.summands:
        m1 = reg.models[r1.irrep]
        for r2 in src.summands:
            m2 = reg.models[r2.irrep]
            cell = table.cell(r1.id, r2.id)
            if not cell:
                continue
            for a in range(m1.dim):
                for b in range(m2.dim):
                    val = [F(0)] * tgt.module.dim
                    for (sid, q, c) in cell:
                        m = reg.basis(r1.irrep, r2.irrep,
                                      tgt.by_id[sid].irrep)[q - 1]
                        w = m.matrix.col(a * m2.dim + b)
                        img = tgt.by_id[sid].tau.matvec(w)
                        val = [x + c * y for x, y in zip(val, img)]
                    if any(val):
                        coords = Binv.matvec(val)
                        row = {k: c for k, c in enumerate(coords) if c}
                        struct[(offsets[r1.id] + a, offsets[r2.id] + b)] = row
    return ExpandedAlgebra(src.basis_index(), struct)


def _bracket_peeling(a, b, pick):
    """Reference for supercochain.bracket, which uses the closed form.

    The biderivation extension of {xi_i, e_j} = {e_j, xi_i} = delta_ij,
    computed by peeling factor pick(k) of the k factors off the left argument
    at each step.  The result does not depend on pick.
    """
    out = sc.BigradedElement()
    for (I1, J1), c1 in a.terms.items():
        for (I2, J2), c2 in b.terms.items():
            t = _peel(sc._indices(I1), sc._indices(J1),
                      sc._indices(I2), sc._indices(J2), pick)
            if not t.is_zero():
                out = out + t.scale(c1 * c2)
    return out


def _peel(I1, J1, I2, J2, pick):
    E = sc.BigradedElement
    d1 = len(I1) + len(J1)
    d2 = len(I2) + len(J2)
    if d1 == 0 or d2 == 0:
        return E()
    if d1 == 1:
        if d2 == 1:
            if len(I1) == 1 and len(J2) == 1:
                return E.one() if I1[0] == J2[0] else E()
            if len(J1) == 1 and len(I2) == 1:
                return E.one() if J1[0] == I2[0] else E()
            return E()
        # move the composite argument to the left: {u,b} = -(-1)^(1*d2) {b,u}
        res = _peel(I2, J2, I1, J1, pick)
        return res if d2 % 2 else -res
    # peel one degree-one factor u off the left argument; moving it to the
    # front passes pos odd factors:
    # {u v a', b} = u v {a', b} + (-1)^deg(a') a' v {u, b}
    pos = pick(d1)
    if pos < len(I1):
        uI, uJ, I1r, J1r = (I1[pos],), (), I1[:pos] + I1[pos + 1:], J1
    else:
        p = pos - len(I1)
        uI, uJ, I1r, J1r = (), (J1[p],), I1, J1[:p] + J1[p + 1:]
    u = E.monomial(uI, uJ)
    rest = E.monomial(I1r, J1r)
    t1 = sc.vee(u, _bracket_peeling(rest, E.monomial(I2, J2), pick))
    t2 = sc.vee(rest, _peel(uI, uJ, I2, J2, pick))
    if (d1 - 1) % 2:
        t2 = -t2
    return (t1 + t2).scale(F(-1 if pos % 2 else 1))


def _sl2_act_substitution(op, c, ctx):
    """Reference for supercochain.sl2_act, which brackets with X^ in C^{1,1}:
    the derivation extension of X = ctx.sl2[op] on g and of -X^T on g*,
    substituted into one index of each monomial at a time."""
    X, n = ctx.sl2[op], ctx.n
    out = sc.BigradedElement()
    for (I, J), coef in c.terms.items():
        I, J = sc._indices(I), sc._indices(J)
        images = [((I[:t] + (a,) + I[t + 1:], J), -X[i, a])
                  for t, i in enumerate(I) for a in range(n)]
        images += [((I, J[:t] + (b,) + J[t + 1:]), X[b, j])
                   for t, j in enumerate(J) for b in range(n)]
        for (I2, J2), x in images:
            if x:
                out = out + sc.BigradedElement.monomial(I2, J2, coef * x)
    return out


def _d_matrix_unblocked(ctx, p, q):
    """Matrix of d: C^{p,q} -> C^{p+1,q} on the whole monomial bases."""
    src = sc.monomial_basis(ctx.n, p, q)
    dst = sc.monomial_basis(ctx.n, p + 1, q)
    cols = [sc.to_coords(sc.differential(sc.BigradedElement({m: F(1)}), ctx), dst)
            for m in src]
    return Matrix.from_cols(cols, nrows=len(dst))


def _cohomology_unblocked(ctx, p, q):
    """Reference for supercochain.cohomology, which works one weight block at
    a time: (default representatives, cocycles, boundary) of C^{p,q} from the
    matrices of d on whole bidegrees, with no grading."""
    basis = sc.monomial_basis(ctx.n, p, q)
    n = len(basis)
    if p + 1 <= ctx.n:
        cocycles = kernel(_d_matrix_unblocked(ctx, p, q))
    else:
        cocycles = Subspace(n, [tuple(F(1 if i == t else 0) for i in range(n))
                                for t in range(n)])
    if p >= 1:
        D = _d_matrix_unblocked(ctx, p - 1, q)
        boundary = Subspace(n, [D.col(j) for j in range(D.ncols)])
    else:
        boundary = Subspace.zero(n)
    # pivot columns of [boundary | cocycles] past the boundary's
    Z = cocycles.basis
    cols = list(boundary.basis) + list(Z)
    pivots, _ = rref([{j: c[i] for j, c in enumerate(cols)} for i in range(n)],
                     len(cols))
    reps = [sc.from_coords(Z[t - boundary.dim], basis)
            for t in pivots[boundary.dim:]]
    return reps, cocycles, boundary


def cohomology_mismatches(ctx):
    """The (p, q) where cohomology's representatives, or the cocycle and
    boundary bases of _graded, differ from the unblocked reference."""
    bad = []
    for p in range(ctx.n + 1):
        for q in range(ctx.n + 1):
            reps, boundary = sc.cohomology(ctx, p, q)
            cocycles = sc._graded(ctx, p, q)[0]
            if (reps, cocycles, boundary) != _cohomology_unblocked(ctx, p, q):
                bad.append((p, q))
    return bad


def _suite_exactla():
    rng = random.Random(5)
    ok = True
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        pivots, red = rref([{j: x for j, x in enumerate(r) if x} for r in rows],
                           ncols)
        dense = [[r.get(j, 0) for j in range(ncols)] for r in red]
        if (pivots, dense) != _rref_dense(rows, ncols):
            ok = False
        M = Matrix.from_rows(rows, ncols)
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        got = solve(M, M.matvec(x))
        if got is None or M.matvec(got[0]) != M.matvec(x):
            ok = False
        if kernel(M).dim + M.rank() != ncols:
            ok = False
    return [("exactla: dense/sparse agreement and solve round trips", ok, "60 cases")]


def _suite_supercochain():
    rng = random.Random(77)
    results = []

    def rand(n, p, q):
        basis = sc.monomial_basis(n, p, q)
        terms = {}
        for m in basis:
            if rng.random() < 0.5:
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                if c:
                    terms[m] = c
        return sc.BigradedElement(terms)

    checks = {
        "super-commutativity of vee": True,
        "associativity of vee": True,
        "bracket antisymmetry": True,
        "Poisson identity": True,
        "super-Jacobi": True,
        "bracket matches the peeling reference": True,
    }
    for n in (2, 3, 4):
        for _ in range(70):
            p1, q1 = rng.randint(0, n), rng.randint(0, n)
            p2, q2 = rng.randint(0, n), rng.randint(0, n)
            p3, q3 = rng.randint(0, n), rng.randint(0, n)
            a, b, c = rand(n, p1, q1), rand(n, p2, q2), rand(n, p3, q3)
            s12 = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            if sc.vee(a, b) != sc.vee(b, a).scale(s12):
                checks["super-commutativity of vee"] = False
            if sc.vee(sc.vee(a, b), c) != sc.vee(a, sc.vee(b, c)):
                checks["associativity of vee"] = False
            if sc.bracket(a, b) != sc.bracket(b, a).scale(-s12):
                checks["bracket antisymmetry"] = False
            lhs = sc.bracket(sc.vee(a, b), c)
            rhs = sc.vee(a, sc.bracket(b, c)) + sc.vee(b, sc.bracket(a, c)).scale(s12)
            if lhs != rhs:
                checks["Poisson identity"] = False
            lhs = sc.bracket(a, sc.bracket(b, c))
            rhs = sc.bracket(sc.bracket(a, b), c) + \
                sc.bracket(b, sc.bracket(a, c)).scale(s12)
            if lhs != rhs:
                checks["super-Jacobi"] = False
            if _bracket_peeling(a, b, lambda k: rng.randrange(k)) != sc.bracket(a, b):
                checks["bracket matches the peeling reference"] = False
    out = [("supercochain: %s" % name, ok, "dims 2-4, 210 cases")
           for name, ok in checks.items()]
    ctx = sc.heisenberg_context()
    dsq = all(sc.differential(sc.differential(
        sc.BigradedElement({m: F(1)}), ctx), ctx).is_zero()
        for p in range(4) for q in range(4)
        for m in sc.monomial_basis(3, p, q))
    out.append(("supercochain: d^2 = 0 on all monomials", dsq,
                "h3, all 64 monomials"))
    h5 = sc.ComplexContext.from_brackets(5, {(0, 1): {4: 1}, (2, 3): {4: 1}})
    out.append(("supercochain: blocked cohomology matches the unblocked "
                "reference", not cohomology_mismatches(h5), "h5, all (p, q)"))
    return out


def _suite_gtable():
    total, agree, hits = run_morphism_equivalence(cases=60, seed=31)
    ok = agree == total
    return [("gtable: morphism criterion matches direct verification",
             ok, "%d cases, %d true morphisms" % (total, hits))]


def _suite_gallery():
    from .gallery import run_all_fixtures
    return run_all_fixtures()


SUITES = {
    "exactla": _suite_exactla,
    "supercochain": _suite_supercochain,
    "gtable": _suite_gtable,
    "gallery": _suite_gallery,
}


def run_suites(module=None):
    """Run property suites in a fixed order, optionally restricted to one module."""
    names = [module] if module else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
    lines = []
    ok = True
    for name in names:
        for label, passed, detail in SUITES[name]():
            ok = ok and passed
            lines.append("%s %s (%s)" % ("PASS" if passed else "FAIL", label, detail))
    return ok, lines
