"""Output checks of the benchmark, each against a separate computation or a
property the method must have, never against a stored copy of an output.

Every check returns a list of problems; an empty list means the output passed.
Ranks come from sympy's DomainMatrix over QQ, an elimination that shares no
code with gtables.exactla.  Structure constants are expanded from table cells
here, from the labeling's intertwiner matrices, rather than by gtable.expand,
wherever the check is about the table itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

F = Fraction

MAX_PROBLEMS = 5


def qq_rank(rows, ncols):
    """Exact rank of a list of Fraction rows."""
    # imported on first use, so that sympy is not loaded when peak_rss_mb
    # is read
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    rows = [r for r in rows if any(r)]
    if not rows or not ncols:
        return 0
    data = [[QQ(x.numerator, x.denominator) for x in map(F, r)] for r in rows]
    return DomainMatrix(data, (len(data), ncols), QQ).rank()


def _unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return tuple(v)


# ---------------------------------------------------------------------------
# tables given as CLI JSON: cells and their own expansion

def json_cells(obj):
    """{(r1, r2): {(s, q): Fraction}} from a rendered table."""
    cells = {}
    for e in obj["entries"]:
        cells.setdefault((e["r1"], e["r2"]), {})[(e["s"], e["q"])] = F(e["c"])
    return cells


def expand_cells(summands, cells, registry):
    """Structure constants {(i, j): {k: c}} on the concatenated model bases.

    ``summands`` is [(id, IrrepId)] in table order.  Each cell coefficient
    c_{r1,r2}^{s,q} contributes c * m_q(e_a (x) e_b) to block s.
    """
    offset = {}
    pos = 0
    for sid, irrep in summands:
        offset[sid] = pos
        pos += registry.models[irrep].dim
    irrep_of = dict(summands)
    struct = {}
    for (r1, r2), cell in cells.items():
        i1, i2 = irrep_of[r1], irrep_of[r2]
        d1, d2 = registry.models[i1].dim, registry.models[i2].dim
        for (s, q), c in cell.items():
            m = registry.basis(i1, i2, irrep_of[s])[q - 1].matrix
            for a in range(d1):
                for b in range(d2):
                    col = a * d2 + b
                    row = struct.setdefault((offset[r1] + a, offset[r2] + b), {})
                    for k in range(m.nrows):
                        x = m[k, col]
                        if x:
                            key = offset[s] + k
                            row[key] = row.get(key, F(0)) + c * x
    for key in list(struct):
        struct[key] = {k: v for k, v in struct[key].items() if v}
    return pos, struct


def json_summands(obj, registry):
    """[(id, IrrepId)] of a rendered table, IrrepIds taken from the registry."""
    irreps = {(i.group, i.label): i for i in registry.models}
    return [(s["id"], irreps[(s["irrep"]["group"], s["irrep"]["label"])])
            for s in obj["summands"]]


# ---------------------------------------------------------------------------
# Poisson superalgebra axioms on structure constants

def _mul(struct, u, v):
    """Product of two sparse vectors {index: c}."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in struct.get((i, j), {}).items():
                out[k] = out.get(k, F(0)) + a * b * c
    return {k: c for k, c in out.items() if c}


def _add(*terms):
    out = {}
    for sign, vec in terms:
        for k, c in vec.items():
            out[k] = out.get(k, F(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def poisson_problems(parity, cup, brk):
    """Graded commutativity and associativity of cup, super-antisymmetry and
    Jacobi of brk, and the Leibniz rule, on every basis pair and triple.

    ``parity[i]`` is the total degree mod 2 of basis vector i; the signs are
    those of a Poisson superalgebra with an even bracket.
    """
    n = len(parity)
    e = [{i: F(1)} for i in range(n)]
    problems = []

    def fail(text):
        if len(problems) < MAX_PROBLEMS:
            problems.append(text)

    def sgn(i, j):
        return -1 if parity[i] and parity[j] else 1

    for i in range(n):
        for j in range(n):
            s = sgn(i, j)
            if _add((1, _mul(cup, e[i], e[j])), (-s, _mul(cup, e[j], e[i]))):
                fail("cup product not graded-commutative on (%d, %d)" % (i, j))
            if _add((1, _mul(brk, e[i], e[j])), (s, _mul(brk, e[j], e[i]))):
                fail("bracket not super-antisymmetric on (%d, %d)" % (i, j))
    for i in range(n):
        for j in range(n):
            s = sgn(i, j)
            ij_cup = _mul(cup, e[i], e[j])
            ij_brk = _mul(brk, e[i], e[j])
            for k in range(n):
                if _mul(cup, ij_cup, e[k]) != _mul(cup, e[i], _mul(cup, e[j], e[k])):
                    fail("cup product not associative on (%d, %d, %d)" % (i, j, k))
                lhs = _mul(brk, e[i], _mul(brk, e[j], e[k]))
                rhs = _add((1, _mul(brk, ij_brk, e[k])),
                           (s, _mul(brk, e[j], _mul(brk, e[i], e[k]))))
                if _add((1, lhs), (-1, rhs)):
                    fail("Jacobi fails on (%d, %d, %d)" % (i, j, k))
                lhs = _mul(brk, e[i], _mul(cup, e[j], e[k]))
                rhs = _add((1, _mul(cup, ij_brk, e[k])),
                           (s, _mul(cup, e[j], _mul(brk, e[i], e[k]))))
                if _add((1, lhs), (-1, rhs)):
                    fail("Leibniz rule fails on (%d, %d, %d)" % (i, j, k))
    return problems


# ---------------------------------------------------------------------------
# heisenberg: the paper's 18-dimensional H_E and its isomorphism with gl(3)

# even bidegrees and their dimensions, as stated in the paper
PAPER_DIMS = {(0, 0): 1, (2, 0): 2, (1, 1): 4, (3, 1): 2,
              (0, 2): 2, (2, 2): 4, (1, 3): 2, (3, 3): 1}

_BIDEGREE = re.compile(r"\^\{(\d+),(\d+)\}")


def bidegree(summand_id):
    p, q = _BIDEGREE.search(summand_id).groups()
    return int(p), int(q)


def heisenberg_report_problems(rc, text, registry):
    """`heisenberg report --format json`: dims and the Poisson axioms."""
    if rc != 0:
        return ["exit code %d" % rc]
    obj = json.loads(text)
    problems = []
    dims = {tuple(map(int, k.split(","))): d for k, d in obj["dims"].items()}
    if dims != PAPER_DIMS:
        problems.append("dims per bidegree %s, paper has %s" % (dims, PAPER_DIMS))
    if obj["total_even_dim"] != 18 or sum(dims.values()) != 18:
        problems.append("total even dimension %s" % obj["total_even_dim"])
    bad = [v for v in obj["verification"] if not v["ok"]]
    if bad:
        problems.append("representative checks failed: %s" % bad[:3])
    summands = json_summands(obj["cup"], registry)
    if summands != json_summands(obj["bracket"], registry):
        problems.append("cup and bracket tables use different summands")
    n, cup = expand_cells(summands, json_cells(obj["cup"]), registry)
    _, brk = expand_cells(summands, json_cells(obj["bracket"]), registry)
    if n != 18:
        problems.append("expanded basis has %d vectors" % n)
    parity = []
    for sid, irrep in summands:
        p, q = bidegree(sid)
        parity += [(p + q) % 2] * registry.models[irrep].dim
    return problems + poisson_problems(parity, cup, brk)


def block_decomposition(gt, summands, registry):
    """A decomposition of the block sum of the models with inclusion taus,
    whose expansion is the table's own structure constants."""
    dims = [registry.models[irrep].dim for _, irrep in summands]
    n = sum(dims)
    module = gt.repkit.GModule(registry.group, n, {}, validate=False)
    out = []
    pos = 0
    for (sid, irrep), d in zip(summands, dims):
        tau = gt.exactla.Matrix.from_cols([_unit(n, pos + j) for j in range(d)],
                                          nrows=n)
        out.append(gt.repkit.Summand(sid, irrep, tau))
        pos += d
    return gt.repkit.Decomposition(module, registry, out, validate=False)


def table_from_json(gt, obj, registry, dec=None):
    """A GTable over dec (by default the block decomposition) from CLI JSON."""
    if dec is None:
        dec = block_decomposition(gt, json_summands(obj, registry), registry)
    entries = {key: [(s, q, c) for (s, q), c in cell.items()]
               for key, cell in json_cells(obj).items()}
    return gt.gtable.GTable(dec, dec, registry, entries)


def iso_problems(gt, rc, text, report_text, registry, gl_cup, gl_bracket):
    """`gln iso --n 3 --format json`: the map is a morphism for both structures
    by the direct oracle, and invertible by an independent rank."""
    if rc != 0:
        return ["exit code %d" % rc]
    obj = json.loads(text)
    problems = ["%s is false" % key
                for key in ("bracket_morphism", "product_morphism", "invertible")
                if obj[key] is not True]
    report = json.loads(report_text)
    he_cup = table_from_json(gt, report["cup"], registry)
    dec = he_cup.source
    he_bracket = table_from_json(gt, report["bracket"], registry, dec)
    f = gt.gtable.GMatrix(dec, gl_bracket.source,
                          {(e["x"], e["r"]): F(e["c"]) for e in obj["map"]})
    if not gt.gtable.morphism_oracle(he_bracket, gl_bracket, f):
        problems.append("map is not a bracket morphism (direct check)")
    if not gt.gtable.morphism_oracle(he_cup, gl_cup, f):
        problems.append("map is not a product morphism (direct check)")
    M = f.as_matrix()
    if M.nrows != M.ncols or qq_rank(M.rows_list(), M.ncols) != M.nrows:
        problems.append("map is not invertible")
    return problems


# ---------------------------------------------------------------------------
# gln: expanded tables against products computed outside the tables

def sl_basis(n):
    """sl(n) basis in the adjoint model's order: off-diagonal units row-major,
    then E_ii - E_{i+1,i+1}; sparse {(i, j): c} matrices."""
    out = [{(i, j): F(1)} for i in range(n) for j in range(n) if i != j]
    out += [{(i, i): F(1), (i + 1, i + 1): F(-1)} for i in range(n - 1)]
    return out


def sl_coords(A, n):
    """Coordinates of a traceless sparse matrix in the sl_basis order."""
    coords = [A.get((i, j), F(0)) for i in range(n) for j in range(n) if i != j]
    acc = F(0)
    for i in range(n - 1):
        acc += A.get((i, i), F(0))
        coords.append(acc)
    if acc + A.get((n - 1, n - 1), F(0)) != 0:
        raise ValueError("matrix is not traceless")
    return coords


def gln_expected(gallery, n, op):
    """op(e_i, e_j) in module coordinates for the gl(n) |x gl(n)_ab basis
    (I)_0, sl(n)_0, sl(n)_ab, (I)_ab, with op a gallery product."""
    basis = [gallery.gln_element(n, a0=1)]
    basis += [gallery.gln_element(n, A0=B) for B in sl_basis(n)]
    basis += [gallery.gln_element(n, A1=B) for B in sl_basis(n)]
    basis.append(gallery.gln_element(n, a1=1))

    def coords(u):
        _, a0, A0, a1, A1 = u
        return tuple([a0] + sl_coords(A0, n) + sl_coords(A1, n) + [a1])

    return [[coords(op(u, v)) for v in basis] for u in basis]


def mk_expected(k):
    """Products of the basis I, sl(k) of M_k in coordinates (tr/k, traceless
    part), with dense Fraction matrices."""
    def dense(A):
        return [[A.get((i, j), F(0)) for j in range(k)] for i in range(k)]

    basis = [dense({(i, i): F(1) for i in range(k)})]
    basis += [dense(B) for B in sl_basis(k)]

    def coords(A):
        scalar = sum(A[i][i] for i in range(k)) / k
        T = {(i, j): A[i][j] - (scalar if i == j else 0)
             for i in range(k) for j in range(k)}
        return tuple([scalar] + sl_coords({key: v for key, v in T.items() if v}, k))

    def matmul(A, B):
        return [[sum((A[i][t] * B[t][j] for t in range(k)), F(0))
                 for j in range(k)] for i in range(k)]

    return [[coords(matmul(A, B)) for B in basis] for A in basis]


def reproduces_problems(gt, label, table, expected):
    """gtable.expand of a table with identity basis matrix against expected
    products on every basis pair."""
    E = gt.gtable.expand(table)
    n = len(E.basis)
    if n != len(expected):
        return ["%s: expanded basis has %d vectors, expected %d"
                % (label, n, len(expected))]
    problems = []
    for i in range(n):
        for j in range(n):
            got = E.product_coords(_unit(n, i), _unit(n, j))
            if tuple(got) != tuple(expected[i][j]):
                problems.append("%s: product of basis pair (%d, %d) differs"
                                % (label, i, j))
                if len(problems) >= MAX_PROBLEMS:
                    return problems
    return problems


# ---------------------------------------------------------------------------
# cohomology of H^p(g, Lambda^q g)

def duality_problems(n, dims):
    """Poincare duality over the (p, q) present, and zero Euler characteristic
    for every q whose row is complete; {(p, q): problems}."""
    problems = {}
    for (p, q), d in sorted(dims.items()):
        dual = dims.get((n - p, n - q))
        if dual is not None and dual != d:
            problems.setdefault((p, q), []).append(
                "dim H^{%d,%d} = %d but dim H^{%d,%d} = %d"
                % (p, q, d, n - p, n - q, dual))
    for q in sorted({q for (_, q) in dims}):
        row = [dims.get((p, q)) for p in range(n + 1)]
        if None in row:
            continue
        euler = sum((-1) ** p * d for p, d in enumerate(row))
        if euler:
            for p in range(n + 1):
                problems.setdefault((p, q), []).append(
                    "Euler characteristic of row q = %d is %d" % (q, euler))
    return problems


def betti_problems(dims, q0):
    """q = 0 Betti numbers against a closed form; {(p, 0): problems}."""
    return {(p, 0): ["dim H^{%d,0} = %s, closed form gives %d"
                     % (p, dims.get((p, 0)), b)]
            for p, b in enumerate(q0) if dims.get((p, 0)) != b}


def d_rows(sc, ctx, p, q):
    """Coordinates of d applied to every monomial of C^{p,q}, in C^{p+1,q}."""
    if p < 0 or p + 1 > ctx.n:
        return []
    target = sc.monomial_basis(ctx.n, p + 1, q)
    return [list(sc.to_coords(sc.differential(sc.BigradedElement({m: F(1)}), ctx),
                              target))
            for m in sc.monomial_basis(ctx.n, p, q)]


def representative_problems(sc, ctx, p, q, reps, boundary_rows, d_out_rows):
    """Representatives are closed, independent modulo boundaries, and as many
    as dim C^{p,q} - rank d_p - rank d_{p-1}."""
    basis = sc.monomial_basis(ctx.n, p, q)
    problems = []
    for z in reps:
        if not sc.differential(z, ctx).is_zero():
            problems.append("H^{%d,%d}: a representative is not closed" % (p, q))
            break
    rep_rows = [list(sc.to_coords(z, basis)) for z in reps]
    rank_b = qq_rank(boundary_rows, len(basis))
    if qq_rank(boundary_rows + rep_rows, len(basis)) != rank_b + len(reps):
        problems.append("H^{%d,%d}: representatives dependent modulo boundaries"
                        % (p, q))
    ncols = len(sc.monomial_basis(ctx.n, p + 1, q)) if p + 1 <= ctx.n else 0
    betti = len(basis) - qq_rank(d_out_rows, ncols) - rank_b
    if betti != len(reps):
        problems.append("H^{%d,%d}: %d representatives, rank count gives %d"
                        % (p, q, len(reps), betti))
    return problems


# ---------------------------------------------------------------------------
# spec: recovered tables

def spec_cells_problems(text, drawn):
    """Recovered cells equal the coefficients the generator drew."""
    got = json_cells(json.loads(text))
    if got == drawn:
        return []
    for key in sorted(set(got) | set(drawn)):
        if got.get(key) != drawn.get(key):
            return ["cell %s recovered %s, drawn %s"
                    % (key, got.get(key), drawn.get(key))]
    return []


def spec_product(spec, n):
    """The spec's bilinear map on module coordinate vectors."""
    table = {}
    for e in spec["product"]:
        table.setdefault((e["i"], e["j"]), []).append((e["k"], F(e["c"])))

    def product(u, v):
        out = [F(0)] * n
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        for k, c in table.get((i, j), ()):
                            out[k] += a * b * c
        return tuple(out)

    return product


def auto_spec_problems(gt, spec, text, registry):
    """With automatic decomposition, the recovered table expands to the spec's
    structure constants: B E(e_i, e_j) = mu(B e_i, B e_j) for the basis
    matrix B of the decomposition."""
    M = gt.exactla.Matrix
    n = spec["dim"]
    action = {op: M.from_rows([[F(x) for x in row] for row in rows])
              for op, rows in spec["action"].items()}
    module = gt.repkit.GModule(spec["group"], n, action)
    if spec["group"] == "SL2":
        dec = gt.repkit.decompose_sl2(module, registry)
    else:
        dec = gt.repkit.decompose_s3(module, registry)
    obj = json.loads(text)
    if [s["id"] for s in obj["summands"]] != [s.id for s in dec.summands]:
        return ["summand ids %s differ from the decomposition's"
                % [s["id"] for s in obj["summands"]]]
    E = gt.gtable.expand(table_from_json(gt, obj, registry, dec))
    B = dec.basis_matrix()
    mu = spec_product(spec, n)
    cols = [B.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            got = B.matvec(E.product_coords(_unit(n, i), _unit(n, j)))
            if tuple(got) != mu(cols[i], cols[j]):
                return ["expanded product differs on basis pair (%d, %d)" % (i, j)]
    return []


def morphism_problems(fast, slow, must_hold):
    """check_morphism agrees with morphism_oracle; identity maps pass."""
    problems = []
    if fast != slow:
        problems.append("check_morphism says %s, morphism_oracle says %s"
                        % (fast, slow))
    if must_hold and not (fast and slow):
        problems.append("the identity map is not reported as a morphism")
    return problems
