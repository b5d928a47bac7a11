"""Equivariant multiplication tables: extraction, expansion, morphism checks.

A table stores, per pair of source summands (r1, r2), the coefficients
c_{r1,r2}^{s,q} of the product restricted to image(tau_r1) (x) image(tau_r2),
in the basis tau_s o m_q o (tau_r1 (x) tau_r2)^{-1} built from a labeling.
Both directions work in the target's model coordinates, where tau_s is only
the offset of s in the concatenated basis (the columns of a decomposition's
basis matrix are the images tau_s(e_j)), and both read the candidate columns
tau_s o m_q from one builder.  Expansion sums them, weighted by a cell.
Extraction writes the product in model coordinates once, with the inverse of
the basis matrix, and solves for the cell exactly on a full basis, so a solved
table certifies that the product is equivariant, and an inconsistent system
doubles as a non-equivariance (or wrong-registry) detector: only then is the
product checked operator by operator, to tell the two apart.

Ordinary structure constants have one form, {(i, j): {k: c}} without zeros,
for e_i * e_j = sum_k c e_k: ``structure_constants`` builds it from a
bilinear operation on a basis, ``expand`` returns it, ``product_from_structure``
is its one evaluator and ``poisson_axioms`` its one axiom checker.
"""

from __future__ import annotations

import json

from .exactla import (
    AmbiguousCoordinates,
    ColumnSolver,
    Matrix,
    canon,
    join_terms,
    scalar_from_str,
    scalar_to_str,
    signed_term,
)
from .repkit import (
    Decomposition,
    IntertwinerRegistry,
    _unit,
    equivariance_failure,
)


class GTableError(Exception):
    pass


class NotEquivariant(GTableError):
    pass


class InconsistentSystem(GTableError):
    pass


class AmbiguousSystem(GTableError):
    pass


class ShapeMismatch(GTableError):
    pass


class MissingChoice(GTableError):
    pass


class GTable:
    """Coefficient family c_{r1,r2}^{s,q} over fixed decompositions."""

    def __init__(self, source: Decomposition, target: Decomposition,
                 registry: IntertwinerRegistry, entries, op_symbol="*"):
        self.source = source
        self.target = target
        self.registry = registry
        self.op_symbol = op_symbol
        # entries: {(r1_id, r2_id): ((s_id, q, c), ...)} with zero cells absent
        self.entries = {}
        tgt_order = {s.id: i for i, s in enumerate(target.summands)}
        for key, cell in entries.items():
            cell = [(s, q, canon(c)) for (s, q, c) in cell]
            cell = tuple(sorted((t for t in cell if t[2]),
                                key=lambda t: (tgt_order[t[0]], t[1])))
            if cell:
                self.entries[key] = cell

    def cell(self, r1, r2):
        return self.entries.get((r1, r2), ())

    def cell_dict(self, r1, r2):
        return {(s, q): c for (s, q, c) in self.cell(r1, r2)}

    def summand_ids(self):
        return [s.id for s in self.source.summands]

    def __eq__(self, other):
        return (isinstance(other, GTable)
                and self.summand_ids() == other.summand_ids()
                and [s.id for s in self.target.summands] ==
                    [s.id for s in other.target.summands]
                and self.entries == other.entries)

    def first_difference(self, other):
        """(r1, r2, ours, theirs) for the first differing cell, or None."""
        for r1 in self.summand_ids():
            for r2 in self.summand_ids():
                a = self.cell(r1, r2)
                b = other.cell(r1, r2)
                if a != b:
                    return (r1, r2, a, b)
        return None


def extract(product, dec: Decomposition, registry: IntertwinerRegistry,
            op_symbol="*") -> GTable:
    """Coefficients of an equivariant bilinear map over the decomposition.

    ``product`` maps two module coordinate vectors to one (bilinear).  The
    solved coefficients reproduce the product exactly on every basis pair,
    which certifies that it is equivariant.  Failure modes: NotEquivariant
    (the solve failed and the product fails equivariance on some operator and
    basis pair), InconsistentSystem (no exact solution although the product
    is equivariant: wrong decomposition or wrong registry), AmbiguousSystem
    (dependent candidate intertwiner images, as when the registry holds a
    zero map or one map twice; a defect of the registry, raised whether or
    not the product is equivariant).
    """
    try:
        entries = _solve_cells(product, dec, registry)
    except InconsistentSystem:
        _check_product_equivariance(product, dec.module)
        raise
    return GTable(dec, dec, registry, entries, op_symbol=op_symbol)


def _solve_cells(product, dec, registry):
    """{(r1, r2): [(s, q, c), ...]} solved exactly per pair of summands.

    The inverse of the basis matrix, whose columns are the images
    tau_s(e_k), writes each product value in model coordinates, where
    extraction is the inverse of ``expand``: the solver over the candidate
    columns (``_candidate_columns``) depends only on the irreps of r1 and r2,
    so it is factored once per irrep pair in this call, and its check
    C x == z on every equation is the one certificate of a solved cell.
    Dependent candidates raise AmbiguousSystem at the first summand pair of
    their irrep pair, before the product is evaluated there.
    """
    n = dec.module.dim
    offsets = _offsets(dec)
    # coordinates of a module vector w: sum over j of w[j] * column j of B^-1
    inv_cols = [[] for _ in range(n)]
    for i, j, x in dec.basis_matrix().inverse().entries():
        inv_cols[j].append((i, x))
    images = {s.id: [s.tau.col(a) for a in range(s.tau.ncols)]
              for s in dec.summands}
    solvers = {}
    entries = {}
    for r1 in dec.summands:
        d1 = registry.models[r1.irrep].dim
        for r2 in dec.summands:
            d2 = registry.models[r2.irrep].dim
            key = (r1.irrep, r2.irrep)
            if key not in solvers:
                cands, cols = _candidate_columns(registry, *key, dec, offsets)
                try:
                    solvers[key] = cands, ColumnSolver(cols, d1 * d2 * n)
                except AmbiguousCoordinates:
                    raise AmbiguousSystem("dependent candidate maps at (%s, %s)"
                                          % (r1.id, r2.id)) from None
            cands, solver = solvers[key]
            z = {}
            base = 0
            for u in images[r1.id]:
                for v in images[r2.id]:
                    for j, w in enumerate(product(u, v)):
                        if w:
                            for i, x in inv_cols[j]:
                                z[base + i] = z.get(base + i, 0) + x * w
                    base += n
            x = solver.solve(z)
            if x is None:
                raise InconsistentSystem(
                    "product on (%s, %s) has a component outside the "
                    "registry's reach" % (r1.id, r2.id))
            cell = [(s, q, c) for (s, q), c in zip(cands, x) if c]
            if cell:
                entries[(r1.id, r2.id)] = cell
    return entries


def _candidate_columns(registry, i1, i2, target, offsets):
    """Candidate maps [(s_id, q)] and their sparse columns for one pair of
    irreps, in the target's model coordinates.

    Equation (a * d2 + b) * n + offsets[s] + k is coordinate k of summand s
    of the product on the basis pair (a, b).  There tau_s is only the offset
    of s, so the column of (s, q) holds m_q[k, a * d2 + b], read straight
    off the intertwiner matrix.
    """
    n = target.module.dim
    cands = []
    cols = []
    for s in target.summands:
        off = offsets[s.id]
        for qi, m in enumerate(registry.basis(i1, i2, s.irrep)):
            cands.append((s.id, qi + 1))
            cols.append({t * n + off + k: x for k, t, x in m.matrix.entries()})
    return cands, cols


def _check_product_equivariance(product, module):
    n = module.dim
    ops = [(op, X, X, X) for op, X in module.action.items()]
    bad = equivariance_failure(product, n, n, ops, module.group)
    if bad is not None:
        raise NotEquivariant(
            "product fails equivariance at operator %s, basis pair (%d, %d)"
            % bad)


def _first_index(struct):
    """{i: [(j, row)]} over the nonzero products e_i * e_j; the rows are
    struct's own dicts, not copies."""
    out = {}
    for (i, j), row in struct.items():
        out.setdefault(i, []).append((j, row))
    return out


def structure_constants(basis, op, coords):
    """Structure constants {(i, j): {k: c}} of the bilinear ``op`` on
    ``basis``: row (i, j) holds the nonzero coords(op(basis[i], basis[j]))."""
    struct = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            row = {k: c for k, c in enumerate(coords(op(u, v))) if c}
            if row:
                struct[(i, j)] = row
    return struct


def product_from_structure(n, struct):
    """Bilinear map of coordinate vectors of length n from structure
    constants {(i, j): {k: c}}, e_i * e_j = sum_k c e_k.

    The one evaluator of structure constants; a zero constant adds nothing.
    """
    rows = _first_index(struct)

    def product(u, v):
        out = [0] * n
        for i, a in enumerate(u):
            if a and i in rows:
                for j, row in rows[i]:
                    b = v[j]
                    if b:
                        ab = a * b
                        for k, c in row.items():
                            out[k] += ab * c
        # from a list, not an iterator: a tuple that tuple() grows by resizing
        # is never reused from the free list of its size, which then fills up
        return tuple([canon(x) for x in out])

    return product


def poisson_axioms(P, L):
    """Which axioms of a commutative Poisson algebra hold for the product P
    and the bracket L, both structure constants {(i, j): {k: c}} without
    zeros: {"commutative", "associative", "jacobi", "leibniz": bool}, where
    jacobi includes the antisymmetry of L.

    Each trilinear identity is summed one first argument e_i at a time, into
    a dict over the (j, k, t) that the nonzero constants reach; no loop runs
    over all basis triples.  Under antisymmetry the Jacobi identity is
    {e_i, {e_j, e_k}} = {{e_i, e_j}, e_k} - {{e_i, e_k}, e_j}.
    """
    def output_index(S):  # {m: [((j, k), c)]}: where e_m occurs in S
        out = {}
        for jk, row in S.items():
            for m, c in row.items():
                out.setdefault(m, []).append((jk, c))
        return out

    Pf, Lf = _first_index(P), _first_index(L)
    Ptf = _first_index({(j, i): row for (i, j), row in P.items()})
    Po, Lo = output_index(P), output_index(L)

    def outer(Sf, Tf, i, swap=False):
        # (e_i S e_j) T e_k = sum_m S[i, j][m] T[m, k], keyed (j, k) or (k, j)
        for j, row in Sf.get(i, ()):
            for m, c in row.items():
                for k, trow in Tf.get(m, ()):
                    yield ((k, j) if swap else (j, k)), c, trow

    def inner(So, Tf, i):
        # e_i T (e_j S e_k) = sum_m S[j, k][m] T[i, m]
        for m, trow in Tf.get(i, ()):
            for jk, c in So.get(m, ()):
                yield jk, c, trow

    def vanishes(*terms):
        acc = {}  # (j, k, t) -> coefficient of e_t
        for sign, term in terms:
            for (j, k), c, row in term:
                for t, x in row.items():
                    acc[j, k, t] = acc.get((j, k, t), 0) + sign * c * x
        return not any(acc.values())

    results = {
        "commutative": all(P.get((j, i)) == row for (i, j), row in P.items()),
        "associative": True,
        "jacobi": all(L.get((j, i)) == {k: -c for k, c in row.items()}
                      for (i, j), row in L.items()),
        "leibniz": True,
    }
    for i in set(Pf) | set(Lf):
        if results["associative"]:
            results["associative"] = vanishes(
                (1, outer(Pf, Pf, i)), (-1, inner(Po, Pf, i)))
        if results["jacobi"]:
            results["jacobi"] = vanishes(
                (1, inner(Lo, Lf, i)), (-1, outer(Lf, Lf, i)),
                (1, outer(Lf, Lf, i, swap=True)))
        if results["leibniz"]:
            # {e_i, e_j e_k} = {e_i, e_j} e_k + e_j {e_i, e_k}
            results["leibniz"] = vanishes(
                (1, inner(Po, Lf, i)), (-1, outer(Lf, Pf, i)),
                (-1, outer(Lf, Ptf, i, swap=True)))
    return results


# ---------------------------------------------------------------------------
# expansion back to ordinary structure constants

class ExpandedAlgebra:
    """Ordinary structure constants of a table on the concatenated model bases."""

    def __init__(self, basis, struct):
        self.basis = basis  # [(summand_id, model_index)]
        self.struct = struct  # {(i, j): {k: scalar}}
        # the product of two coefficient vectors over the expanded basis
        self.product_coords = product_from_structure(len(basis), struct)


def _offsets(dec):
    """Position of each summand's first basis vector in the concatenated basis."""
    out = {}
    pos = 0
    for s in dec.summands:
        out[s.id] = pos
        pos += s.tau.ncols
    return out


def expand(table: GTable) -> ExpandedAlgebra:
    """Structure constants of the table on the concatenated model bases.

    The inverse of extraction: the constants of the basis pair
    (offset(r1) + a, offset(r2) + b) are the sum over the cell of c times the
    candidate column of (s, q) (``_candidate_columns``) on the equations of
    (a, b); no module vector is formed.
    """
    src = table.source
    tgt = table.target
    reg = table.registry
    n = tgt.module.dim
    src_off = _offsets(src)
    tgt_off = _offsets(tgt)
    columns = {}
    struct = {}
    for r1 in src.summands:
        for r2 in src.summands:
            cell = table.cell_dict(r1.id, r2.id)
            if not cell:
                continue
            key = (r1.irrep, r2.irrep)
            if key not in columns:
                columns[key] = _candidate_columns(reg, *key, tgt, tgt_off)
            acc = {}
            for cand, col in zip(*columns[key]):
                c = cell.get(cand)
                if c:
                    for e, x in col.items():
                        acc[e] = acc.get(e, 0) + c * x
            d2 = reg.models[r2.irrep].dim
            for e in sorted(acc):
                y = canon(acc[e])
                if y:
                    t, k = divmod(e, n)
                    a, b = divmod(t, d2)
                    struct.setdefault((src_off[r1.id] + a, src_off[r2.id] + b),
                                      {})[k] = y
    return ExpandedAlgebra(src.basis_index(), struct)


# ---------------------------------------------------------------------------
# equivariant linear maps and the morphism criterion

class GMatrix:
    """Scalar family f_{x,r} of an equivariant map between decomposed modules."""

    def __init__(self, source: Decomposition, target: Decomposition, entries):
        self.source = source
        self.target = target
        self.entries = {}
        for (x, r), c in entries.items():
            c = canon(c)
            if not c:
                continue
            if target.by_id[x].irrep != source.by_id[r].irrep:
                raise ShapeMismatch(
                    "f_{%s,%s} connects different isotypic types" % (x, r))
            self.entries[(x, r)] = c

    @staticmethod
    def identity(dec: Decomposition):
        return GMatrix(dec, dec, {(s.id, s.id): 1 for s in dec.summands})

    def __getitem__(self, xr):
        return self.entries.get(xr, 0)

    def as_matrix(self):
        """The assembled linear map on the expanded bases."""
        src_basis = self.source.basis_index()
        tgt_basis = self.target.basis_index()
        tgt_pos = {u: i for i, u in enumerate(tgt_basis)}
        cols = []
        for (rid, i) in src_basis:
            col = [0] * len(tgt_basis)
            for x in self.target.summands:
                c = self[(x.id, rid)]
                if c:
                    col[tgt_pos[(x.id, i)]] = c
            cols.append(col)
        return Matrix.from_cols(cols, nrows=len(tgt_basis))

    def invertible(self):
        M = self.as_matrix()
        return M.nrows == M.ncols and M.rank() == M.nrows

    def to_json(self):
        return [{"x": x, "r": r, "c": scalar_to_str(c)}
                for (x, r), c in sorted(self.entries.items())]


def check_morphism(tA: GTable, tB: GTable, f: GMatrix) -> bool:
    """Coefficient criterion: f assembles to an algebra morphism iff

    sum_{s in R_y} c_{r1,r2}^{s,q} f_{y,s}
        = sum_{x1 in X_{r1}} sum_{x2 in X_{r2}} d_{x1,x2}^{y,q} f_{x1,r1} f_{x2,r2}

    for all r1, r2, y and q up to d^{eps(r1),eps(r2),eps(y)}.
    """
    if f.source is not tA.source and f.source.to_json() != tA.source.to_json():
        raise ShapeMismatch("f source does not match tA")
    reg = tA.registry
    A = tA.source
    B = tB.source
    for r1 in A.summands:
        X1 = [x.id for x in B.summands if x.irrep == r1.irrep]
        for r2 in A.summands:
            X2 = [x.id for x in B.summands if x.irrep == r2.irrep]
            cA = tA.cell_dict(r1.id, r2.id)
            for y in B.summands:
                dq = reg.d(r1.irrep, r2.irrep, y.irrep)
                for q in range(1, dq + 1):
                    lhs = 0
                    for s in A.summands:
                        if s.irrep == y.irrep:
                            c = cA.get((s.id, q))
                            if c:
                                lhs += c * f[(y.id, s.id)]
                    rhs = 0
                    for x1 in X1:
                        f1 = f[(x1, r1.id)]
                        if not f1:
                            continue
                        for x2 in X2:
                            f2 = f[(x2, r2.id)]
                            if not f2:
                                continue
                            d = tB.cell_dict(x1, x2).get((y.id, q))
                            if d:
                                rhs += d * f1 * f2
                    if lhs != rhs:
                        return False
    return True


def morphism_oracle(tA: GTable, tB: GTable, f: GMatrix) -> bool:
    """Direct check that the assembled map satisfies phi(ab) = phi(a)phi(b)."""
    EA = expand(tA)
    EB = expand(tB)
    phi = f.as_matrix()
    nA = len(EA.basis)
    for i in range(nA):
        u = _unit(nA, i)
        for j in range(nA):
            v = _unit(nA, j)
            ab = EA.product_coords(u, v)
            lhs = phi.matvec(ab)
            rhs = EB.product_coords(phi.matvec(u), phi.matvec(v))
            if lhs != tuple(rhs):
                return False
    return True


# ---------------------------------------------------------------------------
# plain algebras

class PlainAlgebra:
    """One abstract generator per summand; constants read off under a choice Q."""

    def __init__(self, ids, struct):
        self.ids = list(ids)
        self.struct = struct  # {(r1, r2): {s: scalar}}

    def constants(self, r1, r2):
        return self.struct.get((r1, r2), {})


def occurring_triples(table: GTable):
    out = set()
    for r1 in table.source.summands:
        for r2 in table.source.summands:
            for s in table.target.summands:
                t = (r1.irrep, r2.irrep, s.irrep)
                if table.registry.d(*t):
                    out.add(t)
    return out


def plain_algebra(table: GTable, Q) -> PlainAlgebra:
    """Q maps (i1, i2, j) irrep triples to a q index in [1, d]."""
    for t in occurring_triples(table):
        if t not in Q:
            raise MissingChoice("choice undefined on %s" % (t,))
        if not 1 <= Q[t] <= table.registry.d(*t):
            raise MissingChoice("choice out of range on %s" % (t,))
    struct = {}
    for (r1, r2), cell in table.entries.items():
        e1 = table.source.by_id[r1].irrep
        e2 = table.source.by_id[r2].irrep
        row = {}
        for (s, q, c) in cell:
            if q == Q[(e1, e2, table.target.by_id[s].irrep)]:
                row[s] = c
        if row:
            struct[(r1, r2)] = row
    return PlainAlgebra([s.id for s in table.source.summands], struct)


def plain_map(f: GMatrix):
    """P(phi): linear map on plain bases, e_r -> sum_x f_{x,r} e_x."""
    return dict(f.entries)


def _plain_morphism(pA: PlainAlgebra, pB: PlainAlgebra, fmap, tgt_ids):
    for r1 in pA.ids:
        for r2 in pA.ids:
            cons = pA.constants(r1, r2)
            for y in tgt_ids:
                lhs = sum(c * fmap.get((y, s), 0) for s, c in cons.items())
                rhs = 0
                for (x1, r1b), f1 in fmap.items():
                    if r1b != r1:
                        continue
                    for (x2, r2b), f2 in fmap.items():
                        if r2b != r2:
                            continue
                        rhs += f1 * f2 * pB.constants(x1, x2).get(y, 0)
                if lhs != rhs:
                    return False
    return True


def corollary_check(tA: GTable, tB: GTable, f: GMatrix) -> bool:
    """P(phi) is a plain-algebra morphism for every choice Q."""
    triples = occurring_triples(tA) | occurring_triples(tB)
    reg = tA.registry
    choices = [{}]
    for t in sorted(triples, key=str):
        d = reg.d(*t)
        choices = [{**ch, t: q} for ch in choices for q in range(1, d + 1)]
    fmap = plain_map(f)
    tgt_ids = [s.id for s in tB.source.summands]
    for Q in choices:
        pA = plain_algebra(tA, Q)
        pB = plain_algebra(tB, Q)
        if not _plain_morphism(pA, pB, fmap, tgt_ids):
            return False
    return True


# ---------------------------------------------------------------------------
# cotables

def cotable(delta, dec: Decomposition, registry: IntertwinerRegistry) -> GTable:
    """Table of the dual product of a comultiplication.

    ``delta`` holds the constants {(i, j): {k: c}} of
    Delta(e_i) = sum c e_j (x) e_k, and the dual product has the constants
    {(j, k): {i: c}}; the dual identification (so that ``dec`` decomposes the
    dual module) is the caller's responsibility.
    """
    dual = {}
    for (i, j), row in delta.items():
        for k, c in row.items():
            dual.setdefault((j, k), {})[i] = c
    return extract(product_from_structure(dec.module.dim, dual), dec, registry)


# ---------------------------------------------------------------------------
# rendering

def _cell_text(table, r1, r2):
    cell = table.cell(r1, r2)
    if not cell:
        return ""
    e1 = table.source.by_id[r1].irrep
    e2 = table.source.by_id[r2].irrep
    bits = []
    for (s, q, c) in cell:
        d = table.registry.d(e1, e2, table.target.by_id[s].irrep)
        name = s if d == 1 else "%s[%d]" % (s, q)
        bits.append(signed_term(c, name))
    return join_terms(bits)


def to_text(table: GTable) -> str:
    ids = table.summand_ids()
    grid = [[table.op_symbol] + ids]
    for r1 in ids:
        grid.append([r1] + [_cell_text(table, r1, r2) for r2 in ids])
    widths = [max(len(row[j]) for row in grid) for j in range(len(grid[0]))]
    lines = []
    for i, row in enumerate(grid):
        cells = [row[j].ljust(widths[j]) for j in range(len(row))]
        lines.append(" " + " | ".join(cells).rstrip())
        if i == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def _latexify_name(name):
    if "{" in name or "^" in name:
        return name
    if "_" in name:
        head, sub = name.split("_", 1)
        return "%s_{%s}" % (head, sub)
    return name


def _latex_scalar(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return "%s\\tfrac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)


def _cell_latex(table, r1, r2):
    cell = table.cell(r1, r2)
    if not cell:
        return ""
    e1 = table.source.by_id[r1].irrep
    e2 = table.source.by_id[r2].irrep
    bits = []
    for (s, q, c) in cell:
        d = table.registry.d(e1, e2, table.target.by_id[s].irrep)
        name = _latexify_name(s)
        if d > 1:
            name = (name[:-1] + ",%d}" % q) if name.endswith("}") \
                else "%s_{%d}" % (name, q)
        bits.append(signed_term(c, name, _latex_scalar, "\\,"))
    return "$%s$" % join_terms(bits)


def to_latex(table: GTable) -> str:
    ids = table.summand_ids()
    cols = "|c||" + "c|" * len(ids)
    lines = ["\\begin{tabular}{%s}" % cols, "\\hline"]
    header = ["$%s$" % table.op_symbol] + ["$%s$" % _latexify_name(i) for i in ids]
    lines.append(" & ".join(header) + " \\\\")
    lines.append("\\hline")
    lines.append("\\hline")
    for r1 in ids:
        row = ["$%s$" % _latexify_name(r1)] + \
              [_cell_latex(table, r1, r2) for r2 in ids]
        lines.append(" & ".join(row) + " \\\\")
        lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def to_json_obj(table: GTable):
    entries = []
    src_order = {s.id: i for i, s in enumerate(table.source.summands)}
    for (r1, r2) in sorted(table.entries,
                           key=lambda k: (src_order[k[0]], src_order[k[1]])):
        for (s, q, c) in table.entries[(r1, r2)]:
            entries.append({"r1": r1, "r2": r2, "s": s, "q": q,
                            "c": scalar_to_str(c)})
    return {
        "group": table.registry.group,
        "labeling": table.registry.labeling,
        "summands": table.source.to_json(),
        "entries": entries,
    }


def to_json(table: GTable) -> str:
    return json.dumps(to_json_obj(table), indent=2) + "\n"


class SerializedGTable:
    """Parsed JSON form of a table; enough to re-render and compare."""

    def __init__(self, obj):
        self.group = obj["group"]
        self.labeling = obj["labeling"]
        self.summands = obj["summands"]
        self.entries = obj["entries"]

    def to_json_obj(self):
        return {"group": self.group, "labeling": self.labeling,
                "summands": self.summands, "entries": self.entries}

    def to_json(self):
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def parse_gtable(text: str) -> SerializedGTable:
    obj = json.loads(text)
    st = SerializedGTable(obj)
    for e in st.entries:
        scalar_from_str(e["c"])  # validates scalar syntax
    return st


def render(table: GTable, fmt: str) -> str:
    if fmt == "text":
        return to_text(table)
    if fmt == "json":
        return to_json(table)
    if fmt == "latex":
        return to_latex(table)
    raise ValueError("unknown format %r" % fmt)
