"""Fixed example algebras with their reference tables, verified entry for entry.

Every fixture extracts its table from first principles and compares against a
hard-coded expected table; a FixtureMismatch carries the first differing cell.
Each product is built once as structure constants on a basis of the algebra
(``gtable.structure_constants``) and evaluated by ``product_from_structure``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exactla import div, scalar_from_str
from ..gtable import (
    GTable,
    cotable,
    extract,
    product_from_structure,
    structure_constants,
)
from ..repkit import (
    S3_ELEMENTS,
    GModule,
    IrrepId,
    block_decomposition,
    builtin_labeling,
    decompose_s3,
    decompose_sl2,
    glk_ad,
    glk_basis,
    glk_coords,
    group_algebra_s3_conjugation,
    s3_compose,
    sl2_poly_labeling,
    smat_add,
    smat_comm,
    smat_mul,
    smat_scale,
    smat_trace,
)

F = Fraction


class FixtureMismatch(Exception):
    def __init__(self, label, diff):
        r1, r2, got, want = diff
        super().__init__(
            "%s: cell (%s, %s) extracted %s but expected %s"
            % (label, r1, r2, got or "0", want or "0"))
        self.cell = (r1, r2)
        self.got = got
        self.want = want


def expected_table(dec, registry, cells, op_symbol="*"):
    entries = {}
    for (r1, r2), items in cells.items():
        entries[(r1, r2)] = [(s, q, scalar_from_str(c)) for (s, q, c) in items]
    return GTable(dec, dec, registry, entries, op_symbol=op_symbol)


def compare(label, got: GTable, want: GTable):
    diff = got.first_difference(want)
    if diff is not None:
        raise FixtureMismatch(label, diff)
    return got


@dataclass
class FixtureReport:
    label: str
    tables: dict  # name -> GTable
    products: dict  # name -> product_from_structure evaluator


# ---------------------------------------------------------------------------
# K[S3] under conjugation: table and cotable

S3_TABLE = {
    ("1_1", "1_1"): [("1_1", 1, "1")],
    ("1_2", "1_2"): [("1_2", 1, "1")],
    ("1_3", "1_3"): [("1_3", 1, "1")],
    ("1_3", "s_sg"): [("s_sg", 1, "1")],
    ("1_3", "A_std"): [("A_std", 1, "1")],
    ("s_sg", "1_3"): [("s_sg", 1, "1")],
    ("s_sg", "s_sg"): [("1_3", 1, "-3")],
    ("s_sg", "A_std"): [("A_std", 1, "1")],
    ("A_std", "1_3"): [("A_std", 1, "1")],
    ("A_std", "s_sg"): [("A_std", 1, "-1")],
    ("A_std", "A_std"): [("1_3", 1, "3/2"), ("s_sg", 1, "3/2")],
}

S3_COTABLE = {
    ("1_1", "1_1"): [("1_1", 1, "1/6")],
    ("1_1", "1_2"): [("1_2", 1, "1/6")],
    ("1_1", "1_3"): [("1_3", 1, "1/6")],
    ("1_1", "s_sg"): [("s_sg", 1, "1/6")],
    ("1_1", "A_std"): [("A_std", 1, "1/6")],
    ("1_2", "1_1"): [("1_2", 1, "1/6")],
    ("1_2", "1_2"): [("1_1", 1, "1/6")],
    ("1_2", "1_3"): [("1_3", 1, "1/6")],
    ("1_2", "s_sg"): [("s_sg", 1, "1/6")],
    ("1_2", "A_std"): [("A_std", 1, "-1/6")],
    ("1_3", "1_1"): [("1_3", 1, "1/6")],
    ("1_3", "1_2"): [("1_3", 1, "1/6")],
    ("1_3", "1_3"): [("1_1", 1, "2/3"), ("1_2", 1, "2/3"), ("1_3", 1, "1/3")],
    ("1_3", "s_sg"): [("s_sg", 1, "-1/3")],
    ("s_sg", "1_1"): [("s_sg", 1, "1/6")],
    ("s_sg", "1_2"): [("s_sg", 1, "1/6")],
    ("s_sg", "1_3"): [("s_sg", 1, "-1/3")],
    ("s_sg", "s_sg"): [("1_1", 1, "2"), ("1_2", 1, "2"), ("1_3", 1, "-1")],
    ("A_std", "1_1"): [("A_std", 1, "1/6")],
    ("A_std", "1_2"): [("A_std", 1, "-1/6")],
    ("A_std", "A_std"): [("1_1", 1, "1"), ("1_2", 1, "-1"),
                         ("A_std", 1, "1/3")],
}


def s3_decomposition():
    reg = builtin_labeling("S3")
    M = group_algebra_s3_conjugation()
    sixth = F(1, 6)
    generators = [
        ("1_1", "tr", [[sixth] * 6]),
        ("1_2", "tr", [[sixth, -sixth, -sixth, -sixth, sixth, sixth]]),
        ("1_3", "tr", [[F(2, 3), 0, 0, 0, F(-1, 3), F(-1, 3)]]),
        ("s_sg", "sg", [[0, 0, 0, 0, 1, -1]]),
        ("A_std", "std", [[0, 1, -1, 0, 0, 0],
                          [0, 1, 0, -1, 0, 0]]),
    ]
    dec = decompose_s3(M, reg, generators=generators)
    return reg, dec


def s3_fixture() -> FixtureReport:
    """K[S3] with the conjugation action: group-algebra table and the cotable
    of Delta(g) = g (x) g under the orthonormal-group-basis identification."""
    reg, dec = s3_decomposition()
    product = product_from_structure(6, structure_constants(
        S3_ELEMENTS, s3_compose, lambda g: [int(g == h) for h in S3_ELEMENTS]))
    table = extract(product, dec, reg)
    compare("K[S3] table", table, expected_table(dec, reg, S3_TABLE))
    delta = {(i, i): {i: 1} for i in range(6)}  # its own dual product
    cot = cotable(delta, dec, reg)
    compare("K[S3] cotable", cot, expected_table(dec, reg, S3_COTABLE))
    return FixtureReport("K[S3]", {"table": table, "cotable": cot},
                         {"table": product,
                          "cotable": product_from_structure(6, delta)})


# ---------------------------------------------------------------------------
# M_k(K) under GL(k) conjugation

def _mk_module_and_product(k):
    """M_k as triv + adj of the GL(k) registry: coordinates are the
    identity component tr(A)/k, then the traceless part in glk_basis order."""
    reg = builtin_labeling("GLk", k=k)
    gk = "GL%d" % k
    dec = block_decomposition(reg, [("A_0", IrrepId(gk, "trivial")),
                                    ("A_1", IrrepId(gk, "adjoint"))])
    ident = {(i, i): 1 for i in range(k)}
    full = [ident] + glk_basis(k)  # (identity component, sl(k) part)

    def to_coords(A):
        scalar = div(smat_trace(A, k), k)
        return [scalar] + glk_coords(smat_add(A, smat_scale(-scalar, ident)), k)

    product = product_from_structure(
        k * k, structure_constants(full, smat_mul, to_coords))
    return reg, dec, product


def mk_expected(k):
    cells = {
        ("A_0", "A_0"): [("A_0", 1, "1")],
        ("A_0", "A_1"): [("A_1", 1, "1")],
        ("A_1", "A_0"): [("A_1", 1, "1")],
    }
    if k == 2:
        cells[("A_1", "A_1")] = [("A_0", 1, "1/2"), ("A_1", 1, "1/2")]
    else:
        cells[("A_1", "A_1")] = [("A_0", 1, "1/%d" % k),
                                 ("A_1", 1, "1/2"), ("A_1", 2, "1/2")]
    return cells


def mk_fixture(k) -> FixtureReport:
    """Matrix algebra M_k(K): AB = (1/k)tr(AB)I + (1/2)[A,B] + (1/2)sym."""
    if k < 2:
        raise ValueError("k >= 2")
    reg, dec, product = _mk_module_and_product(k)
    table = extract(product, dec, reg)
    compare("M_%d table" % k, table, expected_table(dec, reg, mk_expected(k)))
    return FixtureReport("M_%d" % k, {"table": table}, {"table": product})


# ---------------------------------------------------------------------------
# sl(3, K) under the corner SL(2)

# E, H, F of the upper-left corner sl(2) in sl(3) (and in gl(3))
CORNER_SL2 = {"E": {(0, 1): 1}, "H": {(0, 0): 1, (1, 1): -1}, "F": {(1, 0): 1}}

SL3_TABLE = {
    ("V_0", "V_1"): [("V_1", 1, "3")],
    ("V_0", "V_1'"): [("V_1'", 1, "-3")],
    ("V_2", "V_2"): [("V_2", 1, "1")],
    ("V_2", "V_1"): [("V_1", 1, "1")],
    ("V_2", "V_1'"): [("V_1'", 1, "1")],
    ("V_1", "V_0"): [("V_1", 1, "-3")],
    ("V_1", "V_2"): [("V_1", 1, "-1")],
    # the two mixed cells below are forced by the intertwiner symmetries:
    # the V_0 and V_2 coefficients of (V_1, V_1') always coincide
    ("V_1", "V_1'"): [("V_0", 1, "1/2"), ("V_2", 1, "1/2")],
    ("V_1'", "V_0"): [("V_1'", 1, "3")],
    ("V_1'", "V_2"): [("V_1'", 1, "-1")],
    ("V_1'", "V_1"): [("V_0", 1, "1/2"), ("V_2", 1, "-1/2")],
}


def sl3_fixture() -> FixtureReport:
    """sl(3) as an SL(2)-algebra via the upper-left corner embedding.

    Highest weight vectors: Z = diag(1,1,-2), E12 for the corner block, E13
    for the third-column copy, -E32 for the third-row copy.
    """
    reg = builtin_labeling("SL2")
    basis = glk_basis(3)
    action = {op: glk_ad(P, 3, basis) for op, P in CORNER_SL2.items()}
    module = GModule("SL2", 8, action)
    coords = lambda A: glk_coords(A, 3)
    lie = product_from_structure(
        8, structure_constants(basis, smat_comm, coords))
    hwvs = [
        ("V_0", 0, coords({(0, 0): 1, (1, 1): 1, (2, 2): -2})),
        ("V_2", 2, coords({(0, 1): 1})),
        ("V_1", 1, coords({(0, 2): 1})),
        ("V_1'", 1, coords({(2, 1): -1})),
    ]
    dec = decompose_sl2(module, reg, hwvs=hwvs)
    table = extract(lie, dec, reg, op_symbol="[,]")
    compare("sl(3) table", table, expected_table(dec, reg, SL3_TABLE, "[,]"))
    return FixtureReport("sl(3)", {"table": table}, {"table": lie})


# ---------------------------------------------------------------------------
# K[x,y] truncated by total degree

def poly_fixture(max_degree) -> FixtureReport:
    """Graded polynomial multiplication: A_r1 * A_r2 = A_{r1+r2}, truncated."""
    if max_degree < 1:
        raise ValueError("max degree >= 1")
    D = max_degree
    reg = sl2_poly_labeling(D)
    dec = block_decomposition(reg, [("A_%d" % r, IrrepId("SL2", r))
                                    for r in range(D + 1)])
    # x^(r1-i) y^i * x^(r2-j) y^j = x^(r1+r2-i-j) y^(i+j), from block offsets
    offs = {r: r * (r + 1) // 2 for r in range(D + 1)}
    product = product_from_structure(dec.module.dim, {
        (offs[r1] + i, offs[r2] + j): {offs[r1 + r2] + i + j: 1}
        for r1 in range(D + 1) for r2 in range(D + 1 - r1)
        for i in range(r1 + 1) for j in range(r2 + 1)})

    table = extract(product, dec, reg)
    cells = {}
    for r1 in range(D + 1):
        for r2 in range(D + 1 - r1):
            cells[("A_%d" % r1, "A_%d" % r2)] = [("A_%d" % (r1 + r2), 1, "1")]
    compare("K[x,y] table (degree <= %d)" % D, table,
            expected_table(dec, reg, cells))
    return FixtureReport("K[x,y]<=%d" % D, {"table": table}, {"table": product})
