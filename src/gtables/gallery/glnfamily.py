"""The commutative Poisson family on gl(n) |x gl(n)_ab.

Elements are pairs (a0 I + A0, a1 I + A1) with A0, A1 traceless, stored as
(a0, A0, a1, A1) with sparse matrices.  The bracket is the semidirect product
with abelian second factor under the adjoint action; the product is

    (a0 b0) I + a0 B0 + b0 A0  in the first slot, and
    (a0 b1 + a1 b0 + tr(A0 B1 + A1 B0)) I + a0 B1 + b0 A1 + sym(A0, B0)

in the second, where sym(A, B) = AB + BA - (2/n) tr(AB) I.
"""

from __future__ import annotations

from ..exactla import Matrix, canon
from ..gtable import (
    extract,
    poisson_axioms,
    product_from_structure,
    structure_constants,
)
from ..repkit import (
    GModule,
    IrrepId,
    block_decomposition,
    builtin_labeling,
    decompose_sl2,
    glk_ad,
    glk_basis,
    glk_coords,
    smat_add,
    smat_comm,
    smat_scale,
    smat_sym,
    smat_trace_prod,
)
from .fixtures import CORNER_SL2, compare, expected_table


class SizeMismatch(Exception):
    pass


def gln_element(n, a0=0, A0=None, a1=0, A1=None):
    return (n, canon(a0), dict(A0 or {}), canon(a1), dict(A1 or {}))


def _check_sizes(u, v):
    if u[0] != v[0]:
        raise SizeMismatch("mixed sizes %d and %d" % (u[0], v[0]))
    return u[0]


def gln_product(u, v):
    n = _check_sizes(u, v)
    _, a0, A0, a1, A1 = u
    _, b0, B0, b1, B1 = v
    c0 = a0 * b0
    C0 = smat_add(smat_scale(a0, B0), smat_scale(b0, A0))
    c1 = a0 * b1 + a1 * b0 + smat_trace_prod(A0, B1) + smat_trace_prod(A1, B0)
    C1 = smat_add(smat_scale(a0, B1), smat_scale(b0, A1), smat_sym(A0, B0, n))
    return (n, c0, C0, c1, C1)


def gln_bracket(u, v):
    n = _check_sizes(u, v)
    _, a0, A0, a1, A1 = u
    _, b0, B0, b1, B1 = v
    C1 = smat_add(smat_comm(A0, B1), smat_comm(A1, B0))
    return (n, 0, smat_comm(A0, B0), 0, C1)


def _basis_elements(n):
    sl = glk_basis(n)
    out = [gln_element(n, a0=1)]
    out += [gln_element(n, A0=B) for B in sl]
    out += [gln_element(n, A1=B) for B in sl]
    out.append(gln_element(n, a1=1))
    return out


def _coords(u):
    n, a0, A0, a1, A1 = u
    return tuple([a0] + glk_coords(A0, n) + glk_coords(A1, n) + [a1])


def _structure(n, op):
    """Structure constants {(i, j): {k: c}} of op on the coordinate basis."""
    return structure_constants(_basis_elements(n), op, _coords)


def _extract(n, op, dec, reg, op_symbol="*"):
    """The table of op, from its structure constants, built for this call."""
    product = product_from_structure(2 * n * n, _structure(n, op))
    return extract(product, dec, reg, op_symbol=op_symbol)


def gln_axioms(n):
    """Full-basis associativity, commutativity, Jacobi and Leibniz checks."""
    if n < 2:
        raise ValueError("n >= 2")
    return poisson_axioms(_structure(n, gln_product), _structure(n, gln_bracket))


GLN_PRODUCT_TABLE = {
    ("(I_n)_0", "(I_n)_0"): [("(I_n)_0", 1, "1")],
    ("(I_n)_0", "sl(n)_0"): [("sl(n)_0", 1, "1")],
    ("(I_n)_0", "sl(n)_ab"): [("sl(n)_ab", 1, "1")],
    ("(I_n)_0", "(I_n)_ab"): [("(I_n)_ab", 1, "1")],
    ("sl(n)_0", "(I_n)_0"): [("sl(n)_0", 1, "1")],
    ("sl(n)_0", "sl(n)_0"): [("sl(n)_ab", 2, "1")],
    ("sl(n)_0", "sl(n)_ab"): [("(I_n)_ab", 1, "1")],
    ("sl(n)_ab", "(I_n)_0"): [("sl(n)_ab", 1, "1")],
    ("sl(n)_ab", "sl(n)_0"): [("(I_n)_ab", 1, "1")],
    ("(I_n)_ab", "(I_n)_0"): [("(I_n)_ab", 1, "1")],
}

GLN_BRACKET_TABLE = {
    ("sl(n)_0", "sl(n)_0"): [("sl(n)_0", 1, "1")],
    ("sl(n)_0", "sl(n)_ab"): [("sl(n)_ab", 1, "1")],
    ("sl(n)_ab", "sl(n)_0"): [("sl(n)_ab", 1, "1")],
}


def gln_tables(n):
    """The two 4x4 tables of the family under the GL(n) labeling.

    The module is triv + adj + adj + triv of the registry's models: GL(n)
    conjugates both slots.  At n = 2 the symmetric intertwiner vanishes, so
    the (sl_0, sl_0) product cell is empty there.
    """
    if n < 2:
        raise ValueError("n >= 2")
    reg = builtin_labeling("GLk", k=n)
    triv, adj = IrrepId("GL%d" % n, "trivial"), IrrepId("GL%d" % n, "adjoint")
    dec = block_decomposition(reg, [("(I_n)_0", triv), ("sl(n)_0", adj),
                                    ("sl(n)_ab", adj), ("(I_n)_ab", triv)])
    tp = _extract(n, gln_product, dec, reg)
    tb = _extract(n, gln_bracket, dec, reg, op_symbol="{,}")
    want_p = dict(GLN_PRODUCT_TABLE)
    if n == 2:
        del want_p[("sl(n)_0", "sl(n)_0")]
    compare("gl(n) product table (n=%d)" % n, tp,
            expected_table(dec, reg, want_p))
    compare("gl(n) bracket table (n=%d)" % n, tb,
            expected_table(dec, reg, GLN_BRACKET_TABLE, "{,}"))
    return tp, tb


def gln_sl2_tables(n=3):
    """The 10-summand decomposition of the family under the corner SL(2),
    with both tables; used by the isomorphism search at n = 3."""
    if n != 3:
        raise ValueError("the corner-SL(2) decomposition is built for n = 3")
    reg = builtin_labeling("SL2")
    sl = glk_basis(n)
    zero = Matrix.zeros(1, 1)
    action = {}
    for op, P in CORNER_SL2.items():
        ad = glk_ad(P, n, sl)
        action[op] = Matrix.block_diag([zero, ad, ad, zero])
    module = GModule("SL2", 2 * n * n, action)

    Z = {(0, 0): 1, (1, 1): 1, (2, 2): -2}
    hw_mats = [
        ("I_0", 0, (1, {}, 0, {})),
        ("Z_0", 0, (0, Z, 0, {})),
        ("W_0", 2, (0, {(0, 1): 1}, 0, {})),
        ("C_0", 1, (0, {(0, 2): 1}, 0, {})),
        ("R_0", 1, (0, {(2, 1): -1}, 0, {})),
        ("Z_ab", 0, (0, {}, 0, Z)),
        ("W_ab", 2, (0, {}, 0, {(0, 1): 1})),
        ("C_ab", 1, (0, {}, 0, {(0, 2): 1})),
        ("R_ab", 1, (0, {}, 0, {(2, 1): -1})),
        ("I_ab", 0, (0, {}, 1, {})),
    ]
    dec = decompose_sl2(module, reg, hwvs=[(sid, w, _coords((n,) + u))
                                           for sid, w, u in hw_mats])
    tp = _extract(n, gln_product, dec, reg)
    tb = _extract(n, gln_bracket, dec, reg, op_symbol="{,}")
    return tp, tb
