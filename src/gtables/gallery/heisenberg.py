"""Even cohomology of the 3-dimensional Heisenberg algebra as a Poisson algebra.

The pipeline builds the bigraded complex, takes the 18-dimensional class space
on the F-orbits of the fixed highest weight representatives, and writes the
SL2 action and the cup and bracket products of classes in it with
``supercochain.class_coordinates``, which certifies the orbits as a basis of
each even bidegree's cohomology.  The extracted cup-product and bracket tables
must match the fixed 10x10 tables cell for cell (zeros included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exactla import Matrix
from ..gtable import (
    GTable,
    extract,
    product_from_structure,
    structure_constants,
)
from ..repkit import (
    Decomposition,
    GModule,
    _unit,
    builtin_labeling,
    decompose_sl2,
)
from ..supercochain import (
    BigradedElement,
    bracket,
    class_coordinates,
    differential,
    heisenberg_context,
    sl2_act,
    vee,
)
from .fixtures import FixtureMismatch, compare, expected_table

M = BigradedElement.monomial

# fixed highest weight representatives per even bidegree, in table order;
# indices: duals (x^-1, x^1, h^0), primals (x_1, x_-1, h_0)
HW_REPRESENTATIVES = [
    ("H_0^{0,0}", (0, 0), 0, BigradedElement.one()),
    ("H_0^{1,1}", (1, 1), 0, M((1,), (1,)) + M((0,), (0,)) + M((2,), (2,), 2)),
    ("H_2^{1,1}", (1, 1), 2, M((1,), (0,))),
    ("H_1^{2,0}", (2, 0), 1, M((1, 2), ())),
    ("H_1^{0,2}", (0, 2), 1, M((), (0, 2))),
    ("H_0^{2,2}", (2, 2), 0, M((0, 1), (0, 1))),
    ("H_2^{2,2}", (2, 2), 2, M((1, 2), (0, 2))),
    ("H_1^{3,1}", (3, 1), 1, M((0, 1, 2), (0,))),
    ("H_1^{1,3}", (1, 3), 1, M((1,), (0, 1, 2))),
    ("H_0^{3,3}", (3, 3), 0, M((0, 1, 2), (0, 1, 2))),
]

EVEN_BIDEGREES = [(0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3)]
EXPECTED_DIMS = {(0, 0): 1, (2, 0): 2, (1, 1): 4, (3, 1): 2,
                 (0, 2): 2, (2, 2): 4, (1, 3): 2, (3, 3): 1}

CUP_TABLE = {
    ("H_0^{0,0}", "H_0^{0,0}"): [("H_0^{0,0}", 1, "1")],
    ("H_0^{1,1}", "H_0^{1,1}"): [("H_0^{2,2}", 1, "-6")],
    ("H_0^{1,1}", "H_2^{1,1}"): [("H_2^{2,2}", 1, "-2")],
    ("H_2^{1,1}", "H_0^{1,1}"): [("H_2^{2,2}", 1, "-2")],
    ("H_0^{1,1}", "H_1^{2,0}"): [("H_1^{3,1}", 1, "1")],
    ("H_1^{2,0}", "H_0^{1,1}"): [("H_1^{3,1}", 1, "1")],
    ("H_0^{1,1}", "H_1^{0,2}"): [("H_1^{1,3}", 1, "-1")],
    ("H_1^{0,2}", "H_0^{1,1}"): [("H_1^{1,3}", 1, "-1")],
    ("H_0^{1,1}", "H_0^{2,2}"): [("H_0^{3,3}", 1, "2")],
    ("H_0^{2,2}", "H_0^{1,1}"): [("H_0^{3,3}", 1, "2")],
    ("H_2^{1,1}", "H_2^{1,1}"): [("H_0^{2,2}", 1, "1")],
    ("H_2^{1,1}", "H_1^{2,0}"): [("H_1^{3,1}", 1, "1")],
    ("H_1^{2,0}", "H_2^{1,1}"): [("H_1^{3,1}", 1, "1")],
    ("H_2^{1,1}", "H_1^{0,2}"): [("H_1^{1,3}", 1, "1")],
    ("H_1^{0,2}", "H_2^{1,1}"): [("H_1^{1,3}", 1, "1")],
    ("H_2^{1,1}", "H_2^{2,2}"): [("H_0^{3,3}", 1, "-1")],
    ("H_2^{2,2}", "H_2^{1,1}"): [("H_0^{3,3}", 1, "-1")],
    ("H_1^{2,0}", "H_1^{0,2}"): [("H_0^{2,2}", 1, "1/2"), ("H_2^{2,2}", 1, "-1/2")],
    ("H_1^{0,2}", "H_1^{2,0}"): [("H_0^{2,2}", 1, "-1/2"), ("H_2^{2,2}", 1, "-1/2")],
    ("H_1^{2,0}", "H_1^{1,3}"): [("H_0^{3,3}", 1, "-1")],
    ("H_1^{1,3}", "H_1^{2,0}"): [("H_0^{3,3}", 1, "1")],
    ("H_1^{0,2}", "H_1^{3,1}"): [("H_0^{3,3}", 1, "-1")],
    ("H_1^{3,1}", "H_1^{0,2}"): [("H_0^{3,3}", 1, "1")],
}
for _sid, _, _, _ in HW_REPRESENTATIVES[1:]:
    CUP_TABLE[("H_0^{0,0}", _sid)] = [(_sid, 1, "1")]
    CUP_TABLE[(_sid, "H_0^{0,0}")] = [(_sid, 1, "1")]

BRACKET_TABLE = {
    ("H_0^{1,1}", "H_1^{2,0}"): [("H_1^{2,0}", 1, "3")],
    ("H_0^{1,1}", "H_1^{0,2}"): [("H_1^{0,2}", 1, "-3")],
    ("H_0^{1,1}", "H_1^{3,1}"): [("H_1^{3,1}", 1, "3")],
    ("H_0^{1,1}", "H_1^{1,3}"): [("H_1^{1,3}", 1, "-3")],
    ("H_2^{1,1}", "H_2^{1,1}"): [("H_2^{1,1}", 1, "-1")],
    ("H_2^{1,1}", "H_1^{2,0}"): [("H_1^{2,0}", 1, "-1")],
    ("H_2^{1,1}", "H_1^{0,2}"): [("H_1^{0,2}", 1, "-1")],
    ("H_2^{1,1}", "H_2^{2,2}"): [("H_2^{2,2}", 1, "-1")],
    ("H_2^{1,1}", "H_1^{3,1}"): [("H_1^{3,1}", 1, "-1")],
    ("H_2^{1,1}", "H_1^{1,3}"): [("H_1^{1,3}", 1, "-1")],
    ("H_1^{2,0}", "H_0^{1,1}"): [("H_1^{2,0}", 1, "-3")],
    ("H_1^{2,0}", "H_2^{1,1}"): [("H_1^{2,0}", 1, "1")],
    ("H_1^{2,0}", "H_1^{0,2}"): [("H_0^{1,1}", 1, "-1/2"), ("H_2^{1,1}", 1, "1/2")],
    ("H_1^{2,0}", "H_0^{2,2}"): [("H_1^{3,1}", 1, "1")],
    ("H_1^{2,0}", "H_2^{2,2}"): [("H_1^{3,1}", 1, "1")],
    ("H_1^{2,0}", "H_1^{1,3}"): [("H_0^{2,2}", 1, "-3/2"), ("H_2^{2,2}", 1, "-1/2")],
    ("H_1^{0,2}", "H_0^{1,1}"): [("H_1^{0,2}", 1, "3")],
    ("H_1^{0,2}", "H_2^{1,1}"): [("H_1^{0,2}", 1, "1")],
    ("H_1^{0,2}", "H_1^{2,0}"): [("H_0^{1,1}", 1, "-1/2"), ("H_2^{1,1}", 1, "-1/2")],
    ("H_1^{0,2}", "H_0^{2,2}"): [("H_1^{1,3}", 1, "1")],
    ("H_1^{0,2}", "H_2^{2,2}"): [("H_1^{1,3}", 1, "-1")],
    ("H_1^{0,2}", "H_1^{3,1}"): [("H_0^{2,2}", 1, "3/2"), ("H_2^{2,2}", 1, "-1/2")],
    ("H_0^{2,2}", "H_1^{2,0}"): [("H_1^{3,1}", 1, "-1")],
    ("H_0^{2,2}", "H_1^{0,2}"): [("H_1^{1,3}", 1, "-1")],
    ("H_2^{2,2}", "H_2^{1,1}"): [("H_2^{2,2}", 1, "-1")],
    ("H_2^{2,2}", "H_1^{2,0}"): [("H_1^{3,1}", 1, "-1")],
    ("H_2^{2,2}", "H_1^{0,2}"): [("H_1^{1,3}", 1, "1")],
    ("H_1^{3,1}", "H_0^{1,1}"): [("H_1^{3,1}", 1, "-3")],
    ("H_1^{3,1}", "H_2^{1,1}"): [("H_1^{3,1}", 1, "1")],
    ("H_1^{3,1}", "H_1^{0,2}"): [("H_0^{2,2}", 1, "3/2"), ("H_2^{2,2}", 1, "1/2")],
    ("H_1^{1,3}", "H_0^{1,1}"): [("H_1^{1,3}", 1, "3")],
    ("H_1^{1,3}", "H_2^{1,1}"): [("H_1^{1,3}", 1, "1")],
    ("H_1^{1,3}", "H_1^{2,0}"): [("H_0^{2,2}", 1, "-3/2"), ("H_2^{2,2}", 1, "1/2")],
}


@dataclass
class HeisenbergReport:
    dims: dict
    total_even_dim: int
    verification: list  # (summand id, property name, bool)
    cup_table: GTable
    bracket_table: GTable
    module: GModule = field(repr=False)
    decomposition: Decomposition = field(repr=False)
    basis_classes: list = field(repr=False)
    # structure constants {(i, j): {k: c}} on the 18 classes
    cup_structure: dict = field(repr=False)
    bracket_structure: dict = field(repr=False)

    def verified(self):
        return all(ok for (_, _, ok) in self.verification)


def _orbit(ctx, elt, weight):
    out = [elt]
    for _ in range(weight):
        out.append(sl2_act("F", out[-1], ctx))
    return out


def heisenberg_pipeline() -> HeisenbergReport:
    ctx = heisenberg_context()
    reg = builtin_labeling("SL2")

    # the 18-dimensional class space on the concatenated F-orbits
    basis_classes = [(sid, j, pq, elt) for sid, pq, w, rep in HW_REPRESENTATIVES
                     for j, elt in enumerate(_orbit(ctx, rep, w))]
    n18 = len(basis_classes)
    classes = [elt for (_, _, _, elt) in basis_classes]
    coords = class_coordinates(ctx, classes)

    # class_coordinates certified the classes of each bidegree as a basis of
    # its cohomology, so their number there is the Betti number
    dims = {pq: 0 for pq in EVEN_BIDEGREES}
    for (_, _, pq, _) in basis_classes:
        dims[pq] += 1
    verification = []
    for bidegree in EVEN_BIDEGREES:
        for sid, pq, w, rep in HW_REPRESENTATIVES:
            if pq != bidegree:
                continue
            verification.append((sid, "cocycle", differential(rep, ctx).is_zero()))
            verification.append((sid, "non-exact", any(coords(rep))))
            verification.append((sid, "highest weight",
                                 sl2_act("E", rep, ctx).is_zero()))
            verification.append(
                (sid, "weight %d" % w,
                 sl2_act("H", rep, ctx) == rep.scale(w)))
    total = sum(dims.values())

    action = {}
    for op in ("E", "H", "F"):
        cols = [coords(sl2_act(op, elt, ctx)) for elt in classes]
        action[op] = Matrix.from_cols(cols, nrows=n18)
    module = GModule("SL2", n18, action)

    cup_struct = structure_constants(classes, vee, coords)
    bracket_struct = structure_constants(classes, bracket, coords)
    cup = product_from_structure(n18, cup_struct)
    brk = product_from_structure(n18, bracket_struct)

    # the highest weight vector of each summand is the first class of its orbit
    first = {sid: idx for idx, (sid, j, _, _) in enumerate(basis_classes) if not j}
    dec = decompose_sl2(module, reg, hwvs=[(sid, w, _unit(n18, first[sid]))
                                           for sid, _, w, _ in HW_REPRESENTATIVES])

    cup_table = extract(cup, dec, reg, op_symbol="v")
    bracket_table = extract(brk, dec, reg, op_symbol="{,}")
    compare("Heisenberg cup table", cup_table,
            expected_table(dec, reg, CUP_TABLE, "v"))
    compare("Heisenberg bracket table", bracket_table,
            expected_table(dec, reg, BRACKET_TABLE, "{,}"))
    if total != 18:
        raise FixtureMismatch("Heisenberg", ("total", "dim", str(total), "18"))
    for pq, d in EXPECTED_DIMS.items():
        if dims[pq] != d:
            raise FixtureMismatch(
                "Heisenberg", (str(pq), "dim", str(dims[pq]), str(d)))

    return HeisenbergReport(
        dims=dims,
        total_even_dim=total,
        verification=verification,
        cup_table=cup_table,
        bracket_table=bracket_table,
        module=module,
        decomposition=dec,
        basis_classes=basis_classes,
        cup_structure=cup_struct,
        bracket_structure=bracket_struct,
    )
