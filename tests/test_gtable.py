import os
import random
from fractions import Fraction

import pytest

from gtables.cli import load_spec
from gtables.exactla import Matrix, scalar_from_str
from gtables import gtable
from gtables.gallery import gln_sl2_tables, gln_tables, heisenberg_pipeline
from gtables.gallery.fixtures import s3_decomposition
from gtables.gallery.glnfamily import _structure, gln_bracket, gln_product
from gtables.gtable import (
    AmbiguousSystem,
    GMatrix,
    GTable,
    InconsistentSystem,
    MissingChoice,
    NotEquivariant,
    check_morphism,
    corollary_check,
    cotable,
    expand,
    extract,
    morphism_oracle,
    parse_gtable,
    plain_algebra,
    poisson_axioms,
    product_from_structure,
    render,
    to_json,
)
from gtables.repkit import (
    GModule,
    Intertwiner,
    IrrepId,
    builtin_labeling,
    decompose_sl2,
    sl2_poly_labeling,
    smat_add,
)
from gtables.verify import run_morphism_equivalence

F = Fraction


def heisenberg_dec():
    reg = builtin_labeling("SL2")
    M = GModule("SL2", 3, {
        "E": Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        "H": Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        "F": Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    })
    dec = decompose_sl2(M, reg, hwvs=[("h_0", 0, (0, 0, 1)), ("h_1", 1, (1, 0, 0))])
    return reg, dec


def heisenberg_bracket_product():
    # [x_1, x_-1] = h_0 on basis (x_1, x_-1, h_0)
    return product_from_structure(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})


def gl3_maps():
    """The gl(3) |x gl(3)_ab product and bracket on module coordinates."""
    return tuple(product_from_structure(18, _structure(3, op))
                 for op in (gln_product, gln_bracket))


def test_product_from_structure_matches_dense_loop(canonical):
    # seeded sparse structures with zero coefficients, against the bilinear
    # map summed over every (i, j, k)
    rng = random.Random(2718)
    coeffs = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)]
    for _ in range(60):
        n = rng.randint(1, 6)
        struct = {}
        for _ in range(rng.randint(0, 3 * n)):
            row = struct.setdefault((rng.randrange(n), rng.randrange(n)), {})
            row[rng.randrange(n)] = rng.choice(coeffs)
        if struct:
            next(iter(struct.values()))[rng.randrange(n)] = F(0)
        product = product_from_structure(n, struct)
        for _ in range(5):
            u = [rng.choice(coeffs) for _ in range(n)]
            v = [rng.choice(coeffs) for _ in range(n)]
            want = tuple(sum((u[i] * v[j] * struct.get((i, j), {}).get(k, 0)
                              for i in range(n) for j in range(n)), F(0))
                         for k in range(n))
            got = product(u, v)
            assert got == want
            assert all(canonical(x) for x in got)


def dense_poisson_axioms(dim, P, L):
    """Reference for poisson_axioms: every identity on every basis triple."""

    def right(S, row, k):
        # sum_m row[m] * S[(m, k)]
        out = {}
        for m, c in row.items():
            for t, d in S.get((m, k), {}).items():
                w = out.get(t, 0) + c * d
                if w:
                    out[t] = w
                else:
                    out.pop(t, None)
        return out

    def left(S, i, row):
        # sum_m row[m] * S[(i, m)]
        out = {}
        for m, c in row.items():
            for t, d in S.get((i, m), {}).items():
                w = out.get(t, 0) + c * d
                if w:
                    out[t] = w
                else:
                    out.pop(t, None)
        return out

    results = {"commutative": True, "associative": True,
               "jacobi": True, "leibniz": True}
    rng = range(dim)
    for i in rng:
        for j in rng:
            if P.get((i, j), {}) != P.get((j, i), {}):
                results["commutative"] = False
            if smat_add(L.get((i, j), {}), L.get((j, i), {})):
                results["jacobi"] = False  # antisymmetry is part of Jacobi here
    for i in rng:
        for j in rng:
            pij = P.get((i, j), {})
            lij = L.get((i, j), {})
            for k in rng:
                if right(P, pij, k) != left(P, i, P.get((j, k), {})):
                    results["associative"] = False
                t = smat_add(right(L, lij, k),
                             right(L, L.get((j, k), {}), i),
                             right(L, L.get((k, i), {}), j))
                if t:
                    results["jacobi"] = False
                lhs = left(L, i, P.get((j, k), {}))
                rhs = smat_add(right(P, lij, k),
                               left(P, j, L.get((i, k), {})))
                if lhs != rhs:
                    results["leibniz"] = False
    return results


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_poisson_axioms_match_dense_reference_on_gln(n):
    P, L = _structure(n, gln_product), _structure(n, gln_bracket)
    got = poisson_axioms(P, L)
    assert got == dense_poisson_axioms(2 * n * n, P, L)
    assert list(got.items()) == [("commutative", True), ("associative", True),
                                 ("jacobi", True), ("leibniz", True)]


def test_poisson_axioms_on_heisenberg_constants():
    # the paper's 18-dimensional algebra is Poisson, from its constants
    rep = heisenberg_pipeline()
    P, L = rep.cup_structure, rep.bracket_structure
    got = poisson_axioms(P, L)
    assert got == dense_poisson_axioms(18, P, L)
    assert all(got.values())


def test_poisson_axioms_match_dense_reference_on_perturbations():
    # one constant of gl(2) or gl(3) changed, added or removed at a time
    rng = random.Random(1313)
    base = {n: (_structure(n, gln_product), _structure(n, gln_bracket))
            for n in (2, 3)}
    coeffs = [0, 1, -1, 2, F(1, 2)]
    failed = dict.fromkeys(("commutative", "associative", "jacobi", "leibniz"), 0)
    for t in range(240):
        n = 3 if t % 6 == 0 else 2
        dim = 2 * n * n
        P, L = (dict(S) for S in base[n])
        S = P if t % 2 else L
        key = (rng.randrange(dim), rng.randrange(dim))
        row = dict(S.get(key, {}))
        row[rng.randrange(dim)] = rng.choice(coeffs)
        row = {k: c for k, c in row.items() if c}
        if row:
            S[key] = row
        else:
            S.pop(key, None)
        got = poisson_axioms(P, L)
        assert got == dense_poisson_axioms(dim, P, L), (t, key, row)
        for name, ok in got.items():
            failed[name] += not ok
    assert all(failed.values()), failed


def test_heisenberg_lie_table():
    reg, dec = heisenberg_dec()
    t = extract(heisenberg_bracket_product(), dec, reg, op_symbol="[,]")
    assert t.entries == {("h_1", "h_1"): (("h_0", 1, F(1)),)}


def test_heisenberg_expand_roundtrip():
    reg, dec = heisenberg_dec()
    t = extract(heisenberg_bracket_product(), dec, reg)
    E = expand(t)
    # basis order: h_0 summand then the h_1 pair (x_1, x_-1)
    assert E.basis == [("h_0", 0), ("h_1", 0), ("h_1", 1)]
    u_x1 = (0, 1, 0)
    u_xm1 = (0, 0, 1)
    assert E.product_coords(u_x1, u_xm1) == (F(1), F(0), F(0))
    assert E.product_coords(u_xm1, u_x1) == (F(-1), F(0), F(0))
    assert E.product_coords(u_x1, u_x1) == (F(0), F(0), F(0))


def test_zero_table_expands_to_zero():
    reg, dec = heisenberg_dec()
    t = GTable(dec, dec, reg, {})
    E = expand(t)
    assert E.struct == {}


def test_matrix_algebra_tables():
    # M_k under conjugation: AB = (1/k) tr(AB) I + 1/2 [A,B] + 1/2 sym(A,B)
    from gtables.gallery.fixtures import _mk_module_and_product
    for k in (2, 3):
        reg, dec, product = _mk_module_and_product(k)
        gk = "GL%d" % k
        t = extract(product, dec, reg)
        assert t.cell("A_0", "A_0") == (("A_0", 1, F(1)),)
        assert t.cell("A_0", "A_1") == (("A_1", 1, F(1)),)
        assert t.cell("A_1", "A_0") == (("A_1", 1, F(1)),)
        if k == 2:
            assert t.cell("A_1", "A_1") == (("A_0", 1, F(1, 2)), ("A_1", 1, F(1, 2)))
        else:
            assert t.cell("A_1", "A_1") == (
                ("A_0", 1, F(1, k)), ("A_1", 1, F(1, 2)), ("A_1", 2, F(1, 2)))

        # the Lie algebra gl(k) under the same labeling: only [A_1, A_1] via q=1
        def lie(u, v):
            a = product(u, v)
            b = product(v, u)
            return tuple(x - y for x, y in zip(a, b))

        tl = extract(lie, dec, reg)
        assert tl.entries == {("A_1", "A_1"): (("A_1", 1, F(1)),)}

        # plain algebra with Q picking the symmetric map: e1 e1 = (1/k)e0 + (1/2)e1
        if k == 3:
            i0, iad = IrrepId(gk, "trivial"), IrrepId(gk, "adjoint")
            Q = {t3: 1 for t3 in
                 [(i0, i0, i0), (i0, iad, iad), (iad, i0, iad), (iad, iad, i0)]}
            Q[(iad, iad, iad)] = 2
            P = plain_algebra(t, Q)
            assert P.constants("A_1", "A_1") == {"A_0": F(1, 3), "A_1": F(1, 2)}
            with pytest.raises(MissingChoice):
                plain_algebra(t, {})


def test_poly_truncated_table():
    D = 4
    reg = sl2_poly_labeling(D)
    dim = sum(r + 1 for r in range(D + 1))
    offs = {}
    pos = 0
    for r in range(D + 1):
        offs[r] = pos
        pos += r + 1
    action = {}
    for op in ("E", "H", "F"):
        rows = [[F(0)] * dim for _ in range(dim)]
        for r in range(D + 1):
            A = reg.models[IrrepId("SL2", r)].action[op]
            for i in range(r + 1):
                for j in range(r + 1):
                    rows[offs[r] + i][offs[r] + j] = A[i, j]
        action[op] = Matrix.from_rows(rows)
    module = GModule("SL2", dim, action)

    def product(u, v):
        # multiply polynomials, truncating above total degree D
        out = [F(0)] * dim
        for r1 in range(D + 1):
            for i in range(r1 + 1):
                a = u[offs[r1] + i]
                if not a:
                    continue
                for r2 in range(D + 1 - r1):
                    for j in range(r2 + 1):
                        b = v[offs[r2] + j]
                        if b:
                            out[offs[r1 + r2] + i + j] += a * b
        return tuple(out)

    hwvs = []
    for r in range(D + 1):
        v = [F(0)] * dim
        v[offs[r]] = F(1)
        hwvs.append(("A_%d" % r, r, v))
    dec = decompose_sl2(module, reg, hwvs=hwvs)
    t = extract(product, dec, reg)
    for r1 in range(D + 1):
        for r2 in range(D + 1):
            if r1 + r2 <= D:
                assert t.cell("A_%d" % r1, "A_%d" % r2) == \
                    (("A_%d" % (r1 + r2), 1, F(1)),)
            else:
                assert t.cell("A_%d" % r1, "A_%d" % r2) == ()
    # unique choice: the plain algebra is the truncated polynomial ring K[x]
    Q = {t3: 1 for t3 in
         [(IrrepId("SL2", a), IrrepId("SL2", b), IrrepId("SL2", c))
          for a in range(D + 1) for b in range(D + 1) for c in range(D + 1)]
         if reg.d(*t3)}
    P = plain_algebra(t, Q)
    assert P.constants("A_1", "A_2") == {"A_3": F(1)}
    assert P.constants("A_3", "A_3") == {}


def test_extract_not_equivariant():
    reg, dec = heisenberg_dec()
    bad = product_from_structure(3, {(0, 0): {2: 1}})  # "x_1 * x_1 = h_0"
    with pytest.raises(NotEquivariant):
        extract(bad, dec, reg)


def test_extract_not_equivariant_s3():
    reg, dec = s3_decomposition()
    bad = product_from_structure(6, {(1, 1): {1: 1}})  # "(12) * (12) = (12)"
    with pytest.raises(NotEquivariant):
        extract(bad, dec, reg)


def test_extract_calls_product_once_per_basis_pair():
    # a solved table certifies equivariance, so no check adds product calls
    tp, _ = gln_tables(3)
    h_reg, h_dec = heisenberg_dec()
    cases = [(heisenberg_bracket_product(), h_dec, h_reg),
             (gl3_maps()[0], tp.source, tp.registry)]
    for product, dec, reg in cases:
        calls = []

        def counted(u, v):
            calls.append((u, v))
            return product(u, v)

        extract(counted, dec, reg)
        dims = [reg.models[s.irrep].dim for s in dec.summands]
        assert len(calls) == sum(d1 * d2 for d1 in dims for d2 in dims)


def _count_systems(monkeypatch):
    built = []
    real = gtable._candidate_columns

    def counted(registry, i1, i2, target, offsets):
        built.append((i1, i2))
        return real(registry, i1, i2, target, offsets)

    monkeypatch.setattr(gtable, "_candidate_columns", counted)
    return built


def test_extract_builds_one_system_per_irrep_pair(monkeypatch):
    # one solver per irrep pair, kept for the length of one extract call
    product, brk = gl3_maps()
    cases = [(gln_sl2_tables()[0], 100, 9), (gln_tables(3)[0], 16, 4)]
    built = _count_systems(monkeypatch)
    for table, pairs, systems in cases:
        assert len(table.source.summands) ** 2 == pairs
        for f in (product, brk):
            built.clear()
            extract(f, table.source, table.registry)
            assert len(built) == len(set(built)) == systems


def test_repeated_extract_gives_equal_tables(monkeypatch):
    # nothing is kept between calls: each extraction builds its own
    # systems, and a repeated one gives an equal table
    gc, gb = gln_sl2_tables()
    built = _count_systems(monkeypatch)
    product, brk = gl3_maps()
    assert extract(product, gc.source, gc.registry) == gc
    assert extract(brk, gb.source, gb.registry, op_symbol="{,}") == gb
    assert len(built) == 18
    reg = builtin_labeling("SL2")
    assert extract(product, gc.source, reg).entries == gc.entries
    assert len(built) == 27


def test_successful_extract_calls_no_matvec(monkeypatch):
    tp, _ = gln_tables(3)
    h_reg, h_dec = heisenberg_dec()
    cases = [(heisenberg_bracket_product(), h_dec, h_reg),
             (gl3_maps()[0], tp.source, tp.registry)]
    calls = []
    real = Matrix.matvec

    def counted(self, v):
        calls.append(self)
        return real(self, v)

    monkeypatch.setattr(Matrix, "matvec", counted)
    for product, dec, reg in cases:
        extract(product, dec, reg)
    assert calls == []


@pytest.mark.parametrize("defect", ["zero", "duplicate"])
def test_extract_ambiguous_on_zero_or_duplicated_map(defect):
    reg, dec = heisenberg_dec()
    t = (IrrepId("SL2", 0), IrrepId("SL2", 1), IrrepId("SL2", 1))
    m = reg.maps[t][0]
    if defect == "zero":
        reg.maps[t] = [Intertwiner(*t, 1, m.matrix.scale(0))]
    else:
        reg.maps[t] = [m, m]
    with pytest.raises(AmbiguousSystem, match="dependent candidate maps"):
        extract(heisenberg_bracket_product(), dec, reg)


def test_extract_inconsistent_names_the_summand_pair():
    # (C_0, C_0) is the first (V1, V1) pair, but its bracket is zero; the
    # first one whose cell needs the deleted (V1, V1, V2) map is (C_0, R_0)
    _, gb = gln_sl2_tables()
    reg = builtin_labeling("SL2")
    v1, v2 = IrrepId("SL2", 1), IrrepId("SL2", 2)
    assert gb.cell("C_0", "C_0") == ()
    assert any(gb.target.by_id[s].irrep == v2 for s, _, _ in
               gb.cell("C_0", "R_0"))
    del reg.maps[(v1, v1, v2)]
    with pytest.raises(InconsistentSystem, match=r"\(C_0, R_0\)"):
        extract(gl3_maps()[1], gb.source, reg)


def test_extract_inconsistent_when_registry_lacks_triple():
    D = 3
    reg = sl2_poly_labeling(D)
    # remove the (1, 2, 3) product map: degree-3 output becomes unreachable
    del reg.maps[(IrrepId("SL2", 1), IrrepId("SL2", 2), IrrepId("SL2", 3))]
    dim = sum(r + 1 for r in range(D + 1))
    offs = {}
    pos = 0
    for r in range(D + 1):
        offs[r] = pos
        pos += r + 1
    action = {}
    for op in ("E", "H", "F"):
        rows = [[F(0)] * dim for _ in range(dim)]
        for r in range(D + 1):
            A = reg.models[IrrepId("SL2", r)].action[op]
            for i in range(r + 1):
                for j in range(r + 1):
                    rows[offs[r] + i][offs[r] + j] = A[i, j]
        action[op] = Matrix.from_rows(rows)
    module = GModule("SL2", dim, action)

    def product(u, v):
        out = [F(0)] * dim
        for r1 in range(D + 1):
            for i in range(r1 + 1):
                a = u[offs[r1] + i]
                if not a:
                    continue
                for r2 in range(D + 1 - r1):
                    for j in range(r2 + 1):
                        b = v[offs[r2] + j]
                        if b:
                            out[offs[r1 + r2] + i + j] += a * b
        return tuple(out)

    hwvs = []
    for r in range(D + 1):
        v = [F(0)] * dim
        v[offs[r]] = F(1)
        hwvs.append(("A_%d" % r, r, v))
    dec = decompose_sl2(module, reg, hwvs=hwvs)
    with pytest.raises(InconsistentSystem):
        extract(product, dec, reg)


def test_extract_ambiguous_on_dependent_candidates():
    reg, dec = heisenberg_dec()
    t = (IrrepId("SL2", 1), IrrepId("SL2", 1), IrrepId("SL2", 0))
    reg.maps[t] = [reg.maps[t][0], reg.maps[t][0]]  # duplicate the det pairing
    with pytest.raises(AmbiguousSystem):
        extract(heisenberg_bracket_product(), dec, reg)


def test_check_morphism_identity_and_scaling():
    reg, dec = heisenberg_dec()
    t = extract(heisenberg_bracket_product(), dec, reg)
    assert check_morphism(t, t, GMatrix.identity(dec))
    # scaling the trivial summand that appears quadratically: lambda^2 != lambda
    f2 = GMatrix(dec, dec, {("h_0", "h_0"): 2, ("h_1", "h_1"): 1})
    assert not check_morphism(t, t, f2)
    assert not corollary_check(t, t, f2)
    assert not morphism_oracle(t, t, f2)
    # compatible rescaling: scale h_0 by a^2 when h_1 scales by a
    f3 = GMatrix(dec, dec, {("h_0", "h_0"): 4, ("h_1", "h_1"): 2})
    assert check_morphism(t, t, f3)
    assert morphism_oracle(t, t, f3)
    assert corollary_check(t, t, f3)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_gmatrix_rejects_float_and_bool(bad):
    reg, dec = heisenberg_dec()
    with pytest.raises(TypeError):
        GMatrix(dec, dec, {("h_0", "h_0"): bad})


def _stored_scalars(table):
    """The cells of a table, its expanded structure constants, and the rows
    of every Matrix of its decompositions and registry."""
    out = [c for cell in table.entries.values() for (_, _, c) in cell]
    out += [c for row in expand(table).struct.values() for c in row.values()]
    mats = []
    for dec in (table.source, table.target):
        mats += list(dec.module.action.values()) + [s.tau for s in dec.summands]
        mats.append(dec.basis_matrix())
    for model in table.registry.models.values():
        mats += list(model.action.values())
    mats += [m.matrix for maps in table.registry.maps.values() for m in maps]
    out += [x for M in mats for _, _, x in M.entries()]
    return out


def test_stored_scalars_are_canonical(canonical):
    # gl(3) tables, the Heisenberg report and a spec file through the path
    # of `extract --spec`, whose coefficients include halves
    rep = heisenberg_pipeline()
    reg, module, product, _, summands = load_spec(os.path.join(
        os.path.dirname(__file__), "golden", "heisenberg_he.json"))
    dec = decompose_sl2(module, reg, hwvs=summands)
    spec = extract(product_from_structure(module.dim, product), dec, reg)
    tables = list(gln_tables(3)) + [rep.cup_table, rep.bracket_table, spec]
    scalars = [x for t in tables for x in _stored_scalars(t)]
    scalars += [c for s in (rep.cup_structure, rep.bracket_structure)
                for row in s.values() for c in row.values()]
    assert all(canonical(x) for x in scalars)
    assert any(type(x) is Fraction for x in scalars)


def test_morphism_equivalence_corpus():
    total, agree, hits = run_morphism_equivalence(cases=30, seed=99)
    assert total == 30
    assert agree == total
    assert hits >= 10  # identity cases guarantee true morphisms appear


def test_cotable_componentwise_1dim():
    reg = builtin_labeling("S3")
    M = GModule("S3", 1, {g: Matrix.identity(1) for g in
                          __import__("gtables.repkit", fromlist=["S3_ELEMENTS"]).S3_ELEMENTS})
    from gtables.repkit import decompose_s3
    dec = decompose_s3(M, reg)
    t = cotable({(0, 0): {0: F(1)}}, dec, reg)
    assert t.entries == {("tr", "tr"): (("tr", 1, F(1)),)}


def test_render_and_parse_roundtrip():
    reg, dec = heisenberg_dec()
    t = extract(heisenberg_bracket_product(), dec, reg, op_symbol="[,]")
    js = to_json(t)
    st = parse_gtable(js)
    assert st.to_json() == js
    assert to_json(extract(heisenberg_bracket_product(), dec, reg,
                           op_symbol="[,]")) == js  # byte stability
    txt = render(t, "text")
    assert "h_0" in txt and "h_1" in txt
    tex = render(t, "latex")
    assert tex.startswith("\\begin{tabular}")
    assert "$h_{1}$" in tex
    with pytest.raises(ValueError):
        render(t, "html")


def test_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        scalar_from_str("1/0")
    with pytest.raises(ValueError):
        parse_gtable('{"group": "SL2", "labeling": "x", "summands": [], '
                     '"entries": [{"c": "1/0"}]}')


def test_extract_determinism():
    rng = random.Random(3)
    from gtables.verify import random_galgebra
    reg = builtin_labeling("SL2")
    pool = [IrrepId("SL2", 0), IrrepId("SL2", 1), IrrepId("SL2", 2)]
    dec, table, product = random_galgebra(rng, reg, pool, 3)
    t1 = extract(product, dec, reg)
    t2 = extract(product, dec, reg)
    assert t1 == t2 == table
    assert to_json(t1) == to_json(t2)
