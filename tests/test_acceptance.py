"""Acceptance criteria, one test per criterion, exact equality everywhere.

Each test prints a pass/fail line (visible with -v -s) and asserts its stated
runtime bound.
"""

import json
import os
import random
import time
from fractions import Fraction

from gtables import supercochain as sc
from gtables.exactla import Matrix, Subspace
from gtables.gtable import check_morphism, expand, parse_gtable, render, to_json
from gtables.gallery import (
    find_isomorphism,
    gln_axioms,
    gln_sl2_tables,
    gln_tables,
    heisenberg_pipeline,
    mk_fixture,
    poly_fixture,
    s3_fixture,
    sl3_fixture,
)
from gtables.gallery.heisenberg import (EVEN_BIDEGREES, EXPECTED_DIMS,
                                         HW_REPRESENTATIVES)
from gtables.verify import _bracket_peeling, run_morphism_equivalence

F = Fraction
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(num, label, elapsed, bound):
    print("PASS criterion %d: %s (%.2fs < %ds)" % (num, label, elapsed, bound))
    assert elapsed < bound, "criterion %d exceeded %ds (%.2fs)" % (num, bound, elapsed)


def test_criterion_1_heisenberg_dimensions():
    t0 = time.perf_counter()
    ctx = sc.heisenberg_context()
    dims = {pq: len(sc.cohomology(ctx, *pq)[0]) for pq in EVEN_BIDEGREES}
    assert dims == EXPECTED_DIMS
    assert sum(dims.values()) == 18
    report(1, "even cohomology dims (1,2,4,2,2,4,2,1), total 18",
           time.perf_counter() - t0, 1)


def test_criterion_2_representative_verification():
    t0 = time.perf_counter()
    ctx = sc.heisenberg_context()
    for sid, (p, q), w, rep in HW_REPRESENTATIVES:
        assert sc.differential(rep, ctx).is_zero(), sid
        basis = sc.monomial_basis(3, p, q)
        boundary = sc.cohomology(ctx, p, q)[1]
        grown = Subspace(len(basis), boundary.basis + (sc.to_coords(rep, basis),))
        assert grown.dim == boundary.dim + 1, sid
        assert sc.sl2_act("E", rep, ctx).is_zero(), sid
        assert sc.sl2_act("H", rep, ctx) == rep.scale(w), sid
    report(2, "all ten representatives: closed, non-exact, highest weight",
           time.perf_counter() - t0, 1)


def test_criterion_3_cup_table_reproduction():
    t0 = time.perf_counter()
    rep = heisenberg_pipeline()  # raises FixtureMismatch on any differing cell
    n_coeffs = sum(len(c) for c in rep.cup_table.entries.values())
    assert n_coeffs == 43  # nonzero coefficients in the printed table
    report(3, "cup-product table equals the printed 10x10 matrix",
           time.perf_counter() - t0, 5)


def test_criterion_4_bracket_table_reproduction():
    t0 = time.perf_counter()
    rep = heisenberg_pipeline()
    coeffs = sorted({c for cell in rep.bracket_table.entries.values()
                     for (_, _, c) in cell})
    for v in (F(-3), F(-3, 2), F(-1), F(-1, 2), F(1, 2), F(1), F(3, 2), F(3)):
        assert v in coeffs
    report(4, "bracket table equals the printed matrix incl. +-3, +-3/2, +-1/2",
           time.perf_counter() - t0, 5)


def test_criterion_5_isomorphism_with_gl3():
    rep = heisenberg_pipeline()
    gc, gb = gln_sl2_tables(3)
    t0 = time.perf_counter()
    f = find_isomorphism(rep.cup_table, rep.bracket_table, gc, gb)
    solve_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    assert check_morphism(rep.bracket_table, gb, f)
    assert check_morphism(rep.cup_table, gc, f)
    assert f.invertible()
    verify_time = time.perf_counter() - t1
    print("PASS criterion 5: isomorphism with gl(3)|x gl(3)_ab "
          "(solve %.2fs < 30s, verify %.2fs < 1s)" % (solve_time, verify_time))
    assert solve_time < 30
    assert verify_time < 1


def test_criterion_6_example_fixtures():
    t0 = time.perf_counter()
    s3_fixture()          # table and cotable, both compared cell-for-cell
    for k in (2, 3, 4, 5):
        mk_fixture(k)
    sl3_fixture()
    poly_fixture(4)
    report(6, "K[S3] table+cotable, M_k (k=2..5), sl(3), truncated K[x,y]",
           time.perf_counter() - t0, 5)


def test_criterion_7_poisson_superalgebra_properties():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    counts = {}

    def tally(name):
        counts[name] = counts.get(name, 0) + 1

    def rand(n, p, q):
        basis = sc.monomial_basis(n, p, q)
        terms = {}
        for m in basis:
            if rng.random() < 0.5:
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                if c:
                    terms[m] = c
        return sc.BigradedElement(terms)

    for n in (2, 3, 4):
        for _ in range(70):
            p1, q1 = rng.randint(0, n), rng.randint(0, n)
            p2, q2 = rng.randint(0, n), rng.randint(0, n)
            a = rand(n, p1, q1)
            b = rand(n, p2, q2)
            c = rand(n, *(rng.randint(0, n), rng.randint(0, n)))
            s12 = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            assert sc.vee(a, b) == sc.vee(b, a).scale(s12)
            tally("super-commutativity")
            assert sc.vee(sc.vee(a, b), c) == sc.vee(a, sc.vee(b, c))
            tally("associativity")
            # axiom i on random scalar multiples of generators
            i, j = rng.randrange(n), rng.randrange(n)
            s = F(rng.randint(1, 5))
            assert sc.bracket(sc.BigradedElement.monomial((i,), (), s),
                              sc.BigradedElement.monomial((j,), (), s)).is_zero()
            assert sc.bracket(sc.BigradedElement.monomial((), (i,), s),
                              sc.BigradedElement.monomial((), (j,), s)).is_zero()
            tally("axiom i")
            # axiom iv: {phi, v} = {v, phi} = phi(v)
            want = sc.BigradedElement.one().scale(s * s) if i == j \
                else sc.BigradedElement.zero()
            assert sc.bracket(sc.BigradedElement.monomial((i,), (), s),
                              sc.BigradedElement.monomial((), (j,), s)) == want
            assert sc.bracket(sc.BigradedElement.monomial((), (j,), s),
                              sc.BigradedElement.monomial((i,), (), s)) == want
            tally("axiom iv")
            assert sc.bracket(a, b) == sc.bracket(b, a).scale(-s12)
            tally("axiom ii")
            lhs = sc.bracket(sc.vee(a, b), c)
            rhs = sc.vee(a, sc.bracket(b, c)) + \
                sc.vee(b, sc.bracket(a, c)).scale(s12)
            assert lhs == rhs
            tally("axiom iii (Poisson identity)")
            lhs = sc.bracket(a, sc.bracket(b, c))
            rhs = sc.bracket(sc.bracket(a, b), c) + \
                sc.bracket(b, sc.bracket(a, c)).scale(s12)
            assert lhs == rhs
            tally("super-Jacobi")
            assert sc.bracket(a, b) == \
                _bracket_peeling(a, b, lambda k: rng.randrange(k))
            tally("bracket matches peeling reference")

    ctx = sc.heisenberg_context()
    mono = [sc.BigradedElement({m: F(1)})
            for p in range(4) for q in range(4)
            for m in sc.monomial_basis(3, p, q)]
    for m in mono:
        assert sc.differential(sc.differential(m, ctx), ctx).is_zero()
        tally("d^2 = 0")
    for _ in range(200):
        p1, q1 = rng.randint(0, 3), rng.randint(0, 3)
        a = rand(3, p1, q1)
        b = rand(3, *(rng.randint(0, 3), rng.randint(0, 3)))
        sgn = -1 if (p1 + q1) % 2 else 1
        assert sc.differential(sc.vee(a, b), ctx) == \
            sc.vee(sc.differential(a, ctx), b) + \
            sc.vee(a, sc.differential(b, ctx)).scale(sgn)
        assert sc.differential(sc.bracket(a, b), ctx) == \
            sc.bracket(sc.differential(a, ctx), b) + \
            sc.bracket(a, sc.differential(b, ctx)).scale(sgn)
        tally("d derives vee and bracket")
    r11, _ = sc.cohomology(ctx, 1, 1)
    c11 = sc.class_coordinates(ctx, r11)
    c22 = sc.class_coordinates(ctx, sc.cohomology(ctx, 2, 2)[0])
    for _ in range(200):
        z = r11[rng.randrange(len(r11))]
        zp = r11[rng.randrange(len(r11))]
        w = rand(3, 0, 1)
        wp = rand(3, 0, 1)
        z2 = z + sc.differential(w, ctx)
        zp2 = zp + sc.differential(wp, ctx)
        assert c22(sc.vee(z, zp)) == c22(sc.vee(z2, zp2))
        assert c11(sc.bracket(z, zp)) == c11(sc.bracket(z2, zp2))
        tally("induced products representative-independent")
    assert all(v >= 200 for k, v in counts.items() if k != "d^2 = 0"), counts
    report(7, "Poisson superalgebra property suite (%d checks)"
           % sum(counts.values()), time.perf_counter() - t0, 60)


def test_criterion_8_morphism_criterion_oracle():
    t0 = time.perf_counter()
    total, agree, hits = run_morphism_equivalence(cases=100, seed=2024)
    assert total == 100
    assert agree == 100
    assert hits >= 30
    report(8, "criterion vs direct morphism check on %d G-algebras "
           "(%d true morphisms)" % (total, hits), time.perf_counter() - t0, 60)


def test_criterion_9_gln_family_axioms():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        results = gln_axioms(n)
        assert all(results.values()), (n, results)
    gln_tables(3)  # raises FixtureMismatch unless both 4x4 tables match
    report(9, "gl(n) family axioms (n = 2,3,4) and the printed n=3 tables",
           time.perf_counter() - t0, 30)


def test_criterion_10_roundtrips(golden):
    from gtables.gtable import product_from_structure
    from gtables.gallery.glnfamily import _structure, gln_bracket, gln_product
    t0 = time.perf_counter()
    rep = heisenberg_pipeline()
    gc, gb = gln_sl2_tables(3)
    gp3, gb3 = gln_tables(3)
    s3 = s3_fixture()
    mk = mk_fixture(3)
    sl3 = sl3_fixture()
    poly = poly_fixture(3)
    glp, glb = (product_from_structure(18, _structure(3, op))
                for op in (gln_product, gln_bracket))
    cases = [
        ("s3", s3.tables["table"], s3.products["table"]),
        ("s3_cotable", s3.tables["cotable"], s3.products["cotable"]),
        ("mk3", mk.tables["table"], mk.products["table"]),
        ("sl3", sl3.tables["table"], sl3.products["table"]),
        ("poly3", poly.tables["table"], poly.products["table"]),
        ("he_cup", rep.cup_table,
         product_from_structure(18, rep.cup_structure)),
        ("he_bracket", rep.bracket_table,
         product_from_structure(18, rep.bracket_structure)),
        ("gl3_product", gp3, glp),
        ("gl3_bracket", gb3, glb),
        ("gl3_sl2_cup", gc, glp),
        ("gl3_sl2_bracket", gb, glb),
    ]
    for name, t, product in cases:
        # expand(extract(product)) reproduces the product on the full basis
        E = expand(t)
        B = t.source.basis_matrix()
        n = B.nrows
        for i in range(n):
            ui = tuple(F(1 if a == i else 0) for a in range(n))
            for j in range(n):
                uj = tuple(F(1 if a == j else 0) for a in range(n))
                via = B.matvec(E.product_coords(ui, uj))
                direct = product(B.col(i), B.col(j))
                assert tuple(via) == tuple(direct), (name, i, j)
        js = to_json(t)
        assert parse_gtable(js).to_json() == js, name
        assert render(t, "json") == js
    # byte-stable golden files
    golden("heisenberg_cup.json", to_json(rep.cup_table))
    golden("s3_table.txt", render(s3.tables["table"], "text"))
    report(10, "extract/expand and JSON round trips, byte-stable goldens",
           time.perf_counter() - t0, 60)
