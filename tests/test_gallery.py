from fractions import Fraction

import pytest

from gtables.exactla import Matrix
from gtables.gtable import GMatrix, check_morphism, expand, morphism_oracle
from gtables.gallery import (
    FixtureMismatch,
    find_isomorphism,
    gln_axioms,
    gln_bracket,
    gln_element,
    gln_product,
    gln_sl2_tables,
    gln_tables,
    heisenberg_pipeline,
    mk_fixture,
    poly_fixture,
    s3_fixture,
    sl3_fixture,
)
from gtables.gallery.glnfamily import SizeMismatch
from gtables.gallery.isomorphism import NotFound
from gtables.repkit import S3_ELEMENTS, s3_compose
from gtables.verify import _expand_via_module, morphism_corpus

F = Fraction


def s3_group_algebra_product():
    """The dense product of K[S3] on coordinates over S3_ELEMENTS, the
    reference for the fixture's structure constants."""
    idx = {g: i for i, g in enumerate(S3_ELEMENTS)}

    def product(u, v):
        out = [0] * 6
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        out[idx[s3_compose(S3_ELEMENTS[i], S3_ELEMENTS[j])]] += a * b
        return tuple(out)

    return product


# -- fixed example algebras ---------------------------------------------------

def test_s3_fixture_matches_reference_tables():
    rep = s3_fixture()
    t = rep.tables["table"]
    assert t.cell("s_sg", "s_sg") == (("1_3", 1, F(-3)),)
    assert t.cell("A_std", "A_std") == (("1_3", 1, F(3, 2)), ("s_sg", 1, F(3, 2)))
    assert t.cell("1_1", "1_2") == ()
    c = rep.tables["cotable"]
    assert c.cell("1_3", "1_3") == \
        (("1_1", 1, F(2, 3)), ("1_2", 1, F(2, 3)), ("1_3", 1, F(1, 3)))
    assert c.cell("1_1", "A_std") == (("A_std", 1, F(1, 6)),)
    assert c.cell("s_sg", "s_sg") == \
        (("1_1", 1, F(2)), ("1_2", 1, F(2)), ("1_3", 1, F(-1)))


def test_s3_expand_against_group_algebra_oracle():
    # expanded structure constants reproduce actual products in K[S3]
    rep = s3_fixture()
    t = rep.tables["table"]
    E = expand(t)
    B = t.source.basis_matrix()
    Binv = B.inverse()
    product = s3_group_algebra_product()
    n = 6
    for i in range(n):
        u = B.col(i)
        for j in range(n):
            v = B.col(j)
            direct = product(u, v)
            via_table = B.matvec(E.product_coords(
                tuple(F(1 if a == i else 0) for a in range(n)),
                tuple(F(1 if a == j else 0) for a in range(n))))
            assert tuple(direct) == tuple(via_table)


def test_mk_fixture_all_k():
    for k in (2, 3, 4, 5):
        rep = mk_fixture(k)
        t = rep.tables["table"]
        cell = t.cell("A_1", "A_1")
        assert cell[0] == ("A_0", 1, F(1, k))
        if k == 2:
            assert len(cell) == 2  # the symmetric map is absent
        else:
            assert cell[1:] == (("A_1", 1, F(1, 2)), ("A_1", 2, F(1, 2)))
    with pytest.raises(ValueError):
        mk_fixture(1)


def test_sl3_fixture_cells():
    rep = sl3_fixture()
    t = rep.tables["table"]
    assert t.cell("V_0", "V_1") == (("V_1", 1, F(3)),)
    assert t.cell("V_0", "V_1'") == (("V_1'", 1, F(-3)),)
    assert t.cell("V_1", "V_1'") == (("V_0", 1, F(1, 2)), ("V_2", 1, F(1, 2)))
    assert t.cell("V_1'", "V_1") == (("V_0", 1, F(1, 2)), ("V_2", 1, F(-1, 2)))
    assert t.cell("V_1", "V_1") == ()


def test_poly_fixture_degrees():
    for D in (1, 2, 4):
        rep = poly_fixture(D)
        t = rep.tables["table"]
        assert t.cell("A_0", "A_0") == (("A_0", 1, F(1)),)
        assert t.cell("A_1", "A_%d" % (D - 1)) == (("A_%d" % D, 1, F(1)),)
        assert t.cell("A_%d" % D, "A_1") == ()


def test_fixture_mismatch_reports_first_cell():
    from gtables.gallery.fixtures import compare, expected_table, s3_decomposition
    from gtables.gtable import extract
    reg, dec = s3_decomposition()
    t = extract(s3_group_algebra_product(), dec, reg)
    wrong = {("1_1", "1_1"): [("1_1", 1, "2")]}
    with pytest.raises(FixtureMismatch) as e:
        compare("demo", t, expected_table(dec, reg, wrong))
    assert e.value.cell == ("1_1", "1_1")


# -- Heisenberg pipeline ------------------------------------------------------

@pytest.fixture(scope="module")
def he_report():
    return heisenberg_pipeline()


def test_heisenberg_dims(he_report):
    assert he_report.total_even_dim == 18
    assert [he_report.dims[pq] for pq in
            [(0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3)]] == \
        [1, 2, 4, 2, 2, 4, 2, 1]


def test_heisenberg_verification(he_report):
    assert he_report.verified()
    names = {(s, n) for (s, n, ok) in he_report.verification}
    assert ("H_0^{1,1}", "cocycle") in names
    assert ("H_2^{2,2}", "non-exact") in names
    weights = [n for (s, n, ok) in he_report.verification
               if n.startswith("weight")]
    assert len(weights) == 10


def test_heisenberg_cup_cells(he_report):
    t = he_report.cup_table
    assert t.cell("H_0^{1,1}", "H_0^{1,1}") == (("H_0^{2,2}", 1, F(-6)),)
    assert t.cell("H_1^{2,0}", "H_1^{0,2}") == \
        (("H_0^{2,2}", 1, F(1, 2)), ("H_2^{2,2}", 1, F(-1, 2)))
    assert t.cell("H_1^{0,2}", "H_1^{2,0}") == \
        (("H_0^{2,2}", 1, F(-1, 2)), ("H_2^{2,2}", 1, F(-1, 2)))
    # unit row and column
    for sid in t.summand_ids():
        assert t.cell("H_0^{0,0}", sid) == ((sid, 1, F(1)),)
        assert t.cell(sid, "H_0^{0,0}") == ((sid, 1, F(1)),)
    # skew pairs from the det pairing
    assert t.cell("H_1^{2,0}", "H_1^{1,3}") == (("H_0^{3,3}", 1, F(-1)),)
    assert t.cell("H_1^{1,3}", "H_1^{2,0}") == (("H_0^{3,3}", 1, F(1)),)
    assert t.cell("H_1^{0,2}", "H_1^{3,1}") == (("H_0^{3,3}", 1, F(-1)),)
    assert t.cell("H_1^{3,1}", "H_1^{0,2}") == (("H_0^{3,3}", 1, F(1)),)


def test_heisenberg_bracket_cells(he_report):
    t = he_report.bracket_table
    for sid in t.summand_ids():
        assert t.cell("H_0^{0,0}", sid) == ()
        assert t.cell(sid, "H_0^{3,3}") == ()
    assert t.cell("H_1^{2,0}", "H_1^{0,2}") == \
        (("H_0^{1,1}", 1, F(-1, 2)), ("H_2^{1,1}", 1, F(1, 2)))
    assert t.cell("H_2^{1,1}", "H_2^{1,1}") == (("H_2^{1,1}", 1, F(-1)),)
    assert t.cell("H_1^{1,3}", "H_1^{2,0}") == \
        (("H_0^{2,2}", 1, F(-3, 2)), ("H_2^{2,2}", 1, F(1, 2)))
    # the abelian half: brackets of the second copy vanish
    ab = ["H_0^{2,2}", "H_2^{2,2}", "H_1^{3,1}", "H_1^{1,3}", "H_0^{3,3}"]
    for a in ab:
        for b in ab:
            assert t.cell(a, b) == ()


def test_heisenberg_bidegree_bookkeeping(he_report):
    bideg = {sid: pq for sid, pq, w, _ in
             __import__("gtables.gallery.heisenberg",
                        fromlist=["HW_REPRESENTATIVES"]).HW_REPRESENTATIVES}
    for (r1, r2), cell in he_report.cup_table.entries.items():
        p = bideg[r1][0] + bideg[r2][0]
        q = bideg[r1][1] + bideg[r2][1]
        for (s, _, _) in cell:
            assert bideg[s] == (p, q)
    for (r1, r2), cell in he_report.bracket_table.entries.items():
        p = bideg[r1][0] + bideg[r2][0] - 1
        q = bideg[r1][1] + bideg[r2][1] - 1
        for (s, _, _) in cell:
            assert bideg[s] == (p, q)


# -- the gl(n) family ---------------------------------------------------------

def test_gln_product_scalar_part():
    u = gln_element(3, a0=2, a1=5)
    v = gln_element(3, a0=3, a1=7)
    n, c0, C0, c1, C1 = gln_product(u, v)
    assert (c0, c1) == (F(6), F(2 * 7 + 5 * 3))
    assert C0 == {} and C1 == {}


def test_gln_bracket_second_factor_abelian():
    A = {(0, 1): F(1)}
    B = {(1, 0): F(1)}
    u = gln_element(3, A1=A)
    v = gln_element(3, A1=B)
    out = gln_bracket(u, v)
    assert out[1] == 0 and out[2] == {} and out[3] == 0 and out[4] == {}


def test_gln_size_mismatch():
    with pytest.raises(SizeMismatch):
        gln_product(gln_element(2), gln_element(3))


def test_gln_axioms_full_basis():
    for n in (2, 3, 4):
        results = gln_axioms(n)
        assert all(results.values()), (n, results)


def test_gln_tables_fixture():
    tp, tb = gln_tables(3)
    assert tp.cell("sl(n)_0", "sl(n)_0") == (("sl(n)_ab", 2, F(1)),)
    assert tp.cell("sl(n)_0", "sl(n)_ab") == (("(I_n)_ab", 1, F(1)),)
    assert tb.cell("sl(n)_0", "sl(n)_ab") == (("sl(n)_ab", 1, F(1)),)
    assert tb.cell("(I_n)_0", "sl(n)_0") == ()
    tp2, tb2 = gln_tables(2)
    assert tp2.cell("sl(n)_0", "sl(n)_0") == ()  # symmetric map vanishes at n=2
    assert tb2.cell("sl(n)_0", "sl(n)_0") == (("sl(n)_0", 1, F(1)),)


@pytest.mark.parametrize("n", [4, 5])
def test_gln_tables_fixture_larger_n(n):
    # gln_tables compares every cell with the reference tables
    tp, tb = gln_tables(n)
    assert tp.source.module.dim == 2 * n * n
    assert tp.cell("sl(n)_0", "sl(n)_0") == (("sl(n)_ab", 2, 1),)
    assert tb.cell("sl(n)_0", "sl(n)_ab") == (("sl(n)_ab", 1, 1),)


# -- the isomorphism ----------------------------------------------------------

EXPECTED_ISO = {
    ("I_0", "H_0^{0,0}"): F(1),
    ("Z_0", "H_0^{1,1}"): F(1),
    ("W_0", "H_2^{1,1}"): F(-1),
    ("C_0", "H_1^{2,0}"): F(1),
    ("R_0", "H_1^{0,2}"): F(-1),
    ("Z_ab", "H_0^{2,2}"): F(1, 3),
    ("W_ab", "H_2^{2,2}"): F(1),
    ("C_ab", "H_1^{3,1}"): F(-1),
    ("R_ab", "H_1^{1,3}"): F(-1),
    ("I_ab", "H_0^{3,3}"): F(1),
}


def test_find_isomorphism(he_report):
    gc, gb = gln_sl2_tables(3)
    f = find_isomorphism(he_report.cup_table, he_report.bracket_table, gc, gb)
    assert f.entries == EXPECTED_ISO
    assert f.invertible()
    assert check_morphism(he_report.bracket_table, gb, f)
    assert check_morphism(he_report.cup_table, gc, f)
    # independent oracle on the assembled 18x18 map
    assert morphism_oracle(he_report.bracket_table, gb, f)
    assert morphism_oracle(he_report.cup_table, gc, f)


def test_find_isomorphism_names_the_irrep_whose_multiplicities_differ(
        he_report):
    # K[x,y]_{<=2} holds SL2:0 once, H_E four times
    t = poly_fixture(2).tables["table"]
    with pytest.raises(NotFound, match="multiplicities differ at SL2:0$"):
        find_isomorphism(he_report.cup_table, he_report.bracket_table, t, t)


def test_iso_archived_fixture_is_a_morphism(he_report):
    # the archived scalars stay valid without rerunning the search
    gc, gb = gln_sl2_tables(3)
    f = GMatrix(he_report.bracket_table.source, gb.source, EXPECTED_ISO)
    assert check_morphism(he_report.bracket_table, gb, f)
    assert check_morphism(he_report.cup_table, gc, f)


def test_expand_matches_module_reference(he_report):
    # expand reads the constants off the table; the reference maps every
    # image into the module and back through the inverse basis matrix
    tables = [s3_fixture().tables["table"],
              he_report.cup_table, he_report.bracket_table,
              *gln_tables(3)]
    for tA, tB, _ in morphism_corpus(cases=10, seed=7):
        tables += [tA, tB]
    for t in tables:
        got, want = expand(t), _expand_via_module(t)
        assert got.basis == want.basis
        assert [(k, list(v.items())) for k, v in got.struct.items()] == \
            [(k, list(v.items())) for k, v in want.struct.items()]


def test_extract_expand_roundtrip_on_gallery_algebras(he_report):
    # expanded structure constants agree with the defining products
    from gtables.gallery.glnfamily import _structure
    from gtables.gtable import product_from_structure
    brk = product_from_structure(18, _structure(3, gln_bracket))
    tp, tb = gln_tables(3)
    E = expand(tb)
    B = tb.source.basis_matrix()
    Binv = B.inverse()
    n = B.nrows
    for i in range(0, n, 3):
        for j in range(0, n, 3):
            u = B.col(i)
            v = B.col(j)
            direct = brk(u, v)
            via = B.matvec(E.product_coords(
                tuple(F(1 if a == i else 0) for a in range(n)),
                tuple(F(1 if a == j else 0) for a in range(n))))
            assert tuple(direct) == tuple(via)
