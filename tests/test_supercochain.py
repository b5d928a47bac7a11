import random
import re
from fractions import Fraction

import pytest

import gtables.exactla as exactla
import gtables.supercochain as sc
from gtables.exactla import Matrix, Subspace, coords_modulo
from gtables.gallery.heisenberg import (
    EVEN_BIDEGREES,
    HW_REPRESENTATIVES,
    _orbit,
)
from gtables.verify import (
    _bracket_peeling,
    _coords_modulo_rref,
    _sl2_act_substitution,
    cohomology_mismatches,
)
from gtables.supercochain import (
    BigradedElement,
    ComplexContext,
    NotACocycle,
    _d_images,
    _graded,
    _weights,
    bracket,
    class_coordinates,
    cohomology,
    differential,
    heisenberg_context,
    monomial_basis,
    sl2_act,
    to_coords,
    vee,
)

F = Fraction
M = BigradedElement.monomial


def rand_homogeneous(rng, n, p, q):
    basis = monomial_basis(n, p, q)
    terms = {}
    for m in basis:
        if rng.random() < 0.5:
            c = F(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                terms[m] = c
    return BigradedElement(terms)


def rand_bidegree(rng, n):
    return rng.randint(0, n), rng.randint(0, n)


def total_deg(p, q):
    return p + q


# -- fixtures from the worked Heisenberg computations ------------------------

def test_vee_basic():
    # (x^1 h^0 (x) 1) v (1 (x) x_1 h_0) = x^1 h^0 (x) x_1 h_0
    a = M((1, 2), ())
    b = M((), (0, 2))
    assert vee(a, b) == M((1, 2), (0, 2))
    # unit
    c = M((0, 1), (2,), F(5, 2))
    assert vee(BigradedElement.one(), c) == c
    assert vee(c, BigradedElement.one()) == c


def test_vee_koszul_sign():
    # (x^1 (x) x_1) v (x^-1 (x) x_-1) = + x^-1 x^1 (x) x_1 x_-1 :
    # Koszul sign -1 and the dual transposition -1 cancel
    out = vee(M((1,), (0,)), M((0,), (1,)))
    assert out == M((0, 1), (0, 1))


def test_bracket_pairing():
    # {h^0 (x) 1, 1 (x) h_0} = 1 (x) 1, both ways
    assert bracket(M((2,), ()), M((), (2,))) == BigradedElement.one()
    assert bracket(M((), (2,)), M((2,), ())) == BigradedElement.one()
    # {x^1 (x) 1, x^-1 h^0 (x) 1} = 0 (duals bracket to zero)
    assert bracket(M((1,), ()), M((0, 2), ())).is_zero()


def test_bracket_mixed_degree_value():
    # {x^1 (x) x_-1, x^1 h^0 (x) 1} = x^1 h^0 (x) 1
    assert bracket(M((1,), (1,)), M((1, 2), ())) == M((1, 2), ())


def test_differential_fixture():
    ctx = heisenberg_context()
    # d(h^0 (x) x_1 x_-1) = x^-1x^1 (x) x_1x_-1 - x^-1h^0 (x) x_1h_0 - x^1h^0 (x) x_-1h_0
    got = differential(M((2,), (0, 1)), ctx)
    want = (M((0, 1), (0, 1)) + M((0, 2), (0, 2), -1) + M((1, 2), (1, 2), -1))
    assert got == want


def test_differential_trivial_and_degree_one():
    ctx = heisenberg_context()
    assert differential(BigradedElement.one(), ctx).is_zero()
    assert differential(M((1,), ()), ctx).is_zero()  # d(x^1 (x) 1) = 0
    # d(h^0 (x) 1) = -x^1 ^ x^-1 (x) 1 = x^-1 x^1 (x) 1
    assert differential(M((2,), ()), ctx) == M((0, 1), ())


def test_classical_ce_cross_check():
    # independent oracle on 1-forms: (d xi)(u, v) = -xi([u, v]) up to the
    # global sign fixed by the d(h^0 (x) x_1 x_-1) fixture, which makes
    # d xi = +sum xi([e_i,e_j]) xi_i^xi_j here
    ctx = heisenberg_context()
    dxi = differential(M((2,), ()), ctx)
    basis = monomial_basis(3, 2, 0)
    v = to_coords(dxi, basis)
    # evaluate the 2-form on (x_1, x_-1): coefficient of x^-1^x^1 pairs (0,1)
    assert v[basis.index(((0, 1), ()))] == F(1)


def test_sl2_act_values():
    ctx = heisenberg_context()
    # F.(x^1 (x) x_1) = x^1 (x) x_-1 - x^-1 (x) x_1
    got = sl2_act("F", M((1,), (0,)), ctx)
    assert got == M((1,), (1,)) + M((0,), (0,), -1)
    # F.(x^1 h^0 (x) 1) = -(x^-1 h^0 (x) 1)
    assert sl2_act("F", M((1, 2), ()), ctx) == M((0, 2), (), -1)
    # H.(1 (x) 1) = 0
    assert sl2_act("H", BigradedElement.one(), ctx).is_zero()
    # F^2 on x^1 h^0 (x) 1 is consistent with a second application
    one_f = sl2_act("F", M((1, 2), ()), ctx)
    assert sl2_act("F", one_f, ctx).is_zero()


def test_mu_validation_rejects_non_jacobi():
    # [e0,e1] = e2, [e0,e2] = e0 violates Jacobi: [[e2,e0],e1] = -e2 alone
    with pytest.raises(ValueError):
        ComplexContext.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_mu_mu_zero_for_sl2_structure():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h with order (e, f, h)
    ctx = ComplexContext.from_brackets(
        3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert bracket(ctx.mu, ctx.mu).is_zero()


# -- property suite -----------------------------------------------------------

def test_super_commutativity_random():
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(80):
            p1, q1 = rand_bidegree(rng, n)
            p2, q2 = rand_bidegree(rng, n)
            a = rand_homogeneous(rng, n, p1, q1)
            b = rand_homogeneous(rng, n, p2, q2)
            sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            assert vee(a, b) == vee(b, a).scale(sign)


def test_vee_associativity_random():
    rng = random.Random(102)
    for n in (2, 3, 4):
        for _ in range(80):
            elts = [rand_homogeneous(rng, n, *rand_bidegree(rng, n))
                    for _ in range(3)]
            a, b, c = elts
            assert vee(vee(a, b), c) == vee(a, vee(b, c))


def test_bracket_antisymmetry_random():
    rng = random.Random(103)
    for n in (2, 3, 4):
        for _ in range(80):
            p1, q1 = rand_bidegree(rng, n)
            p2, q2 = rand_bidegree(rng, n)
            a = rand_homogeneous(rng, n, p1, q1)
            b = rand_homogeneous(rng, n, p2, q2)
            sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            assert bracket(a, b) == bracket(b, a).scale(-sign)


def test_poisson_identity_random():
    rng = random.Random(104)
    for n in (2, 3):
        for _ in range(80):
            p1, q1 = rand_bidegree(rng, n)
            p2, q2 = rand_bidegree(rng, n)
            a = rand_homogeneous(rng, n, p1, q1)
            b = rand_homogeneous(rng, n, p2, q2)
            c = rand_homogeneous(rng, n, *rand_bidegree(rng, n))
            sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            lhs = bracket(vee(a, b), c)
            rhs = vee(a, bracket(b, c)) + vee(b, bracket(a, c)).scale(sign)
            assert lhs == rhs


def test_super_jacobi_random():
    rng = random.Random(105)
    for n in (2, 3):
        for _ in range(80):
            p1, q1 = rand_bidegree(rng, n)
            p2, q2 = rand_bidegree(rng, n)
            a = rand_homogeneous(rng, n, p1, q1)
            b = rand_homogeneous(rng, n, p2, q2)
            c = rand_homogeneous(rng, n, *rand_bidegree(rng, n))
            sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
            lhs = bracket(a, bracket(b, c))
            rhs = bracket(bracket(a, b), c) + bracket(b, bracket(a, c)).scale(sign)
            assert lhs == rhs


def test_peeling_order_independence():
    rng = random.Random(106)
    for n in (2, 3, 4):
        for _ in range(60):
            a = rand_homogeneous(rng, n, *rand_bidegree(rng, n))
            b = rand_homogeneous(rng, n, *rand_bidegree(rng, n))
            pick = lambda k: rng.randrange(k)
            assert bracket(a, b) == _bracket_peeling(a, b, pick)


def test_degree_bookkeeping_random():
    rng = random.Random(107)
    for n in (2, 3, 4):
        for _ in range(40):
            p1, q1 = rand_bidegree(rng, n)
            p2, q2 = rand_bidegree(rng, n)
            a = rand_homogeneous(rng, n, p1, q1)
            b = rand_homogeneous(rng, n, p2, q2)
            for (I, J) in vee(a, b).terms:
                assert (len(I), len(J)) == (p1 + p2, q1 + q2)
            for (I, J) in bracket(a, b).terms:
                assert (len(I), len(J)) == (p1 + p2 - 1, q1 + q2 - 1)


def rand_sparse(rng, n, terms=4):
    """A homogeneous element of a random bidegree with at most ``terms``
    random monomials, so that n = 7 stays small."""
    p, q = rand_bidegree(rng, n)
    return BigradedElement({
        (tuple(sorted(rng.sample(range(n), p))),
         tuple(sorted(rng.sample(range(n), q)))):
            F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        for _ in range(rng.randint(1, terms))})


def _vee_sorting(a, b):
    """Reference for vee: each product monomial by sorting the concatenated
    index tuples, the sign counted by transpositions."""
    out = BigradedElement()
    for (I1, J1), c1 in a.terms.items():
        for (I2, J2), c2 in b.terms.items():
            sign = -1 if (len(I2) * len(J1)) % 2 else 1
            out = out + M(I1 + I2, J1 + J2, sign * c1 * c2)
    return out


def test_mask_kernel_matches_the_references_up_to_dimension_7():
    rng = random.Random(108)
    for n in range(1, 8):
        for _ in range(60):
            a, b = rand_sparse(rng, n), rand_sparse(rng, n)
            assert vee(a, b) == _vee_sorting(a, b), (n, a, b)
            pick = lambda k: rng.randrange(k)
            assert bracket(a, b) == _bracket_peeling(a, b, pick), (n, a, b)


def test_products_reject_index_tuples_out_of_order():
    # a mask forgets the order of the letters, so a key that is not
    # canonical would lose its sign; no element, and so no product, holds one
    for I in ((1, 0), (0, 0)):
        for key in ((I, ()), ((), I)):
            with pytest.raises(ValueError, match=re.escape(
                    "%r is not strictly increasing" % (I,))):
                BigradedElement({key: 1})
    assert BigradedElement({((0, 1), ()): -1}) == M((1, 0), ())


FRACTIONAL = {
    "h3 at 1/2": (3, {(0, 1): {2: F(1, 2)}}),
    # ad(e_0) = diag(0, 1/2, 1/2): d(1 (x) e_1 e_2) = -xi_0 (x) e_1 e_2 sums
    # two halves
    "diag 1/2": (3, {(0, 1): {1: F(1, 2)}, (0, 2): {2: F(1, 2)}}),
    "sl2xK2": (5, {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2},
                   (0, 4): {3: 1}, (1, 3): {3: 1}, (1, 4): {4: -1},
                   (2, 3): {4: 1}}),
    "so3 at 2/3": (3, {(0, 1): {2: F(2, 3)}, (1, 2): {0: F(2, 3)},
                       (0, 2): {1: F(-2, 3)}}),
}


@pytest.mark.parametrize("name", list(FRACTIONAL))
def test_d_images_rows_match_the_differential(name, canonical):
    n, brackets = FRACTIONAL[name]
    ctx = ComplexContext.from_brackets(n, brackets)
    for p in range(n):
        for q in range(n + 1):
            above = monomial_basis(n, p + 1, q)
            want = [{i: c for i, c in enumerate(to_coords(
                        differential(BigradedElement({m: 1}), ctx), above)) if c}
                    for m in monomial_basis(n, p, q)]
            rows = _d_images(ctx, p, q)
            assert rows == want, (p, q)
            assert all(canonical(c) for r in rows for c in r.values())


def test_d_squared_zero_on_all_monomials():
    ctx = heisenberg_context()
    for p in range(4):
        for q in range(4):
            for m in monomial_basis(3, p, q):
                c = BigradedElement({m: F(1)})
                assert differential(differential(c, ctx), ctx).is_zero()


def test_d_matrix_built_once_per_bidegree(monkeypatch):
    ctx = heisenberg_context()
    assert _d_images(ctx, 1, 2)[0] is _d_images(ctx, 1, 2)[0]
    ctx = heisenberg_context()
    rows = []
    real = sc._word_bracket

    def counted(words_a, words_b):
        rows.append(words_b)
        return real(words_a, words_b)

    monkeypatch.setattr(sc, "_word_bracket", counted)
    for p in range(4):
        for q in range(4):
            cohomology(ctx, p, q)
    # one row of d per monomial of C^{p,q} with p < n, although (p, q) and
    # (p+1, q) both need the image of each monomial of C^{p,q}
    assert len(rows) == sum(len(monomial_basis(3, p, q))
                            for p in range(3) for q in range(4)) == 56


def test_d_derives_vee_and_bracket():
    ctx = heisenberg_context()
    rng = random.Random(108)
    for _ in range(60):
        p1, q1 = rand_bidegree(rng, 3)
        a = rand_homogeneous(rng, 3, p1, q1)
        b = rand_homogeneous(rng, 3, *rand_bidegree(rng, 3))
        sign = -1 if (p1 + q1) % 2 else 1
        assert differential(vee(a, b), ctx) == \
            vee(differential(a, ctx), b) + vee(a, differential(b, ctx)).scale(sign)
        assert differential(bracket(a, b), ctx) == \
            bracket(differential(a, ctx), b) + \
            bracket(a, differential(b, ctx)).scale(sign)


def test_sl2_action_commutes_with_d():
    ctx = heisenberg_context()
    for op in ("E", "H", "F"):
        for p in range(4):
            for q in range(4):
                for m in monomial_basis(3, p, q):
                    c = BigradedElement({m: F(1)})
                    assert sl2_act(op, differential(c, ctx), ctx) == \
                        differential(sl2_act(op, c, ctx), ctx)


def test_sl2_act_derivation_and_sl2_relations():
    ctx = heisenberg_context()
    rng = random.Random(110)

    def act(op, a):
        return sl2_act(op, a, ctx)

    for _ in range(40):
        a = rand_homogeneous(rng, 3, *rand_bidegree(rng, 3))
        b = rand_homogeneous(rng, 3, *rand_bidegree(rng, 3))
        for op in ("E", "H", "F"):
            # even derivation of vee
            assert act(op, vee(a, b)) == vee(act(op, a), b) + vee(a, act(op, b))
        assert act("E", act("F", a)) - act("F", act("E", a)) == act("H", a)
        assert act("H", act("E", a)) - act("E", act("H", a)) == act("E", a).scale(2)
        assert act("H", act("F", a)) - act("F", act("H", a)) == act("F", a).scale(-2)


def _units(n, entries):
    """n x n matrix with the given {(row, col): value} entries."""
    return Matrix.from_rows([[entries.get((i, j), 0) for j in range(n)]
                             for i in range(n)])


H5 = {(0, 1): {4: 1}, (2, 3): {4: 1}}
# the diagonal SL(2) in Sp(4) acting on h5 = span(e0, ..., e3, z = e4)
H5_DIAGONAL_SL2 = {
    "E": _units(5, {(0, 1): 1, (2, 3): 1}),
    "H": _units(5, {(0, 0): 1, (1, 1): -1, (2, 2): 1, (3, 3): -1}),
    "F": _units(5, {(1, 0): 1, (3, 2): 1}),
}


@pytest.mark.parametrize("name", ["h3", "h5"])
def test_sl2_act_matches_substitution_reference(name):
    # the bracket with X^ in C^{1,1} against the index substitution through
    # X on g and -X^T on g*, on every monomial
    ctx = heisenberg_context() if name == "h3" else \
        ComplexContext.from_brackets(5, H5, sl2=H5_DIAGONAL_SL2)
    for p in range(ctx.n + 1):
        for q in range(ctx.n + 1):
            for m in monomial_basis(ctx.n, p, q):
                c = BigradedElement({m: 1})
                for op in ("E", "H", "F"):
                    assert sl2_act(op, c, ctx) == \
                        _sl2_act_substitution(op, c, ctx), (op, m)


def test_sl2_action_must_act_by_derivations():
    # E = E_04, H = diag(1, 0, 0, 0, -1), F = E_40 satisfy the sl(2)
    # relations, but E[e0, e1] = E z = e0 while [E e0, e1] + [e0, E e1] = 0
    bad = {"E": _units(5, {(0, 4): 1}),
           "H": _units(5, {(0, 0): 1, (4, 4): -1}),
           "F": _units(5, {(4, 0): 1})}
    with pytest.raises(ValueError, match="operator E is not a derivation"):
        ComplexContext.from_brackets(5, H5, sl2=bad)
    ComplexContext.from_brackets(5, H5, sl2=H5_DIAGONAL_SL2)


def test_sl2_action_must_satisfy_the_relations():
    # diag(2, -2, 0) is a derivation of h3, but [E, F] = diag(1, -1, 0)
    bad = dict(heisenberg_context().sl2, H=_units(3, {(0, 0): 2, (1, 1): -2}))
    with pytest.raises(ValueError, match=re.escape(
            "[E, F] breaks the SL2 relations")):
        ComplexContext.from_brackets(3, {(0, 1): {2: 1}}, sl2=bad)
    # an sl(2) on K^4 satisfies them, but does not act on h3
    wide = {"E": _units(4, {(0, 1): 1}), "H": _units(4, {(0, 0): 1, (1, 1): -1}),
            "F": _units(4, {(1, 0): 1})}
    with pytest.raises(ValueError, match="operator E is not 3 x 3"):
        ComplexContext.from_brackets(3, {(0, 1): {2: 1}}, sl2=wide)


def test_sl2_action_must_name_its_operators():
    full = heisenberg_context().sl2
    with pytest.raises(ValueError, match="SL2 action lacks the operator F"):
        ComplexContext.from_brackets(
            3, {(0, 1): {2: 1}}, sl2={"E": full["E"], "H": full["H"]})
    bare = ComplexContext.from_brackets(3, {(0, 1): {2: 1}})
    with pytest.raises(ValueError, match="no sl2 operator 'E'"):
        sl2_act("E", BigradedElement.one(), bare)
    with pytest.raises(ValueError, match="no sl2 operator 'X'"):
        sl2_act("X", BigradedElement.one(), heisenberg_context())


# -- cohomology ---------------------------------------------------------------

def test_heisenberg_cohomology_dims():
    ctx = heisenberg_context()
    reps, _ = cohomology(ctx, 0, 0)
    assert len(reps) == 1 and reps[0] == BigradedElement.one()
    assert len(cohomology(ctx, 1, 1)[0]) == 4
    even = [(0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3)]
    assert sum(len(cohomology(ctx, p, q)[0]) for p, q in even) == 18


def test_class_coords_basics():
    ctx = heisenberg_context()
    reps, boundary = cohomology(ctx, 1, 1)
    coords = class_coordinates(ctx, reps)
    assert coords(reps[0]) == tuple(F(1 if i == 0 else 0) for i in range(4))
    dw = differential(M((), (0,)), ctx)  # d of 1 (x) x_1 lands in C^{1,1}
    assert not dw.is_zero()
    assert coords(dw) == (0, 0, 0, 0)
    z = reps[0] + dw
    assert coords(z) == tuple(F(1 if i == 0 else 0) for i in range(4))


def test_terms_outside_the_basis_are_named():
    ctx = heisenberg_context()
    e2 = M((), (2,))  # closed, of bidegree (0, 1)
    assert differential(e2, ctx).is_zero()
    msg = "%r is outside the basis of bidegree (1, 0)"
    with pytest.raises(ValueError, match=re.escape(msg % (((), (2,)),))):
        to_coords(e2, monomial_basis(3, 1, 0))
    reps, boundary = cohomology(ctx, 1, 0)
    xi01 = M((0, 1), ())  # closed, of bidegree (2, 0)
    with pytest.raises(ValueError,
                       match=re.escape("no representatives in bidegree (2, 0)")):
        class_coordinates(ctx, reps)(xi01)
    with pytest.raises(ValueError, match="empty bidegree"):
        to_coords(e2, monomial_basis(3, 4, 1))


def test_class_coords_rejects_non_cocycle():
    ctx = heisenberg_context()
    reps, boundary = cohomology(ctx, 1, 1)
    bad = M((2,), (0,))  # h^0 (x) x_1 is not closed
    assert not differential(bad, ctx).is_zero()
    with pytest.raises(NotACocycle):
        class_coordinates(ctx, reps)(bad)


def test_induced_products_well_defined():
    ctx = heisenberg_context()
    rng = random.Random(109)
    r11, b11 = cohomology(ctx, 1, 1)
    r22, b22 = cohomology(ctx, 2, 2)
    c11 = class_coordinates(ctx, r11)
    c22 = class_coordinates(ctx, r22)
    for _ in range(25):
        z = r11[rng.randrange(4)]
        zp = r11[rng.randrange(4)]
        w = rand_homogeneous(rng, 3, 0, 1)
        wp = rand_homogeneous(rng, 3, 0, 1)
        z2 = z + differential(w, ctx)
        zp2 = zp + differential(wp, ctx)
        assert c22(vee(z, zp)) == c22(vee(z2, zp2))
        assert c11(bracket(z, zp)) == c11(bracket(z2, zp2))


HEISENBERG_ALGEBRAS = {
    "h3": (3, {(0, 1): {2: 1}}),
    "h5": (5, {(0, 1): {4: 1}, (2, 3): {4: 1}}),
}


@pytest.mark.parametrize("name", list(HEISENBERG_ALGEBRAS))
def test_class_coordinates_match_coords_modulo(name):
    # seeded combinations of the default representatives plus coboundaries,
    # in every bidegree, against the one-shot coords_modulo and its rref
    # reference; then sums over several bidegrees and the zero element
    n, brackets = HEISENBERG_ALGEBRAS[name]
    ctx = ComplexContext.from_brackets(n, brackets)
    rng = random.Random(4242)
    reps, where, boundaries = [], {}, {}
    for p in range(n + 1):
        for q in range(n + 1):
            r, boundaries[(p, q)] = cohomology(ctx, p, q)
            where[(p, q)] = list(range(len(reps), len(reps) + len(r)))
            reps.extend(r)
    coords = class_coordinates(ctx, reps)
    assert coords(BigradedElement.zero()) == (0,) * len(reps)
    samples = []
    for (p, q), pos in where.items():
        basis = monomial_basis(n, p, q)
        dense = [to_coords(reps[t], basis) for t in pos]
        for _ in range(3):
            lam = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in pos]
            z = BigradedElement.zero()
            for t, c in zip(pos, lam):
                z = z + reps[t].scale(c)
            if p:
                z = z + differential(rand_homogeneous(rng, n, p - 1, q), ctx)
            got = coords(z)
            zc = to_coords(z, basis)
            want = coords_modulo(zc, dense, boundaries[(p, q)])
            assert want == _coords_modulo_rref(zc, dense, boundaries[(p, q)])
            assert [got[t] for t in pos] == list(want) == lam
            assert not any(c for t, c in enumerate(got) if t not in pos)
            samples.append((z, got))
    for _ in range(20):
        picked = rng.sample(samples, rng.randint(2, 6))
        total = BigradedElement.zero()
        for z, _ in picked:
            total = total + z
        assert coords(total) == tuple(
            sum(got[t] for _, got in picked) for t in range(len(reps)))


def test_class_coordinates_factor_one_solver_per_bidegree(monkeypatch):
    ctx = heisenberg_context()
    built = []

    class Counting(sc.ColumnSolver):
        def __init__(self, cols, n):
            built.append(n)
            super().__init__(cols, n)

    monkeypatch.setattr(sc, "ColumnSolver", Counting)
    bidegrees = [(1, 1), (2, 2), (0, 0)]
    reps = [z for p, q in bidegrees for z in cohomology(ctx, p, q)[0]]
    coords = class_coordinates(ctx, reps)
    assert len(built) == len(bidegrees)
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.choice(reps), rng.choice(reps)
        for z in (vee(a, b), bracket(a, b)):
            if all(pq in bidegrees for pq in z.parts()):
                coords(z)
    assert len(built) == len(bidegrees)


def test_class_coordinates_certify_with_one_elimination_per_bidegree(
        monkeypatch):
    # with every cohomology computed, certifying the 18 classes of the
    # Heisenberg pipeline factors one solver per even bidegree and nothing
    # else: no second check of the representatives
    ctx = heisenberg_context()
    for p in range(4):
        for q in range(4):
            cohomology(ctx, p, q)
    classes = [elt for _, _, w, rep in HW_REPRESENTATIVES
               for elt in _orbit(ctx, rep, w)]
    assert len(classes) == 18
    calls = []
    real = exactla.rref

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(exactla, "rref", counted)
    monkeypatch.setattr(sc, "rref", counted)
    class_coordinates(ctx, classes)
    assert len(calls) == len(EVEN_BIDEGREES) == 8


def test_class_coordinates_errors_name_the_bidegree():
    ctx = heisenberg_context()
    r00 = cohomology(ctx, 0, 0)[0]
    r11 = cohomology(ctx, 1, 1)[0]
    coords = class_coordinates(ctx, r00 + r11)
    good = r00[0] + r11[2]
    assert coords(good) == (1, 0, 0, 1, 0)
    bad = M((2,), (0,))  # h^0 (x) x_1 is not closed
    with pytest.raises(NotACocycle, match=re.escape("bidegree (1, 1)")):
        coords(good + bad)
    with pytest.raises(ValueError, match=re.escape("bidegree (2, 2)")):
        coords(good + M((0, 1), (0, 1)))
    # the representatives of each bidegree are certified on construction
    with pytest.raises(ValueError, match="expected 4 representatives"):
        class_coordinates(ctx, r11[:3])
    with pytest.raises(NotACocycle):
        class_coordinates(ctx, r11[:3] + [bad])


def test_class_coordinates_in_a_bidegree_without_cohomology():
    # sl(2) has classes in (0, 0), (0, 3), (3, 0) and (3, 3) only; the
    # bracket of the (0, 3) and (3, 0) classes is closed in (2, 2), where the
    # cohomology is zero, so its class is zero
    ctx = ComplexContext.from_brackets(
        3, {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}})
    reps = [z for p in range(4) for q in range(4)
            for z in cohomology(ctx, p, q)[0]]
    assert [z.bidegree() for z in reps] == [(0, 0), (0, 3), (3, 0), (3, 3)]
    coords = class_coordinates(ctx, reps)
    a, b = reps[1], reps[2]
    assert bracket(a, b).bidegree() == (2, 2)
    assert coords(bracket(a, b)) == coords(bracket(b, a)) == (0, 0, 0, 0)
    assert coords(reps[0] + bracket(a, b)) == (1, 0, 0, 0)
    with pytest.raises(NotACocycle, match=re.escape("bidegree (2, 2)")):
        coords(M((0, 1), (0, 1)))  # not closed


def test_injected_representatives_are_verified():
    ctx = heisenberg_context()
    reps11 = [
        M((1,), (1,)) + M((0,), (0,)) + M((2,), (2,), 2),
        M((1,), (0,)),
    ]
    with pytest.raises(ValueError, match="expected 4 representatives, got 2"):
        class_coordinates(ctx, reps11)  # wrong count: betti is 4


def test_injected_representative_not_closed():
    ctx = heisenberg_context()
    reps, _ = cohomology(ctx, 1, 1)
    bad = M((2,), (0,))  # h^0 (x) x_1 is not closed
    assert not differential(bad, ctx).is_zero()
    with pytest.raises(NotACocycle, match="injected representative is not "
                                          "closed"):
        class_coordinates(ctx, [bad] + reps[1:])


def test_differential_reuses_the_words_of_mu(monkeypatch):
    ctx = heisenberg_context()
    c = M((0,), (1,)) + M((2,), (0,)) + M((1, 2), (2,), 3)
    calls = []
    real = sc._words

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(sc, "_words", counted)
    assert differential(c, ctx) == bracket(ctx.mu, c)
    # the words of c, then those of mu and c again for the bracket
    assert calls == [c, ctx.mu, c]


def test_injected_representatives_dependent_modulo_boundaries():
    ctx = heisenberg_context()
    reps, boundary = cohomology(ctx, 1, 1)
    assert boundary.dim > 0
    b = BigradedElement.zero()
    for m, c in zip(monomial_basis(3, 1, 1), boundary.basis[0]):
        if c:
            b = b + M(m[0], m[1], c)
    # right count, every one a cocycle, the last a multiple of the first
    # plus a boundary
    dependent = reps[:-1] + [reps[0].scale(2) + b]
    with pytest.raises(ValueError, match="dependent modulo boundaries"):
        class_coordinates(ctx, dependent)


def test_cohomology_selection_matches_incremental_loop():
    # the selection as one echelon pass over [boundary | cocycles] against
    # the greedy loop that grows the span one chosen cocycle at a time
    ctx = heisenberg_context()
    for p in range(4):
        for q in range(4):
            basis = monomial_basis(3, p, q)
            cocycles, boundary, _ = _graded(ctx, p, q)
            expected = []
            acc = boundary
            for v in cocycles.basis:
                grown = Subspace(len(basis), acc.basis + (v,))
                if grown.dim > acc.dim:
                    expected.append(v)
                    acc = grown
            reps, _ = cohomology(ctx, p, q)
            assert [to_coords(z, basis) for z in reps] == expected, (p, q)


# (dim, brackets, rank of the torus of diagonal derivations)
GRADED_ALGEBRAS = {
    "h3": (3, {(0, 1): {2: 1}}, 2),
    "h5": (5, {(0, 1): {4: 1}, (2, 3): {4: 1}}, 3),
    "sl2xK2": (5, {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2},
                   (0, 4): {3: 1}, (1, 3): {3: 1}, (1, 4): {4: -1},
                   (2, 3): {4: 1}}, 2),
    "abelian K^3": (3, {}, 3),
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, 0),
}


@pytest.mark.parametrize("name", list(GRADED_ALGEBRAS))
def test_weights_grade_mu(name):
    n, brackets, rank = GRADED_ALGEBRAS[name]
    w = _weights(ComplexContext.from_brackets(n, brackets))
    assert len(w) == n and all(len(x) == rank for x in w)
    assert all(type(c) is int for x in w for c in x)
    # one independent weight function per basis derivation
    assert Matrix.from_rows(w, rank).rank() == rank
    for (i, j), img in brackets.items():
        for k in img:
            assert tuple(a + b for a, b in zip(w[i], w[j])) == w[k]


@pytest.mark.parametrize("name", list(GRADED_ALGEBRAS))
def test_blocked_cohomology_matches_unblocked_reference(name):
    # representatives, cocycle bases and boundary bases on every (p, q)
    n, brackets, _ = GRADED_ALGEBRAS[name]
    assert cohomology_mismatches(ComplexContext.from_brackets(n, brackets)) == []


def test_monomial_canonicalization():
    assert M((1, 0), ()) == M((0, 1), (), -1)
    assert M((0, 0), ()).is_zero()
    assert M((2, 0, 1), (1, 0)) == M((0, 1, 2), (0, 1), -1)
