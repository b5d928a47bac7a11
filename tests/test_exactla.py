import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from gtables.exactla import (
    AmbiguousCoordinates,
    ColumnSolver,
    Matrix,
    Subspace,
    canon,
    coords_modulo,
    div,
    join_terms,
    kernel,
    rref,
    scalar_from_str,
    scalar_to_str,
    signed_term,
    solve,
)
from gtables.gallery.heisenberg import HW_REPRESENTATIVES
from gtables.supercochain import bracket
from gtables.verify import _coords_modulo_rref, _rref_dense

F = Fraction


def rand_matrix(rng, nrows, ncols, den=4):
    return Matrix.from_rows(
        [[F(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(ncols)]
         for _ in range(nrows)], ncols)


def test_scalar_strings():
    assert scalar_to_str(F(3, 2)) == "3/2"
    assert scalar_to_str(F(-4, 2)) == "-2"
    assert scalar_to_str(F(0)) == "0"
    assert scalar_from_str("3/2") == F(3, 2)
    assert scalar_from_str("-7") == F(-7)
    assert type(scalar_from_str("4/2")) is int


def test_canon_and_div(canonical):
    for x, want in [(7, 7), (F(4, 2), 2), (F(-1, 3), F(-1, 3))]:
        assert canon(x) == want and canonical(canon(x))
    for a, b, want in [(6, 3, 2), (-4, 6, F(-2, 3)), (1, -3, F(-1, 3)),
                       (F(1, 2), F(1, 4), 2), (3, F(3, 2), 2),
                       (F(2, 3), 4, F(1, 6))]:
        assert div(a, b) == want and canonical(div(a, b))
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


@pytest.mark.parametrize("bad", [0.5, 2.0, 0.0, True, False])
def test_float_and_bool_are_not_scalars(bad):
    # Fraction(0.5) would quietly turn a float leak into 1/2
    for make in (lambda: canon(bad), lambda: scalar_to_str(bad),
                 lambda: div(bad, 3), lambda: div(3, bad),
                 lambda: Matrix.from_rows([[1, bad]]),
                 lambda: Matrix.from_cols([[bad, 1]]),
                 lambda: Matrix.identity(2).scale(bad),
                 lambda: Subspace(2, [[1, bad]])):
        with pytest.raises(TypeError):
            make()


def test_rref_rejects_a_float_entry():
    with pytest.raises(TypeError, match="exact scalar expected"):
        rref([{0: 0.5}], 1)


def test_solve_rejects_a_float_right_hand_side():
    with pytest.raises(TypeError, match="exact scalar expected"):
        solve(Matrix.identity(1), [0.5])
    for bad in (0.5, 0.0):
        with pytest.raises(TypeError, match="exact scalar expected"):
            ColumnSolver([{0: 1}], 1).solve({0: bad})


def test_column_solver_rejects_a_bool_right_hand_side():
    for bad in (True, False):
        with pytest.raises(TypeError, match="exact scalar expected"):
            ColumnSolver([{0: 1}], 1).solve({0: bad})


def test_join_terms():
    assert join_terms(["-a"]) == "-a"
    assert join_terms(["a", "-b", "2 c", "-1/2 d"]) == "a - b + 2 c - 1/2 d"


def test_signed_term():
    assert [signed_term(c, "x") for c in (1, -1, 2, F(-1, 2))] == \
        ["x", "-x", "2 x", "-1/2 x"]
    assert signed_term(F(3, 2), "x", lambda c: "<%s>" % c, "*") == "<3/2>*x"
    assert join_terms([signed_term(c, "y") for c in (-1, F(1, 2), -3)]) == \
        "-y + 1/2 y - 3 y"


def test_matrix_entries_are_the_nonzero_entries():
    A = Matrix.from_rows([[0, 2, 0], [F(1, 2), 0, -1]])
    assert list(A.entries()) == [(0, 1, 2), (1, 0, F(1, 2)), (1, 2, -1)]
    assert list(Matrix.zeros(2, 2).entries()) == []


def test_block_diag_matches_dense_build():
    rng = random.Random(13)
    for _ in range(30):
        blocks = [rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 4))]
        ncols = sum(B.ncols for B in blocks)
        rows = []
        off = 0
        for B in blocks:
            for i in range(B.nrows):
                row = [0] * ncols
                for j in range(B.ncols):
                    row[off + j] = B[i, j]
                rows.append(row)
            off += B.ncols
        assert Matrix.block_diag(blocks) == Matrix.from_rows(rows, ncols)


def test_kernel_zero_map():
    assert kernel(Matrix.zeros(3, 3)).dim == 3


def test_kernel_injective_map():
    assert kernel(Matrix.identity(3)).dim == 0


def test_kernel_hand_example():
    # row reduction by hand: x1 = -x2, x3 = 0
    M = Matrix.from_rows([[1, 1, 0], [0, 0, 1]])
    K = kernel(M)
    assert K.basis == ((F(1), F(-1), F(0)),)
    for v in K.basis:
        assert all(x == 0 for x in M.matvec(v))


def _kernel_two_eliminations(M):
    """Reference for kernel: null vectors from one reduced form, then a
    second elimination of them into the reduced echelon basis."""
    pivots, red = rref(M._rows, M.ncols)
    vecs = []
    for f in range(M.ncols):
        if f not in pivots:
            v = {f: 1}
            for i, c in enumerate(pivots):
                x = red[i].get(f)
                if x:
                    v[c] = -x
            vecs.append(v)
    return Subspace.from_echelon(M.ncols, rref(vecs, M.ncols)[1])


def test_kernel_matches_the_two_elimination_reference(canonical):
    rng = random.Random(46)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        M = Matrix.from_rows(rows, ncols)
        K = kernel(M)
        assert K == _kernel_two_eliminations(M)
        # each row is stored with its keys in increasing order
        assert all(list(r) == sorted(r) for r in K.rows)
        assert all(canonical(x) for r in K.rows for x in r.values())


def test_solve_identity():
    x, K = solve(Matrix.identity(3), [1, 2, 3])
    assert x == (F(1), F(2), F(3))
    assert K.dim == 0


def test_solve_1x1():
    x, _ = solve(Matrix.from_rows([[2]]), [3])
    assert x == (F(3, 2),)


def test_solve_inconsistent():
    assert solve(Matrix.from_rows([[1, 0], [1, 0]]), [1, 2]) is None


def test_solve_kernel_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        M = rand_matrix(rng, nrows, ncols)
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        b = M.matvec(x)
        got = solve(M, b)
        assert got is not None
        xp, K = got
        assert M.matvec(xp) == b
        assert K.dim + M.rank() == ncols
        for v in K.basis:
            assert all(c == 0 for c in M.matvec(v))
            shifted = tuple(a + c for a, c in zip(xp, v))
            assert M.matvec(shifted) == b


def test_subspace_canonical_across_generating_sets():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        gens = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        W1 = Subspace(n, gens)
        # random invertible recombination of the generators
        mixed = []
        for _ in range(k + 2):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(k)]
            mixed.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)])
        W2 = Subspace(n, mixed + gens)
        assert W1 == W2
        assert W1.basis == W2.basis


def test_subspace_rejects_vectors_of_the_wrong_length():
    for vecs in ([[0, 0, 1]], [[1, 0, 5]], [[1]]):
        with pytest.raises(ValueError, match="length 2"):
            Subspace(2, vecs)


def _kernel_dense(rows, n):
    """Canonical null space basis from the dense reference elimination."""
    pivots, red = _rref_dense(rows, n)
    null = []
    for f in range(n):
        if f not in pivots:
            v = [F(0)] * n
            v[f] = F(1)
            for r, c in zip(red, pivots):
                v[c] = -r[f]
            null.append(v)
    return tuple(tuple(r) for r in _rref_dense(null, n)[1])


def test_subspace_sparse_rows_match_dense_reference(canonical):
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 7)
        vecs = _half_zero(rng, rng.randint(0, 6), n)
        pivots, red = _rref_dense(vecs, n)
        want = tuple(tuple(r) for r in red)
        W = Subspace(n, vecs)
        spaces = [W, Subspace.from_echelon(
            n, rref([dict(enumerate(v)) for v in vecs], n)[1])]
        if vecs:
            M = Matrix.from_rows(vecs, n)
            K = kernel(M)
            assert K.basis == _kernel_dense(vecs, n)
            assert all(not any(M.matvec(v)) for v in K.basis)
            spaces.append(K)
        for S in spaces:
            assert all(canonical(x) and x for r in S.rows for x in r.values())
            assert [min(r) for r in S.rows] == sorted(min(r) for r in S.rows)
        for S in spaces[:2]:
            assert S.basis == want and S.dim == len(pivots)
            assert [min(r) for r in S.rows] == pivots
        # the same span, rows built in other dict orders or from other
        # generators, compares and hashes equal
        shuffled = []
        for r in W.rows:
            items = list(r.items())
            rng.shuffle(items)
            shuffled.append(dict(items))
        for same in (Subspace.from_echelon(n, shuffled),
                     Subspace(n, vecs[::-1] + vecs), W.add(Subspace.zero(n))):
            assert same == W and hash(same) == hash(W)


def test_dense_sparse_agreement(canonical):
    rng = random.Random(13)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        pd, rd = _rref_dense(rows, ncols)
        ps, rs = rref([{j: x for j, x in enumerate(r) if x} for r in rows], ncols)
        assert pd == ps
        assert all(canonical(x) and x for r in rs for x in r.values())
        assert rd == [[r.get(j, 0) for j in range(ncols)] for r in rs]


def test_large_matrix_kernel_and_solve():
    n = 70
    M = Matrix.from_rows(
        [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)], n)
    assert kernel(M).dim == 0
    x, _ = solve(M, [F(i) for i in range(n)])
    assert x == tuple(F(i) for i in range(n))


def test_coords_modulo_trivial():
    W = Subspace.zero(3)
    reps = [(1, 0, 0), (0, 1, 0)]
    assert coords_modulo((1, 0, 0), reps, W) == (F(1), F(0))


def test_coords_modulo_inside_subspace():
    W = Subspace(3, [[0, 0, 1]])
    reps = [(1, 0, 0), (0, 1, 0)]
    assert coords_modulo((0, 0, 5), reps, W) == (F(0), F(0))


def test_coords_modulo_constructed_combination():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 7)
        W = Subspace(n, [[F(rng.randint(-2, 2)) for _ in range(n)]])
        # build reps independent modulo W, retrying as needed
        while True:
            reps = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2)]
            A = Matrix.from_cols(reps + [list(r) for r in W.basis], nrows=n)
            if kernel(A).dim == 0:
                break
        coeffs = [F(rng.randint(-2, 2)) for _ in W.basis]
        w = [sum((c * b[j] for c, b in zip(coeffs, W.basis)), F(0)) for j in range(n)]
        z = [2 * reps[0][j] - 3 * reps[1][j] + w[j] for j in range(n)]
        assert coords_modulo(z, reps, W) == (F(2), F(-3))


def test_coords_modulo_no_solution():
    W = Subspace.zero(3)
    assert coords_modulo((0, 0, 1), [(1, 0, 0)], W) is None


def test_coords_modulo_ambiguous():
    W = Subspace(3, [[1, 0, 0]])
    with pytest.raises(AmbiguousCoordinates):
        coords_modulo((0, 1, 0), [(0, 1, 0), (1, 1, 0)], W)


def test_column_solver_edge_cases():
    # k = 0: only z = 0 is in the span
    empty = ColumnSolver([], 3)
    assert empty.solve({}) == ()
    assert empty.solve({1: 1}) is None
    # dependent columns are rejected on construction, before any z
    with pytest.raises(AmbiguousCoordinates):
        ColumnSolver([{0: 1, 1: 2}, {0: F(1, 2), 1: 1}], 3)
    with pytest.raises(AmbiguousCoordinates):
        ColumnSolver([{0: 0}], 2)
    # columns are sparse {row: scalar}; a row outside range(n) is an error
    with pytest.raises(ValueError):
        ColumnSolver([{3: 1}], 3)
    solver = ColumnSolver([{0: 1, 2: 2}, {1: 1, 2: 1}], 3)
    assert solver.solve({}) == (F(0), F(0))
    assert solver.solve({0: 2, 1: -1, 2: 3}) == (F(2), F(-1))
    assert solver.solve({2: 1}) is None
    # right-hand sides are sparse like the columns: explicit zeros are
    # dropped, and a row outside range(n) is an error
    assert solver.solve({0: 0, 1: F(0), 2: 0}) == (F(0), F(0))
    assert solver.solve({2: 1, 1: 0}) is None
    for z in ({3: 1}, {0: 1, 2: 2, 5: -1}, {-1: 1}):
        with pytest.raises(ValueError, match=re.escape("in range(3)")):
            solver.solve(z)


def test_column_solver_matches_rref_reference(canonical):
    # every right-hand side against one factored solver agrees with one
    # elimination of [reps | W | z] per call
    rng = random.Random(31)
    seen = {"k=0": 0, "dependent": 0, "outside": 0, "zero": 0, "inside": 0}
    for _ in range(80):
        n = rng.randint(1, 6)
        W = Subspace(n, _half_zero(rng, rng.randint(0, 2), n))
        reps = _half_zero(rng, rng.randint(0, 3), n)
        cols = reps + [list(b) for b in W.basis]
        zs = [[F(0)] * n, _half_zero(rng, 1, n)[0]]
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in cols]
        zs.append([sum((c * col[i] for c, col in zip(coeffs, cols)), F(0))
                   for i in range(n)])
        try:
            solver = ColumnSolver(
                [{i: x for i, x in enumerate(c) if x} for c in cols], n)
        except AmbiguousCoordinates:
            seen["dependent"] += 1
            for z in zs:
                with pytest.raises(AmbiguousCoordinates):
                    _coords_modulo_rref(z, reps, W)
            continue
        seen["k=0"] += not cols
        for z in zs:
            want = _coords_modulo_rref(z, reps, W)
            x = solver.solve(dict(enumerate(z)))
            assert (x is None) == (want is None)
            assert coords_modulo(z, reps, W) == want
            if x is None:
                seen["outside"] += 1
                continue
            seen["zero" if not any(z) else "inside"] += 1
            assert x[:len(reps)] == want
            assert all(canonical(c) for c in x)
            assert [sum((c * col[i] for c, col in zip(x, cols)), F(0))
                    for i in range(n)] == z
    assert all(seen.values()), seen


_I18 = Matrix.identity(18)
_S9 = Subspace(18, [_I18.row(i) for i in range(9)])
_SOLVER18 = ColumnSolver([{i: 1} for i in range(18)], 18)
_HE_REPS = [rep for _, _, _, rep in HW_REPRESENTATIVES]


_DENSE_CALLS = {
    "Matrix.row": lambda j: _I18.row(j),
    "Matrix.col": lambda j: _I18.col(j),
    "ColumnSolver.solve": lambda j: _SOLVER18.solve({j: 1}),
    "Subspace.basis": lambda j: _S9.basis,
    # the I and J tuples of every term of a bracket (and so of d and sl2_act)
    "supercochain.bracket": lambda j: [bracket(a, _HE_REPS[j % 10])
                                       for a in _HE_REPS],
}


@pytest.mark.parametrize("name", list(_DENSE_CALLS))
def test_dense_tuples_leave_no_garbage(name):
    # a tuple grown from an iterator is resized after it is filled, so the
    # free list of its final size never hands it out, and freed ones pile up
    # there until a full collection; tuples built from lists are reused
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            for j in range(18):
                _DENSE_CALLS[name](j)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 16 * 1024, "%s left %d bytes allocated" % (name, left)


def _half_zero(rng, nrows, ncols):
    return [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
             for _ in range(ncols)] for _ in range(nrows)]


def test_matrix_ops_match_list_arithmetic():
    rng = random.Random(23)
    inverted = 0
    for _ in range(40):
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b, c = _half_zero(rng, n, m), _half_zero(rng, n, m), _half_zero(rng, m, p)
        A, B, C = (Matrix.from_rows(a, m), Matrix.from_rows(b, m),
                   Matrix.from_rows(c, p))
        assert (A @ C).rows_list() == [
            [sum((a[i][t] * c[t][j] for t in range(m)), F(0)) for j in range(p)]
            for i in range(n)]
        assert (A + B).rows_list() == [[x + y for x, y in zip(r, s)]
                                       for r, s in zip(a, b)]
        assert (A - B).rows_list() == [[x - y for x, y in zip(r, s)]
                                       for r, s in zip(a, b)]
        k = F(rng.randint(-3, 3), 2)
        assert A.scale(k).rows_list() == [[k * x for x in r] for r in a]
        assert A.scale(0) == Matrix.zeros(n, m) == A - A
        assert A.transpose().rows_list() == [list(col) for col in zip(*a)]
        v = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)]
        assert A.matvec(v) == tuple(sum((x * y for x, y in zip(r, v)), F(0))
                                    for r in a)
        rank = len(_rref_dense(a, m)[0])
        assert A.rank() == rank
        assert (A == B) == (a == b)
        # equal matrices built along different paths compare and hash equal
        for same in (Matrix.from_cols(list(zip(*a)), n), A + B - B):
            assert same == A and hash(same) == hash(A)
        if n == m and rank == n:
            inverted += 1
            ainv = A.inverse().rows_list()
            assert [[sum((a[i][t] * ainv[t][j] for t in range(n)), F(0))
                     for j in range(n)] for i in range(n)] == \
                Matrix.identity(n).rows_list()
        elif n == m:
            with pytest.raises(ValueError):
                A.inverse()
    assert inverted >= 3


def test_matrix_ops():
    A = Matrix.from_rows([[1, 2], [3, 4]])
    B = Matrix.from_rows([[0, 1], [1, 0]])
    assert (A @ B).rows_list() == [[F(2), F(1)], [F(4), F(3)]]
    assert A.transpose().rows_list() == [[F(1), F(3)], [F(2), F(4)]]
    assert (A + B).rows_list() == [[F(1), F(3)], [F(4), F(4)]]
    assert (A - A) == Matrix.zeros(2, 2)
    assert A.rank() == 2
    assert Matrix.from_cols([(1, 3), (2, 4)]) == A
    with pytest.raises(IndexError, match="column 2"):
        A[0, 2]
    for i in (-1, 2):
        with pytest.raises(IndexError, match="row %d" % i):
            A[i, 0]
    with pytest.raises(IndexError, match="column -1"):
        A[1, -1]
