import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from gtables.exactla import Matrix, kernel, solve
from gtables.repkit import (
    Decomposition,
    GModule,
    IrrepId,
    S3_ELEMENTS,
    Intertwiner,
    _relations,
    block_decomposition,
    builtin_labeling,
    decompose_s3,
    decompose_sl2,
    glk_ad,
    glk_basis,
    glk_coords,
    group_algebra_s3_conjugation,
    highest_weight_vectors,
    s3_compose,
    s3_inverse,
    sl2_poly_labeling,
    smat_add,
    smat_comm,
    smat_scale,
    smat_sym,
    smat_trace_prod,
)

F = Fraction


def heisenberg_module():
    # basis (x_1, x_-1, h_0); subscripts are H-weights
    return GModule("SL2", 3, {
        "E": Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        "H": Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        "F": Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    })


def test_s3_composition_table():
    assert s3_compose("(12)", "(23)") == "(123)"
    assert s3_compose("(23)", "(12)") == "(132)"
    assert s3_compose("(123)", "(132)") == "()"
    assert s3_inverse("(123)") == "(132)"
    for g in S3_ELEMENTS:
        assert s3_compose(g, s3_inverse(g)) == "()"


def test_all_labelings_equivariant():
    builtin_labeling("SL2").check_equivariance()
    builtin_labeling("S3").check_equivariance()
    builtin_labeling("GLk", k=2).check_equivariance()
    builtin_labeling("GLk", k=3).check_equivariance()
    sl2_poly_labeling(4).check_equivariance()


def test_sl2_intertwiner_values():
    reg = builtin_labeling("SL2")
    i0, i1, i2 = (IrrepId("SL2", n) for n in (0, 1, 2))
    det = reg.basis(i1, i1, i0)[0]
    assert det.apply((1, 0), (0, 1)) == (F(1),)
    assert det.apply((0, 1), (1, 0)) == (F(-1),)
    sym = reg.basis(i1, i1, i2)[0]
    # (1,0)x(1,0) -> -2E in (E,H,F) coordinates
    assert sym.apply((1, 0), (1, 0)) == (F(-2), F(0), F(0))
    assert sym.apply((1, 0), (0, 1)) == (F(0), F(1), F(0))
    comm = reg.basis(i2, i2, i2)[0]
    assert comm.apply((1, 0, 0), (1, 0, 0)) == (F(0), F(0), F(0))  # [A,A] = 0
    # [E, H] = -2E
    assert comm.apply((1, 0, 0), (0, 1, 0)) == (F(-2), F(0), F(0))
    tr = reg.basis(i2, i2, i0)[0]
    assert tr.apply((1, 0, 0), (0, 0, 1)) == (F(1),)  # tr(EF) = 1
    act = reg.basis(i2, i1, i1)[0]
    assert act.apply((1, 0, 0), (0, 1)) == (F(1), F(0))  # E acting on e2 gives e1


def test_sl2_braiding_convention():
    reg = builtin_labeling("SL2")
    i1, i2 = IrrepId("SL2", 1), IrrepId("SL2", 2)
    m21 = reg.basis(i2, i1, i1)[0]
    m12 = reg.basis(i1, i2, i1)[0]
    for a in range(3):
        A = tuple(F(1 if t == a else 0) for t in range(3))
        for x in range(2):
            v = tuple(F(1 if t == x else 0) for t in range(2))
            assert m12.apply(v, A) == m21.apply(A, v)


def test_glk_symmetric_map_vanishes_at_k2_and_k3_value():
    reg3 = builtin_labeling("GLk", k=3)
    iad = IrrepId("GL3", "adjoint")
    assert reg3.d(iad, iad, iad) == 2
    reg2 = builtin_labeling("GLk", k=2)
    iad2 = IrrepId("GL2", "adjoint")
    assert reg2.d(iad2, iad2, iad2) == 1
    # independence of the two k=3 maps as bilinear maps
    m1, m2 = reg3.basis(iad, iad, iad)
    rows = [list(m1.matrix.row(i)) for i in range(m1.matrix.nrows)]
    rows2 = [list(m2.matrix.row(i)) for i in range(m2.matrix.nrows)]
    flat1 = [x for r in rows for x in r]
    flat2 = [x for r in rows2 for x in r]
    M = Matrix.from_rows([flat1, flat2])
    assert M.rank() == 2


def test_glk_sym_map_against_matrix_formula():
    k = 3
    sparse_basis = glk_basis(k)
    dense = [[[B.get((i, j), F(0)) for j in range(k)] for i in range(k)]
             for B in sparse_basis]
    reg = builtin_labeling("GLk", k=k)
    iad = IrrepId("GL%d" % k, "adjoint")
    msym = reg.basis(iad, iad, iad)[1]
    # independent oracle: evaluate AB+BA-(2/k)tr(AB)I with dense arithmetic
    import itertools
    for a, b in itertools.product(range(len(dense)), repeat=2):
        A, B = dense[a], dense[b]
        AB = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k)]
              for i in range(k)]
        BA = [[sum(B[i][t] * A[t][j] for t in range(k)) for j in range(k)]
              for i in range(k)]
        tr = sum(AB[i][i] for i in range(k))
        S = {(i, j): AB[i][j] + BA[i][j] - (F(2, k) * tr if i == j else 0)
             for i in range(k) for j in range(k)}
        ua = tuple(F(1 if t == a else 0) for t in range(len(dense)))
        ub = tuple(F(1 if t == b else 0) for t in range(len(dense)))
        assert list(msym.apply(ua, ub)) == glk_coords(S, k)


def _dense(A, k):
    return [[A.get((i, j), 0) for j in range(k)] for i in range(k)]


def _dense_mul(A, B):
    k = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)]


def _random_sparse(rng, k):
    A = {(i, j): F(rng.randint(-3, 3), rng.randint(1, 2))
         for i in range(k) for j in range(k) if rng.random() < 0.6}
    return {key: v for key, v in A.items() if v}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_glk_kit_against_dense_matrices(k):
    # independent oracle: dense list-of-lists arithmetic, and coordinates
    # solved against the dense basis matrices rather than read off
    rng = random.Random(40 + k)
    basis = glk_basis(k)
    dbasis = [_dense(b, k) for b in basis]
    flat = lambda M: [x for row in M for x in row]
    B = Matrix.from_cols([flat(D) for D in dbasis], nrows=k * k)

    def coords(M):
        x, K = solve(B, flat(M))
        assert K.dim == 0
        return list(x)

    for _ in range(12):
        A, C = _random_sparse(rng, k), _random_sparse(rng, k)
        dA, dC = _dense(A, k), _dense(C, k)
        AC, CA = _dense_mul(dA, dC), _dense_mul(dC, dA)
        tr = sum(AC[i][i] for i in range(k))
        assert smat_trace_prod(A, C) == tr
        comm = smat_comm(A, C)
        assert 0 not in comm.values()
        assert _dense(comm, k) == [[AC[i][j] - CA[i][j] for j in range(k)]
                                   for i in range(k)]
        sym = smat_sym(A, C, k)
        assert 0 not in sym.values()
        assert _dense(sym, k) == [
            [AC[i][j] + CA[i][j] - (F(2, k) * tr if i == j else 0)
             for j in range(k)] for i in range(k)]
        # ad(A) on a random traceless X, through its coordinates
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
        dX = [[sum(c * D[i][j] for c, D in zip(x, dbasis)) for j in range(k)]
              for i in range(k)]
        XA = _dense_mul(dX, dA)
        AX = _dense_mul(dA, dX)
        want = coords([[AX[i][j] - XA[i][j] for j in range(k)]
                       for i in range(k)])
        assert list(glk_ad(A, k, basis).matvec(x)) == want


def glk_matrix(coords, basis):
    """The sparse matrix sum of coords[t] * basis[t]: with ``basis`` from
    glk_basis(k), the inverse of glk_coords."""
    A = {}
    for x, B in zip(coords, basis):
        for key, v in B.items():
            A[key] = A.get(key, 0) + x * v
    return {key: v for key, v in A.items() if v}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_glk_matrix_and_glk_coords_round_trip(k):
    rng = random.Random(50 + k)
    basis = glk_basis(k)
    for _ in range(20):
        c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
        A = glk_matrix(c, basis)
        assert 0 not in A.values()
        assert glk_coords(A, k) == c
        T = _random_sparse(rng, k)
        T[(k - 1, k - 1)] = T.get((k - 1, k - 1), 0) - sum(
            T.get((i, i), 0) for i in range(k))
        T = {key: v for key, v in T.items() if v}
        assert glk_matrix(glk_coords(T, k), basis) == T


def _glk_coords_dense(A, k):
    """Reference for glk_coords: every slot of the dense matrix read in the
    glk_basis order."""
    D = _dense(A, k)
    coords = [D[i][j] for i in range(k) for j in range(k) if i != j]
    return coords + [sum(D[t][t] for t in range(i + 1)) for i in range(k - 1)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_glk_coords_reads_the_stored_entries(k):
    rng = random.Random(60 + k)
    for _ in range(20):
        T = _random_sparse(rng, k)
        T[(k - 1, k - 1)] = T.get((k - 1, k - 1), 0) - sum(
            T.get((i, i), 0) for i in range(k))
        assert glk_coords(T, k) == _glk_coords_dense(T, k)
    with pytest.raises(ValueError, match="not traceless"):
        glk_coords({(0, 0): 1}, k)
    for key in ((k, 0), (0, k), (-1, 1)):
        with pytest.raises(ValueError, match=re.escape("entry %r is outside"
                                                       % (key,))):
            glk_coords({key: 1}, k)


def test_irrep_id_is_a_tuple_with_the_dataclass_surface():
    a = IrrepId("SL2", 1)
    assert repr(a) == "IrrepId(group='SL2', label=1)"
    assert str(a) == "SL2:1"
    assert a.to_json() == {"group": "SL2", "label": 1}
    assert (a.group, a.label) == ("SL2", 1)
    assert a == IrrepId("SL2", 1) and hash(a) == hash(IrrepId("SL2", 1))
    assert a != IrrepId("SL2", 2) and a != IrrepId("GL2", 1)
    ids = [IrrepId("S3", "tr"), IrrepId("GL3", "adjoint"), a]
    assert sorted(ids, key=str) == [IrrepId("GL3", "adjoint"),
                                    IrrepId("S3", "tr"), a]
    # a tuple of ids is sorted by str through the repr of each
    assert str((a,)) == "(IrrepId(group='SL2', label=1),)"


def test_check_equivariance_names_the_broken_map():
    for group, i1, i2, j, rows in [
            ("SL2", 1, 1, 0, [[1, 0, 0, 0]]),
            ("S3", "std", "std", "tr", [[1, 0, 0, 0]])]:
        reg = builtin_labeling(group)
        t = (IrrepId(group, i1), IrrepId(group, i2), IrrepId(group, j))
        reg.maps[t] = [Intertwiner(*t, 1, Matrix.from_rows(rows))]
        with pytest.raises(AssertionError, match="non-equivariant map .* at op"):
            reg.check_equivariance()


def test_s3_intertwiner_values():
    reg = builtin_labeling("S3")
    istd, isg = IrrepId("S3", "std"), IrrepId("S3", "sg")
    msg = reg.basis(istd, istd, isg)[0]
    assert msg.apply((1, 0), (0, 1)) == (F(1),)
    assert msg.apply((0, 1), (1, 0)) == (F(-1),)
    mtr = reg.basis(istd, istd, IrrepId("S3", "tr"))[0]
    assert mtr.apply((1, 0), (1, 0)) == (F(2),)
    assert mtr.apply((1, 0), (0, 1)) == (F(1),)
    # sg/std pair coincides under the braiding
    m_s_std = reg.basis(isg, istd, istd)[0]
    m_std_s = reg.basis(istd, isg, istd)[0]
    for x in ((1, 0), (0, 1)):
        assert m_s_std.apply((1,), x) == m_std_s.apply(x, (1,))
    assert m_s_std.apply((1,), (1, 0)) == (F(1), F(-2))


def test_highest_weight_vectors_heisenberg():
    M = heisenberg_module()
    hw = highest_weight_vectors(M)
    assert [(n, len(vs)) for n, vs in hw] == [(1, 1), (0, 1)]
    assert hw[0][1][0] == (F(1), F(0), F(0))  # x_1
    assert hw[1][1][0] == (F(0), F(0), F(1))  # h_0


def test_highest_weight_vectors_model_irrep():
    reg = builtin_labeling("SL2")
    for n in (0, 1, 2):
        m = reg.models[IrrepId("SL2", n)]
        M = GModule("SL2", m.dim, m.action)
        hw = highest_weight_vectors(M)
        assert [(w, len(vs)) for w, vs in hw] == [(n, 1)]
        assert hw[0][1][0] == m.hw_vector


def eigenspace_scan_reference(M):
    """Highest weight vectors the long way: the kernel of every integer shift
    H - n in [-dim, dim], checked to fill the module, then per eigenspace of
    weight n >= 0 the vectors B c with c in ker(E B), where the columns of B
    are the eigenspace's basis."""
    H, E = M.action["H"], M.action["E"]
    spaces = {}
    for n in range(-M.dim, M.dim + 1):
        K = kernel(H - Matrix.identity(M.dim).scale(n))
        if K.dim:
            spaces[n] = K
    assert sum(K.dim for K in spaces.values()) == M.dim
    out = []
    for n in sorted((w for w in spaces if w >= 0), reverse=True):
        B = Matrix(spaces[n].dim, M.dim, spaces[n].rows).transpose()
        EK = kernel(E @ B)
        if EK.dim:
            out.append((n, [B.matvec(c) for c in EK.basis]))
    return out


def _random_invertible(rng, d):
    while True:
        P = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(d)]
                              for _ in range(d)])
        if P.rank() == d:
            return P


def _reference_modules():
    from gtables.gallery import gln_sl2_tables, heisenberg_pipeline, sl3_fixture
    rng = random.Random(18)
    reg = builtin_labeling("SL2")
    for t in range(35):
        weights = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        M = block_decomposition(reg, [("S%d" % i, IrrepId("SL2", w))
                                      for i, w in enumerate(weights)]).module
        P = _random_invertible(rng, M.dim)
        Pinv = P.inverse()
        yield "conjugate%d" % t, GModule("SL2", M.dim, {
            op: P @ X @ Pinv for op, X in M.action.items()})
    for label, m in sl2_poly_labeling(4).models.items():
        yield "poly%s" % label.label, GModule("SL2", m.dim, m.action)
    yield "heisenberg", heisenberg_pipeline().module
    yield "sl3", sl3_fixture().tables["table"].source.module
    yield "gln3", gln_sl2_tables(3)[0].source.module


def test_highest_weight_vectors_match_the_eigenspace_scan():
    modules = list(_reference_modules())
    assert len(modules) >= 40
    for name, M in modules:
        got, want = highest_weight_vectors(M), eigenspace_scan_reference(M)
        assert got == want, name
        # the same scalar types too: int where integral, else Fraction
        assert [[tuple(map(type, v)) for v in vs] for _, vs in got] == \
            [[tuple(map(type, v)) for v in vs] for _, vs in want], name


def test_highest_weight_scan_bounded_by_the_norm_of_h(monkeypatch):
    # the 18-dimensional H_E(h3) has weights in [-2, 2]: one kernel of E,
    # then one kernel of H - n on it per weight 2, 1, 0, where a scan of
    # every weight up to the dimension would take 1 + 19
    from gtables import repkit
    from gtables.gallery import heisenberg_pipeline
    module = heisenberg_pipeline().module
    calls = []
    real = repkit.kernel

    def counted(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(repkit, "kernel", counted)
    hw = highest_weight_vectors(module)
    assert [(n, len(vs)) for n, vs in hw] == [(2, 2), (1, 4), (0, 4)]
    assert len(calls) == 4


def test_decompose_sl2_heisenberg():
    reg = builtin_labeling("SL2")
    M = heisenberg_module()
    dec = decompose_sl2(M, reg, hwvs=[("h_0", 0, (0, 0, 1)), ("h_1", 1, (1, 0, 0))])
    assert [s.id for s in dec.summands] == ["h_0", "h_1"]
    assert dec.by_id["h_0"].irrep == IrrepId("SL2", 0)
    assert dec.by_id["h_0"].tau.col(0) == (F(0), F(0), F(1))
    # tau_1(1,0) = x_1 and tau_1(0,1) = F.x_1 = x_-1
    assert dec.by_id["h_1"].tau.col(0) == (F(1), F(0), F(0))
    assert dec.by_id["h_1"].tau.col(1) == (F(0), F(1), F(0))


def test_decompose_sl2_model_is_identity():
    reg = builtin_labeling("SL2")
    for n in (1, 2):
        m = reg.models[IrrepId("SL2", n)]
        M = GModule("SL2", m.dim, m.action)
        dec = decompose_sl2(M, reg)
        assert len(dec.summands) == 1
        assert dec.summands[0].tau == Matrix.identity(m.dim)


def test_decompose_sl2_auto_weights_on_c11():
    # g* (x) g for the Heisenberg algebra: weights 2, 0, 0 plus weight-1 copies
    M = heisenberg_module()
    reg = builtin_labeling("SL2")
    dual = {op: M.action[op].transpose().scale(-1) for op in ("E", "H", "F")}
    n = 3
    action = {}
    for op in ("E", "H", "F"):
        cols = []
        for i in range(n):
            for j in range(n):
                col = [F(0)] * (n * n)
                for a in range(n):
                    col[a * n + j] += dual[op][a, i]
                for b in range(n):
                    col[i * n + b] += M.action[op][b, j]
                cols.append(col)
        action[op] = Matrix.from_cols(cols, nrows=n * n)
    C11 = GModule("SL2", 9, action)
    hw = highest_weight_vectors(C11)
    mult = {w: len(vs) for w, vs in hw}
    assert mult[2] == 1 and mult[0] == 2
    dec = decompose_sl2(C11, reg)
    assert sorted(s.hwv_weight for s in dec.summands) == [0, 0, 1, 1, 2]


def test_decompose_sl2_weight_outside_the_labeling():
    # V_3 has a model in the polynomial labeling but not in the SL2 one
    m = sl2_poly_labeling(3).models[IrrepId("SL2", 3)]
    M = GModule("SL2", m.dim, m.action)
    with pytest.raises(ValueError, match="highest weight 3 is outside the "
                                         "SL2 labeling sl2-partial"):
        decompose_sl2(M, builtin_labeling("SL2"))


def test_decompose_s3_group_algebra_reference_spans():
    reg = builtin_labeling("S3")
    M = group_algebra_s3_conjugation()
    dec = decompose_s3(M, reg)
    by_label = {}
    for s in dec.summands:
        by_label.setdefault(s.irrep.label, []).append(s)
    assert len(by_label["tr"]) == 3
    assert len(by_label["sg"]) == 1
    assert len(by_label["std"]) == 1
    # sign summand is spanned by (123)-(132)
    assert by_label["sg"][0].tau.col(0) == (0, 0, 0, 0, F(1), F(-1))
    # standard summand matches u1 = (12)-(23), u2 = (12)-(13)
    std = by_label["std"][0]
    assert std.tau.col(0) == (0, F(1), F(-1), 0, 0, 0)
    assert std.tau.col(1) == (0, F(1), 0, F(-1), 0, 0)
    # trivial isotypic contains the projector 1_3 = (1/3)(2() - (123) - (132))
    cols = [list(s.tau.col(0)) for s in by_label["tr"]]
    A = Matrix.from_cols(cols, nrows=6)
    one3 = [F(2, 3), 0, 0, 0, F(-1, 3), F(-1, 3)]
    from gtables.exactla import solve
    assert solve(A, one3) is not None


def test_decompose_s3_left_regular_module():
    # K[S3] under left multiplication: tr + sg + two copies of std, each
    # copy embedded by the matrix-unit projectors of the std model
    reg = builtin_labeling("S3")
    idx = {g: i for i, g in enumerate(S3_ELEMENTS)}
    action = {g: Matrix.from_cols(
        [[1 if i == idx[s3_compose(g, h)] else 0 for i in range(6)]
         for h in S3_ELEMENTS], nrows=6) for g in S3_ELEMENTS}
    dec = decompose_s3(GModule("S3", 6, action), reg)
    assert [(s.id, s.irrep.label) for s in dec.summands] == [
        ("tr", "tr"), ("sg", "sg"), ("std.0", "std"), ("std.1", "std")]
    std = reg.models[IrrepId("S3", "std")]
    for s in dec.summands[2:]:
        for g in S3_ELEMENTS:
            assert action[g] @ s.tau == s.tau @ std.action[g]


def test_decompose_s3_std_tensor_square():
    # K2_std (x) K2_std decomposes as tr + sg + std (projector ranks 1,1,2)
    reg = builtin_labeling("S3")
    from gtables.repkit import _STD_MATRICES
    action = {}
    for g in S3_ELEMENTS:
        A = _STD_MATRICES[g]
        rows = []
        for i in range(2):
            for j in range(2):
                row = [F(A[i][a] * A[j][b]) for a in range(2) for b in range(2)]
                rows.append(row)
        action[g] = Matrix.from_rows(rows)
    M = GModule("S3", 4, action)
    dec = decompose_s3(M, reg)
    labels = sorted(s.irrep.label for s in dec.summands)
    assert labels == ["sg", "std", "tr"]


def test_decompose_s3_trivial_module():
    reg = builtin_labeling("S3")
    M = GModule("S3", 1, {g: Matrix.identity(1) for g in S3_ELEMENTS})
    dec = decompose_s3(M, reg)
    assert len(dec.summands) == 1
    assert dec.summands[0].irrep.label == "tr"


def test_poly_labeling_models():
    reg = sl2_poly_labeling(3)
    m2 = reg.models[IrrepId("SL2", 2)]
    # E = x d/dy on (x^2, xy, y^2)
    assert m2.action["E"].matvec((0, 1, 0)) == (F(1), F(0), F(0))
    assert m2.action["E"].matvec((0, 0, 1)) == (F(0), F(2), F(0))
    mult = reg.basis(IrrepId("SL2", 1), IrrepId("SL2", 2), IrrepId("SL2", 3))[0]
    # x * xy = x^2 y
    assert mult.apply((1, 0), (0, 1, 0)) == (F(0), F(1), F(0), F(0))


def test_decomposition_validation_catches_bad_tau():
    reg = builtin_labeling("SL2")
    M = heisenberg_module()
    from gtables.repkit import Summand
    bad = Summand("b", IrrepId("SL2", 0), Matrix.from_cols([(1, 0, 0)], nrows=3))
    with pytest.raises(ValueError):
        Decomposition(M, reg, [bad])


def test_decomposition_rejects_non_injective_tau():
    # a zero tau is equivariant and has the right shape, but the images
    # then fall short of the module
    from gtables.repkit import Summand
    reg = builtin_labeling("SL2")
    blocks = block_decomposition(reg, [("a", IrrepId("SL2", 0)),
                                       ("b", IrrepId("SL2", 1))])
    a, b = blocks.summands
    zero = Summand("a", a.irrep, a.tau.scale(0))
    with pytest.raises(ValueError, match="tau not injective for a"):
        Decomposition(blocks.module, reg, [zero, b])


def test_decomposition_rejects_dependent_images():
    # two injective, equivariant copies of the trivial irrep on one line
    from gtables.repkit import Summand
    reg = builtin_labeling("SL2")
    blocks = block_decomposition(reg, [("a", IrrepId("SL2", 0)),
                                       ("b", IrrepId("SL2", 0))])
    a, _ = blocks.summands
    with pytest.raises(ValueError, match="summand images are not independent"):
        Decomposition(blocks.module, reg, [a, Summand("b", a.irrep, a.tau)])


def test_decomposition_validation_takes_one_rank(monkeypatch):
    # full rank of the concatenated images implies every tau is injective
    reg = builtin_labeling("SL2")
    blocks = block_decomposition(reg, [("a", IrrepId("SL2", 0)),
                                       ("b", IrrepId("SL2", 1)),
                                       ("c", IrrepId("SL2", 2))])
    ranks = []
    real = Matrix.rank

    def counted(self):
        ranks.append(self.shape)
        return real(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    Decomposition(blocks.module, reg, blocks.summands)
    assert ranks == [(6, 6)]


def test_glk_module_checked_against_relations():
    rng = random.Random(12)
    arbitrary = {"E_%d%d" % (p, q): Matrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        for p in (1, 2) for q in (1, 2)}
    with pytest.raises(ValueError, match=r"\[E_\d\d, E_\d\d\]"):
        GModule("GLk", 2, arbitrary)
    adj = builtin_labeling("GLk", k=3).models[IrrepId("GL3", "adjoint")]
    GModule("GLk", 8, adj.action)


def test_glk_module_with_two_digit_indices_checked_against_relations():
    # GL(10) on K by the trace: E_pp acts by 1, E_pq (p != q) by 0
    trace = {"E_%d%d" % (p, q): Matrix.from_rows([[1 if p == q else 0]])
             for p in range(1, 11) for q in range(1, 11)}
    GModule("GLk", 1, trace)
    trace["E_110"] = Matrix.identity(1)  # E_{1,10} no longer commutes
    with pytest.raises(ValueError, match=r"\[E_\d+, E_\d+\] breaks the GLk"):
        GModule("GLk", 1, trace)


def test_glk_names_stay_distinct_from_k_11():
    # GL(11) on K by the trace; without a separator E_{1,11} and E_{11,1}
    # would both be "E_111"
    _, names, _ = _relations("GLk", 11)
    assert len(set(names)) == len(names) == 121
    assert {"E_1_11", "E_11_1", "E_11_11"} <= set(names)
    trace = {name: Matrix.from_rows([[1 if p == q else 0]])
             for name, (p, q) in zip(names, [(p, q) for p in range(11)
                                             for q in range(11)])}
    GModule("GLk", 1, trace)


def test_module_operators_must_be_dim_by_dim():
    action = builtin_labeling("SL2").models[IrrepId("SL2", 1)].action
    GModule("SL2", 2, action)
    with pytest.raises(ValueError, match="SL2 operator E is not 7 x 7"):
        GModule("SL2", 7, action)
    # one operator of another shape is named before any product is formed
    mixed = dict(action, H=Matrix.zeros(3, 3))
    with pytest.raises(ValueError, match="SL2 operator H is not 2 x 2"):
        GModule("SL2", 2, mixed)


def test_glk_relation_table_matches_the_commutators():
    for k in (2, 3, 4):
        finite, names, relations = _relations("GLk", k)
        unit = {"E_%d%d" % (p + 1, q + 1): {(p, q): 1}
                for p in range(k) for q in range(k)}
        assert not finite and list(names) == list(unit)
        pairs = list(combinations(names, 2))
        assert set(relations) <= set(pairs)
        for a, b in pairs:
            listed = relations.get((a, b), {})
            assert smat_comm(unit[a], unit[b]) == smat_add(
                *(smat_scale(x, unit[c]) for c, x in listed.items())), (a, b)


def test_s3_action_must_be_a_homomorphism():
    # (12) acts by -1 and (23) by 1, but their product (123) by 1
    bad = {g: Matrix.from_rows([[-1 if g == "(12)" else 1]])
           for g in S3_ELEMENTS}
    with pytest.raises(ValueError, match=re.escape(
            "(12)(23) breaks the S3 relations")):
        GModule("S3", 1, bad)


def test_every_builtin_model_satisfies_its_relations():
    registries = [builtin_labeling("SL2"), sl2_poly_labeling(4),
                  builtin_labeling("S3"),
                  *(builtin_labeling("GLk", k=k) for k in (2, 3, 4))]
    models = [(reg.group, m) for reg in registries for m in reg.models.values()]
    assert len(models) == 3 + 5 + 3 + 2 * 3
    for group, m in models:
        GModule(group, m.dim, m.action)
    # the check is not vacuous: E and F swapped on K^2 give [E, F] = -H
    v1 = builtin_labeling("SL2").models[IrrepId("SL2", 1)].action
    with pytest.raises(ValueError, match=re.escape(
            "[E, F] breaks the SL2 relations")):
        GModule("SL2", 2, dict(v1, E=v1["F"], F=v1["E"]))
    with pytest.raises(ValueError, match="unknown group 'SO3'"):
        GModule("SO3", 1, {})


def test_sl2_and_s3_modules_checked_for_their_operator_names():
    sl2 = heisenberg_module().action
    eh = {op: sl2[op] for op in ("E", "H")}
    with pytest.raises(ValueError, match="SL2 action lacks the operator F"):
        GModule("SL2", 3, eh)
    with pytest.raises(ValueError, match="SL2 action has the unknown operator X"):
        GModule("SL2", 3, dict(sl2, X=sl2["H"]))
    s3 = {g: Matrix.identity(1) for g in S3_ELEMENTS}
    del s3["(123)"]
    with pytest.raises(ValueError, match=re.escape("lacks the operator (123)")):
        GModule("S3", 1, s3)


def test_decomposition_checks_every_operator():
    # GL(3) on K by the determinant: E_pp acts by 1, E_pq (p != q) by 0.
    # Every root operator agrees with the trivial model; E_11 does not.
    det = {"E_%d%d" % (p, q): Matrix.from_rows([[1 if p == q else 0]])
           for p in (1, 2, 3) for q in (1, 2, 3)}
    module = GModule("GLk", 1, det)
    reg = builtin_labeling("GLk", k=3)
    from gtables.repkit import Summand
    s = Summand("d", IrrepId("GL3", "trivial"), Matrix.identity(1))
    with pytest.raises(ValueError, match="not equivariant for d at E_11"):
        Decomposition(module, reg, [s])


def test_in_tree_modules_validated_on_load(monkeypatch):
    from gtables.gallery import gln_tables
    from gtables.gallery.fixtures import _mk_module_and_product
    validated = []
    original = GModule.validate

    def spy(self):
        validated.append(self)
        return original(self)

    monkeypatch.setattr(GModule, "validate", spy)
    sl2 = builtin_labeling("SL2")
    gl3 = builtin_labeling("GLk", k=3)
    built = [
        gln_tables(3)[0].source.module,
        _mk_module_and_product(3)[1].module,
        block_decomposition(sl2, [("a", IrrepId("SL2", 1)),
                                  ("b", IrrepId("SL2", 2))]).module,
        block_decomposition(gl3, [("a", IrrepId("GL3", "trivial")),
                                  ("b", IrrepId("GL3", "adjoint"))]).module,
    ]
    for module in built:
        assert any(m is module for m in validated), module


