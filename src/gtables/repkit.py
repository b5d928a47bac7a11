"""Representation infrastructure: model irreducibles, intertwiner bases, decompositions.

Three labelings are built in:

* SL2 -- models V_0 = K, V_1 = K^2, V_2 = sl(2) (adjoint), with the
  determinant pairing, the symmetric map into sl(2), matrix-vector action,
  trace form and commutator as the chosen intertwiner bases;
* GL(k) -- trivial and adjoint (traceless k x k) models, with tr(AB), [A,B]
  and AB+BA-(2/k)tr(AB)I as intertwiners (the symmetric one vanishes at k=2
  and is omitted there);
* S3 -- trivial, sign and standard models with explicit numeric intertwiners.

A separate SL2 labeling by homogeneous polynomial degree (models K[x,y]_r,
intertwiner = polynomial multiplication) supports graded polynomial algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .exactla import Matrix, Subspace, kernel, solve

F = Fraction


class NonDiagonalizableH(Exception):
    """H is not diagonalizable over Q with integer eigenvalues."""


@dataclass(frozen=True)
class IrrepId:
    group: str  # "SL2", "S3", or "GL<k>"
    label: object  # SL2: highest weight int; S3: "tr"/"sg"/"std"; GLk: "trivial"/"adjoint"

    def to_json(self):
        return {"group": self.group, "label": self.label}

    def __str__(self):
        return "%s:%s" % (self.group, self.label)


class ModelIrrep:
    """A model irreducible: coordinate space with explicit action operators."""

    def __init__(self, id: IrrepId, dim, action, hw_vector=None, basis_names=None):
        self.id = id
        self.dim = dim
        self.action = action  # {op name: Matrix}
        self.hw_vector = tuple(hw_vector) if hw_vector is not None else None
        self.basis_names = basis_names

    def __repr__(self):
        return "ModelIrrep(%s, dim %d)" % (self.id, self.dim)


class Intertwiner:
    """Equivariant bilinear map between model spaces, stored on the tensor basis.

    ``matrix`` has shape dim(target) x (dim(i1)*dim(i2)); tensor index is
    lexicographic, i*dim(i2)+j.
    """

    def __init__(self, i1: IrrepId, i2: IrrepId, j: IrrepId, q, matrix: Matrix):
        self.i1 = i1
        self.i2 = i2
        self.j = j
        self.q = q
        self.matrix = matrix

    def apply(self, u, v):
        d2 = len(v)
        tensor = [F(0)] * (len(u) * d2)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        tensor[i * d2 + j] = a * b
        return self.matrix.matvec(tensor)

    def __repr__(self):
        return "Intertwiner(%s x %s -> %s, q=%d)" % (self.i1, self.i2, self.j, self.q)


class IntertwinerRegistry:
    """Models plus the fixed bases of Hom(V_i1 (x) V_i2, V_j)."""

    def __init__(self, group, labeling, models, maps):
        self.group = group
        self.labeling = labeling
        self.models = models  # {IrrepId: ModelIrrep}
        self.maps = maps  # {(IrrepId, IrrepId, IrrepId): [Intertwiner,...]}

    def d(self, i1, i2, j):
        return len(self.maps.get((i1, i2, j), ()))

    def basis(self, i1, i2, j):
        return self.maps.get((i1, i2, j), ())

    def check_equivariance(self):
        """Verify every stored map intertwines the model actions.

        For Lie-type groups the derivation identity is checked per operator;
        for S3 the group identity is checked per element.
        """
        for (i1, i2, j), maps in self.maps.items():
            m1, m2, mj = self.models[i1], self.models[i2], self.models[j]
            for m in maps:
                for op in mj.action:
                    A1, A2, Aj = m1.action[op], m2.action[op], mj.action[op]
                    for a in range(m1.dim):
                        u = _unit(m1.dim, a)
                        for b in range(m2.dim):
                            v = _unit(m2.dim, b)
                            if self.group == "S3":
                                lhs = m.apply(A1.matvec(u), A2.matvec(v))
                                rhs = Aj.matvec(m.apply(u, v))
                            else:
                                lhs = _vadd(m.apply(A1.matvec(u), v),
                                            m.apply(u, A2.matvec(v)))
                                rhs = Aj.matvec(m.apply(u, v))
                            if lhs != rhs:
                                raise AssertionError(
                                    "non-equivariant map %r at op %s" % (m, op))
        return True


def _unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return tuple(v)


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def generator_sample(group, action_keys):
    """Operator names whose equivariance implies it for the whole action.

    S3 is generated by (12) and (123); for GL(k) the ad operators of the
    simple root elements E_{i,i+1}, E_{i+1,i} generate every ad(E_pq) identity
    (derivations compose); SL2 keeps its three operators.
    """
    keys = list(action_keys)
    if group == "S3":
        return [k for k in ("(12)", "(123)") if k in keys] or keys
    if group == "GLk":
        simple = [k for k in keys if k.startswith("E_")
                  and abs(int(k[2]) - int(k[3])) == 1]
        return simple or keys
    return keys


# ---------------------------------------------------------------------------
# S3 permutations

S3_ELEMENTS = ["()", "(12)", "(23)", "(13)", "(123)", "(132)"]

_PERM = {
    "()": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(23)": (0, 2, 1),
    "(13)": (2, 1, 0),
    "(123)": (1, 2, 0),  # 1->2, 2->3, 3->1
    "(132)": (2, 0, 1),
}
_NAME = {p: n for n, p in _PERM.items()}


def s3_compose(a, b):
    """Product ab, acting right to left (apply b first)."""
    pa, pb = _PERM[a], _PERM[b]
    return _NAME[tuple(pa[pb[i]] for i in range(3))]


def s3_inverse(a):
    p = _PERM[a]
    inv = [0, 0, 0]
    for i in range(3):
        inv[p[i]] = i
    return _NAME[tuple(inv)]


def s3_sign(a):
    return -1 if a in ("(12)", "(23)", "(13)") else 1


S3_CHARACTERS = {
    "tr": {g: F(1) for g in S3_ELEMENTS},
    "sg": {g: F(s3_sign(g)) for g in S3_ELEMENTS},
    "std": {"()": F(2), "(12)": F(0), "(23)": F(0), "(13)": F(0),
            "(123)": F(-1), "(132)": F(-1)},
}

_STD_MATRICES = {
    "()": [[1, 0], [0, 1]],
    "(12)": [[0, 1], [1, 0]],
    "(23)": [[1, 0], [-1, -1]],
    "(13)": [[-1, -1], [0, 1]],
    "(123)": [[-1, -1], [1, 0]],
    "(132)": [[0, 1], [-1, -1]],
}


# ---------------------------------------------------------------------------
# modules

class GModule:
    """Finite dimensional module given by explicit action operators.

    ``action`` maps operator names to matrices: E/H/F for SL2, every group
    element for S3, ad(E_pq) operators named "E_pq" for GL(k).
    """

    def __init__(self, group, dim, action, basis_names=None, validate=True):
        self.group = group
        self.dim = dim
        self.action = action
        self.basis_names = basis_names or ["e%d" % i for i in range(dim)]
        if validate:
            self.validate()

    def validate(self):
        if self.group == "SL2":
            E, H, Fm = self.action["E"], self.action["H"], self.action["F"]
            same = lambda A, B: A == B
            if not same(E @ Fm - Fm @ E, H):
                raise ValueError("[E,F] != H")
            if not same(H @ E - E @ H, E.scale(2)):
                raise ValueError("[H,E] != 2E")
            if not same(H @ Fm - Fm @ H, Fm.scale(-2)):
                raise ValueError("[H,F] != -2F")
        elif self.group == "S3":
            for a in S3_ELEMENTS:
                for b in S3_ELEMENTS:
                    if self.action[a] @ self.action[b] != self.action[s3_compose(a, b)]:
                        raise ValueError("S3 action is not a homomorphism")
        elif self.group == "GLk":
            k = isqrt(len(self.action))
            names = ["E_%d%d" % (p, q) for p in range(1, k + 1)
                     for q in range(1, k + 1)]
            if set(names) != set(self.action):
                raise ValueError("a GL(k) action needs the k^2 operators E_pq")
            X = self.action
            zero = Matrix.zeros(self.dim, self.dim)
            # [X_pq, X_rs] = d_qr X_ps - d_sp X_rq is antisymmetric in the
            # two operators, so each unordered pair is checked once
            for a, b in combinations(names, 2):
                p, q, r, s = a[2], a[3], b[2], b[3]
                rhs = zero
                if q == r:
                    rhs = rhs + X["E_" + p + s]
                if s == p:
                    rhs = rhs - X["E_" + r + q]
                if X[a] @ X[b] - X[b] @ X[a] != rhs:
                    raise ValueError("[%s, %s] breaks the GL(k) relations"
                                     % (a, b))

    def __repr__(self):
        return "GModule(%s, dim %d)" % (self.group, self.dim)


@dataclass
class Summand:
    id: str
    irrep: IrrepId
    tau: Matrix  # module_dim x model_dim
    hwv_weight: int | None = None


class Decomposition:
    """Direct-sum decomposition into embedded model irreducibles."""

    def __init__(self, module: GModule, registry: IntertwinerRegistry, summands,
                 validate=True):
        self.module = module
        self.registry = registry
        self.summands = list(summands)
        self.by_id = {s.id: s for s in self.summands}
        if len(self.by_id) != len(self.summands):
            raise ValueError("duplicate summand ids")
        self._basis = None
        if validate:
            self.validate()

    def validate(self):
        total = 0
        cols = []
        ops = generator_sample(self.module.group, self.module.action)
        for s in self.summands:
            model = self.registry.models[s.irrep]
            if s.tau.shape != (self.module.dim, model.dim):
                raise ValueError("tau shape mismatch for %s" % s.id)
            if s.tau.rank() != model.dim:
                raise ValueError("tau not injective for %s" % s.id)
            for op in ops:
                A = model.action[op]
                if self.module.action[op] @ s.tau != s.tau @ A:
                    raise ValueError("tau not equivariant for %s at %s" % (s.id, op))
            total += model.dim
            cols.extend(s.tau.col(j) for j in range(model.dim))
        if total != self.module.dim:
            raise ValueError("summand dimensions sum to %d != %d"
                             % (total, self.module.dim))
        if Matrix.from_cols(cols, nrows=self.module.dim).rank() != self.module.dim:
            raise ValueError("summand images are not independent")

    def epsilon(self, rid):
        return self.by_id[rid].irrep

    def basis_matrix(self):
        """Columns are all tau images of model basis vectors, in summand order."""
        if self._basis is None:
            cols = []
            for s in self.summands:
                cols.extend(s.tau.col(j) for j in range(s.tau.ncols))
            self._basis = Matrix.from_cols(cols, nrows=self.module.dim)
        return self._basis

    def basis_index(self):
        """(summand id, model basis index) per concatenated-basis position."""
        out = []
        for s in self.summands:
            out.extend((s.id, j) for j in range(s.tau.ncols))
        return out

    def to_json(self, include_tau=False):
        from .exactla import scalar_to_str
        out = []
        for s in self.summands:
            entry = {"id": s.id, "irrep": s.irrep.to_json()}
            if s.hwv_weight is not None:
                entry["hwv_weight"] = s.hwv_weight
            if include_tau:
                entry["tau"] = [[scalar_to_str(s.tau[i, j])
                                 for j in range(s.tau.ncols)]
                                for i in range(s.tau.nrows)]
            out.append(entry)
        return out


# ---------------------------------------------------------------------------
# built-in labelings

def _sl2_models():
    sl2 = "SL2"
    v0 = ModelIrrep(
        IrrepId(sl2, 0), 1,
        {"E": Matrix.zeros(1, 1), "H": Matrix.zeros(1, 1), "F": Matrix.zeros(1, 1)},
        hw_vector=(F(1),), basis_names=["1"])
    v1 = ModelIrrep(
        IrrepId(sl2, 1), 2,
        {"E": Matrix.from_rows([[0, 1], [0, 0]]),
         "H": Matrix.from_rows([[1, 0], [0, -1]]),
         "F": Matrix.from_rows([[0, 0], [1, 0]])},
        hw_vector=(F(1), F(0)), basis_names=["e1", "e2"])
    # adjoint coordinates over the basis (E, H, F); hw vector is E itself
    v2 = ModelIrrep(
        IrrepId(sl2, 2), 3,
        {"E": Matrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]]),
         "H": Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]),
         "F": Matrix.from_rows([[0, 0, 0], [-1, 0, 0], [0, 2, 0]])},
        hw_vector=(F(1), F(0), F(0)), basis_names=["E", "H", "F"])
    return {m.id: m for m in (v0, v1, v2)}


def _unit_maps(models, maps):
    ids = list(models)
    zero = next(i for i in ids if _is_trivial(i))
    for i in ids:
        di = models[i].dim
        maps[(zero, i, i)] = [Intertwiner(zero, i, i, 1, Matrix.identity(di))]
        if i != zero:
            maps[(i, zero, i)] = [Intertwiner(i, zero, i, 1, Matrix.identity(di))]


def _is_trivial(i: IrrepId):
    return i.label in (0, "tr", "trivial")


def builtin_labeling(group, k=None) -> IntertwinerRegistry:
    """The fixed (partial) labeling for SL2, GL(k) or S3."""
    if group == "SL2":
        return _sl2_labeling()
    if group == "GLk":
        if k is None or k < 2:
            raise ValueError("GLk labeling needs k >= 2")
        return _glk_labeling(k)
    if group == "S3":
        return _s3_labeling()
    raise ValueError("unknown group %r" % group)


def _sl2_labeling():
    models = _sl2_models()
    i0, i1, i2 = IrrepId("SL2", 0), IrrepId("SL2", 1), IrrepId("SL2", 2)
    maps = {}
    _unit_maps(models, maps)
    mk = lambda t, rows: [Intertwiner(*t, 1, Matrix.from_rows(rows))]
    # det pairing on K^2 (x) K^2
    maps[(i1, i1, i0)] = mk((i1, i1, i0), [[0, 1, -1, 0]])
    # symmetric map into sl(2): coords over (E, H, F)
    maps[(i1, i1, i2)] = mk((i1, i1, i2),
                            [[-2, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 2]])
    # (A, x) -> x A^t; tensor order (E,H,F) x (e1,e2)
    maps[(i2, i1, i1)] = mk((i2, i1, i1),
                            [[0, 1, 1, 0, 0, 0], [0, 0, 0, -1, 1, 0]])
    # braided partner, fixed to coincide with the above
    maps[(i1, i2, i1)] = mk((i1, i2, i1),
                            [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, -1, 0]])
    # trace form tr(AB)
    maps[(i2, i2, i0)] = mk((i2, i2, i0), [[0, 0, 1, 0, 2, 0, 1, 0, 0]])
    # commutator [A, B]
    maps[(i2, i2, i2)] = mk((i2, i2, i2),
                            [[0, -2, 0, 2, 0, 0, 0, 0, 0],
                             [0, 0, 1, 0, 0, 0, -1, 0, 0],
                             [0, 0, 0, 0, 0, -2, 0, 2, 0]])
    return IntertwinerRegistry("SL2", "sl2-partial", models, maps)


def glk_basis(k):
    """Basis of sl(k) as sparse {(i,j): c} dicts: off-diagonal units E_ij in
    row-major order, then D_i = E_ii - E_{i+1,i+1}."""
    basis = []
    names = []
    for i in range(k):
        for j in range(k):
            if i != j:
                basis.append({(i, j): F(1)})
                names.append("E%d%d" % (i + 1, j + 1))
    for i in range(k - 1):
        basis.append({(i, i): F(1), (i + 1, i + 1): F(-1)})
        names.append("D%d" % (i + 1))
    return basis, names


def glk_coords(A, k):
    """Coordinates of a traceless sparse matrix in the glk_basis order."""
    if sum(A.get((i, i), F(0)) for i in range(k)) != 0:
        raise ValueError("matrix is not traceless")
    coords = [A.get((i, j), F(0)) for i in range(k) for j in range(k) if i != j]
    acc = F(0)
    for i in range(k - 1):
        acc += A.get((i, i), F(0))
        coords.append(acc)
    return coords


def smat_mul(A, B):
    """Sparse {(i,j): c} matrix product."""
    rows = {}
    for (i, j), v in B.items():
        rows.setdefault(i, []).append((j, v))
    out = {}
    for (i, t), a in A.items():
        for j, b in rows.get(t, ()):
            key = (i, j)
            out[key] = out.get(key, F(0)) + a * b
    return {key: v for key, v in out.items() if v}


def smat_sub(A, B):
    out = dict(A)
    for key, v in B.items():
        w = out.get(key, F(0)) - v
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return out


def smat_trace(A, k):
    return sum(A.get((i, i), F(0)) for i in range(k))


def _glk_labeling(k):
    gk = "GL%d" % k
    i0 = IrrepId(gk, "trivial")
    iad = IrrepId(gk, "adjoint")
    basis, names = glk_basis(k)
    dim = k * k - 1

    def ad_op(P):
        cols = [glk_coords(smat_sub(smat_mul(P, B), smat_mul(B, P)), k)
                for B in basis]
        return Matrix.from_cols(cols, nrows=dim)

    action = {}
    for p in range(k):
        for q in range(k):
            action["E_%d%d" % (p + 1, q + 1)] = ad_op({(p, q): F(1)})
    triv = ModelIrrep(i0, 1, {op: Matrix.zeros(1, 1) for op in action},
                      basis_names=["1"])
    adj = ModelIrrep(iad, dim, action, basis_names=names)
    models = {i0: triv, iad: adj}

    def bilinear(fun, dout):
        cols = [fun(A, B) for A in basis for B in basis]
        return Matrix.from_cols(cols, nrows=dout)

    def f_trace(A, B):
        return [smat_trace(smat_mul(A, B), k)]

    def f_comm(A, B):
        return glk_coords(smat_sub(smat_mul(A, B), smat_mul(B, A)), k)

    def f_sym(A, B):
        AB = smat_mul(A, B)
        BA = smat_mul(B, A)
        tr = smat_trace(AB, k)
        S = dict(AB)
        for key, v in BA.items():
            S[key] = S.get(key, F(0)) + v
        for i in range(k):
            S[(i, i)] = S.get((i, i), F(0)) - F(2, k) * tr
        return glk_coords(S, k)

    maps = {}
    _unit_maps(models, maps)
    maps[(iad, iad, i0)] = [Intertwiner(iad, iad, i0, 1, bilinear(f_trace, 1))]
    ad_maps = [Intertwiner(iad, iad, iad, 1, bilinear(f_comm, dim))]
    if k > 2:  # the symmetric map vanishes identically at k = 2
        ad_maps.append(Intertwiner(iad, iad, iad, 2, bilinear(f_sym, dim)))
    maps[(iad, iad, iad)] = ad_maps
    return IntertwinerRegistry("GLk", "glk-partial-k%d" % k, models, maps)


def _s3_labeling():
    itr = IrrepId("S3", "tr")
    isg = IrrepId("S3", "sg")
    istd = IrrepId("S3", "std")
    one = lambda x: {g: Matrix.from_rows([[x(g)]]) for g in S3_ELEMENTS}
    mtr = ModelIrrep(itr, 1, one(lambda g: 1), basis_names=["1"])
    msg = ModelIrrep(isg, 1, one(lambda g: s3_sign(g)), basis_names=["1"])
    mstd = ModelIrrep(istd, 2,
                      {g: Matrix.from_rows(_STD_MATRICES[g]) for g in S3_ELEMENTS},
                      basis_names=["e1", "e2"])
    models = {itr: mtr, isg: msg, istd: mstd}
    maps = {}
    _unit_maps(models, maps)
    mk = lambda t, rows: [Intertwiner(*t, 1, Matrix.from_rows(rows))]
    maps[(isg, isg, itr)] = mk((isg, isg, itr), [[1]])
    maps[(isg, istd, istd)] = mk((isg, istd, istd), [[1, 2], [-2, -1]])
    maps[(istd, isg, istd)] = mk((istd, isg, istd), [[1, 2], [-2, -1]])
    maps[(istd, istd, itr)] = mk((istd, istd, itr), [[2, 1, 1, 2]])
    maps[(istd, istd, isg)] = mk((istd, istd, isg), [[0, 1, -1, 0]])
    maps[(istd, istd, istd)] = mk((istd, istd, istd), [[-1, 1, 1, 2], [2, 1, 1, -1]])
    return IntertwinerRegistry("S3", "s3-full", models, maps)


def sl2_poly_labeling(max_degree) -> IntertwinerRegistry:
    """SL2 labeling by homogeneous polynomial degree; product is multiplication.

    Models are K[x,y]_r with monomial basis x^(r-j) y^j; the only chosen
    intertwiners are m^(r1,r2,r1+r2).
    """
    models = {}
    for r in range(max_degree + 1):
        dim = r + 1
        E = Matrix.zeros(dim, dim) if dim == 1 else Matrix.from_rows(
            [[F(j) if j == i + 1 else F(0) for j in range(dim)] for i in range(dim)])
        H = Matrix.from_rows(
            [[F(r - 2 * i) if i == j else F(0) for j in range(dim)]
             for i in range(dim)])
        Fm = Matrix.zeros(dim, dim) if dim == 1 else Matrix.from_rows(
            [[F(r - j) if j == i - 1 else F(0) for j in range(dim)]
             for i in range(dim)])
        models[IrrepId("SL2", r)] = ModelIrrep(
            IrrepId("SL2", r), dim, {"E": E, "H": H, "F": Fm},
            hw_vector=_unit(dim, 0),
            basis_names=["x^%dy^%d" % (r - j, j) for j in range(dim)])
    maps = {}
    for r1 in range(max_degree + 1):
        for r2 in range(max_degree + 1 - r1):
            s = r1 + r2
            rows = [[F(0)] * ((r1 + 1) * (r2 + 1)) for _ in range(s + 1)]
            for i in range(r1 + 1):
                for j in range(r2 + 1):
                    rows[i + j][i * (r2 + 1) + j] = F(1)
            t = (IrrepId("SL2", r1), IrrepId("SL2", r2), IrrepId("SL2", s))
            maps[t] = [Intertwiner(*t, 1, Matrix.from_rows(rows))]
    return IntertwinerRegistry("SL2", "sl2-poly", models, maps)


# ---------------------------------------------------------------------------
# decompositions

def highest_weight_vectors(M: GModule):
    """Per weight n >= 0, a basis of ker(E) within the H-eigenspace of n.

    Returns [(n, [vectors])] with n descending; raises NonDiagonalizableH when
    the integer eigenspaces of H do not fill the module.
    """
    H = M.action["H"]
    E = M.action["E"]
    spaces = {}
    found = 0
    for n in range(-M.dim, M.dim + 1):
        shifted = H - Matrix.identity(M.dim).scale(n)
        K = kernel(shifted)
        if K.dim:
            spaces[n] = K
            found += K.dim
    if found != M.dim:
        raise NonDiagonalizableH(
            "H eigenspaces for integer weights span %d of %d dimensions"
            % (found, M.dim))
    out = []
    for n in sorted((w for w in spaces if w >= 0), reverse=True):
        B = Matrix.from_cols([list(b) for b in spaces[n].basis], nrows=M.dim)
        EK = kernel(E @ B)
        if EK.dim:
            vecs = [B.matvec(c) for c in EK.basis]
            out.append((n, vecs))
    return out


def sl2_summand(module, registry, weight, hwv, sid):
    """Embed the weight-n model along the F-orbit of the given highest weight vector."""
    model = registry.models[IrrepId("SL2", weight)]
    Fmod = module.action["F"]
    Fmodel = model.action["F"]
    w = tuple(map(F, hwv))
    cols_module = [w]
    v = list(model.hw_vector)
    cols_model = [tuple(v)]
    for _ in range(model.dim - 1):
        cols_module.append(Fmod.matvec(cols_module[-1]))
        v = Fmodel.matvec(v)
        cols_model.append(tuple(v))
    P = Matrix.from_cols(cols_model, nrows=model.dim)
    W = Matrix.from_cols(cols_module, nrows=module.dim)
    # tau P = W, i.e. tau = W P^-1, column by column
    pinv_cols = []
    for j in range(model.dim):
        x = solve(P, _unit(model.dim, j))
        pinv_cols.append(x[0])
    tau = W @ Matrix.from_cols(pinv_cols, nrows=model.dim)
    return Summand(sid, model.id, tau, hwv_weight=weight)


def decompose_sl2(M: GModule, registry: IntertwinerRegistry, hwvs=None) -> Decomposition:
    """Decompose an SL2 module along highest weight vectors.

    ``hwvs`` optionally injects the exact generators as a list of
    (id, weight, vector); otherwise the canonical kernel bases of
    highest_weight_vectors are used, highest weight first.
    """
    if hwvs is None:
        hwvs = []
        for n, vecs in highest_weight_vectors(M):
            for i, v in enumerate(vecs):
                sid = "W%d.%d" % (n, i) if len(vecs) > 1 else "W%d" % n
                hwvs.append((sid, n, v))
    summands = [sl2_summand(M, registry, n, v, sid) for sid, n, v in hwvs]
    return Decomposition(M, registry, summands)


def s3_isotypic_projector(M: GModule, char):
    chi = S3_CHARACTERS[char]
    dim_chi = 2 if char == "std" else 1
    P = Matrix.zeros(M.dim, M.dim)
    for g in S3_ELEMENTS:
        P = P + M.action[g].scale(chi[s3_inverse(g)])
    return P.scale(F(dim_chi, 6))


def _image_basis(P: Matrix):
    V = Subspace(P.nrows, [P.col(j) for j in range(P.ncols)])
    return [list(b) for b in V.basis]


def decompose_s3(M: GModule, registry: IntertwinerRegistry, generators=None) -> Decomposition:
    """Decompose an S3 module via character projectors.

    ``generators`` optionally injects summands as a list of
    (id, label, [vectors]) where 1-dimensional types take one vector and the
    standard type takes the images of e1, e2.  Otherwise canonical bases are
    produced: echelon bases of the isotypic images for tr/sg, and for std the
    matrix-unit construction that matches the model action.
    """
    if generators is not None:
        summands = []
        for sid, label, vecs in generators:
            irrep = IrrepId("S3", label)
            tau = Matrix.from_cols([list(map(F, v)) for v in vecs], nrows=M.dim)
            summands.append(Summand(sid, irrep, tau))
        return Decomposition(M, registry, summands)

    summands = []
    for char in ("tr", "sg"):
        basis = _image_basis(s3_isotypic_projector(M, char))
        for i, v in enumerate(basis):
            sid = "%s.%d" % (char, i) if len(basis) > 1 else char
            summands.append(Summand(sid, IrrepId("S3", char),
                                    Matrix.from_cols([v], nrows=M.dim)))
    # std isotypic: p_ij = (2/6) sum_g std(g^-1)_{ji} pi(g); copies are the
    # echelon basis of im(p_11), completed by u_i = p_i1 v
    p = {}
    for i in (1, 2):
        for j in (1, 2):
            acc = Matrix.zeros(M.dim, M.dim)
            for g in S3_ELEMENTS:
                coef = F(_STD_MATRICES[s3_inverse(g)][j - 1][i - 1])
                if coef:
                    acc = acc + M.action[g].scale(coef)
            p[(i, j)] = acc.scale(F(2, 6))
    copies = _image_basis(p[(1, 1)])
    for i, v in enumerate(copies):
        u1 = p[(1, 1)].matvec(v)
        u2 = p[(2, 1)].matvec(v)
        sid = "std.%d" % i if len(copies) > 1 else "std"
        summands.append(Summand(sid, IrrepId("S3", "std"),
                                Matrix.from_cols([u1, u2], nrows=M.dim)))
    return Decomposition(M, registry, summands)


# ---------------------------------------------------------------------------
# concrete modules used across the galleries

def group_algebra_s3_conjugation() -> GModule:
    """K[S3] with S3 acting by conjugation, basis in S3_ELEMENTS order."""
    idx = {g: i for i, g in enumerate(S3_ELEMENTS)}
    action = {}
    for g in S3_ELEMENTS:
        ginv = s3_inverse(g)
        cols = []
        for h in S3_ELEMENTS:
            target = s3_compose(s3_compose(g, h), ginv)
            cols.append(_unit(6, idx[target]))
        action[g] = Matrix.from_cols(cols, nrows=6)
    return GModule("S3", 6, action, basis_names=list(S3_ELEMENTS))


def s3_group_algebra_product():
    """Structure constants of K[S3]: product of basis group elements."""
    idx = {g: i for i, g in enumerate(S3_ELEMENTS)}

    def product(u, v):
        out = [F(0)] * 6
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        out[idx[s3_compose(S3_ELEMENTS[i], S3_ELEMENTS[j])]] += a * b
        return tuple(out)

    return product
