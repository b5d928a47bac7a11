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

The GL(k) labeling and the gallery share one kit on sparse {(i, j): c}
matrices (smat_*, glk_coords, glk_ad), and a direct sum of models with its
block inclusions is block_decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import isqrt
from typing import NamedTuple

from .exactla import Matrix, Subspace, canon, div, kernel


class IrrepId(NamedTuple):
    """An irreducible by group and label; a tuple, so that hashing and
    equality in the registry lookups run in C."""

    group: str  # "SL2", "S3", or "GL<k>"
    label: object  # SL2: highest weight int; S3: "tr"/"sg"/"std"; GLk: "trivial"/"adjoint"

    def to_json(self):
        return {"group": self.group, "label": self.label}

    def __str__(self):
        return "%s:%s" % (self.group, self.label)


class ModelIrrep:
    """A model irreducible: coordinate space with explicit action operators."""

    def __init__(self, id: IrrepId, dim, action, hw_vector=None):
        self.id = id
        self.dim = dim
        self.action = action  # {op name: Matrix}
        self.hw_vector = tuple(hw_vector) if hw_vector is not None else None

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
        tensor = [0] * (len(u) * d2)
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

        A Lie basis is checked by the derivation identity per operator,
        group elements by the group identity per element.
        """
        for (i1, i2, j), maps in self.maps.items():
            m1, m2, mj = self.models[i1], self.models[i2], self.models[j]
            ops = [(op, m1.action[op], m2.action[op], mj.action[op])
                   for op in mj.action]
            for m in maps:
                bad = equivariance_failure(m.apply, m1.dim, m2.dim, ops,
                                           self.group)
                if bad is not None:
                    raise AssertionError(
                        "non-equivariant map %r at op %s" % (m, bad[0]))
        return True


def equivariance_failure(f, d1, d2, ops, group):
    """The first (op, a, b) at which the bilinear map f fails to intertwine,
    or None.

    ``ops`` lists (op, A1, A2, A) with the actions on the two arguments and
    on the values.  On basis vectors e_a, e_b the check is
    f(A1 e_a, A2 e_b) == A f(e_a, e_b) when the operators are group
    elements and f(A1 e_a, e_b) + f(e_a, A2 e_b) == A f(e_a, e_b) when they
    are a Lie basis (derivations); ``_relations`` says which.
    """
    finite = _relations(group, isqrt(len(ops)))[0]
    for op, A1, A2, A in ops:
        for a in range(d1):
            u = _unit(d1, a)
            Au = A1.col(a)
            for b in range(d2):
                v = _unit(d2, b)
                if finite:
                    lhs = tuple(f(Au, A2.col(b)))
                else:
                    lhs = tuple(x + y for x, y in zip(f(Au, v), f(u, A2.col(b))))
                if lhs != A.matvec(f(u, v)):
                    return op, a, b
    return None


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


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
    return _NAME[tuple(map(_PERM[a].index, range(3)))]


def s3_sign(a):
    return -1 if a in ("(12)", "(23)", "(13)") else 1


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

def _glk_name(p, q):
    """GL(k)'s operator for the unit matrix at (p, q), counted from 0."""
    return "E_%d%d" % (p + 1, q + 1)


@cache
def _relations(group, k):
    """(finite, names, {(a, b): {c: x}}) of a group, built on first use; k
    is read for GLk only.  Group elements (finite): ab = sum x c for every
    ordered pair.  A Lie basis: [a, b] = sum x c, a before b in names, and
    a pair not listed commutes."""
    if group == "SL2":
        return False, ("E", "F", "H"), {
            ("E", "F"): {"H": 1}, ("E", "H"): {"E": -2}, ("F", "H"): {"F": 2}}
    if group == "S3":
        return True, S3_ELEMENTS, {(a, b): {s3_compose(a, b): 1}
                                   for a in S3_ELEMENTS for b in S3_ELEMENTS}
    if group != "GLk":
        raise ValueError("unknown group %r" % group)
    units = [(p, q) for p in range(k) for q in range(k)]
    relations = {}
    for (p, q), (r, s) in combinations(units, 2):
        # [E_pq, E_rs] = d_qr E_ps - d_sp E_rq, two distinct operators
        terms = {_glk_name(p, s): 1} if q == r else {}
        if s == p:
            terms[_glk_name(r, q)] = -1
        if terms:
            relations[_glk_name(p, q), _glk_name(r, s)] = terms
    return False, tuple(_glk_name(p, q) for p, q in units), relations


class GModule:
    """Finite dimensional module given by explicit action operators.

    ``action`` maps operator names to matrices: E/H/F for SL2, every group
    element for S3, ad(E_pq) operators named "E_pq" for GL(k).  ``validate``
    reads one relation table per group (``_relations``): group elements or a
    Lie basis, and a ValueError such as "[E_12, E_21] breaks the GLk
    relations" or "(12)(23) breaks the S3 relations".
    """

    def __init__(self, group, dim, action, validate=True):
        self.group = group
        self.dim = dim
        self.action = action
        if validate:
            self.validate()

    def _require_operators(self, names):
        """ValueError naming the first operator of names that the action
        lacks, or else the first one it has beyond them."""
        for op in [*names, *self.action]:
            if (op in names) != (op in self.action):
                raise ValueError("%s action %s operator %s" % (
                    self.group, "lacks the" if op in names else "has the unknown", op))

    def validate(self):
        finite, names, relations = _relations(self.group, isqrt(len(self.action)))
        self._require_operators(names)
        X = self.action
        # group elements: ab = sum x c over every ordered pair; a Lie basis:
        # ab = ba + [a, b] over every unordered pair, as [a, b] = -[b, a]
        for a, b in relations if finite else combinations(names, 2):
            rhs = None if finite else X[b] @ X[a]
            for c, x in relations.get((a, b), {}).items():
                term = X[c] if x == 1 else X[c].scale(x)
                rhs = term if rhs is None else rhs + term
            if X[a] @ X[b] != rhs:
                raise ValueError("%s breaks the %s relations" % (
                    a + b if finite else "[%s, %s]" % (a, b), self.group))

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
        for s in self.summands:
            model = self.registry.models[s.irrep]
            if s.tau.shape != (self.module.dim, model.dim):
                raise ValueError("tau shape mismatch for %s" % s.id)
            for op, X in self.module.action.items():
                if X @ s.tau != s.tau @ model.action[op]:
                    raise ValueError("tau not equivariant for %s at %s" % (s.id, op))
            total += model.dim
        if total != self.module.dim:
            raise ValueError("summand dimensions sum to %d != %d"
                             % (total, self.module.dim))
        # full rank of the concatenated images implies every tau is injective
        if self.basis_matrix().rank() != self.module.dim:
            for s in self.summands:
                if s.tau.rank() != s.tau.ncols:
                    raise ValueError("tau not injective for %s" % s.id)
            raise ValueError("summand images are not independent")

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

    def to_json(self):
        out = []
        for s in self.summands:
            entry = {"id": s.id, "irrep": s.irrep.to_json()}
            if s.hwv_weight is not None:
                entry["hwv_weight"] = s.hwv_weight
            out.append(entry)
        return out


# ---------------------------------------------------------------------------
# built-in labelings

def _poly_model(r):
    """K[x,y]_r on the monomials x^(r-j) y^j, the SL2 model of weight r."""
    dim = r + 1
    return ModelIrrep(IrrepId("SL2", r), dim, {
        "E": Matrix.from_rows([[j if j == i + 1 else 0 for j in range(dim)]
                               for i in range(dim)]),
        "H": Matrix.from_rows([[r - 2 * i if i == j else 0 for j in range(dim)]
                               for i in range(dim)]),
        "F": Matrix.from_rows([[r - j if j == i - 1 else 0 for j in range(dim)]
                               for i in range(dim)])}, hw_vector=_unit(dim, 0))


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
    i0, i1, i2 = IrrepId("SL2", 0), IrrepId("SL2", 1), IrrepId("SL2", 2)
    # adjoint coordinates over the basis (E, H, F); hw vector is E itself
    models = {i0: _poly_model(0), i1: _poly_model(1), i2: ModelIrrep(
        i2, 3, {"E": Matrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]]),
                "H": Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]),
                "F": Matrix.from_rows([[0, 0, 0], [-1, 0, 0], [0, 2, 0]])},
        hw_vector=(1, 0, 0))}
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
    basis = [{(i, j): 1} for i in range(k) for j in range(k) if i != j]
    basis.extend({(i, i): 1, (i + 1, i + 1): -1} for i in range(k - 1))
    return basis


def glk_coords(A, k):
    """Coordinates of a traceless sparse matrix in the glk_basis order.

    Only the stored entries are read: off-diagonal (i, j) is slot
    i(k - 1) + j - (j > i), and the coordinate of D_i is the sum of the
    diagonal entries up to i.  ValueError names an entry outside k x k.
    """
    off = k * (k - 1)
    coords = [0] * (off + k - 1)
    diag = [0] * k
    for (i, j), x in A.items():
        if not (0 <= i < k and 0 <= j < k):
            raise ValueError("entry %r is outside %d x %d" % ((i, j), k, k))
        if i == j:
            diag[i] = x
        else:
            coords[i * (k - 1) + j - (j > i)] = x
    if sum(diag) != 0:
        raise ValueError("matrix is not traceless")
    acc = 0
    for i in range(k - 1):
        acc += diag[i]
        coords[off + i] = acc
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
            out[key] = out.get(key, 0) + a * b
    return {key: v for key, v in out.items() if v}


def smat_add(*mats):
    """Sum of sparse {key: c} matrices (or vectors), zeros dropped."""
    out = {}
    for M in mats:
        for key, v in M.items():
            w = out.get(key, 0) + v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def smat_scale(a, A):
    return {key: a * v for key, v in A.items()} if a else {}


def smat_trace(A, k):
    return sum(A.get((i, i), 0) for i in range(k))


def smat_trace_prod(A, B):
    """tr(AB) = sum of A_ij B_ji, without forming AB."""
    acc = 0
    for (i, j), a in A.items():
        b = B.get((j, i))
        if b is not None:
            acc += a * b
    return acc


def smat_comm(A, B):
    """The commutator [A, B] = AB - BA."""
    out = smat_mul(A, B)
    for key, v in smat_mul(B, A).items():
        w = out.get(key, 0) - v
        if w:
            out[key] = w
        else:
            del out[key]
    return out


def smat_sym(A, B, k):
    """AB + BA - (2/k) tr(AB) I, the traceless symmetric product."""
    t = div(2 * smat_trace_prod(A, B), k)
    return smat_add(smat_mul(A, B), smat_mul(B, A),
                    {(i, i): -t for i in range(k)})


def glk_ad(P, k, basis):
    """Matrix of X -> [P, X] on sl(k) in glk_basis coordinates, for any
    sparse k x k matrix P; ``basis`` is glk_basis(k)."""
    return Matrix.from_cols([glk_coords(smat_comm(P, B), k) for B in basis],
                            nrows=len(basis))


def _glk_labeling(k):
    gk = "GL%d" % k
    i0 = IrrepId(gk, "trivial")
    iad = IrrepId(gk, "adjoint")
    basis = glk_basis(k)
    dim = k * k - 1
    action = {_glk_name(p, q): glk_ad({(p, q): 1}, k, basis)
              for p in range(k) for q in range(k)}
    triv = ModelIrrep(i0, 1, {op: Matrix.zeros(1, 1) for op in action})
    adj = ModelIrrep(iad, dim, action)
    models = {i0: triv, iad: adj}

    def bilinear(fun, dout):
        cols = [fun(A, B) for A in basis for B in basis]
        return Matrix.from_cols(cols, nrows=dout)

    maps = {}
    _unit_maps(models, maps)
    maps[(iad, iad, i0)] = [Intertwiner(
        iad, iad, i0, 1, bilinear(lambda A, B: [smat_trace_prod(A, B)], 1))]
    ad_maps = [Intertwiner(iad, iad, iad, 1, bilinear(
        lambda A, B: glk_coords(smat_comm(A, B), k), dim))]
    if k > 2:  # the symmetric map vanishes identically at k = 2
        ad_maps.append(Intertwiner(iad, iad, iad, 2, bilinear(
            lambda A, B: glk_coords(smat_sym(A, B, k), k), dim)))
    maps[(iad, iad, iad)] = ad_maps
    return IntertwinerRegistry("GLk", "glk-partial-k%d" % k, models, maps)


def _s3_labeling():
    itr = IrrepId("S3", "tr")
    isg = IrrepId("S3", "sg")
    istd = IrrepId("S3", "std")
    one = lambda x: {g: Matrix.from_rows([[x(g)]]) for g in S3_ELEMENTS}
    mtr = ModelIrrep(itr, 1, one(lambda g: 1))
    msg = ModelIrrep(isg, 1, one(lambda g: s3_sign(g)))
    mstd = ModelIrrep(istd, 2,
                      {g: Matrix.from_rows(_STD_MATRICES[g]) for g in S3_ELEMENTS})
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
    models = {IrrepId("SL2", r): _poly_model(r) for r in range(max_degree + 1)}
    maps = {}
    for r1 in range(max_degree + 1):
        for r2 in range(max_degree + 1 - r1):
            s = r1 + r2
            rows = [[0] * ((r1 + 1) * (r2 + 1)) for _ in range(s + 1)]
            for i in range(r1 + 1):
                for j in range(r2 + 1):
                    rows[i + j][i * (r2 + 1) + j] = 1
            t = (IrrepId("SL2", r1), IrrepId("SL2", r2), IrrepId("SL2", s))
            maps[t] = [Intertwiner(*t, 1, Matrix.from_rows(rows))]
    return IntertwinerRegistry("SL2", "sl2-poly", models, maps)


# ---------------------------------------------------------------------------
# decompositions

def highest_weight_vectors(M: GModule):
    """Per weight n >= 0, the reduced echelon basis of ker(E) within the
    H-eigenspace of n.

    Returns [(n, [vectors])] with n descending.  M has passed the sl(2)
    relation check, so it is a direct sum of irreducibles (Weyl, in
    characteristic 0) and ker(E) is spanned by their highest weight vectors.
    Those have integer weights n >= 0, so no negative weight is scanned.  H
    maps ker(E) into itself ([H, E] = 2E): with the basis of ker(E) as the
    columns of B, the vectors of weight n are B c for c in ker((H - n) B).
    """
    H = M.action["H"]
    # an eigenvalue n of H has |n| <= max_i sum_j |H_ij| (Gershgorin)
    radius = [0] * M.dim
    for i, _, x in H.entries():
        radius[i] += abs(x)
    bound = min(M.dim, int(max(radius, default=0)))
    K = kernel(M.action["E"])
    B = Matrix(K.dim, M.dim, K.rows).transpose()
    HB = H @ B
    out = []
    for n in range(bound, -1, -1):
        C = kernel(HB - B.scale(n))
        if C.dim:
            out.append((n, [B.matvec(c) for c in C.basis]))
    return out


def sl2_summand(module, registry, weight, hwv, sid):
    """Embed the weight-n model along the F-orbit of the given highest weight vector."""
    model = registry.models.get(IrrepId("SL2", weight))
    if model is None:
        raise ValueError("highest weight %d is outside the SL2 labeling %s"
                         % (weight, registry.labeling))
    Fmod = module.action["F"]
    Fmodel = model.action["F"]
    w = tuple(map(canon, hwv))
    cols_module = [w]
    v = list(model.hw_vector)
    cols_model = [tuple(v)]
    for _ in range(model.dim - 1):
        cols_module.append(Fmod.matvec(cols_module[-1]))
        v = Fmodel.matvec(v)
        cols_model.append(tuple(v))
    P = Matrix.from_cols(cols_model, nrows=model.dim)
    W = Matrix.from_cols(cols_module, nrows=module.dim)
    # tau P = W
    tau = W @ P.inverse()
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


def block_decomposition(registry: IntertwinerRegistry, summands) -> Decomposition:
    """The direct sum of the registry's models, one block per (id, irrep) in
    ``summands``, decomposed by the block inclusions.

    The module acts by the block-diagonal matrices of the model actions.  A
    summand whose model has a highest weight vector (SL2) records its weight.
    """
    models = [registry.models[irrep] for _, irrep in summands]
    dim = sum(m.dim for m in models)
    action = {op: Matrix.block_diag([m.action[op] for m in models])
              for op in models[0].action}
    module = GModule(registry.group, dim, action)
    out = []
    off = 0
    for (sid, irrep), m in zip(summands, models):
        tau = Matrix.from_cols([_unit(dim, off + j) for j in range(m.dim)],
                               nrows=dim)
        weight = irrep.label if m.hw_vector is not None else None
        out.append(Summand(sid, irrep, tau, hwv_weight=weight))
        off += m.dim
    return Decomposition(module, registry, out)


def decompose_s3(M: GModule, registry: IntertwinerRegistry, generators=None) -> Decomposition:
    """Decompose an S3 module by the matrix-unit projectors of the models.

    ``generators`` optionally injects summands as a list of
    (id, label, [vectors]) where 1-dimensional types take one vector and the
    standard type takes the images of e1, e2.  Otherwise, for each of the
    registry's models in order, the copies are the echelon basis of the image
    of its first projector, each completed so that it matches the model action.
    """
    if generators is not None:
        summands = []
        for sid, label, vecs in generators:
            irrep = IrrepId("S3", label)
            tau = Matrix.from_cols(vecs, nrows=M.dim)
            summands.append(Summand(sid, irrep, tau))
        return Decomposition(M, registry, summands)

    summands = []
    # per model rho of dimension d: p_i = (d/6) sum_g rho(g^-1)[0, i] pi(g);
    # the copies are the echelon basis of im(p_0), each embedded by p_i v
    for model in registry.models.values():
        p = []
        for i in range(model.dim):
            acc = Matrix.zeros(M.dim, M.dim)
            for g in S3_ELEMENTS:
                coef = model.action[s3_inverse(g)][0, i]
                if coef:
                    acc = acc + M.action[g].scale(coef)
            p.append(acc.scale(div(model.dim, 6)))
        copies = Subspace(M.dim, [p[0].col(j) for j in range(M.dim)]).basis
        label = model.id.label
        for t, v in enumerate(copies):
            sid = "%s.%d" % (label, t) if len(copies) > 1 else label
            summands.append(Summand(sid, model.id, Matrix.from_cols(
                [pi.matvec(v) for pi in p], nrows=M.dim)))
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
    return GModule("S3", 6, action)
