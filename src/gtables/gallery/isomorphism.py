"""Isomorphism between the even Heisenberg cohomology and gl(3) |x gl(3)_ab.

The search uses the diagonal ansatz: a type-preserving pairing of summands
plus one scalar per summand.  Zero-pattern compatibility prunes pairings, the
scalars are then propagated through the quadratic morphism conditions of both
tables (bracket and product), free scalars default to 1, and the outcome is
verified with the coefficient criterion before being returned.
"""

from __future__ import annotations

from itertools import permutations

from ..exactla import div
from ..gtable import GMatrix, check_morphism


class NotFound(Exception):
    pass


def _relations(tA, tB, pairing):
    """Equations c * lam_s = d * lam_r1 * lam_r2 under a diagonal pairing.

    Returns a list of (s, r1, r2, ratio d/c) or None when some zero pattern is
    incompatible (forcing a zero scalar).
    """
    reg = tA.registry
    rel = []
    for r1 in tA.source.summands:
        for r2 in tA.source.summands:
            cA = tA.cell_dict(r1.id, r2.id)
            x1, x2 = pairing[r1.id], pairing[r2.id]
            cB = tB.cell_dict(x1, x2)
            for s in tA.source.summands:
                y = pairing[s.id]
                for q in range(1, reg.d(r1.irrep, r2.irrep, s.irrep) + 1):
                    c = cA.get((s.id, q), 0)
                    d = cB.get((y, q), 0)
                    if c == 0 and d == 0:
                        continue
                    if c == 0 or d == 0:
                        return None  # would force a zero scalar
                    rel.append((s.id, r1.id, r2.id, div(d, c)))
    return rel


def _propagate(ids, relations):
    """Solve lam_s = ratio * lam_r1 * lam_r2 by fixpoint; free scalars get 1.

    All scalars are nonzero, so relations with s among {r1, r2} pin the other
    factor outright, and any two known values determine the third.
    """
    lam = {}
    order = list(ids)

    def put(key, val):
        if val == 0:
            return False
        if key in lam:
            return lam[key] == val
        lam[key] = val
        return True

    for (s, r1, r2, ratio) in relations:
        # nonzero scalars make these forced regardless of other values
        if s == r1 == r2:
            if not put(s, div(1, ratio)):
                return None
        elif s == r1:
            if not put(r2, div(1, ratio)):
                return None
        elif s == r2:
            if not put(r1, div(1, ratio)):
                return None
    while True:
        before = len(lam)
        for (s, r1, r2, ratio) in relations:
            ks, k1, k2 = lam.get(s), lam.get(r1), lam.get(r2)
            if (ks is not None) + (k1 is not None) + (k2 is not None) < 2:
                continue
            if k1 is not None and k2 is not None:
                ok = put(s, ratio * k1 * k2)
            elif ks is not None and k1 is not None:
                ok = put(r2, div(ks, ratio * k1))
            else:
                ok = put(r1, div(ks, ratio * k2))
            if not ok:
                return None
        if len(lam) == len(order):
            break
        if len(lam) == before:
            free = next(i for i in order if i not in lam)
            lam[free] = 1
    for (s, r1, r2, ratio) in relations:
        if lam[s] != ratio * lam[r1] * lam[r2]:
            return None
    return lam


def find_isomorphism(he_cup, he_bracket, gl_cup, gl_bracket) -> GMatrix:
    """A G-matrix passing the morphism criterion for both structures.

    Pairings are enumerated per isotypic type in deterministic order; the
    first verified solution is returned.
    """
    A = he_bracket.source
    B = gl_bracket.source
    types = {}
    for s in A.summands:
        types.setdefault(s.irrep, [[], []])[0].append(s.id)
    for x in B.summands:
        types.setdefault(x.irrep, [[], []])[1].append(x.id)
    blocks = []
    for irrep in sorted(types, key=str):
        src, tgt = types[irrep]
        if len(src) != len(tgt):
            raise NotFound("isotypic multiplicities differ at %s" % (irrep,))
        blocks.append((src, [list(p) for p in permutations(tgt)]))

    ids = [s.id for s in A.summands]

    def assemble(choice):
        pairing = {}
        for (src, _), perm in zip(blocks, choice):
            for sid, xid in zip(src, perm):
                pairing[sid] = xid
        return pairing

    def search(level, choice):
        if level == len(blocks):
            pairing = assemble(choice)
            rel = _relations(he_bracket, gl_bracket, pairing)
            if rel is None:
                return None
            rel2 = _relations(he_cup, gl_cup, pairing)
            if rel2 is None:
                return None
            lam = _propagate(ids, rel + rel2)
            if lam is None:
                return None
            f = GMatrix(A, B, {(pairing[r], r): lam[r] for r in ids})
            if check_morphism(he_bracket, gl_bracket, f) and \
                    check_morphism(he_cup, gl_cup, f) and f.invertible():
                return f
            return None
        for perm in blocks[level][1]:
            got = search(level + 1, choice + [perm])
            if got is not None:
                return got
        return None

    got = search(0, [])
    if got is None:
        raise NotFound("no diagonal isomorphism over the enumerated pairings")
    return got
