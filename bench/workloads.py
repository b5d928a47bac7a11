"""The workloads: their inputs, the operations of one pass, and the checks.

Each workload joins two parts.  A part, and a workload, has
  setup(gt)               builds the labelings and contexts it needs (timed,
                          together with the import of gtables, as setup_s);
  inputs(gt, seed, dir)   makes its inputs from the seed (not timed);
  operations(gt, data)    the fixed list of (name, callable) of one pass;
  check(gt, data, out)    {operation name: problems} for the first pass's
                          outputs, out = {operation name: output}.
``gt`` holds the gtables modules of the last fresh import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import checks

F = Fraction


def run_cli(gt, argv):
    """gtables.cli.main in process; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gt.cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------

class Heisenberg:
    """The paper's headline result through the CLI: the 18-dimensional even
    cohomology H_E with its cup and bracket tables, and its isomorphism with
    gl(3) |x gl(3)_ab.  Inputs are fixed by the paper; the seed is unused."""

    REPORT = ["heisenberg", "report", "--format", "json"]
    ISO = ["gln", "iso", "--n", "3", "--format", "json"]

    def setup(self, gt):
        gt.repkit.builtin_labeling("SL2")
        gt.supercochain.heisenberg_context()

    def inputs(self, gt, seed, workdir):
        return None

    def operations(self, gt, data):
        return [(" ".join(argv), lambda argv=argv: run_cli(gt, argv))
                for argv in (self.REPORT, self.ISO)]

    def check(self, gt, data, out):
        reg = gt.repkit.builtin_labeling("SL2")
        report, iso = (" ".join(self.REPORT), " ".join(self.ISO))
        gl_cup, gl_bracket = gt.gallery.gln_sl2_tables(3)
        return {
            report: checks.heisenberg_report_problems(*out[report], reg),
            iso: checks.iso_problems(gt, *out[iso], out[report][1], reg,
                                     gl_cup, gl_bracket),
        }


class Gln:
    """gl(n) |x gl(n)_ab tables, M_k under GL(k) and the family's axioms:
    extraction and the bilinear maps it calls, without supercochain.  Inputs
    are fixed; the seed is unused."""

    def setup(self, gt):
        gt.gallery  # gln_tables and mk_fixture are called directly
        for k in (3, 4):
            gt.repkit.builtin_labeling("GLk", k=k)

    def inputs(self, gt, seed, workdir):
        return None

    def operations(self, gt, data):
        g = gt.gallery
        return [
            ("gln_tables(3)", lambda: g.gln_tables(3)),
            ("gln_tables(4)", lambda: g.gln_tables(4)),
            ("mk_fixture(4)", lambda: g.mk_fixture(4).tables["table"]),
            ("gln_axioms(3)", lambda: g.gln_axioms(3)),
        ]

    def check(self, gt, data, out):
        g = gt.gallery
        problems = {}
        for n in (3, 4):
            tp, tb = out["gln_tables(%d)" % n]
            problems["gln_tables(%d)" % n] = (
                checks.reproduces_problems(gt, "product n=%d" % n, tp,
                                           checks.gln_expected(g, n, g.gln_product))
                + checks.reproduces_problems(gt, "bracket n=%d" % n, tb,
                                             checks.gln_expected(g, n, g.gln_bracket)))
        problems["mk_fixture(4)"] = checks.reproduces_problems(
            gt, "M_4", out["mk_fixture(4)"], checks.mk_expected(4))
        axioms = out["gln_axioms(3)"]
        problems["gln_axioms(3)"] = (
            ["axiom %s fails" % k for k, ok in axioms.items() if ok is not True]
            + ([] if len(axioms) == 4 else ["%d axioms reported" % len(axioms)]))
        return problems


class Cohomology:
    """H^p(g, Lambda^q g) for the 5-dimensional Heisenberg algebra and for
    sl(2) |x K^2, every p and q in QS, from a fresh ComplexContext per pass.
    Inputs are fixed; the seed is unused."""

    # name: (dim, brackets {(i, j): {k: c}} for i < j, q = 0 Betti numbers)
    ALGEBRAS = {
        # x1, y1, x2, y2, z with [x_i, y_i] = z; Santharoubane's Betti numbers
        "h5": (5, {(0, 1): {4: 1}, (2, 3): {4: 1}}, (1, 4, 5, 5, 4, 1)),
        # e, h, f, v1, v2; by Hochschild-Serre H*(sl2) (x) (Lambda K^2*)^sl2
        "sl2xK2": (5, {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2},
                       (0, 4): {3: 1}, (1, 3): {3: 1}, (1, 4): {4: -1},
                       (2, 3): {4: 1}}, (1, 0, 1, 1, 0, 1)),
    }
    # the rows q = 2, 3 take two thirds of the time of all rows; these four
    # rows are closed under Poincare duality q -> 5 - q
    QS = (0, 1, 4, 5)

    def setup(self, gt):
        for n, brackets, _ in self.ALGEBRAS.values():
            gt.supercochain.ComplexContext.from_brackets(n, brackets)

    def inputs(self, gt, seed, workdir):
        return None

    @staticmethod
    def op_name(name, p, q):
        return "H^{%d,%d} %s" % (p, q, name)

    def operations(self, gt, data):
        sc = gt.supercochain
        ctx = {}
        ops = []
        for name, (n, brackets, _) in self.ALGEBRAS.items():
            def build(name=name, n=n, brackets=brackets):
                ctx[name] = sc.ComplexContext.from_brackets(n, brackets)
                return ctx[name].mu
            ops.append(("context " + name, build))
            for q in self.QS:
                for p in range(n + 1):
                    ops.append((self.op_name(name, p, q),
                                lambda name=name, p=p, q=q:
                                sc.cohomology(ctx[name], p, q)))
        return ops

    def check(self, gt, data, out):
        sc = gt.supercochain
        problems = {}
        for name, (n, brackets, betti0) in self.ALGEBRAS.items():
            ctx = sc.ComplexContext.from_brackets(n, brackets)
            problems["context " + name] = (
                [] if out["context " + name] == ctx.mu else ["mu differs"])
            names = {(p, q): self.op_name(name, p, q)
                     for q in self.QS for p in range(n + 1)}
            dims = {pq: len(out[op][0]) for pq, op in names.items()}
            rows = {pq: checks.d_rows(sc, ctx, *pq) for pq in names}
            for (p, q), op in names.items():
                problems[op] = checks.representative_problems(
                    sc, ctx, p, q, out[op][0], rows.get((p - 1, q), []),
                    rows[(p, q)])
            for found in (checks.duality_problems(n, dims),
                          checks.betti_problems(dims, betti0)):
                for pq, texts in found.items():
                    problems[names[pq]] += texts
        return problems


# ---------------------------------------------------------------------------
# spec: seeded random SL2 and S3 algebras

COEFFS = [F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)]
SCALES = [F(1), F(2), F(-1), F(1, 2), F(3, 2)]

# irrep labels of the spec algebras; each multiset is used once with explicit
# summands and once with automatic decomposition.  The multisets are fixed so
# that every seed asks for the same amount of work.
SPEC_LABELS = [
    ("SL2", (2, 1, 0, 2, 1)),
    ("SL2", (1, 2, 1, 0, 2)),
    ("SL2", (2, 2, 1, 1, 0, 1)),
    ("S3", ("std", "tr", "sg", "std", "tr")),
    ("S3", ("tr", "std", "std", "sg", "sg")),
    ("S3", ("std", "std", "tr", "sg", "std", "tr")),
]
MORPHISM_SLOTS = [("SL2", (2, 1, 0, 2)), ("S3", ("std", "tr", "sg", "std"))]
MORPHISM_CASES = 24


class RandomAlgebra:
    """Block sum of model irreducibles with tau_r = scale_r * inclusion and a
    product assembled from drawn table coefficients (equivariant by
    construction)."""

    def __init__(self, rng, registry, labels, prefix):
        by_label = {i.label: i for i in registry.models}
        self.registry = registry
        self.irreps = [by_label[x] for x in labels]
        rng.shuffle(self.irreps)
        self.ids = ["%s%d" % (prefix, t) for t in range(len(self.irreps))]
        self.scales = [rng.choice(SCALES) for _ in self.irreps]
        self.cells = {}
        for t1, i1 in enumerate(self.irreps):
            for t2, i2 in enumerate(self.irreps):
                cell = {}
                for s, js in enumerate(self.irreps):
                    for q in range(1, registry.d(i1, i2, js) + 1):
                        c = rng.choice(COEFFS)
                        if c:
                            cell[(self.ids[s], q)] = c
                if cell:
                    self.cells[(self.ids[t1], self.ids[t2])] = cell

    def summands(self):
        return list(zip(self.ids, self.irreps))

    def spec(self, explicit):
        reg = self.registry
        models = [reg.models[i] for i in self.irreps]
        n, struct = checks.expand_cells(self.summands(), self.cells, reg)
        block = []
        for t, m in enumerate(models):
            block += [t] * m.dim
        sc = self.scales
        product = []
        for (i, j), row in sorted(struct.items()):
            for k, c in sorted(row.items()):
                # mu(tau e_a, tau e_b) = sum c tau_s m_q(e_a, e_b)
                c = c * sc[block[k]] / (sc[block[i]] * sc[block[j]])
                product.append({"i": i, "j": j, "k": k, "c": str(c)})
        action = {}
        for op in models[0].action:
            rows = [["0"] * n for _ in range(n)]
            pos = 0
            for m in models:
                A = m.action[op]
                for a in range(m.dim):
                    for b in range(m.dim):
                        rows[pos + a][pos + b] = str(A[a, b])
                pos += m.dim
            action[op] = rows
        out = {"group": reg.group, "dim": n, "action": action, "product": product}
        if explicit:
            out["summands"] = []
            pos = 0
            for sid, irrep, m, scale in zip(self.ids, self.irreps, models, sc):
                vecs = []
                for j in range(m.dim):
                    v = ["0"] * n
                    v[pos + j] = str(scale)
                    vecs.append(v)
                if reg.group == "SL2":
                    out["summands"].append(
                        {"id": sid, "weight": irrep.label, "hwv": vecs[0]})
                else:
                    out["summands"].append(
                        {"id": sid, "label": irrep.label, "vectors": vecs})
                pos += m.dim
        return out


class Spec:
    """Seeded SL2 and S3 algebras through `extract --spec`, half with explicit
    summands and half decomposed automatically, and a seeded corpus of the
    morphism criterion against the direct oracle."""

    def setup(self, gt):
        gt.repkit.builtin_labeling("SL2")
        gt.repkit.builtin_labeling("S3")

    def inputs(self, gt, seed, workdir):
        rng = random.Random(seed)
        regs = {g: gt.repkit.builtin_labeling(g) for g in ("SL2", "S3")}
        specs = []
        slots = [(group, labels, explicit) for group, labels in SPEC_LABELS
                 for explicit in (True, False)]
        for t, (group, labels, explicit) in enumerate(slots):
            alg = RandomAlgebra(rng, regs[group], labels, "A")
            spec = alg.spec(explicit)
            path = os.path.join(workdir, "spec%d.json" % t)
            with open(path, "w") as fh:
                json.dump(spec, fh)
            specs.append((path, spec, alg, explicit))
        cases = []
        for c in range(MORPHISM_CASES):
            group, labels = MORPHISM_SLOTS[c % len(MORPHISM_SLOTS)]
            reg = regs[group]
            tA = self._table(gt, RandomAlgebra(rng, reg, labels, "a"))
            if c % 3 == 0:
                cases.append((tA, tA, gt.gtable.GMatrix.identity(tA.source), True))
                continue
            tB = self._table(gt, RandomAlgebra(rng, reg, labels, "b"))
            entries = {}
            for x in tB.source.summands:
                for r in tA.source.summands:
                    if x.irrep == r.irrep:
                        entries[(x.id, r.id)] = rng.choice(COEFFS)
            cases.append((tA, tB, gt.gtable.GMatrix(tA.source, tB.source, entries),
                          False))
        return specs, cases

    @staticmethod
    def _table(gt, alg):
        dec = checks.block_decomposition(gt, alg.summands(), alg.registry)
        entries = {key: [(s, q, c) for (s, q), c in cell.items()]
                   for key, cell in alg.cells.items()}
        return gt.gtable.GTable(dec, dec, alg.registry, entries)

    def operations(self, gt, data):
        specs, cases = data
        ops = [("extract " + os.path.basename(path),
                lambda path=path: run_cli(gt, ["extract", "--spec", path,
                                               "--format", "json"]))
               for path, _, _, _ in specs]
        gtable = gt.gtable
        ops += [("morphism case %d" % c,
                 lambda tA=tA, tB=tB, f=f: (gtable.check_morphism(tA, tB, f),
                                            gtable.morphism_oracle(tA, tB, f)))
                for c, (tA, tB, f, _) in enumerate(cases)]
        return ops

    def check(self, gt, data, out):
        specs, cases = data
        problems = {}
        for path, spec, alg, explicit in specs:
            name = "extract " + os.path.basename(path)
            rc, text = out[name]
            if rc != 0:
                problems[name] = ["exit code %d" % rc]
            elif explicit:
                problems[name] = checks.spec_cells_problems(text, alg.cells)
            else:
                problems[name] = checks.auto_spec_problems(gt, spec, text,
                                                           alg.registry)
        for c, (_, _, _, identity) in enumerate(cases):
            name = "morphism case %d" % c
            problems[name] = checks.morphism_problems(*out[name], identity)
        return problems


class Joined:
    """The parts one after another in every pass; their operation names are
    distinct."""

    def __init__(self, *parts):
        self.parts = parts

    def setup(self, gt):
        for part in self.parts:
            part.setup(gt)

    def inputs(self, gt, seed, workdir):
        return [part.inputs(gt, seed, workdir) for part in self.parts]

    def operations(self, gt, data):
        return [op for part, d in zip(self.parts, data)
                for op in part.operations(gt, d)]

    def check(self, gt, data, out):
        problems = {}
        for part, d in zip(self.parts, data):
            problems.update(part.check(gt, d, out))
        return problems


# Two workloads rather than one per part: on a host whose cores are shared,
# the CPU speed a run gets drifts over tens of seconds, and a run twice as
# long spreads about a fifth less.  The split keeps supercochain out of
# "tables" and the spec and GL(n) work out of "paper".
WORKLOADS = {
    "paper": Joined(Heisenberg(), Cohomology()),
    "tables": Joined(Gln(), Spec()),
}
