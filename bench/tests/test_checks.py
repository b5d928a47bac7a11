"""The benchmark's own checks must catch a corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/tests

Each test checks a real output first (no problems), then corrupts one
coefficient, dimension or cell and expects the matching check to report it.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import gtables.cli  # noqa: E402
import gtables.gallery  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

F = Fraction
gt = types.SimpleNamespace(
    cli=gtables.cli, exactla=gtables.exactla, gtable=gtables.gtable,
    repkit=gtables.repkit, supercochain=gtables.supercochain,
    gallery=gtables.gallery)


def _corrupt_entry(obj, r1, r2, c):
    for e in obj["entries"]:
        if e["r1"] == r1 and e["r2"] == r2:
            e["c"] = c
            return json.dumps(obj)
    raise AssertionError("no entry (%s, %s)" % (r1, r2))


def test_heisenberg_report_check_catches_one_coefficient():
    reg = gt.repkit.builtin_labeling("SL2")
    rc, text = workloads.run_cli(gt, workloads.Heisenberg.REPORT)
    assert checks.heisenberg_report_problems(rc, text, reg) == []
    obj = json.loads(text)
    # the mirror cell (H_2^{1,1}, H_0^{1,1}) keeps -2
    obj["cup"] = json.loads(_corrupt_entry(obj["cup"], "H_0^{1,1}", "H_2^{1,1}", "-3"))
    problems = checks.heisenberg_report_problems(rc, json.dumps(obj), reg)
    assert any("commutative" in p for p in problems)

    obj = json.loads(text)
    obj["bracket"] = json.loads(
        _corrupt_entry(obj["bracket"], "H_1^{2,0}", "H_1^{0,2}", "-1"))
    assert checks.heisenberg_report_problems(rc, json.dumps(obj), reg)


def test_gln_checks_catch_one_coefficient():
    g = gt.gallery
    tp, tb = g.gln_tables(3)
    want = checks.gln_expected(g, 3, g.gln_product)
    assert checks.reproduces_problems(gt, "product", tp, want) == []
    assert checks.reproduces_problems(
        gt, "bracket", tb, checks.gln_expected(g, 3, g.gln_bracket)) == []
    entries = {key: [(s, q, c * 2 if (s, q) == ("sl(n)_ab", 2) else c)
                     for (s, q, c) in cell]
               for key, cell in tp.entries.items()}
    bad = gt.gtable.GTable(tp.source, tp.target, tp.registry, entries)
    assert checks.reproduces_problems(gt, "product", bad, want)

    table = g.mk_fixture(3).tables["table"]
    assert checks.reproduces_problems(gt, "M_3", table, checks.mk_expected(3)) == []
    entries = {key: [(s, q, c + 1 if s == "A_0" else c) for (s, q, c) in cell]
               for key, cell in table.entries.items()}
    bad = gt.gtable.GTable(table.source, table.target, table.registry, entries)
    assert checks.reproduces_problems(gt, "M_3", bad, checks.mk_expected(3))


def test_cohomology_checks_catch_one_dimension():
    sc = gt.supercochain
    n, brackets, betti0 = workloads.Cohomology.ALGEBRAS["h5"]
    ctx = sc.ComplexContext.from_brackets(n, brackets)
    reps = {(p, q): sc.cohomology(ctx, p, q)[0]
            for q in (0, 5) for p in range(n + 1)}
    dims = {pq: len(r) for pq, r in reps.items()}
    assert checks.duality_problems(n, dims) == {}
    assert checks.betti_problems(dims, betti0) == {}
    dims[(1, 0)] += 1
    assert (1, 0) in checks.duality_problems(n, dims)
    assert set(checks.betti_problems(dims, betti0)) == {(1, 0)}

    boundary = checks.d_rows(sc, ctx, 0, 0)
    d_out = checks.d_rows(sc, ctx, 1, 0)
    good = reps[(1, 0)]
    assert checks.representative_problems(sc, ctx, 1, 0, good, boundary, d_out) == []
    assert checks.representative_problems(sc, ctx, 1, 0, good[:-1], boundary, d_out)
    doubled = good[:-1] + [good[0]]
    assert checks.representative_problems(sc, ctx, 1, 0, doubled, boundary, d_out)


def test_spec_checks_catch_one_recovered_cell(tmp_path):
    reg = gt.repkit.builtin_labeling("SL2")
    alg = workloads.RandomAlgebra(random.Random(7), reg, (2, 1, 0, 2), "A")
    for explicit in (True, False):
        spec = alg.spec(explicit)
        path = tmp_path / ("spec-%s.json" % explicit)
        path.write_text(json.dumps(spec))
        rc, text = workloads.run_cli(
            gt, ["extract", "--spec", str(path), "--format", "json"])
        assert rc == 0
        obj = json.loads(text)
        e = obj["entries"][0]
        bad = _corrupt_entry(obj, e["r1"], e["r2"], str(F(e["c"]) + 1))
        if explicit:
            assert checks.spec_cells_problems(text, alg.cells) == []
            assert checks.spec_cells_problems(bad, alg.cells)
        else:
            assert checks.auto_spec_problems(gt, spec, text, reg) == []
            assert checks.auto_spec_problems(gt, spec, bad, reg)


def test_morphism_check_reports_disagreement():
    assert checks.morphism_problems(True, True, True) == []
    assert checks.morphism_problems(False, False, False) == []
    assert checks.morphism_problems(True, False, False)
    assert checks.morphism_problems(False, False, True)


def test_run_prints_one_json_result(capsys):
    assert run.main(["--workload", "tables", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    n_ops = 4 + 2 * len(workloads.SPEC_LABELS) + workloads.MORPHISM_CASES
    assert result["attempted"] == run.MIN_PASSES * n_ops
    assert {name for name, _ in run.END_TO_END} == set(result["metrics"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
