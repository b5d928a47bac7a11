import copy
import json
import os
import subprocess
import sys

import pytest

from gtables.cli import main
from gtables.repkit import S3_ELEMENTS

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# 3-dimensional algebra with [x1, x-1] = h0, injected summands
H3_SPEC = {
    "group": "SL2",
    "dim": 3,
    "action": {
        "E": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        "H": [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        "F": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
    },
    "product": [
        {"i": 0, "j": 1, "k": 2, "c": "1"},
        {"i": 1, "j": 0, "k": 2, "c": "-1"},
    ],
    "summands": [
        {"id": "h_0", "weight": 0, "hwv": ["0", "0", "1"]},
        {"id": "h_1", "weight": 1, "hwv": ["1", "0", "0"]},
    ],
}


def h3_spec(**changes):
    spec = copy.deepcopy(H3_SPEC)
    spec.update(changes)
    return spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv,name", [
    (["heisenberg", "cup"], "heisenberg_cup.txt"),
    (["heisenberg", "cup", "--format", "json"], "heisenberg_cup.json"),
    (["heisenberg", "cup", "--format", "latex"], "heisenberg_cup.tex"),
    (["heisenberg", "bracket", "--format", "json"], "heisenberg_bracket.json"),
    (["heisenberg", "report"], "heisenberg_report.txt"),
    (["gln", "tables", "--n", "3"], "gln3_tables.txt"),
    (["gln", "iso", "--n", "3", "--format", "json"], "gln3_iso.json"),
    (["s3", "table"], "s3_table.txt"),
    (["s3", "cotable"], "s3_cotable.txt"),
    (["matrix-algebra", "--k", "3"], "mk3.txt"),
    (["matrix-algebra", "--k", "2", "--format", "json"], "mk2.json"),
    (["sl3", "--format", "latex"], "sl3.tex"),
    (["poly", "--max-degree", "3"], "poly3.txt"),
    (["gln", "check", "--n", "3"], "gln3_check.txt"),
    (["heisenberg", "report", "--format", "json"], "heisenberg_report.json"),
])
def test_subcommand_golden(capsys, golden, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    golden(name, out)


def test_json_output_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "heisenberg", "bracket", "--format", "json")
    _, out2, _ = run_cli(capsys, "heisenberg", "bracket", "--format", "json")
    assert out1 == out2


def test_verify_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--module", "exactla")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_module(capsys):
    code, out, err = run_cli(capsys, "verify", "--module", "nope")
    assert code == 2


def test_gln_check_exit_codes(capsys):
    code, out, err = run_cli(capsys, "gln", "check", "--n", "2")
    assert code == 0
    code, out, err = run_cli(capsys, "gln", "iso", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("n", ["0", "1", "-1"])
def test_gln_check_rejects_n_below_2(capsys, n):
    code, out, err = run_cli(capsys, "gln", "check", "--n", n)
    assert code == 2
    assert "input error" in err and "Traceback" not in err
    assert out == ""


def test_extract_spec_matches_builtin_bracket(capsys, tmp_path):
    # the archived 18-dimensional spec file reproduces the built-in table
    spec = os.path.join(GOLDEN_DIR, "heisenberg_he.json")
    code, out, err = run_cli(capsys, "extract", "--spec", spec,
                             "--format", "json")
    assert code == 0, err
    code2, builtin, _ = run_cli(capsys, "heisenberg", "bracket",
                                "--format", "json")
    assert out == builtin


def test_extract_spec_small_algebra(capsys, tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(H3_SPEC))
    code, out, err = run_cli(capsys, "extract", "--spec", str(path),
                             "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["entries"] == [
        {"r1": "h_1", "r2": "h_1", "s": "h_0", "q": 1, "c": "1"}]


def test_extract_spec_weight_outside_the_labeling(capsys, tmp_path):
    # V_3 has no model in the SL2 labeling; found by the automatic
    # decomposition, it is an input error like an explicit summand of weight 3
    spec = {
        "group": "SL2",
        "dim": 4,
        "action": {
            "E": [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]],
            "H": [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]],
            "F": [[0, 0, 0, 0], [3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0]],
        },
        "product": [],
    }
    path = tmp_path / "v3.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "extract", "--spec", str(path))
    assert code == 2
    assert err == ("input error: highest weight 3 is outside the SL2 "
                   "labeling sl2-partial\n")
    assert out == ""


def test_extract_spec_sums_repeated_entries(capsys, tmp_path):
    # a repeated (i, j, k) entry is summed and a zero "c" adds nothing, so
    # the spec prints the same table as its merged form
    repeated = h3_spec(product=[
        {"i": 0, "j": 1, "k": 2, "c": "1/2"},
        {"i": 2, "j": 2, "k": 0, "c": "0"},
        {"i": 0, "j": 1, "k": 2, "c": "1/2"},
        {"i": 1, "j": 0, "k": 2, "c": "-1"},
        {"i": 1, "j": 1, "k": 0, "c": "3"},
        {"i": 1, "j": 1, "k": 0, "c": "-3"},
    ])
    outs = []
    for name, spec in (("merged.json", H3_SPEC), ("repeated.json", repeated)):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "extract", "--spec", str(path))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert "h_0" in outs[0]


def test_extract_spec_cotable(capsys, tmp_path):
    # componentwise product on K[S3]* via Delta(g) = g (x) g
    from gtables.repkit import S3_ELEMENTS, s3_compose
    idx = {g: i for i, g in enumerate(S3_ELEMENTS)}
    action = {}
    from gtables.repkit import group_algebra_s3_conjugation
    M = group_algebra_s3_conjugation()
    spec = {
        "group": "S3",
        "dim": 6,
        "action": {g: [[str(M.action[g][i, j]) for j in range(6)]
                       for i in range(6)] for g in S3_ELEMENTS},
        "product": [{"i": idx[a], "j": idx[b], "k": idx[s3_compose(a, b)],
                     "c": "1"} for a in S3_ELEMENTS for b in S3_ELEMENTS],
        "comultiplication": [{"i": i, "j": i, "k": i, "c": "1"}
                             for i in range(6)],
        "summands": [
            {"id": "1_1", "label": "tr",
             "vectors": [["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"]]},
            {"id": "1_2", "label": "tr",
             "vectors": [["1/6", "-1/6", "-1/6", "-1/6", "1/6", "1/6"]]},
            {"id": "1_3", "label": "tr",
             "vectors": [["2/3", "0", "0", "0", "-1/3", "-1/3"]]},
            {"id": "s_sg", "label": "sg",
             "vectors": [["0", "0", "0", "0", "1", "-1"]]},
            {"id": "A_std", "label": "std",
             "vectors": [["0", "1", "-1", "0", "0", "0"],
                         ["0", "1", "0", "-1", "0", "0"]]},
        ],
    }
    path = tmp_path / "ks3.json"
    path.write_text(json.dumps(spec))
    code, table_out, err = run_cli(capsys, "extract", "--spec", str(path))
    assert code == 0, err
    code, cot_out, err = run_cli(capsys, "extract", "--spec", str(path),
                                 "--cotable")
    assert code == 0, err
    code, builtin_t, _ = run_cli(capsys, "s3", "table")
    code, builtin_c, _ = run_cli(capsys, "s3", "cotable")
    assert table_out == builtin_t
    assert cot_out == builtin_c


def test_extract_spec_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"group\": \"SL2\"}")
    code, out, err = run_cli(capsys, "extract", "--spec", str(path))
    assert code == 2
    assert "algebra spec file" in err  # schema help printed


def test_extract_spec_invalid_action_rejected(capsys, tmp_path):
    spec = {
        "group": "SL2",
        "dim": 2,
        "action": {
            "E": [[0, 1], [0, 0]],
            "H": [[1, 0], [0, 1]],  # violates [H,E] = 2E
            "F": [[0, 0], [1, 0]],
        },
        "product": [],
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "extract", "--spec", str(path))
    assert code == 2


def test_verify_module_golden(capsys, golden):
    code, out, err = run_cli(capsys, "verify", "--module", "exactla")
    assert code == 0
    golden("verify_exactla.txt", out)


def test_verify_supercochain_golden(capsys, golden):
    code, out, err = run_cli(capsys, "verify", "--module", "supercochain")
    assert code == 0
    golden("verify_supercochain.txt", out)


@pytest.mark.parametrize("module", ["gtable", "gallery"])
def test_verify_suite_golden(capsys, golden, module):
    code, out, err = run_cli(capsys, "verify", "--module", module)
    assert code == 0
    golden("verify_%s.txt" % module, out)


def extract_in_subprocess(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run(
        [sys.executable, "-m", "gtables", "extract", "--spec", str(path)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("spec,field", [
    (h3_spec(product=[{"i": 0, "j": 1, "k": 2, "c": "1/0"}]), "product[0].c"),
    (h3_spec(dim="3"), "dim"),
    (h3_spec(action=[[0, 1, 0], [0, 0, 0], [0, 0, 0]]), "action"),
    ([H3_SPEC], "spec"),
    (h3_spec(summands=[{"id": "h_5", "weight": 5, "hwv": ["1", "0", "0"]}]),
     "summands[0].weight"),
    ({"group": "S3", "dim": 1, "action": {g: [[1]] for g in S3_ELEMENTS},
      "product": [], "summands": [{"id": "a", "label": "alt", "vectors": [["1"]]}]},
     "summands[0].label"),
    # GL(k) spec files are not supported by extract
    ({"group": "GLk", "k": 2, "dim": 1, "action": {}, "product": []},
     "unknown group"),
], ids=["zero-denominator", "string-dim", "list-action", "top-level-array",
        "unlabeled-weight", "unknown-s3-label", "glk"])
def test_extract_malformed_spec_exits_2(tmp_path, spec, field):
    proc = extract_in_subprocess(tmp_path, spec)
    assert proc.returncode == 2
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("action,message", [
    ({op: m for op, m in H3_SPEC["action"].items() if op != "F"},
     "SL2 action lacks the operator F"),
    (dict(H3_SPEC["action"], X=[[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
     "SL2 action has the unknown operator X"),
], ids=["missing-F", "extra-X"])
def test_extract_spec_operator_names_checked_by_the_module(tmp_path, action,
                                                           message):
    proc = extract_in_subprocess(tmp_path, h3_spec(action=action))
    assert proc.returncode == 2
    assert proc.stderr.startswith("bad spec file: %s\n" % message)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec,message", [
    # (12) acts by -1 and (23) by 1, but their product (123) by 1
    ({"group": "S3", "dim": 1, "product": [],
      "action": {g: [[-1 if g == "(12)" else 1]] for g in S3_ELEMENTS}},
     "(12)(23) breaks the S3 relations"),
    # [E, F] = diag(1, -1) but H = 1
    ({"group": "SL2", "dim": 2, "product": [],
      "action": {"E": [[0, 1], [0, 0]], "H": [[1, 0], [0, 1]],
                 "F": [[0, 0], [1, 0]]}},
     "[E, F] breaks the SL2 relations"),
], ids=["s3-not-a-homomorphism", "sl2-bracket"])
def test_extract_spec_relations_checked_by_the_module(tmp_path, spec, message):
    proc = extract_in_subprocess(tmp_path, spec)
    assert proc.returncode == 2
    assert proc.stderr.startswith("bad spec file: %s\n" % message)
    assert "Traceback" not in proc.stderr
