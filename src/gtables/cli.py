"""Command line front end: fixed tables, property suites, tables from spec files.

Exit codes: 0 success, 1 fixture mismatch or property failure, 2 input error.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactla import Matrix, canon, scalar_from_str, scalar_to_str
from .gtable import (
    GTableError,
    cotable,
    extract,
    product_from_structure,
    render,
    to_json_obj,
)
from .repkit import (
    GModule,
    IrrepId,
    builtin_labeling,
    decompose_s3,
    decompose_sl2,
)

SPEC_SCHEMA_HELP = """\
algebra spec file (JSON):
{
  "group": "SL2" | "S3",
  "dim": <int>,
  "basis_names": [<str>, ...],                # optional; checked, used in no output
  "action": {"E": [[...]], "H": [[...]], "F": [[...]]}   # SL2
            or {"()": ..., "(12)": ..., ...}             # S3 (all six)
  "product": [{"i": r, "j": c, "k": t, "c": "num/den"}, ...],
  "comultiplication": [{"i":..., "j":..., "k":..., "c":...}, ...],  # optional
  "summands": [{"id": s, "weight": n, "hwv": ["num/den", ...]}, ...]   # SL2
              or [{"id": s, "label": "tr|sg|std", "vectors": [[...]]}] # S3
}
Matrix entries and coefficients are exact rationals ("3/2", "-1", 2).
All action matrices must satisfy the group relations; they are validated on
load.  Without "summands" the decomposition is computed automatically.
"""


def _print(text):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_table(table, fmt):
    _print(render(table, fmt))


def _fmt_arg(p):
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text", help="output format (default text)")


def _cmd_heisenberg(args):
    from .gallery import heisenberg_pipeline
    rep = heisenberg_pipeline()
    if args.what == "cup":
        _emit_table(rep.cup_table, args.format)
        return 0
    if args.what == "bracket":
        _emit_table(rep.bracket_table, args.format)
        return 0
    if args.format == "json":
        obj = {
            "dims": {"%d,%d" % pq: d for pq, d in sorted(rep.dims.items())},
            "total_even_dim": rep.total_even_dim,
            "verification": [
                {"summand": s, "property": name, "ok": ok}
                for (s, name, ok) in rep.verification],
            "cup": to_json_obj(rep.cup_table),
            "bracket": to_json_obj(rep.bracket_table),
        }
        _print(json.dumps(obj, indent=2))
        return 0
    lines = ["even cohomology of the Heisenberg algebra",
             "dims per bidegree:"]
    for pq, d in sorted(rep.dims.items()):
        lines.append("  H^{%d,%d}: %d" % (pq[0], pq[1], d))
    lines.append("total even dimension: %d" % rep.total_even_dim)
    lines.append("representative checks: %s"
                 % ("all passed" if rep.verified() else "FAILURES"))
    _print("\n".join(lines) + "\n")
    _print("cup product table:")
    _emit_table(rep.cup_table, args.format)
    _print("bracket table:")
    _emit_table(rep.bracket_table, args.format)
    return 0


def _cmd_gln(args):
    from .gallery import (find_isomorphism, gln_axioms, gln_sl2_tables,
                          gln_tables, heisenberg_pipeline)
    if args.what == "tables":
        tp, tb = gln_tables(args.n)
        _print("product table (n=%d):" % args.n)
        _emit_table(tp, args.format)
        _print("bracket table (n=%d):" % args.n)
        _emit_table(tb, args.format)
        return 0
    if args.what == "check":
        results = gln_axioms(args.n)
        for name, ok in results.items():
            _print("%s %s (n=%d, full basis)"
                   % ("PASS" if ok else "FAIL", name, args.n))
        return 0 if all(results.values()) else 1
    # iso
    if args.n != 3:
        sys.stderr.write("the isomorphism is built at n = 3\n")
        return 2
    rep = heisenberg_pipeline()
    gc, gb = gln_sl2_tables(3)
    # find_isomorphism returns only a map that passes the coefficient
    # criterion for both tables and is invertible; it raises otherwise
    f = find_isomorphism(rep.cup_table, rep.bracket_table, gc, gb)
    if args.format == "json":
        _print(json.dumps({
            "map": f.to_json(),
            "bracket_morphism": True,
            "product_morphism": True,
            "invertible": True,
        }, indent=2))
    else:
        _print("isomorphism with gl(3) |x gl(3)_ab:")
        for (x, r), c in sorted(f.entries.items(), key=lambda kv: kv[0][1]):
            _print("  %-11s -> %-5s  scale %s" % (r, x, scalar_to_str(c)))
        _print("bracket morphism: True")
        _print("product morphism: True")
        _print("invertible: True")
    return 0


def _cmd_fixture(args):
    """The table of a gallery fixture (s3, matrix-algebra, sl3, poly)."""
    from . import gallery
    build = getattr(gallery, args.fixture)
    rep = build(getattr(args, args.size)) if args.size else build()
    _emit_table(rep.tables[getattr(args, "what", "table")], args.format)
    return 0


def _fixture_args(p, fixture, size=None):
    """Wire a fixture subcommand to _cmd_fixture; size names its argument."""
    _fmt_arg(p)
    p.set_defaults(func=_cmd_fixture, fixture=fixture, size=size)


def _expect(value, kind, field):
    """value, if it is a JSON value of the given kind; else a ValueError naming field."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError("%s: expected %s, got %s"
                         % (field, kind.__name__, type(value).__name__))
    return value


def _get(obj, key, kind, field):
    if key not in obj:
        raise ValueError("%s: missing" % field)
    return _expect(obj[key], kind, field)


def _scalar(x, field):
    try:
        return scalar_from_str(str(x))
    except ValueError:
        raise ValueError("%s: %r is not an exact rational" % (field, x)) from None


def _vector(v, dim, field):
    if len(_expect(v, list, field)) != dim:
        raise ValueError("%s: expected %d entries, got %d" % (field, dim, len(v)))
    return [_scalar(x, "%s[%d]" % (field, i)) for i, x in enumerate(v)]


def _parse_matrix(rows, dim, field):
    if len(_expect(rows, list, field)) != dim:
        raise ValueError("%s: action matrix is not %dx%d" % (field, dim, dim))
    return Matrix.from_rows(
        [_vector(r, dim, "%s[%d]" % (field, i)) for i, r in enumerate(rows)], dim)


def _structure_constants(obj, key, dim):
    """Constants {(i, j): {k: c}} of the list obj[key], indices checked
    against dim; repeated (i, j, k) entries are summed, zero sums dropped."""
    const = {}
    for n, e in enumerate(_get(obj, key, list, key)):
        field = "%s[%d]" % (key, n)
        _expect(e, dict, field)
        ijk = tuple(_get(e, x, int, "%s.%s" % (field, x)) for x in "ijk")
        if not all(0 <= x < dim for x in ijk):
            raise ValueError("%s: structure constant index out of range" % field)
        const[ijk] = const.get(ijk, 0) + _scalar(e.get("c"), field + ".c")
    out = {}
    for (i, j, k), c in const.items():
        if c:
            out.setdefault((i, j), {})[k] = canon(c)
    return out


def _summands(obj, group, dim, registry):
    """Explicit generators in the form decompose_sl2 (hwvs) or decompose_s3
    (generators) takes: (id, weight, hwv) or (id, label, [vectors])."""
    out = []
    for n, s in enumerate(_get(obj, "summands", list, "summands")):
        field = "summands[%d]" % n
        _expect(s, dict, field)
        sid = _get(s, "id", str, field + ".id")
        if group == "SL2":
            key = "weight"
            label = _get(s, key, int, field + ".weight")
            gens = _vector(s.get("hwv"), dim, field + ".hwv")
        else:
            key = "label"
            label = _get(s, key, str, field + ".label")
            gens = [_vector(v, dim, "%s.vectors[%d]" % (field, t))
                    for t, v in enumerate(_get(s, "vectors", list,
                                               field + ".vectors"))]
        if IrrepId(group, label) not in registry.models:
            raise ValueError("%s.%s: %r is outside the %s labeling"
                             % (field, key, label, group))
        out.append((sid, label, gens))
    return out


def load_spec(path):
    """Read and check a spec file.

    Returns (registry, module, product, delta, summands).  The product and
    the comultiplication delta are structure constants {(i, j): {k: c}}
    (``gtable.product_from_structure``, ``gtable.cotable``); delta and
    summands are None when the file has no comultiplication or explicit
    summands.
    Malformed content raises ValueError naming the offending field.
    """
    with open(path) as fh:
        obj = _expect(json.load(fh), dict, "spec")
    group = _get(obj, "group", str, "group")
    if group not in ("SL2", "S3"):
        raise ValueError("unknown group %r" % group)
    registry = builtin_labeling(group)
    dim = _get(obj, "dim", int, "dim")
    if dim < 1:
        raise ValueError("dim: expected a positive integer, got %d" % dim)
    action = {op: _parse_matrix(rows, dim, "action.%s" % op)
              for op, rows in _get(obj, "action", dict, "action").items()}
    names = obj.get("basis_names")
    if names is not None and (len(_expect(names, list, "basis_names")) != dim
                              or not all(isinstance(x, str) for x in names)):
        raise ValueError("basis_names: expected %d strings" % dim)
    module = GModule(group, dim, action)
    product = _structure_constants(obj, "product", dim)
    delta = None
    if "comultiplication" in obj:
        delta = _structure_constants(obj, "comultiplication", dim)
    summands = None
    if "summands" in obj:
        summands = _summands(obj, group, dim, registry)
    return registry, module, product, delta, summands


def _cmd_extract(args):
    try:
        registry, module, product, delta, summands = load_spec(args.spec)
    except (OSError, ValueError) as e:
        sys.stderr.write("bad spec file: %s\n" % e)
        sys.stderr.write(SPEC_SCHEMA_HELP)
        return 2
    if registry.group == "SL2":
        dec = decompose_sl2(module, registry, hwvs=summands)
    else:
        dec = decompose_s3(module, registry, generators=summands)
    if args.cotable:
        if delta is None:
            sys.stderr.write("--cotable needs a comultiplication field\n")
            return 2
        table = cotable(delta, dec, registry)
    else:
        table = extract(product_from_structure(module.dim, product), dec,
                        registry)
    _emit_table(table, args.format)
    return 0


def _cmd_verify(args):
    from .verify import run_suites
    try:
        ok, lines = run_suites(module=args.module)
    except KeyError as e:
        sys.stderr.write("unknown module %s\n" % e)
        return 2
    for line in lines:
        _print(line)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gtables",
        description="equivariant multiplication tables, exactly over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("heisenberg",
                       help="even Heisenberg cohomology tables and report")
    p.add_argument("what", nargs="?", choices=("cup", "bracket", "report"),
                   default="report")
    _fmt_arg(p)
    p.set_defaults(func=_cmd_heisenberg)

    p = sub.add_parser("gln", help="the gl(n) |x gl(n)_ab Poisson family")
    p.add_argument("what", nargs="?", choices=("tables", "check", "iso"),
                   default="tables")
    p.add_argument("--n", type=int, required=True)
    _fmt_arg(p)
    p.set_defaults(func=_cmd_gln)

    p = sub.add_parser("s3", help="K[S3] table and cotable")
    p.add_argument("what", nargs="?", choices=("table", "cotable"),
                   default="table")
    _fixture_args(p, "s3_fixture")

    p = sub.add_parser("matrix-algebra", help="M_k under GL(k) conjugation")
    p.add_argument("--k", type=int, required=True)
    _fixture_args(p, "mk_fixture", "k")

    p = sub.add_parser("sl3", help="sl(3) under the corner SL(2)")
    _fixture_args(p, "sl3_fixture")

    p = sub.add_parser("poly", help="truncated polynomial algebra")
    p.add_argument("--max-degree", type=int, required=True)
    _fixture_args(p, "poly_fixture", "max_degree")

    p = sub.add_parser("extract", help="table of a user supplied algebra",
                       epilog=SPEC_SCHEMA_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--spec", required=True, help="JSON algebra description")
    p.add_argument("--cotable", action="store_true",
                   help="extract the dual product of the comultiplication")
    _fmt_arg(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--module", default=None,
                   help="restrict to one suite (exactla, supercochain, "
                        "gtable, gallery)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GTableError as e:
        sys.stderr.write("%s: %s\n" % (type(e).__name__, e))
        return 1
    except Exception as e:  # gallery FixtureMismatch, NotFound, bad input
        from .gallery import FixtureMismatch, NotFound
        if isinstance(e, (FixtureMismatch, NotFound)):
            sys.stderr.write("%s: %s\n" % (type(e).__name__, e))
            return 1
        if isinstance(e, (ValueError, OSError)):
            sys.stderr.write("input error: %s\n" % e)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
