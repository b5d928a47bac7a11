"""Span tracing at the module boundaries of gtables, for the per-layer metrics.

``install`` replaces public functions of the program's modules with wrappers
that record one span per call: name, start and end in process CPU seconds,
parent span, and whether a span of the same name is already open (a
recursive call).  Names bound by ``from .exactla import rref`` inside other
modules are replaced too, so calls between layers are seen.  The bilinear
map handed to ``gtable.extract`` is wrapped per call.  Spans stay in flat
arrays in memory; ``write`` streams them to a gzip'd JSON-lines file when the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute or Class.method, span name)
FUNCTIONS = [
    ("exactla", "rref", "exactla.rref"),
    ("exactla", "kernel", "exactla.kernel"),
    ("exactla", "solve", "exactla.solve"),
    ("exactla", "coords_modulo", "exactla.coords_modulo"),
    ("exactla", "Subspace.add", "exactla.subspace"),
    ("supercochain", "bracket", "supercochain.bracket"),
    ("supercochain", "vee", "supercochain.vee"),
    ("supercochain", "sl2_act", "supercochain.sl2_act"),
    ("supercochain", "cohomology", "supercochain.cohomology"),
    ("gtable", "extract", "gtable.extract"),
    ("gtable", "expand", "gtable.expand"),
    ("gtable", "check_morphism", "gtable.check_morphism"),
    ("gtable", "render", "gtable.render"),
    ("repkit", "glk_basis", "repkit.glk_basis"),
    ("repkit", "glk_coords", "repkit.glk_coords"),
    ("repkit", "GModule.validate", "repkit.validate"),
    ("repkit", "Decomposition.validate", "repkit.validate"),
    ("repkit", "decompose_sl2", "repkit.decompose"),
    ("repkit", "decompose_s3", "repkit.decompose"),
    ("cli", "load_spec", "cli.load_spec"),
]

PRODUCT = "gtable.extract.product"


class Tracer:
    """Spans in parallel arrays; span i's parent has an index below i."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("H")
        self.parent = array("l")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = []
        self.counters = {"supercochain.elements_built": 0,
                         "exactla.rref.cells": 0}
        self.passes = []  # (first span index, last span index + 1, counters)
        self._pass_open = None

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn, prepare=None):
        """fn with a span per call; prepare(args, kwargs) may rewrite arguments."""
        nid = self.name_id(name)
        kind, parent, nested = self.kind, self.parent, self.nested
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(1 if depth[nid] else 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1

        return wrapper

    def begin_pass(self):
        self._pass_open = (len(self.kind), dict(self.counters))

    def end_pass(self):
        lo, before = self._pass_open
        delta = {k: v - before[k] for k, v in self.counters.items()}
        self.passes.append((lo, len(self.kind), delta))

    def write(self, path, header):
        """Stream the spans to path as gzip'd JSON lines, header first."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, names=self.names,
                                     passes=[[lo, hi] for lo, hi, _ in self.passes],
                                     columns=["name", "parent", "nested",
                                              "start", "end"])) + "\n")
            kind, parent, nested = self.kind, self.parent, self.nested
            start, end = self.start, self.end
            for i in range(len(kind)):
                fh.write("[%d,%d,%d,%.9f,%.9f]\n" % (
                    kind[i], parent[i], nested[i], start[i], end[i]))


def install(tracer, gt):
    """Wrap the FUNCTIONS of the imported gtables modules in place; returns a
    function that puts the originals back."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gtables" or name.startswith("gtables."))]
    undo = []

    def replace(obj, key, value):
        undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    for modname, attr, span in FUNCTIONS:
        mod = getattr(gt, modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            replace(cls, meth, tracer.wrap(span, getattr(cls, meth)))
            continue
        original = getattr(mod, attr)
        prepare = None
        if span == "exactla.rref":
            prepare = _count_rref_cells(tracer)
        elif span == "gtable.extract":
            prepare = _wrap_product(tracer)
        wrapped = tracer.wrap(span, original, prepare)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replace(m, key, wrapped)
    cls = gt.supercochain.BigradedElement
    replace(cls, "__init__", _counted_init(tracer, cls.__init__))

    def restore():
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return restore


def _count_rref_cells(tracer):
    counters = tracer.counters

    def prepare(args, kwargs):
        rows = list(args[0])
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        counters["exactla.rref.cells"] += len(rows) * ncols
        return (rows,) + tuple(args[1:]), kwargs

    return prepare


def _wrap_product(tracer):
    def prepare(args, kwargs):
        return (tracer.wrap(PRODUCT, args[0]),) + tuple(args[1:]), kwargs

    return prepare


def _counted_init(tracer, init):
    counters = tracer.counters

    def counted_init(self, *args, **kwargs):
        counters["supercochain.elements_built"] += 1
        init(self, *args, **kwargs)

    return counted_init


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric name, unit); pass_metrics derives each from its name
LAYER_METRICS = [
    ("exactla.rref.calls", "count"),
    ("exactla.rref.s", "s"),
    ("exactla.rref.cells", "count"),
    ("exactla.subspace.calls", "count"),
    ("exactla.solve.calls", "count"),
    ("exactla.kernel.calls", "count"),
    ("exactla.self_s", "s"),
    ("supercochain.bracket.calls", "count"),
    ("supercochain.bracket.recursive_calls", "count"),
    ("supercochain.bracket.s", "s"),
    ("supercochain.elements_built", "count"),
    ("supercochain.vee.calls", "count"),
    ("supercochain.sl2_act.s", "s"),
    ("supercochain.cohomology.s", "s"),
    ("supercochain.self_s", "s"),
    ("gtable.extract.calls", "count"),
    ("gtable.extract.s", "s"),
    ("gtable.extract.self_s", "s"),
    ("gtable.extract.product_calls", "count"),
    ("gtable.extract.product_s", "s"),
    ("repkit.glk_basis.calls", "count"),
    ("repkit.glk_coords.calls", "count"),
    ("cli.load_spec.s", "s"),
    ("repkit.validate.s", "s"),
    ("repkit.decompose.s", "s"),
    ("gtable.expand.s", "s"),
    ("gtable.check_morphism.s", "s"),
    ("gtable.render.s", "s"),
]


def _self_time_metrics(name):
    """The self-time metrics a span of this name contributes to."""
    out = []
    if name.startswith("exactla."):
        out.append("exactla.self_s")
    if name.startswith("supercochain."):
        out.append("supercochain.self_s")
    if name == "gtable.extract":
        out.append("gtable.extract.self_s")
    return out


def pass_metrics(tracer):
    """One dict of LAYER_METRICS values per traced pass.

    ``X.calls`` counts the outermost spans of X (no X span already open),
    ``X.recursive_calls`` the others, ``X.s`` sums the durations of the
    outermost ones, and a self time is a span's duration minus that of its
    child spans.
    """
    n = len(tracer.kind)
    names = tracer.names
    kind, parent, nested = tracer.kind, tracer.parent, tracer.nested
    start, end = tracer.start, tracer.end
    child = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    self_layer = [_self_time_metrics(name) for name in names]
    ids = {name: nid for nid, name in enumerate(names)}
    out = []
    for lo, hi, counters in tracer.passes:
        calls = {}
        recursive = {}
        total = {}
        selfs = {"exactla.self_s": 0.0, "supercochain.self_s": 0.0,
                 "gtable.extract.self_s": 0.0}
        for i in range(lo, hi):
            nid = kind[i]
            dur = end[i] - start[i]
            if nested[i]:
                recursive[nid] = recursive.get(nid, 0) + 1
            else:
                calls[nid] = calls.get(nid, 0) + 1
                total[nid] = total.get(nid, 0.0) + dur
            for metric in self_layer[nid]:
                selfs[metric] += dur - child[i]
        by_name = lambda d, name: d.get(ids.get(name), 0)
        m = dict(counters)
        m.update(selfs)
        for metric, unit in LAYER_METRICS:
            if metric in m:
                continue
            base, _, what = metric.rpartition(".")
            if what == "calls":
                m[metric] = by_name(calls, base)
            elif what == "recursive_calls":
                m[metric] = by_name(recursive, base)
            elif what == "s":
                m[metric] = float(by_name(total, base))
            elif what == "product_calls":
                m[metric] = by_name(calls, PRODUCT)
            elif what == "product_s":
                m[metric] = float(by_name(total, PRODUCT))
        out.append(m)
    return out
