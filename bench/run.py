"""Benchmark of gtables: one workload per run, measured from outside the program.

    python3 bench/run.py --workload paper --seed 1 --seconds 50 --trace 0

Run from a checkout of the repository; the package is imported from src/.
A run sets up SETUP_REPS times from a fresh import of gtables (setup_s is the
median), makes the workload's inputs from the seed, then runs passes over the
workload's fixed list of operations, one after another in this process, until
the next pass would end after --seconds of wall time (at least MIN_PASSES
passes).  The first pass is cold (first_pass_s); pass_p50_s is the median of
the others.  Times are CPU seconds of the process (see cpu_seconds).  Outputs
of the first pass are checked against separate computations (see checks.py);
every later pass must reproduce them exactly.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the public
functions at every module boundary record spans (spans.py), the per-layer
metrics are the medians over the warm passes, and the spans are written to
bench/out/.  The last line of stdout is one JSON object; the exit code is 0
when no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 9
MIN_PASSES = 3

END_TO_END = [("setup_s", "s"), ("first_pass_s", "s"), ("pass_p50_s", "s"),
              ("peak_rss_mb", "MB")]


class Program:
    """The gtables modules of one fresh import."""

    MODULES = ("cli", "exactla", "gtable", "repkit", "supercochain")

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "gtables" or m.startswith("gtables.")]:
            del sys.modules[name]
        for name in self.MODULES:
            setattr(self, name, importlib.import_module("gtables." + name))

    @property
    def gallery(self):
        """Imported on first use, as the CLI does."""
        return importlib.import_module("gtables.gallery")


def cpu_seconds():
    """CPU time of this process and of its reaped children.

    Passes are timed in CPU time: the workloads are single-threaded and do no
    I/O inside a pass, and on a host whose cores are shared the wall time of
    the same pass also counts the time other processes held the core.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_passes(workload, gt, data, seconds, tracer):
    """Passes until the next one would end after `seconds` of wall time.

    Returns (CPU seconds per pass, wall seconds per pass, first pass outputs,
    first pass errors, per later pass {operation: error text} for operations
    that raised or changed output).
    """
    durations = []
    walls = []
    first = {}
    first_errors = {}
    later = []
    begin = time.perf_counter()
    while True:
        ops = workload.operations(gt, data)
        gc.collect()  # no pass pays for garbage left by set-up or the pass before
        if tracer:
            tracer.begin_pass()
        results = []
        w0 = time.perf_counter()
        t0 = cpu_seconds()
        for name, fn in ops:
            try:
                results.append((name, fn(), None))
            except Exception as e:  # an operation that raises counts as failed
                results.append((name, None, "%s: %s" % (type(e).__name__, e)))
        durations.append(cpu_seconds() - t0)
        walls.append(time.perf_counter() - w0)
        if tracer:
            tracer.end_pass()
        if len(durations) == 1:
            for name, out, err in results:
                first[name] = out
                if err:
                    first_errors[name] = err
        else:
            bad = {}
            for name, out, err in results:
                if err:
                    bad[name] = err
                elif out != first[name]:
                    bad[name] = "output differs from the first pass"
            later.append(bad)
        elapsed = time.perf_counter() - begin
        if len(durations) >= MIN_PASSES and elapsed + walls[-1] > seconds:
            return durations, walls, first, first_errors, later


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gtables", "__init__.py")):
        sys.stderr.write("no gtables package under %s; run from a checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]

    setup = []
    for _ in range(SETUP_REPS):
        t0 = cpu_seconds()
        gt = Program()
        workload.setup(gt)
        setup.append(cpu_seconds() - t0)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        data = workload.inputs(gt, args.seed, workdir)
        tracer = restore = None
        if args.trace:
            import spans
            gt.gallery  # so that its bindings are wrapped too
            tracer = spans.Tracer()
            restore = spans.install(tracer, gt)
        durations, walls, first, first_errors, later = run_passes(
            workload, gt, data, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            restore()
            per_pass = spans.pass_metrics(tracer)[1:]
            metrics = {name: {"value": statistics.median(p[name] for p in per_pass),
                              "unit": unit}
                       for name, unit in spans.LAYER_METRICS}
            path = os.path.join(OUT, "spans-%s.jsonl.gz" % args.workload)
            tracer.write(path, {"workload": args.workload, "seed": args.seed})
        else:
            values = {"setup_s": statistics.median(setup),
                      "first_pass_s": durations[0],
                      "pass_p50_s": statistics.median(durations[1:]),
                      "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        t0 = time.perf_counter()
        try:
            problems = workload.check(gt, data, first)
        except Exception as e:  # a malformed output can break a check
            problems = {name: ["check raised %s: %s" % (type(e).__name__, e)]
                        for name in first if name not in first_errors}
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for name, err in first_errors.items():
        failures.append((1, name, err))
    for name, found in problems.items():
        if found:
            failures.append((1, name, "; ".join(found)))
    wrong = {name for _, name, _ in failures}
    for k, bad in enumerate(later, start=2):
        for name in set(bad) | wrong:
            if name in bad:
                failures.append((k, name, bad[name]))
            elif name in wrong:
                failures.append((k, name, "same output as the failed first pass"))
    for k, name, why in failures[:10]:
        sys.stderr.write("FAILED pass %d %s: %s\n" % (k, name, why))

    n_ops = len(first)
    attempted = n_ops * len(durations)
    failed = len(failures)
    print("workload %s, seed %d, trace %d: %d passes of %d operations, "
          "%d attempted, %d failed; checks took %.1f s"
          % (args.workload, args.seed, args.trace, len(durations), n_ops,
             attempted, failed, check_s))
    print("  CPU s per pass %s; wall s per pass %s"
          % (" ".join("%.3f" % d for d in durations),
             " ".join("%.3f" % d for d in walls)))
    for name, m in metrics.items():
        print("  %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
