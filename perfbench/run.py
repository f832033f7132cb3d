#!/usr/bin/env python3
"""Benchmark of the fatcob library: census, sign calculus, glue tower.

Run from the root of a source checkout; the library is imported from
``src/`` there, in this one process, with no worker processes:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

An untraced run (``--trace 0``) sets the workload up several times,
then repeats passes over the same seeded inputs until ``--seconds``
have gone by, and reports the end-to-end metrics: median set-up time
and mean pass time, both scaled to a fixed reference loop's speed, and
peak RSS.  A traced run (``--trace 1``) reports per-layer metrics
instead: it sets up and runs one pass of every workload with the
library's entry points wrapped, plus one untraced pass each for the
tracing overhead.  It writes the
spans to ``.perfbench_out/``.  Every output is checked; the last line
of standard output is one JSON object, and the exit code is 1 when an
output was wrong.  WORKLOADS.md describes the workloads and metrics.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from tracer import Tracer, per_layer_names  # noqa: E402
from workloads import WORKLOADS, OpLog, WrongOutput  # noqa: E402

# set-ups per untraced run: at least MIN_SETUPS, then more while they
# fit in SETUP_BUDGET_S; the median is reported
MIN_SETUPS, SETUP_BUDGET_S = 3, 3.0

# the host's speed drifts; every set-up and every pass is followed by
# timings of a fixed reference loop, REF_SHARE of its time at least,
# and times are reported at the speed where that loop takes
# REF_NOMINAL_S (see WORKLOADS.md)
REF_ITERATIONS, REF_SHARE, REF_NOMINAL_S = 8000, 0.05, 0.03


class NoLibrary(Exception):
    """The checkout holds no importable fatcob source."""


def load_library():
    """Import fatcob afresh from ``src/``; returns (package, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "fatcob", "__init__.py")):
        raise NoLibrary("no fatcob package under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "fatcob" or m.startswith("fatcob.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    lib = importlib.import_module("fatcob")
    importlib.import_module("fatcob.fixtures")
    seconds = time.perf_counter() - t0
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise NoLibrary("fatcob was imported from %s" % lib.__file__)
    return lib, seconds


def fatcob_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "fatcob" or name.startswith("fatcob.")}


def environment(lib):
    return {"backend": lib._canon.BACKEND,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def comparability(env):
    """Compare the environment with the recorded baseline's."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        base = json.load(fh)["environment"]
    if env["backend"] != base["backend"]:
        return False, "kernel backend %r, baseline %r" % (
            env["backend"], base["backend"])
    return True, None


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_digests(workload, seed, digests):
    """Every pass must agree, and with the pinned digest if any."""
    problems = []
    if len(set(digests)) != 1:
        problems.append("passes gave %d different digests"
                        % len(set(digests)))
    want = pinned_digest(workload, seed)
    if want is None:
        print("digest %s seed %d: not pinned, %s" % (workload, seed,
                                                     digests[0]))
    elif digests[0] != want:
        problems.append("digest %s differs from the pinned %s"
                        % (digests[0], want))
    for p in problems:
        print("mismatch: %s %s" % (workload, p), file=sys.stderr)
    return not problems


def reference_times(after_s):
    """Time the reference loop, repeated until it has taken REF_SHARE of
    ``after_s`` (at least once); returns the times of each repeat."""
    times = []
    while not times or sum(times) < REF_SHARE * after_s:
        t0 = time.perf_counter()
        counts, acc = {}, Fraction(0)
        for i in range(REF_ITERATIONS):
            key = (i * 7919) % 101, i % 7
            counts[key] = counts.get(key, 0) + 1
            acc += Fraction(i % 17 + 1, i % 11 + 1)
            if i % 500 == 499:
                sorted(counts.items(), reverse=True)
        times.append(time.perf_counter() - t0)
    return times


def untraced(workload, seed, seconds):
    cls = WORKLOADS[workload]
    setups, setup_refs = [], reference_times(0)
    budget_start = time.perf_counter()
    w = None
    while (len(setups) < MIN_SETUPS
           or time.perf_counter() - budget_start < SETUP_BUDGET_S):
        w = None
        gc.collect()
        lib, t_import = load_library()
        t0 = time.perf_counter()
        w = cls(lib, seed)
        setups.append(t_import + time.perf_counter() - t0)
        setup_refs += reference_times(setups[-1])
    ops = OpLog()
    walls, digests, pass_refs = [], [], reference_times(0)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        digests.append(w.run_pass(ops))
        walls.append(time.perf_counter() - t0)
        pass_refs += reference_times(walls[-1])
    digest_ok = check_digests(workload, seed, digests)
    lat = ops.latency_ms
    # times at the reference speed: each phase's times are scaled by
    # REF_NOMINAL_S over the mean reference time of that phase
    setup_scale = REF_NOMINAL_S / statistics.fmean(setup_refs)
    pass_scale = REF_NOMINAL_S / statistics.fmean(pass_refs)
    metrics = {
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        # the mean, not the median: pass times are bimodal on a shared
        # host, and the median of a run flips between the two modes
        "pass_s": (statistics.fmean(walls) * pass_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # the digest comparison is one more checked op
    attempted = ops.attempted + 1
    failed = len(ops.failed) + (0 if digest_ok else 1)
    info = {"setups": len(setups), "passes": len(walls), "ops": len(lat),
            "raw_setup_s": round(statistics.median(setups), 5),
            "wall_s": round(statistics.fmean(walls), 5),
            "ref_s": round(statistics.fmean(pass_refs), 5),
            "op_p50_ms": round(statistics.median(lat), 4),
            "op_p95_ms": round(statistics.quantiles(lat, n=20)[-1], 4),
            "pool": getattr(w, "pool_sizes", None),
            "pass_times_s": [round(x, 4) for x in walls]}
    return lib, metrics, attempted, failed, info


def traced(seed):
    imports = []
    for _ in range(MIN_SETUPS):
        lib, t_import = load_library()
        imports.append(t_import)
    modules = fatcob_modules()
    tracer = Tracer()
    attempted = failed = 0
    t_plain = t_traced = 0.0
    for name, cls in WORKLOADS.items():
        tracer.workload = name
        tracer.install(modules)
        try:
            w = cls(lib, seed)
        finally:
            tracer.uninstall()
        plain_ops, ops = OpLog(), OpLog()
        gc.collect()
        t0 = time.perf_counter()
        d0 = w.run_pass(plain_ops)
        t_plain += time.perf_counter() - t0
        gc.collect()
        tracer.install(modules)
        t0 = time.perf_counter()
        try:
            d1 = w.run_pass(ops)
        finally:
            t_traced += time.perf_counter() - t0
            tracer.uninstall()
        attempted += plain_ops.attempted + ops.attempted + 1
        failed += len(plain_ops.failed) + len(ops.failed)
        failed += 0 if check_digests(name, seed, [d0, d1]) else 1
    for name in WORKLOADS:
        totals = tracer.layer_totals({name})
        print("layers %s: %s" % (name, " ".join(
            "%s=%.6g" % kv for kv in sorted(totals.items()) if kv[1])))
    totals = tracer.layer_totals()
    totals["import.fatcob_s"] = statistics.median(imports)
    totals["trace.overhead_ratio"] = t_traced / t_plain
    units = dict(per_layer_names())
    metrics = {k: (v, units[k]) for k, v in totals.items()}
    for name in tracer.missing:
        print("missing layer: %s (no such name in the library)" % name)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-seed%d.jsonl" % seed)
    tracer.write_spans(path)
    print("spans: %d written to %s" % (len(tracer.spans),
                                      os.path.relpath(path, ROOT)))
    return lib, metrics, attempted, failed, {}


def run_all(args):
    """Each workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], check=False)
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all" and not args.trace:
        return run_all(args)
    try:
        if args.trace:
            lib, metrics, attempted, failed, info = traced(args.seed)
        else:
            lib, metrics, attempted, failed, info = untraced(
                args.workload, args.seed, args.seconds)
    except WrongOutput as exc:
        # a wrong set-up output is a failed op: the run is not correct
        print("mismatch: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except (NoLibrary, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    env = environment(lib)
    comparable, why = comparability(env)
    print("environment: backend=%s python=%s cpu_count=%s%s" % (
        env["backend"], env["python"], env["cpu_count"],
        "" if comparable else " NOT COMPARABLE: " + why))
    if info:
        print("run: " + " ".join("%s=%s" % kv for kv in info.items()))
    label = "traced" if args.trace else args.workload
    for name, (value, unit) in metrics.items():
        print("%s %s %.6g %s" % (label, name, value, unit))
    print("fail_ratio %d/%d = %.6g" % (failed, attempted,
                                      failed / attempted if attempted else 1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, comparable=comparable,
                       run=info), fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
