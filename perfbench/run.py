"""Benchmark of the quditstab library: seeded workloads, checked results, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload torus_ladder --seed 1 --seconds 40 --trace 0

The library is imported from ./src and driven in this one process on one
thread.  Set-up (import plus input generation) runs several times, spread
over the run, and reports its median.  Whole passes over the workload run
until --seconds is used up (at least one), and each end-to-end metric is the
median over passes.
With --trace 1 the run makes one untraced pass and then one traced pass, and
reports the per-layer metrics.  Every result is checked against an answer
known from the construction of the inputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the run's context:
Python version, CPU count, seed, git commit, failed operations with reasons,
oracle checks skipped, and workload-specific figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "quditstab"
SETUP_REPEATS = 8

sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import LAYERS, Stat, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, Pass, make_rng  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here, or its own bookkeeping failed."""


def import_library() -> SimpleNamespace:
    """A fresh import of the package and its modules from ./src."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"{PACKAGE} was imported from {package.__file__}, not from ./src")
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **modules)


def check_manifest() -> None:
    """BENCHMARK.json and metrics.py must name the same workloads and metrics."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    if e2e != END_TO_END:
        raise BenchmarkError("BENCHMARK.json end_to_end differs from perfbench/metrics.py")
    if layer != {k: v[:2] for k, v in PER_LAYER.items()}:
        raise BenchmarkError("BENCHMARK.json per_layer differs from perfbench/metrics.py")
    workloads = {w["name"]: w["why"] for w in manifest["workloads"]}
    if workloads != {name: cls.why for name, cls in WORKLOADS.items()}:
        raise BenchmarkError("BENCHMARK.json workloads differ from perfbench/workloads.py")


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def run_pass(workload, lib, tracer=None) -> Pass:
    p = Pass()
    gc.collect()  # garbage from set-up or the previous pass is not this pass's cost
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload.run(lib, p)
        p.seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    p.verify()
    return p


def per_layer_metrics(tracer: Tracer, traced: Pass, untraced: list, workload) -> dict:
    stats = tracer.stats
    base = untraced[0]
    unwrapped = traced.seconds - tracer.top_s
    special = {
        "oracle.checks_skipped": len(traced.skipped),
        "ops.fail_frac": sum(op.status != "ok" for op in base.ops) / len(base.ops),
        "ops.deadline_misses": sum(op.status == "deadline" for op in base.ops),
        "trace.overhead_frac": traced.seconds / statistics.median(p.seconds for p in untraced) - 1,
        "trace.unwrapped_s": unwrapped,
        "stabilizer.analyze.exp_n": workload.details(base).get("analyze_exp_n", {}).get("value", 0.0),
    }
    rep = stats.get("oracle.represent", Stat())
    special["oracle.states_per_s"] = rep.work / rep.self_s if rep.self_s else 0.0
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name in special:
            value = special[name]
        else:
            qual, field = name.rsplit(".", 1)
            if qual in LAYERS:  # a whole layer's self time
                value = math.fsum(s.self_s for q, s in stats.items() if q.startswith(qual + "."))
            else:
                st = stats.get(qual, Stat())
                value = {"calls": st.calls, "self_s": st.self_s, "cells": st.work,
                         "states": st.work, "repeat_ratio": st.repeat_ratio}[field]
        out[name] = {"value": value, "unit": unit}
    return out


def check_trace(tracer: Tracer, traced: Pass, reference: Pass) -> list:
    problems = []
    if traced.outcomes() != reference.outcomes():
        problems.append("traced results differ from untraced results")
    self_total, unwrapped = tracer.self_total(), traced.seconds - tracer.top_s
    if abs(self_total + unwrapped - traced.seconds) > 1e-3 or unwrapped < 0:
        problems.append(f"self times {self_total} s and unwrapped remainder {unwrapped} s "
                        f"do not add up to the traced pass {traced.seconds} s")
    left = leftover_wrappers(PACKAGE)
    if left:
        problems.append(f"tracing wrappers left in place: {left[:5]}")
    return problems


def median_figures(passes: list, workload) -> dict:
    per_pass = [{**p.figures(), **workload.details(p)} for p in passes]
    return {k: {"value": statistics.median(f[k]["value"] for f in per_pass if k in f),
                "unit": per_pass[0][k]["unit"]} for k in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_manifest()
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise BenchmarkError(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]()
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        lib = import_library()
        workload.setup(lib, make_rng(args.seed, args.workload))
        setup_times.append(time.perf_counter() - t0)
        return lib

    # Set-ups are spread over the run (half before the passes, one after each
    # pass, the rest at the end), so that their median does not rest on the
    # machine's speed during a single second.
    for _ in range(SETUP_REPEATS // 2):
        lib = set_up()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, lib))
        if len(passes) == 1:  # later passes and set-ups would make the peak depend on their count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + passes[-1].seconds > args.seconds:
            break
        lib = set_up()
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        set_up()

    problems = []
    all_passes = list(passes)
    if args.trace:
        tracer = Tracer(PACKAGE)
        traced = run_pass(workload, lib, tracer)
        all_passes.append(traced)
        problems += check_trace(tracer, traced, passes[0])
        metrics = per_layer_metrics(tracer, traced, passes, workload)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(p.seconds for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": metrics[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}

    ops = [op for p in all_passes for op in p.ops]
    counted = [op for op in ops if not op.probe]
    wrong = [op for op in ops if op.status == "wrong"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "passes": len(passes),
        "setup_s_samples": setup_times,
        "pass_s_samples": [p.seconds for p in passes],
        "figures": median_figures(passes, workload),
        "failures": [{"pass": i, "case": op.case, "op": op.kind, "status": op.status,
                      "reason": op.reason}
                     for i, p in enumerate(all_passes) for op in p.ops if op.status != "ok"],
        "oracle.checks_skipped": sorted(set(passes[0].skipped)),
        "problems": problems,
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(counted),
        "failed": sum(op.status != "ok" for op in counted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
