"""One workload, measured in this process.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [setup]

With `setup`, only builds the inputs and prints {"setup_s": ...}: the time
to import nvaw and build the inputs, up to the first operation.

Otherwise runs whole passes over the workload's operations, one operation
at a time, until SECONDS have passed, and prints one JSON object with the
samples and the verdict mismatches.  With TRACE 1 the first pass runs
untraced, to measure the tracing overhead, and the later passes traced;
the span record is written to OUT_DIR.

The process and its children run on one CPU, so that the speed probe
(speed.py) samples the core the work runs on.  Times are reported at
reference speed, and raw as `raw_*`.
"""

import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import expected
from speed import SpeedProbe
from tracer import Tracer


def peak_rss_mb():
    """Peak resident memory of this process or of any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def run_pass(plan, probe):
    """One pass over the operations; verdicts are checked after the pass.
    The probe has a sample from before the first operation."""
    ref, raw, reports = [], [], []
    for op in plan.ops:
        start = time.perf_counter()
        try:
            reports.append(op.run())
        except Exception:  # a failed operation, reported as a mismatch
            reports.append([("operation", "raised",
                             traceback.format_exc(limit=-3))])
        end = time.perf_counter()
        probe.sample()
        r, n = probe.interval(start, end, plan.speed_exponent)
        raw.append(r)
        ref.append(n)
    identities, failures = 0, []
    for op, items in zip(plan.ops, reports):
        bad = expected.mismatches(items, op.expect)
        if bad:
            failures.append({"op": op.label, "mismatches": bad[:5]})
        else:
            identities += len(items)
    total = sum(len(items) for items in reports)
    if plan.total is not None and total != plan.total:
        failures.append({"op": "whole pass", "mismatches": [
            f"{total} identities, expected {plan.total}"]})
    return {"wall_s": sum(ref), "raw_wall_s": sum(raw), "latencies_s": ref,
            "raw_latencies_s": raw, "identities": identities,
            "failures": failures}


def passes(plan, probe, seconds):
    """Whole passes until `seconds` have passed, at least one."""
    start = time.perf_counter()
    out = []
    while not out or time.perf_counter() - start < seconds:
        out.append(run_pass(plan, probe))
    return out


def traced_passes(plan, probe, seconds, trace_path):
    """Passes with every wrapped call recorded; returns (passes, tracer)
    with the aggregates of child processes merged in.  The probe's kernel
    runs are left out of the spans they interrupt; a child process cannot
    see them, so for the command-line sweep the probe samples only between
    operations."""
    tracer = Tracer()
    if plan.runner is None:
        probe.on_sample = tracer.exclude
        with tracer:
            done = passes(plan, probe, seconds)
        probe.on_sample = None
        tracer.dump(trace_path)
        return done, tracer
    plan.runner.traced = True
    with probe.paused():
        done = passes(plan, probe, seconds)
    for child in plan.runner.children:
        tracer.merge(child)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"children": plan.runner.children}, fh)
    return done, tracer


def main():
    name, seed, seconds, trace, out_dir = sys.argv[1:6]
    seed, seconds, out_dir = int(seed), float(seconds), Path(out_dir).resolve()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe, \
            tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        start = time.perf_counter()
        import workloads  # imports nvaw

        plan = workloads.SETUPS[name](seed, workdir)
        end = time.perf_counter()
        probe.sample()
        raw_setup, setup = probe.interval(start, end, plan.speed_exponent)
        if sys.argv[6:] == ["setup"]:
            print(json.dumps({"setup_s": setup, "raw_setup_s": raw_setup}))
            return 0
        result = {"setup_s": setup, "raw_setup_s": raw_setup,
                  "size": plan.size, "labels": [op.label for op in plan.ops]}
        if trace == "1":
            result["untraced"] = run_pass(plan, probe)
            trace_path = out_dir / f"trace-{name}-seed{seed}.json"
            done, tracer = traced_passes(plan, probe, seconds, trace_path)
            result["trace"] = tracer.summary()
            result["trace_file"] = str(trace_path)
            result["children"] = [
                {k: c[k] for k in ("import_s", "startup_s")}
                for c in (plan.runner.children if plan.runner else [])]
        else:
            done = passes(plan, probe, seconds)
    result["passes"] = done
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
