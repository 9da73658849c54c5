"""nvaw benchmark: time to a verdict on three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nvaw is imported from its `src/`.  The
workloads (see bench/README.md) are closed loops with a single caller that
waits for each verdict:

  assoc-triple   check_product_nva on the 27-dim (E2 ⊗ E2) ⊗ E2
  extract        extract_twisting on Z2⊗Z2, E1⊗E2 and E2⊗E2
  registry-cli   42 fresh `python -m nvaw.cli` processes over the registry

Every verdict is checked against bench/expected.py.  The command prints
each metric by name with its unit, then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  It exits
1 when a verdict differs from the expected one, and 2 without a result when
it cannot run.  A full record goes to .bench_out/.

Times are in seconds at a fixed reference speed of the host (speed.py), so
that runs on a shared host whose speed drifts stay comparable; the raw
times are in the record.  This script imports no nvaw code.  It times
set-up in SETUP_PROBES fresh processes, then runs the workload in one more
(bench/worker.py), one process at a time.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("assoc-triple", "extract", "registry-cli")
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole command ends within 180 s


class BenchError(RuntimeError):
    pass


def run_child(args, env, timeout):
    """Run one Python child to completion and return its last stdout line
    as JSON.  On timeout the child's whole process group is killed."""
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} timed out after {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(samples, per_pass):
    """(value, percentile, n): the highest percentile at which one pass of
    `per_pass` operations has at least 10 beyond it, read off all n samples
    of whole passes by nearest rank; the maximum when a pass has 10 or
    fewer.  The percentile is fixed by the pass, not by n, so it does not
    move with the number of passes a run completes; with the samples of
    every pass it holds 10 samples per pass beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if per_pass <= 10:
        i = n - 1
    else:
        i = -(-(per_pass - 10) * n // per_pass) - 1  # ceil, in integers
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(result, setup):
    passes = result["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    ms = [1000 * s for p in passes for s in p["latencies_s"]]
    tail_ms, pct, n = tail(ms, len(result["labels"]))
    identities = statistics.median(p["identities"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "wall_s": (wall, "s"),
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "identities_per_s": (identities / wall, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "passes": len(passes), "tail_percentile": pct, "samples": n,
        "identities_per_pass": identities,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setup),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "raw_pass_walls_s": [p["raw_wall_s"] for p in passes],
        "setup_samples_s": [s["setup_s"] for s in setup],
        "per_op_ms": {label: [round(1000 * p["latencies_s"][i], 3)
                              for p in passes]
                      for i, label in enumerate(result["labels"])},
        "raw_per_op_ms": {label: [round(1000 * p["raw_latencies_s"][i], 3)
                                  for p in passes]
                          for i, label in enumerate(result["labels"])},
    }
    return metrics, notes


def per_layer(result):
    """Per-layer metrics, per traced pass.  Self times are measured raw and
    put at reference speed with the traced passes' overall speed factor,
    so that they add up to the traced wall time."""
    passes = result["passes"]
    n = len(passes)
    scale = (sum(p["wall_s"] for p in passes)
             / sum(p["raw_wall_s"] for p in passes))
    trace = result["trace"]
    stats = {k: [c / n, s * scale / n] for k, (c, s) in trace["stats"].items()}
    counts = {k: v / n for k, v in trace["counts"].items()}
    metrics = layer_metrics(stats, counts)
    children = result["children"]
    import_s = sum(c["import_s"] for c in children) * scale / n
    startup_s = sum(c["startup_s"] for c in children) * scale / n
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.startup_s"] = (startup_s, "s")
    compares = stats["nva.window_equal_vec"][0]
    identities = statistics.median(p["identities"] for p in passes)
    metrics["nva.compare.useful_ratio"] = (
        identities / compares if compares else 0.0, "ratio")
    wall = sum(p["wall_s"] for p in passes) / n
    untraced = result["untraced"]["wall_s"]
    covered = trace["covered_s"] * scale / n + import_s + startup_s
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.covered_s"] = (covered, "s")
    metrics["trace.uncovered_s"] = (wall - covered, "s")
    notes = {"traced_passes": n, "speed_factor": scale,
             "trace_file": result["trace_file"]}
    return metrics, notes


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "nvaw" / "__init__.py").is_file():
        print(f"error: no nvaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [str(BENCH / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(out_dir)]

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(run_child(child + ["setup"], env, 20))
        result = run_child(child, env, remaining())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"] + ([result["untraced"]] if args.trace else [])
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, setup)

    env_info = environment()
    print(f"nvaw benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    print(f"  input size: {json.dumps(result['size'])}")
    print("  " + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                           for k, v in notes.items() if not isinstance(v, (list, dict))))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for f in failures:
        print(f"  MISMATCH {f['op']}: " + "; ".join(f["mismatches"]))
    print(f"  {attempted} operations, {len(failures)} failed")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **env_info,
              "size": result["size"], "notes": notes, "failures": failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record_path = out_dir / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
