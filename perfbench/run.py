"""edgereuse benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mixed --seed 42 --seconds 30 --trace 0

Runs from a source checkout: the program is imported from ``src/`` next to
this directory, never from an installed copy. One process, one thread,
closed loop: the trace's arrival times are simulated, so each replay runs
as fast as the host allows. Repetitions (set-up, replay, checks) continue
until the next one would overrun ``--seconds``, with at least three; times
are medians over them, taken with a ``speed.SpeedClock`` that corrects wall
time for the host's changing speed (plain wall times go to ``detail``). With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` untraced and traced repetitions alternate and the
result holds the per-layer metrics of the traced ones. The last stdout line is the
result; the line before it is a ``detail`` record (environment, seed,
output digest, simulated statistics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("mixed", "no-store", "churn", "store-20k")
MIN_REPS = 3

END_TO_END = ("setup_s", "replay_s", "ops_per_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name; ``sim.`` figures are simulated."""
    if name.startswith("sim."):
        if name.endswith("_ms"):
            return "sim_ms"
        if name.endswith("_s"):
            return "sim_s"
    for suffix, unit in (("us_per_event", "us"), ("bytes_end", "bytes"), ("_pct", "%"),
                         ("_per_s", "1/s"), ("_mb", "MB"), ("_us", "us"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile_us(durations_s, q: float) -> float:
    import numpy as np
    if not durations_s:
        return 0.0
    return float(np.percentile(np.asarray(durations_s, dtype=np.float64), q)) * 1e6


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(wl, seconds: float, trace: bool):
    """Repeat until the time is spent; returns [(traced, Rep, layer metrics)]."""
    import spans
    from speed import SpeedClock, WallClock
    from workloads import Rep

    recorder = spans.SpanRecorder() if trace else None
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            recorder.reset()
            recorder.install()
        # Traced repetitions keep to wall time, so that no tick lands in a span.
        clock = WallClock() if traced else SpeedClock()
        try:
            with clock:
                rep = wl.rep(clock)
            rep.speed_samples = clock.samples
        except Exception:
            # Any exception fails every op of the repetition; keep going so
            # the result still reports how many were attempted.
            rep = Rep(None, None, wl.tasks, wl.tasks, [traceback.format_exc(limit=3)])
        finally:
            if traced:
                recorder.uninstall()
        reps.append((traced, rep, recorder.layer_metrics() if traced else None))
        # A traced run stops only after whole (untraced, traced) pairs, and
        # stops before a step that would overrun the time.
        step, min_reps = (2, 2) if trace else (1, MIN_REPS)
        elapsed = time.perf_counter() - start
        done = len(reps) >= min_reps and len(reps) % step == 0
        if done and elapsed + elapsed / len(reps) * step > seconds:
            return reps, recorder


def end_to_end(wl, reps) -> dict:
    plain = [r for traced, r, _ in reps if not traced and r.replay_s is not None]
    replay_s = median(r.replay_s for r in plain)
    return {
        "setup_s": median(r.setup_s for r in plain),
        "replay_s": replay_s,
        "ops_per_s": wl.tasks / replay_s if replay_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, reps, recorder) -> dict:
    import spans
    from workloads import SIM_METRICS

    traced = [(r, layer) for t, r, layer in reps if t and r.replay_s is not None]
    plain = [r for t, r, _ in reps if not t and r.replay_s is not None]
    out = {}
    names = list(traced[0][1]) if traced else list(spans.SpanRecorder().layer_metrics())
    for name in names:
        out[name] = median(layer[name] for _, layer in traced)
    last = traced[-1][0] if traced else None
    counts = last.counts if last else {}
    out["store.entries_end"] = counts.get("entries_end", 0)
    out["store.bytes_end"] = counts.get("bytes_end", 0)
    out["simulator.events"] = counts.get("events", 0)
    out["simulator.us_per_event"] = (out["simulator.run.self_s"] / out["simulator.events"] * 1e6
                                     if out["simulator.events"] else 0.0)
    out["workload.generate_s"] = wl.stats["generate_s"]
    out.update(dict.fromkeys(SIM_METRICS, 0), **(last.sim if last else {}))
    plain_s = median(r.replay_wall_s for r in plain)
    traced_s = median(r.replay_wall_s for r, _ in traced)
    out["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0 if plain_s and traced_s else 0.0
    out["trace.hooks_absent"] = len(recorder.absent)
    return out


def check_digests(reps) -> None:
    """Every repetition of one workload and seed must produce the same output."""
    digests = [r.digest for _, r, _ in reps if r.digest]
    for _, r, _ in reps:
        if r.digest and r.digest != digests[0]:
            r.failed = r.ops
            r.problems.append(f"output digest {r.digest[:16]} differs from the first "
                              f"repetition's {digests[0][:16]}")


def environment(args) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": args.seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, default=None,
                   help="tasks per trace, or store entries for store-20k (default: the workload's)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgereuse" / "__init__.py").is_file():
        print(f"error: no edgereuse sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import edgereuse
    if Path(edgereuse.__file__).resolve().parent != SRC / "edgereuse":
        print(f"error: edgereuse imported from {edgereuse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        reps, recorder = measure(wl, args.seconds, bool(args.trace))
        check_digests(reps)
        if args.trace:
            metrics = per_layer(wl, reps, recorder)
            spans_path = WORK / f"spans-{args.workload}.csv"
            recorder.write_spans(spans_path)
        else:
            metrics = end_to_end(wl, reps)
            spans_path = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for _, r, _ in reps)
    failed = sum(r.failed for _, r, _ in reps)
    good = [r for _, r, _ in reps if r.replay_s is not None]
    detail = {
        "workload": args.workload,
        "env": environment(args),
        "reps": [{"traced": traced, "setup_s": r.setup_s, "replay_s": r.replay_s,
                  "setup_wall_s": r.setup_wall_s, "replay_wall_s": r.replay_wall_s,
                  "reference_us_median": median(r.speed_samples) * 1e6,
                  "reference_samples": len(r.speed_samples)}
                 for traced, r, _ in reps],
        "digest": good[0].digest if good else None,
        "inputs": wl.stats,
        "simulated": good[0].sim if good else {},
        "stores_audited": good[0].counts.get("audited", 0) if good else 0,
        "hooks_absent": recorder.absent if recorder else [],
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "problems": [p for _, r, _ in reps for p in r.problems][:20],
    }
    if args.workload == "store-20k":
        lookups = [d for traced, r, _ in reps if not traced for d in r.lookup_s]
        inserts = [d for traced, r, _ in reps if not traced for d in r.insert_s]
        detail["store_calls_us"] = {"lookup_p50": percentile_us(lookups, 50),
                                    "lookup_p99": percentile_us(lookups, 99),
                                    "insert_p50": percentile_us(inserts, 50),
                                    "insert_p99": percentile_us(inserts, 99),
                                    "lookups": len(lookups), "inserts": len(inserts)}
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
