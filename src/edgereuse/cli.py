"""Command-line front end: generate traces, replay them, sweep thresholds.

Exit codes: 0 on success, 1 when a replay aborts mid-run, 2 for bad usage,
bad config files, or missing inputs. Options are checked before any work: a
bad ``--seed``, ``--tasks`` or ``--thresholds``, or an ``--out`` that names an
existing path of the wrong kind or lies under a file, exits 2 before a bundle
is read or a trace generated. ``report`` reads metrics.json through
the schema that simulator.py declares for it, so a malformed metrics file
exits 2 with an error naming the field (``metrics.servers.s0.busy_us: ...``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (ConfigError, _load_json, _make, default_experiment_data,
                     default_services_data, default_topology_data, load_experiment, write_json)
from .core import SEED_MAX, check_integer
from .simulator import (RunMetrics, SimulationError, _check_thresholds, run_experiment,
                        sweep_thresholds, write_sweep_csv)
from .workload import (CalibrationError, builtin_profiles, generate_trace,
                       write_trace_csv, write_vectors_csv)

BUNDLE_FILES = ("experiment.json", "topology.json", "services.json", "trace.csv", "vectors.csv")


def write_bundle(profile, seed: int, out_dir) -> dict:
    """Generate a trace for the profile and write a runnable experiment bundle.

    The bundle is five files in out_dir: experiment.json (entry point),
    topology.json, services.json, trace.csv, and vectors.csv. Returns the
    workload stats for the generated trace.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workload = generate_trace(profile, seed)
    write_vectors_csv(out / "vectors.csv", workload.vectors)
    write_trace_csv(out / "trace.csv", workload.rows)
    write_json(out / "topology.json", default_topology_data(seed))
    write_json(out / "services.json", default_services_data(profile.dim))
    write_json(out / "experiment.json", default_experiment_data(seed, dim=profile.dim))
    return workload.stats


def _parse_thresholds(text: str) -> list[float]:
    """Comma-separated thresholds; values above 1 are read as percents."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v = float(part)
        except ValueError:
            raise ValueError(f"threshold {part!r} is not a number") from None
        if v > 1.0:
            v = v / 100.0
        values.append(v)
    return values


def _check_out(text: str, *, directory: bool) -> Path:
    """--out as a Path; ValueError when it names an existing path of the
    other kind, a file where a directory is written or a directory where a
    file is, or a path under an existing file."""
    out = Path(text)
    if out.exists() and out.is_dir() != directory:
        raise ValueError(f"--out: {out} {'is not' if directory else 'is'} a directory")
    parent = next((p for p in out.parents if p.exists()), None)
    if parent is not None and not parent.is_dir():
        raise ValueError(f"--out: {parent} is not a directory")
    return out


def _cmd_generate(args) -> int:
    profiles = builtin_profiles()
    if args.profile not in profiles:
        known = ", ".join(sorted(profiles))
        print(f"error: unknown profile {args.profile!r} (choose from: {known})", file=sys.stderr)
        return 2
    profile = profiles[args.profile]
    try:
        if args.tasks is not None:
            profile = dataclasses.replace(profile, tasks=check_integer("--tasks", args.tasks, 1))
        check_integer("--seed", args.seed, 0, SEED_MAX)
        _check_out(args.out, directory=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = write_bundle(profile, args.seed, args.out)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(BUNDLE_FILES)} to {args.out}")
    intra = stats["intra_cosine_measured"]  # None when no two tasks share a cluster
    print("tasks={tasks} unique_vectors={unique_vectors} repeat_tasks={repeat_tasks} "
          "intra_cosine={}".format("n/a" if intra is None else f"{intra:.4f}", **stats))
    return 0


def _cmd_run(args) -> int:
    try:
        out = _check_out(args.out, directory=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = load_experiment(args.config)
    report = run_experiment(config, event_log=args.event_log)
    out.mkdir(parents=True, exist_ok=True)
    report.write_per_task_csv(out / "per_task.csv")
    report.write_metrics_json(out / "metrics.json")
    if args.event_log:
        report.write_events_csv(out / "events.csv")
    print(report.summary_line())
    return 0


def _cmd_sweep(args) -> int:
    try:
        out = _check_out(args.out, directory=False)
        values = _check_thresholds(_parse_thresholds(args.thresholds))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = sweep_thresholds(load_experiment(args.config), values)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out, rows)
    for row in rows:
        acc = row["accuracy_pct"]
        acc_text = "n/a" if acc is None else f"{acc:.1f}%"
        print(f"threshold={row['threshold']:.2f} reuse={row['reuse_pct']:.1f}% accuracy={acc_text}")
    return 0


def _cmd_report(args) -> int:
    m = _make(RunMetrics, _load_json(Path(args.metrics), "metrics"), "metrics")
    print(f"tasks               {m.tasks}")
    print(f"makespan            {m.makespan_us / 1e6:.3f} s")
    mean, acc = m.mean_completion_ms, m.accuracy_pct
    print("mean completion     " + ("n/a" if mean is None else f"{mean:.2f} ms"))
    print(f"reuse               {m.reuse_pct:.1f}%")
    print("accuracy of reuse   " + ("n/a" if acc is None else f"{acc:.1f}%"))
    print(f"server busy         {m.busy_fraction * 100:.1f}%")
    print()
    print(f"{'layer':<16}{'count':>8}  mean ms")
    for layer, row in m.per_layer.items():
        text = "-" if row.mean_completion_ms is None else f"{row.mean_completion_ms:.2f}"
        print(f"{layer:<16}{row.count:>8}  {text}")
    print()
    print(f"{'server':<8}{'executed':>10}{'reused':>8}{'stored MB':>11}  busy")
    for server_id, row in m.servers.items():
        print(f"{server_id:<8}{row.executed_count:>10}{row.reused_count:>8}"
              f"{row.stored_bytes / 1e6:>11.3f}  {row.busy_fraction * 100:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgereuse",
                                     description="Similarity-reuse edge simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a workload bundle for a built-in profile")
    gen.add_argument("--profile", required=True, help="built-in workload profile name")
    gen.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    gen.add_argument("--tasks", type=int, default=None, help="override the profile task count")
    gen.add_argument("--out", required=True, help="output directory for the bundle")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="replay a trace and write per-task and aggregate metrics")
    run.add_argument("--config", required=True, help="path to experiment.json")
    run.add_argument("--out", required=True, help="output directory for per_task.csv and metrics.json")
    run.add_argument("--event-log", action="store_true", help="also write events.csv")
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", help="rerun one trace at several reuse thresholds")
    swp.add_argument("--config", required=True, help="path to experiment.json")
    swp.add_argument("--thresholds", required=True,
                     help="comma-separated ascending list, e.g. 0.6,0.7,0.8,0.9 or 60,70,80,90")
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="print a readable summary of a metrics.json")
    rep.add_argument("--metrics", required=True, help="path to metrics.json")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
