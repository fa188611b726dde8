"""The four benchmark workloads, their inputs, and the checks on their outputs.

Every input is generated here from the workload seed; the program only sees
the generated files (trace workloads) or vectors (store-20k). One call of
``rep()`` is one repetition: set-up, then the timed replay or op stream,
then the output checks. Host times come from the clock passed to
``rep()``: a ``speed.SpeedClock`` in untraced repetitions, which corrects wall
time for the host's speed, and plain wall time otherwise.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import math
import statistics
import time
from pathlib import Path

import numpy as np

from edgereuse import config, simulator, workload
from edgereuse.core import SELF_SIMILARITY_SNAP
from edgereuse.hashing import LshFamily
from edgereuse.store import ReuseEntry, ReuseStore
from speed import WallClock

LAYERS = ("none", "device", "network", "server", "partial_server")
SIM_METRICS = tuple(f"sim.layer.{layer}" for layer in LAYERS) + (
    "sim.mean_completion_ms", "sim.p99_completion_ms", "sim.reuse_pct", "sim.accuracy_pct",
    "sim.makespan_s", "sim.server_executed")
SETUPS_PER_REP = 3


@dataclasses.dataclass
class Rep:
    """What one repetition measured and how many of its ops failed."""

    setup_s: float
    replay_s: float
    ops: int
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    digest: str = ""
    lookup_s: list = dataclasses.field(default_factory=list)
    insert_s: list = dataclasses.field(default_factory=list)
    setup_wall_s: float | None = None
    replay_wall_s: float | None = None
    speed_samples: list = dataclasses.field(default_factory=list)  # reference kernel times
    sim: dict = dataclasses.field(default_factory=dict)
    counts: dict = dataclasses.field(default_factory=dict)


# -- trace workloads -------------------------------------------------------

def _redraw_services(rows, services, seed):
    # Cut the cluster -> service binding so similar inputs reach every
    # service, including the two that share the object-detect stage.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    picks = rng.integers(len(services), size=len(rows))
    return [dataclasses.replace(r, service_id=services[int(i)]) for r, i in zip(rows, picks)]


def write_bundle(name: str, seed: int, tasks: int | None, out: Path) -> dict:
    """Generate one trace workload's experiment bundle into ``out``.

    Returns the generator's statistics plus its wall time. The files are the
    ones ``edgereuse generate`` writes, with the workload's topology and
    trace changes applied.
    """
    profiles = workload.builtin_profiles()
    profile = profiles["mnist-like" if name == "churn" else "mixed"]
    if tasks is not None:
        profile = dataclasses.replace(profile, tasks=tasks)
    elif name == "churn":
        profile = dataclasses.replace(profile, tasks=3000)
    t0 = time.perf_counter()
    generated = workload.generate_trace(profile, seed)
    generate_s = time.perf_counter() - t0
    rows = generated.rows
    if name == "churn":
        rows = _redraw_services(rows, profile.services, seed)
        topology = config.default_topology_data(seed, router_store_entries=256)
    else:
        topology = config.default_topology_data(seed)
    if name == "no-store":
        for group in ("devices", "routers", "servers"):
            for node in topology[group]:
                node["store"] = None
    out.mkdir(parents=True, exist_ok=True)
    workload.write_vectors_csv(out / "vectors.csv", generated.vectors)
    workload.write_trace_csv(out / "trace.csv", rows)
    config.write_json(out / "topology.json", topology)
    config.write_json(out / "services.json", config.default_services_data(profile.dim))
    config.write_json(out / "experiment.json", config.default_experiment_data(seed, dim=profile.dim))
    return dict(generated.stats, generate_s=generate_s)


def node_stores(sim):
    """(node id, store) for every node of a simulation that keeps a store."""
    for group in ("devices", "routers", "servers"):
        for node in getattr(sim, group, {}).values():
            store = getattr(node, "store", None)
            if store is not None:
                yield node.node_id, store


def check_store(label: str, store) -> list[str]:
    """audit() plus the capacity bounds; one message per broken invariant."""
    problems = []
    try:
        store.audit()
    except AssertionError as exc:
        problems.append(f"{label}: audit failed: {exc}")
    if len(store) > store.capacity_entries or store.total_bytes > store.capacity_bytes:
        problems.append(f"{label}: {len(store)} entries / {store.total_bytes} bytes exceed "
                        f"capacity {store.capacity_entries} / {store.capacity_bytes}")
    return problems


def check_replay(sim, report, tasks: int) -> tuple[int, list[str]]:
    """Failed tasks and problems of one replay.

    A task fails unless it has exactly one completion record. A broken store
    invariant cannot be pinned on one task, so it fails every task.
    """
    counts = collections.Counter(r.task_id for r in report.records)
    failed = sum(1 for t in range(tasks) if counts.get(t, 0) != 1)
    problems = [f"{failed} of {tasks} tasks not completed exactly once"] if failed else []
    stray = sum(c for t, c in counts.items() if not 0 <= t < tasks)
    if stray:
        failed = min(tasks, failed + stray)
        problems.append(f"{stray} records for task ids outside the trace")
    store_problems = [p for node_id, store in node_stores(sim) for p in check_store(node_id, store)]
    if store_problems:
        failed = tasks
    return failed, problems + store_problems


def sim_metrics(report) -> dict[str, float]:
    """Exact simulated outputs of one replay; simulated time, not host time."""
    a = report.aggregates
    completion = sorted(r.completion_us for r in report.records)
    p99 = completion[math.ceil(0.99 * len(completion)) - 1] if completion else 0
    out = {f"sim.layer.{layer}": a["per_layer"].get(layer, {}).get("count", 0) for layer in LAYERS}
    out.update({
        "sim.mean_completion_ms": a["mean_completion_ms"] or 0.0,
        "sim.p99_completion_ms": p99 / 1000.0,
        "sim.reuse_pct": a["reuse_pct"],
        "sim.accuracy_pct": a["accuracy_pct"] or 0.0,
        "sim.makespan_s": a["makespan_us"] / 1e6,
        "sim.server_executed": sum(s["executed_count"] for s in a["servers"].values()),
    })
    return out


class TraceWorkload:
    """A trace replayed by ``Simulation.run``; set-up is config load plus
    ``Simulation(...)``, the op is one task. Set-up is short next to the
    replay, so each repetition sets up several times and replays the last."""

    def __init__(self, name: str, seed: int, size: int | None, workdir: Path):
        self.workdir = workdir
        self.stats = write_bundle(name, seed, size, workdir / "bundle")
        self.tasks = self.stats["tasks"]

    def rep(self, clock=None) -> Rep:
        clock = clock or WallClock()
        setups, setup_walls = [], []
        for _ in range(SETUPS_PER_REP):
            t0, w0 = clock.now(), clock.wall()
            cfg = config.load_experiment(self.workdir / "bundle" / "experiment.json")
            sim = simulator.Simulation(cfg)
            setups.append(clock.now() - t0)
            setup_walls.append(clock.wall() - w0)
        t1, w1 = clock.now(), clock.wall()
        report = sim.run()
        t2, w2 = clock.now(), clock.wall()
        failed, problems = check_replay(sim, report, self.tasks)
        report.write_per_task_csv(self.workdir / "per_task.csv")
        report.write_metrics_json(self.workdir / "metrics.json")
        digest = hashlib.sha256()
        for name in ("per_task.csv", "metrics.json"):
            digest.update((self.workdir / name).read_bytes())
        stores = list(node_stores(sim))
        return Rep(statistics.median(setups), t2 - t1, self.tasks, failed, problems, digest.hexdigest(),
                   sim=sim_metrics(report),
                   counts={"entries_end": sum(len(s) for _, s in stores),
                           "bytes_end": sum(s.total_bytes for _, s in stores),
                           "audited": len(stores),
                           "events": getattr(sim, "seq", 0)},
                   setup_wall_s=statistics.median(setup_walls), replay_wall_s=w2 - w1)


# -- store-20k -------------------------------------------------------------

STORE_THRESHOLD = 0.8
STORE_LOOKUPS_PER_INSERT = 4
SIMILARITY_TOL = 1e-12


def exact_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine as the store defines it: snapped to 1 near 1, clamped at 0."""
    c = float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return 1.0 if c > 1.0 - SELF_SIMILARITY_SNAP else max(c, 0.0)


class StoreWorkload:
    """A library-only ``ReuseStore`` at 20K entries; set-up fills it to
    capacity, the op is one lookup or insert of the stream that follows."""

    def __init__(self, name: str, seed: int, size: int | None, workdir: Path):
        self.seed = seed
        self.capacity = 20_000 if size is None else size
        self.lookups = max(8, self.capacity // 5)
        inserts = self.lookups // STORE_LOOKUPS_PER_INSERT
        profile = dataclasses.replace(workload.builtin_profiles()["mnist-like"],
                                      tasks=self.capacity + self.lookups, repeat_fraction=0.0)
        t0 = time.perf_counter()
        vectors = workload.generate_trace(profile, seed).vectors
        self.stats = {"generate_s": time.perf_counter() - t0, "vectors": len(vectors),
                      "entries": self.capacity, "lookups": self.lookups, "inserts": inserts}
        self.fill = vectors[:self.capacity]
        self.queries = vectors[self.capacity:]
        self.tasks = self.lookups + inserts

    def rep(self, clock=None) -> Rep:
        clock = clock or WallClock()
        t0, w0 = clock.now(), clock.wall()
        family = LshFamily(self.fill.shape[1], k=16, tables=4, seed=self.seed)
        store = ReuseStore(family, self.capacity, 10 ** 12, policy="lru", probe_radius=1)
        for i, v in enumerate(self.fill):
            store.insert(ReuseEntry(v, "svc", {}, v, 0, insert_time=i))
        setup_s, setup_wall_s = clock.now() - t0, clock.wall() - w0
        problems = []
        filled = len(store)

        lookup_s, insert_s = [], []
        wall_s = 0.0
        digest = hashlib.sha256()
        failed = 0
        now = self.capacity
        for i, q in enumerate(self.queries):
            a, wa = clock.now(), clock.wall()
            found = store.lookup(q, STORE_THRESHOLD, now=now)
            lookup_s.append(clock.now() - a)
            wall_s += clock.wall() - wa
            now += 1
            digest.update(repr((found.hit, found.entry_id, found.similarity)).encode())
            if found.hit:
                sim = exact_cosine(store.get(found.entry_id).key_input, q)
                if abs(sim - found.similarity) > SIMILARITY_TOL or found.similarity < STORE_THRESHOLD:
                    failed += 1
                    problems.append(f"lookup {i}: reported similarity {found.similarity!r}, "
                                    f"exact {sim!r}, threshold {STORE_THRESHOLD}")
            if i % STORE_LOOKUPS_PER_INSERT == STORE_LOOKUPS_PER_INSERT - 1:
                # Insert the group's first query so the store keeps learning
                # the stream; at capacity every insert evicts one entry.
                v = self.queries[i - STORE_LOOKUPS_PER_INSERT + 1]
                entry = ReuseEntry(v, "svc", {}, v, 0, insert_time=now)
                a, wa = clock.now(), clock.wall()
                store.insert(entry)
                insert_s.append(clock.now() - a)
                wall_s += clock.wall() - wa
                now += 1
        store_problems = check_store("store-20k", store)
        if filled != self.capacity:
            store_problems.append(f"fill left {filled} entries, expected {self.capacity}")
        if store_problems:
            failed = self.tasks
        return Rep(setup_s, sum(lookup_s) + sum(insert_s), self.tasks, failed,
                   (store_problems + problems)[:20], digest.hexdigest(),
                   lookup_s=lookup_s, insert_s=insert_s,
                   counts={"entries_end": len(store), "bytes_end": store.total_bytes,
                           "audited": 1, "events": 0},
                   setup_wall_s=setup_wall_s, replay_wall_s=wall_s)


WORKLOADS = {
    "mixed": TraceWorkload,
    "no-store": TraceWorkload,
    "churn": TraceWorkload,
    "store-20k": StoreWorkload,
}


def make(name: str, seed: int, size: int | None, workdir: Path):
    return WORKLOADS[name](name, seed, size, workdir)
