"""Experiment configuration: JSON schemas, validation, and default bundles.

One experiment file references the topology, service catalog, trace, and
vector files by relative path, so a directory is a complete reproducible
experiment. Validation errors name the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import check_threshold
from .hashing import FORWARDING_BITS
from .services import ServiceSpec, StageSpec
from .store import vector_bytes


class ConfigError(Exception):
    """Invalid or unresolvable configuration; the message names the field."""


@dataclass(frozen=True)
class StoreConfig:
    capacity_entries: int
    capacity_bytes: int
    policy: str = "lru"
    probe_radius: int | None = None


@dataclass(frozen=True)
class DeviceConfig:
    node_id: str
    router: str
    delay_us: int
    can_hash: bool = True
    hash_time_us: int | None = None
    store: StoreConfig | None = None


@dataclass(frozen=True)
class RouterConfig:
    node_id: str
    server_delays: dict[str, int]
    hash_time_us: int | None = None
    store: StoreConfig | None = None


@dataclass(frozen=True)
class ServerConfig:
    node_id: str
    store: StoreConfig | None = None


@dataclass(frozen=True)
class TopologyConfig:
    devices: tuple[DeviceConfig, ...]
    routers: tuple[RouterConfig, ...]
    servers: tuple[ServerConfig, ...]


@dataclass(frozen=True)
class LshConfig:
    k: int = FORWARDING_BITS
    tables: int = 4
    probe_radius: int = 1


@dataclass(frozen=True)
class CostConfig:
    hash_time_us: int = 1800
    lookup_time_us: int = 1000


@dataclass(frozen=True)
class ControlConfig:
    window_us: int = 1_000_000
    rebalance: bool = False
    step_fraction: float = 0.25


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dim: int
    lsh: LshConfig
    cost: CostConfig
    control: ControlConfig
    topology: TopologyConfig
    services: tuple[ServiceSpec, ...]
    trace_path: Path
    vectors_path: Path
    thresholds: dict[str, float] = field(default_factory=dict)

    def service_map(self) -> dict[str, ServiceSpec]:
        return {s.service_id: s for s in self.services}


_SENTINEL = object()


def _expect(obj, key, kind, where, default=_SENTINEL):
    if key not in obj:
        if default is not _SENTINEL:
            return default
        raise ConfigError(f"{where}.{key}: missing required field")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got bool")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional_int(obj, key, where) -> int | None:
    """An int field that may be absent or null (meaning: inherit)."""
    if obj.get(key) is None:
        return None
    return _expect(obj, key, int, where)


def _load_json(path: Path, what: str) -> dict:
    if not path.exists():
        raise ConfigError(f"{what}: file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: {path}: top level must be an object")
    return data


def _parse_store(obj, where) -> StoreConfig | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: store must be an object or null")
    cfg = StoreConfig(
        capacity_entries=_expect(obj, "capacity_entries", int, where),
        capacity_bytes=_expect(obj, "capacity_bytes", int, where),
        policy=_expect(obj, "policy", str, where, default="lru"),
        probe_radius=_optional_int(obj, "probe_radius", where),
    )
    if cfg.capacity_entries < 0 or cfg.capacity_bytes < 0:
        raise ConfigError(f"{where}: capacities must be non-negative")
    if cfg.policy not in ("lru", "lfu"):
        raise ConfigError(f"{where}.policy: unknown policy {cfg.policy!r}")
    # load_experiment pins lsh.k to FORWARDING_BITS, so that bounds the radius.
    if cfg.probe_radius is not None and not 0 <= cfg.probe_radius <= FORWARDING_BITS:
        raise ConfigError(f"{where}.probe_radius: must be in [0, {FORWARDING_BITS}]")
    return cfg


def parse_topology(data: dict, where: str = "topology") -> TopologyConfig:
    devices = []
    for i, d in enumerate(_expect(data, "devices", list, where)):
        w = f"{where}.devices[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{w}: must be an object")
        devices.append(DeviceConfig(
            node_id=_expect(d, "id", str, w),
            router=_expect(d, "router", str, w),
            delay_us=_expect(d, "delay_us", int, w),
            can_hash=_expect(d, "can_hash", bool, w, default=True),
            hash_time_us=_optional_int(d, "hash_time_us", w),
            store=_parse_store(d.get("store"), f"{w}.store"),
        ))
    routers = []
    for i, r in enumerate(_expect(data, "routers", list, where)):
        w = f"{where}.routers[{i}]"
        if not isinstance(r, dict):
            raise ConfigError(f"{w}: must be an object")
        delays = _expect(r, "servers", dict, w)
        for sid, delay in delays.items():
            if not isinstance(delay, int) or isinstance(delay, bool) or delay <= 0:
                raise ConfigError(f"{w}.servers.{sid}: delay must be a positive integer")
        routers.append(RouterConfig(
            node_id=_expect(r, "id", str, w),
            server_delays=dict(delays),
            hash_time_us=_optional_int(r, "hash_time_us", w),
            store=_parse_store(r.get("store"), f"{w}.store"),
        ))
    servers = []
    for i, s in enumerate(_expect(data, "servers", list, where)):
        w = f"{where}.servers[{i}]"
        if not isinstance(s, dict):
            raise ConfigError(f"{w}: must be an object")
        servers.append(ServerConfig(
            node_id=_expect(s, "id", str, w),
            store=_parse_store(s.get("store"), f"{w}.store"),
        ))

    topo = TopologyConfig(tuple(devices), tuple(routers), tuple(servers))
    _validate_topology(topo, where)
    return topo


def _validate_topology(topo: TopologyConfig, where: str) -> None:
    ids: set[str] = set()
    for group in (topo.devices, topo.routers, topo.servers):
        for node in group:
            if node.node_id in ids:
                raise ConfigError(f"{where}: duplicate node id {node.node_id!r}")
            ids.add(node.node_id)
    if not topo.devices:
        raise ConfigError(f"{where}.devices: at least one device required")
    if not topo.routers:
        raise ConfigError(f"{where}.routers: at least one router required")
    if not topo.servers:
        raise ConfigError(f"{where}.servers: at least one server required")
    router_ids = {r.node_id for r in topo.routers}
    server_ids = {s.node_id for s in topo.servers}
    for i, d in enumerate(topo.devices):
        if d.router not in router_ids:
            raise ConfigError(f"{where}.devices[{i}].router: unknown router {d.router!r}")
        if d.delay_us <= 0:
            raise ConfigError(f"{where}.devices[{i}].delay_us: must be > 0")
        if d.hash_time_us is not None and d.hash_time_us < 0:
            raise ConfigError(f"{where}.devices[{i}].hash_time_us: must be >= 0")
        if d.store is not None and d.store.capacity_entries > 0 and not d.can_hash:
            raise ConfigError(
                f"{where}.devices[{i}]: a device cache needs can_hash=true")
    for i, r in enumerate(topo.routers):
        for sid in r.server_delays:
            if sid not in server_ids:
                raise ConfigError(f"{where}.routers[{i}].servers: unknown server {sid!r}")
        if r.hash_time_us is not None and r.hash_time_us < 0:
            raise ConfigError(f"{where}.routers[{i}].hash_time_us: must be >= 0")
        if set(r.server_delays) != server_ids:
            missing = sorted(server_ids - set(r.server_delays))
            raise ConfigError(f"{where}.routers[{i}].servers: missing links to {missing}")


def parse_services(data: dict, dim: int, where: str = "services") -> tuple[ServiceSpec, ...]:
    default_classes = _expect(data, "label_classes", int, where, default=10)
    specs = []
    stage_specs: dict[str, tuple] = {}
    stage_in_dims: dict[str, int] = {}
    for i, svc in enumerate(_expect(data, "services", list, where)):
        w = f"{where}.services[{i}]"
        if not isinstance(svc, dict):
            raise ConfigError(f"{w}: must be an object")
        stages = []
        in_dim = dim
        for j, st in enumerate(_expect(svc, "stages", list, w)):
            ws = f"{w}.stages[{j}]"
            if not isinstance(st, dict):
                raise ConfigError(f"{ws}: must be an object")
            try:
                stage = StageSpec(
                    stage_id=_expect(st, "stage_id", str, ws),
                    transform_seed=_expect(st, "transform_seed", int, ws),
                    out_dim=_expect(st, "out_dim", int, ws),
                    exec_time_us=_expect(st, "exec_time_us", int, ws),
                )
            except ValueError as exc:
                raise ConfigError(f"{ws}: {exc}") from None
            key = (stage.transform_seed, stage.out_dim, stage.exec_time_us)
            if stage.stage_id in stage_specs:
                # Shared stage ids must denote the same computation, which
                # includes receiving the same input width.
                if stage_specs[stage.stage_id] != key:
                    raise ConfigError(
                        f"{ws}: stage {stage.stage_id!r} redefined with a different spec")
                if stage_in_dims[stage.stage_id] != in_dim:
                    raise ConfigError(
                        f"{ws}: stage {stage.stage_id!r} used at a different input width")
            else:
                stage_specs[stage.stage_id] = key
                stage_in_dims[stage.stage_id] = in_dim
            stages.append(stage)
            in_dim = stage.out_dim
        try:
            spec = ServiceSpec(
                service_id=_expect(svc, "id", str, w),
                input_dim=dim,
                stages=tuple(stages),
                label_classes=_expect(svc, "label_classes", int, w, default=default_classes),
            )
        except ValueError as exc:
            raise ConfigError(f"{w}: {exc}") from None
        specs.append(spec)
    if not specs:
        raise ConfigError(f"{where}.services: at least one service required")
    seen = set()
    for spec in specs:
        if spec.service_id in seen:
            raise ConfigError(f"{where}: duplicate service id {spec.service_id!r}")
        seen.add(spec.service_id)
    return tuple(specs)


def _check_stores_fit(topo: TopologyConfig, services, dim: int, where: str = "topology") -> None:
    """Every enabled store must hold the largest entry its node inserts.

    Devices and routers cache responses (the key and the final output);
    servers cache executions, which also carry every stage's output.
    """
    def size(n):  # vector_bytes reads only the length
        return vector_bytes(range(n))

    response = server = 0
    for svc in services:
        entry = size(dim) + size(svc.output_dim)
        stages = {s.stage_id: s.out_dim for s in svc.stages}
        response = max(response, entry)
        server = max(server, entry + sum(size(n) for n in stages.values()))
    for group, nodes, need in (("devices", topo.devices, response),
                               ("routers", topo.routers, response),
                               ("servers", topo.servers, server)):
        for i, node in enumerate(nodes):
            st = node.store
            if st is not None and 0 < st.capacity_bytes < need and st.capacity_entries > 0:
                raise ConfigError(
                    f"{where}.{group}[{i}].store.capacity_bytes: {st.capacity_bytes} bytes "
                    f"cannot hold the largest entry this node stores ({need} bytes)")


def load_experiment(path) -> ExperimentConfig:
    """Load and validate an experiment file and everything it references."""
    path = Path(path)
    data = _load_json(path, "experiment")
    base = path.parent
    where = "experiment"

    seed = _expect(data, "seed", int, where)
    if not 0 <= seed < (1 << 64):
        raise ConfigError(f"{where}.seed: must be a 64-bit non-negative integer")
    dim = _expect(data, "dim", int, where)
    if dim < 1:
        raise ConfigError(f"{where}.dim: must be >= 1")

    lsh_obj = _expect(data, "lsh", dict, where, default={})
    lsh = LshConfig(
        k=_expect(lsh_obj, "k", int, f"{where}.lsh", default=FORWARDING_BITS),
        tables=_expect(lsh_obj, "tables", int, f"{where}.lsh", default=4),
        probe_radius=_expect(lsh_obj, "probe_radius", int, f"{where}.lsh", default=1),
    )
    if lsh.k != FORWARDING_BITS:
        raise ConfigError(
            f"{where}.lsh.k: forwarding requires k={FORWARDING_BITS} (16-bit hash space)")
    if lsh.tables < 1:
        raise ConfigError(f"{where}.lsh.tables: must be >= 1")
    if not 0 <= lsh.probe_radius <= lsh.k:
        raise ConfigError(f"{where}.lsh.probe_radius: must be in [0, {lsh.k}]")

    cost_obj = _expect(data, "cost", dict, where, default={})
    cost = CostConfig(
        hash_time_us=_expect(cost_obj, "hash_time_us", int, f"{where}.cost", default=1800),
        lookup_time_us=_expect(cost_obj, "lookup_time_us", int, f"{where}.cost", default=1000),
    )
    if cost.hash_time_us < 0 or cost.lookup_time_us < 0:
        raise ConfigError(f"{where}.cost: times must be >= 0")

    ctl_obj = _expect(data, "control", dict, where, default={})
    control = ControlConfig(
        window_us=_expect(ctl_obj, "window_us", int, f"{where}.control", default=1_000_000),
        rebalance=_expect(ctl_obj, "rebalance", bool, f"{where}.control", default=False),
        step_fraction=_expect(ctl_obj, "step_fraction", float, f"{where}.control", default=0.25),
    )
    if control.window_us < 0:
        raise ConfigError(f"{where}.control.window_us: must be >= 0")
    if not 0 < control.step_fraction <= 0.5:
        raise ConfigError(f"{where}.control.step_fraction: must be in (0, 0.5]")

    topo_path = base / _expect(data, "topology", str, where)
    services_path = base / _expect(data, "services", str, where)
    trace_path = base / _expect(data, "trace", str, where)
    vectors_path = base / _expect(data, "vectors", str, where)
    for p, name in ((trace_path, "trace"), (vectors_path, "vectors")):
        if not p.exists():
            raise ConfigError(f"{where}.{name}: file not found: {p}")

    topology = parse_topology(_load_json(topo_path, "topology"))
    services = parse_services(_load_json(services_path, "services"), dim)
    _check_stores_fit(topology, services, dim)

    thresholds = {}
    service_ids = {s.service_id for s in services}
    for sid, value in _expect(data, "thresholds", dict, where, default={}).items():
        if sid not in service_ids:
            raise ConfigError(f"{where}.thresholds.{sid}: unknown service")
        try:
            thresholds[sid] = check_threshold(value)
        except ValueError as exc:
            raise ConfigError(f"{where}.thresholds.{sid}: {exc}") from None

    return ExperimentConfig(
        seed=seed, dim=dim, lsh=lsh, cost=cost, control=control,
        topology=topology, services=services,
        trace_path=trace_path, vectors_path=vectors_path, thresholds=thresholds)


def default_services_data(dim: int) -> dict:
    """Four pipelines shaped like common edge applications; two of them
    share their first stage so intermediate results can be reused across
    services. Every pipeline costs 100 ms when fully executed."""
    return {
        "label_classes": 10,
        "services": [
            {"id": "cognitive-assist", "stages": [
                {"stage_id": "object-detect", "transform_seed": 7001, "out_dim": dim, "exec_time_us": 60_000},
                {"stage_id": "assist-rank", "transform_seed": 7002, "out_dim": dim, "exec_time_us": 40_000},
            ]},
            {"id": "traffic-count", "stages": [
                {"stage_id": "object-detect", "transform_seed": 7001, "out_dim": dim, "exec_time_us": 60_000},
                {"stage_id": "count-aggregate", "transform_seed": 7003, "out_dim": dim, "exec_time_us": 40_000},
            ]},
            {"id": "voice-command", "stages": [
                {"stage_id": "voice-transcribe", "transform_seed": 7004, "out_dim": dim, "exec_time_us": 100_000},
            ]},
            {"id": "scene-render", "stages": [
                {"stage_id": "mesh-build", "transform_seed": 7005, "out_dim": dim, "exec_time_us": 55_000},
                {"stage_id": "render-shade", "transform_seed": 7006, "out_dim": dim, "exec_time_us": 45_000},
            ]},
        ],
    }


def default_topology_data(seed: int, *, device_store_entries: int = 24,
                          router_store_entries: int = 4096,
                          server_store_entries: int = 65536) -> dict:
    """Two devices, two routers, two servers; each router reaches both
    servers. Link delays are drawn per seed from 3 to 4 ms so a device to
    server round trip lands between 12 and 16 ms. One device cannot hash
    (its first router fills in), and therefore keeps no local cache."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    delays = [int(rng.integers(3000, 4001)) for _ in range(6)]
    return {
        "devices": [
            {"id": "dev0", "router": "r0", "delay_us": delays[0], "can_hash": True,
             "store": {"capacity_entries": device_store_entries,
                       "capacity_bytes": 4_000_000, "policy": "lru"}},
            {"id": "dev1", "router": "r1", "delay_us": delays[1], "can_hash": False,
             "store": None},
        ],
        "routers": [
            {"id": "r0", "servers": {"s0": delays[2], "s1": delays[3]},
             "store": {"capacity_entries": router_store_entries,
                       "capacity_bytes": 100_000_000, "policy": "lru"}},
            {"id": "r1", "servers": {"s0": delays[4], "s1": delays[5]},
             "store": {"capacity_entries": router_store_entries,
                       "capacity_bytes": 100_000_000, "policy": "lru"}},
        ],
        "servers": [
            {"id": "s0", "store": {"capacity_entries": server_store_entries,
                                   "capacity_bytes": 1_000_000_000, "policy": "lru"}},
            {"id": "s1", "store": {"capacity_entries": server_store_entries,
                                   "capacity_bytes": 1_000_000_000, "policy": "lru"}},
        ],
    }


def default_experiment_data(seed: int, *, dim: int = 64) -> dict:
    return {
        "seed": seed,
        "dim": dim,
        "lsh": {"k": FORWARDING_BITS, "tables": 4, "probe_radius": 1},
        "cost": {"hash_time_us": 1800, "lookup_time_us": 1000},
        "control": {"window_us": 1_000_000, "rebalance": False, "step_fraction": 0.25},
        "topology": "topology.json",
        "services": "services.json",
        "trace": "trace.csv",
        "vectors": "vectors.csv",
        "thresholds": {},
    }


def write_json(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
