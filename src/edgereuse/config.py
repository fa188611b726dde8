"""Experiment configuration: JSON schemas, validation, and default bundles.

One experiment file references the topology, service catalog, trace, and
vector files by relative path, so a directory is a complete reproducible
experiment. Validation errors name the offending field path.

Each JSON field is declared once, on the config dataclass that holds it:
its key, its type, its default (none means required) and its inclusive
bounds. The stage and service specs of services.py check their own values,
so a table here adds only their keys and types. ``_value`` applies every
per-field rule; the checks that relate several fields stay as code beside
the parser that needs them.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import SEED_MAX
from .hashing import FORWARDING_BITS
from .services import ServiceSpec, StageSpec
from .store import length_bytes


class ConfigError(Exception):
    """Invalid or unresolvable configuration; the message names the field."""


# The most float64 elements (128 MiB) of any one array sized from the
# bundle: the LSH hyperplanes (tables x k x dim), a stage's linear map
# (out_dim x input width) or a service's class projections (label_classes
# x output width).
MAX_ARRAY_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class _Json:
    """How one field is read from JSON.

    ``kind`` is int, float, bool, str, dict (a raw JSON object) or a
    dataclass read from a JSON object. With ``each`` set to list or dict the
    field holds a non-empty JSON list (read to a tuple) or a JSON object
    (read to a dict) of such values. ``lo`` and ``hi`` bound each number
    inclusively; a float field needs both, since they are what reject NaN
    and infinities.
    """

    kind: type
    key: str | None = None
    lo: float | None = None
    hi: float | None = None
    among: tuple[str, ...] = ()
    each: type | None = None


def _json(kind, default=MISSING, *, factory=MISSING, **spec):
    """A dataclass field read from JSON. With no default it is required; a
    default of None means that an absent or null value inherits."""
    return field(default=default, default_factory=factory,
                 metadata={"json": _Json(kind, **spec)})


@dataclass(frozen=True)
class StoreConfig:
    capacity_entries: int = _json(int, lo=0)
    capacity_bytes: int = _json(int, lo=0)
    policy: str = _json(str, "lru", among=("lru", "lfu"))
    # load_experiment pins lsh.k to FORWARDING_BITS, so that bounds the radius.
    probe_radius: int | None = _json(int, None, lo=0, hi=FORWARDING_BITS)

    @property
    def builds_store(self) -> bool:
        """Whether a node gets a store from this config: a store with either
        capacity 0 could hold nothing, so its node has none."""
        return self.capacity_entries > 0 and self.capacity_bytes > 0


@dataclass(frozen=True)
class DeviceConfig:
    node_id: str = _json(str, key="id")
    router: str = _json(str)
    delay_us: int = _json(int, lo=1)
    can_hash: bool = _json(bool, True)
    hash_time_us: int | None = _json(int, None, lo=0)
    store: StoreConfig | None = _json(StoreConfig, None)


@dataclass(frozen=True)
class RouterConfig:
    node_id: str = _json(str, key="id")
    server_delays: dict[str, int] = _json(int, key="servers", each=dict, lo=1)
    hash_time_us: int | None = _json(int, None, lo=0)
    store: StoreConfig | None = _json(StoreConfig, None)


@dataclass(frozen=True)
class ServerConfig:
    node_id: str = _json(str, key="id")
    store: StoreConfig | None = _json(StoreConfig, None)


@dataclass(frozen=True)
class TopologyConfig:
    devices: tuple[DeviceConfig, ...] = _json(DeviceConfig, each=list)
    routers: tuple[RouterConfig, ...] = _json(RouterConfig, each=list)
    servers: tuple[ServerConfig, ...] = _json(ServerConfig, each=list)


@dataclass(frozen=True)
class LshConfig:
    k: int = _json(int, FORWARDING_BITS)
    tables: int = _json(int, 4, lo=1)
    probe_radius: int = _json(int, 1, lo=0, hi=FORWARDING_BITS)


@dataclass(frozen=True)
class CostConfig:
    hash_time_us: int = _json(int, 1800, lo=0)
    lookup_time_us: int = _json(int, 1000, lo=0)


@dataclass(frozen=True)
class ControlConfig:
    window_us: int = _json(int, 1_000_000, lo=0)
    rebalance: bool = _json(bool, False)
    # (0, 0.5]: the smallest positive float is the inclusive form of "> 0".
    step_fraction: float = _json(float, 0.25, lo=math.ulp(0.0), hi=0.5)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    seed: int = _json(int, lo=0, hi=SEED_MAX)
    # One table of k hyperplanes must fit the array budget.
    dim: int = _json(int, lo=1, hi=MAX_ARRAY_ELEMENTS // FORWARDING_BITS)
    lsh: LshConfig = _json(LshConfig, factory=LshConfig)
    cost: CostConfig = _json(CostConfig, factory=CostConfig)
    control: ControlConfig = _json(ControlConfig, factory=ControlConfig)
    # Read from the files that the experiment names.
    topology: TopologyConfig
    services: tuple[ServiceSpec, ...]
    trace_path: Path
    vectors_path: Path
    thresholds: dict[str, float] = _json(float, factory=dict, each=dict, lo=0.0, hi=1.0)

    def service_map(self) -> dict[str, ServiceSpec]:
        return {s.service_id: s for s in self.services}


# A stage or a service checks its own values (services.py); the bundle
# declares only their JSON keys and types.
_SPEC_FIELDS = {
    StageSpec: {"stage_id": _Json(str), "transform_seed": _Json(int),
                "out_dim": _Json(int), "exec_time_us": _Json(int)},
    ServiceSpec: {"service_id": _Json(str, key="id"), "stages": _Json(StageSpec, each=list),
                  "label_classes": _Json(int)},
}


def _value(obj: dict, key, spec: _Json, where: str, default=MISSING):
    """``obj[key]`` held to its declaration ``spec``; every per-field rule
    of the bundle schema is applied here. ``default`` is MISSING for a
    required field, and a default of None lets null inherit."""
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
    if key not in obj:
        if default is MISSING:
            raise ConfigError(f"{path}: missing required field")
        return default
    v = obj[key]
    if v is None and default is None:
        return None
    if spec.each is not None:
        if not isinstance(v, spec.each):
            want = "list" if spec.each is list else "object"
            raise ConfigError(f"{path}: expected {want}, got {type(v).__name__}")
        if spec.each is list and not v:
            raise ConfigError(f"{path}: must not be empty")
        item = _Json(spec.kind, lo=spec.lo, hi=spec.hi, among=spec.among)
        items = dict(enumerate(v)) if spec.each is list else v
        read = {k: _value(items, k, item, path) for k in items}
        return tuple(read.values()) if spec.each is list else read
    if spec.kind not in (int, float, bool, str, dict):
        return _make(spec.kind, v, path)
    accepted = (int, float) if spec.kind is float else spec.kind
    # A bool is never a number, and an int is accepted where a float is expected.
    if isinstance(v, bool) != (spec.kind is bool) or not isinstance(v, accepted):
        raise ConfigError(f"{path}: expected {spec.kind.__name__}, got {type(v).__name__}")
    # Written as lo <= v <= hi, so a NaN fails it.
    if (spec.lo is not None and not spec.lo <= v) or (spec.hi is not None and not v <= spec.hi):
        bounds = f">= {spec.lo}" if spec.hi is None else f"in [{spec.lo}, {spec.hi}]"
        raise ConfigError(f"{path}: must be {bounds}")
    if spec.among and v not in spec.among:
        raise ConfigError(f"{path}: unknown {key} {v!r}, expected one of {', '.join(spec.among)}")
    return float(v) if spec.kind is float else v


def _known_keys_only(obj: dict, known, where: str) -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown field")


def _read(cls, obj, where: str, given: dict | None = None) -> dict:
    """The declared fields of ``cls``, read from the JSON object ``obj``; a
    field named in ``given`` takes its default from there. A key of ``obj``
    that ``cls`` does not declare is an error."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected object, got {type(obj).__name__}")
    given = given or {}
    out = {}
    known = set()
    for f in fields(cls):
        spec = f.metadata.get("json") or _SPEC_FIELDS.get(cls, {}).get(f.name)
        if spec is not None:
            default = f.default if f.default_factory is MISSING else f.default_factory()
            key = spec.key or f.name
            known.add(key)
            out[f.name] = _value(obj, key, spec, where, given.get(f.name, default))
    _known_keys_only(obj, known, where)
    return out


def _make(cls, obj, where: str, **given):
    """A ``cls`` read from the JSON object ``obj``. ``given`` supplies the
    fields that JSON does not hold, and defaults for those it may omit."""
    kwargs = {**given, **_read(cls, obj, where, given)}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _load_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise ConfigError(f"{what}: file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:  # malformed JSON, bad UTF-8, or an int past the digit limit
        raise ConfigError(f"{what}: {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: {path}: top level must be an object")
    return data


def parse_topology(data: dict, where: str = "topology") -> TopologyConfig:
    topo = _make(TopologyConfig, data, where)
    _validate_topology(topo, where)
    return topo


def _validate_topology(topo: TopologyConfig, where: str) -> None:
    ids: set[str] = set()
    for group in (topo.devices, topo.routers, topo.servers):
        for node in group:
            if node.node_id in ids:
                raise ConfigError(f"{where}: duplicate node id {node.node_id!r}")
            ids.add(node.node_id)
    router_ids = {r.node_id for r in topo.routers}
    server_ids = {s.node_id for s in topo.servers}
    for i, d in enumerate(topo.devices):
        if d.router not in router_ids:
            raise ConfigError(f"{where}.devices[{i}].router: unknown router {d.router!r}")
        if d.store is not None and d.store.builds_store and not d.can_hash:
            raise ConfigError(
                f"{where}.devices[{i}]: a device cache needs can_hash=true")
    for i, r in enumerate(topo.routers):
        for sid in r.server_delays:
            if sid not in server_ids:
                raise ConfigError(f"{where}.routers[{i}].servers: unknown server {sid!r}")
        if set(r.server_delays) != server_ids:
            missing = sorted(server_ids - set(r.server_delays))
            raise ConfigError(f"{where}.routers[{i}].servers: missing links to {missing}")


def parse_services(data: dict, dim: int, where: str = "services") -> tuple[ServiceSpec, ...]:
    _known_keys_only(data, ("label_classes", "services"), where)
    # The catalog's label_classes, when given, is every service's default.
    classes = _value(data, "label_classes", _Json(int), where, default=None)
    given = {"input_dim": dim} if classes is None else {"input_dim": dim, "label_classes": classes}
    items = _value(data, "services", _Json(dict, each=list), where)
    specs = tuple(_make(ServiceSpec, svc, f"{where}.services[{i}]", **given)
                  for i, svc in enumerate(items))
    seen = set()
    shared: dict[str, tuple] = {}
    for i, spec in enumerate(specs):
        if spec.service_id in seen:
            raise ConfigError(f"{where}: duplicate service id {spec.service_id!r}")
        seen.add(spec.service_id)
        in_dim = dim
        for j, stage in enumerate(spec.stages):
            if stage.out_dim * in_dim > MAX_ARRAY_ELEMENTS:
                raise ConfigError(
                    f"{where}.services[{i}].stages[{j}].out_dim: a {stage.out_dim} x {in_dim} "
                    f"stage map exceeds {MAX_ARRAY_ELEMENTS} elements")
            # Shared stage ids must denote the same computation, which
            # includes receiving the same input width.
            if shared.setdefault(stage.stage_id, (stage, in_dim)) != (stage, in_dim):
                raise ConfigError(
                    f"{where}.services[{i}].stages[{j}]: stage {stage.stage_id!r} redefined "
                    "with a different spec or input width")
            in_dim = stage.out_dim
        if spec.label_classes * spec.output_dim > MAX_ARRAY_ELEMENTS:
            raise ConfigError(
                f"{where}.services[{i}].label_classes: {spec.label_classes} classes of width "
                f"{spec.output_dim} exceed {MAX_ARRAY_ELEMENTS} elements")
    return specs


def _check_stores_fit(topo: TopologyConfig, services, dim: int, where: str = "topology") -> None:
    """Every store with both capacities above 0 must hold the largest entry
    its node inserts.

    Devices and routers cache responses (the key and the final output);
    servers cache executions, which also carry every stage's output.
    """
    response = server = 0
    for svc in services:
        entry = length_bytes(dim) + length_bytes(svc.output_dim)
        stages = {s.stage_id: s.out_dim for s in svc.stages}
        response = max(response, entry)
        server = max(server, entry + sum(length_bytes(n) for n in stages.values()))
    for group, nodes, need in (("devices", topo.devices, response),
                               ("routers", topo.routers, response),
                               ("servers", topo.servers, server)):
        for i, node in enumerate(nodes):
            st = node.store
            if st is not None and st.builds_store and st.capacity_bytes < need:
                raise ConfigError(
                    f"{where}.{group}[{i}].store.capacity_bytes: {st.capacity_bytes} bytes "
                    f"cannot hold the largest entry this node stores ({need} bytes)")


def load_experiment(path) -> ExperimentConfig:
    """Load and validate an experiment file and everything it references."""
    path = Path(path)
    data = _load_json(path, "experiment")
    where = "experiment"
    # The files that the experiment names, relative to its own directory.
    files = {name: path.parent / _value(data, name, _Json(str), where)
             for name in ("topology", "services", "trace", "vectors")}
    for name in ("trace", "vectors"):
        if not files[name].is_file():
            raise ConfigError(f"{where}.{name}: file not found: {files[name]}")
    own = _read(ExperimentConfig, {k: v for k, v in data.items() if k not in files}, where)
    cfg = ExperimentConfig(
        **own, topology=parse_topology(_load_json(files["topology"], "topology")),
        services=parse_services(_load_json(files["services"], "services"), own["dim"]),
        trace_path=files["trace"], vectors_path=files["vectors"])
    if cfg.lsh.k != FORWARDING_BITS:
        raise ConfigError(
            f"{where}.lsh.k: forwarding requires k={FORWARDING_BITS} (16-bit hash space)")
    planes = cfg.lsh.tables * cfg.lsh.k * cfg.dim
    if planes > MAX_ARRAY_ELEMENTS:
        raise ConfigError(
            f"{where}.lsh.tables: {cfg.lsh.tables} tables of {cfg.lsh.k} x {cfg.dim} hyperplanes "
            f"exceed {MAX_ARRAY_ELEMENTS} elements")
    _check_stores_fit(cfg.topology, cfg.services, cfg.dim)
    service_ids = {s.service_id for s in cfg.services}
    for sid in cfg.thresholds:
        if sid not in service_ids:
            raise ConfigError(f"{where}.thresholds.{sid}: unknown service")
    return cfg


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
    """An experiment that spells out every declared default."""
    return {
        "seed": seed,
        "dim": dim,
        "lsh": asdict(LshConfig()),
        "cost": asdict(CostConfig()),
        "control": asdict(ControlConfig()),
        "topology": "topology.json",
        "services": "services.json",
        "trace": "trace.csv",
        "vectors": "vectors.csv",
        "thresholds": {},
    }


def write_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
