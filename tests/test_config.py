import json
import re

import pytest

from edgereuse.cli import main
from edgereuse.config import (MAX_ARRAY_ELEMENTS, ConfigError, default_experiment_data,
                              default_services_data, default_topology_data, load_experiment,
                              parse_services, parse_topology, write_json)
from edgereuse.workload import builtin_profiles


@pytest.fixture
def bundle(tmp_path):
    from edgereuse.cli import write_bundle
    profile = builtin_profiles()["cctv-like"]
    import dataclasses
    write_bundle(dataclasses.replace(profile, tasks=30), 5, tmp_path)
    return tmp_path


def load_bundle_data(bundle):
    with open(bundle / "experiment.json") as fh:
        return json.load(fh)


def rewrite(bundle, data):
    write_json(bundle / "experiment.json", data)
    return bundle / "experiment.json"


class TestLoadExperiment:
    def test_round_trip(self, bundle):
        cfg = load_experiment(bundle / "experiment.json")
        assert cfg.seed == 5
        assert cfg.dim == 64
        assert cfg.lsh.k == 16 and cfg.lsh.tables == 4 and cfg.lsh.probe_radius == 1
        assert cfg.cost.hash_time_us == 1800 and cfg.cost.lookup_time_us == 1000
        assert cfg.control.window_us == 1_000_000 and cfg.control.rebalance is False
        assert {d.node_id for d in cfg.topology.devices} == {"dev0", "dev1"}
        assert {r.node_id for r in cfg.topology.routers} == {"r0", "r1"}
        assert {s.node_id for s in cfg.topology.servers} == {"s0", "s1"}
        assert set(cfg.service_map()) == {"cognitive-assist", "traffic-count",
                                          "voice-command", "scene-render"}
        assert cfg.trace_path.exists() and cfg.vectors_path.exists()
        assert cfg.thresholds == {}

    def test_missing_experiment_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            load_experiment(tmp_path / "nope.json")

    def test_missing_trace_file_names_path(self, bundle):
        (bundle / "trace.csv").unlink()
        with pytest.raises(ConfigError, match=r"trace.*trace\.csv"):
            load_experiment(bundle / "experiment.json")

    def test_invalid_json_reported(self, bundle):
        (bundle / "experiment.json").write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_experiment(bundle / "experiment.json")

    def test_k_must_be_16(self, bundle):
        data = load_bundle_data(bundle)
        data["lsh"]["k"] = 8
        with pytest.raises(ConfigError, match="k"):
            load_experiment(rewrite(bundle, data))

    def test_probe_radius_bounded(self, bundle):
        data = load_bundle_data(bundle)
        data["lsh"]["probe_radius"] = 17
        with pytest.raises(ConfigError, match="probe_radius"):
            load_experiment(rewrite(bundle, data))

    def test_missing_field_names_path(self, bundle):
        data = load_bundle_data(bundle)
        del data["seed"]
        with pytest.raises(ConfigError, match=r"experiment\.seed"):
            load_experiment(rewrite(bundle, data))

    def test_bool_is_not_an_int(self, bundle):
        data = load_bundle_data(bundle)
        data["dim"] = True
        with pytest.raises(ConfigError, match="got bool"):
            load_experiment(rewrite(bundle, data))

    def test_thresholds_validated(self, bundle):
        data = load_bundle_data(bundle)
        data["thresholds"] = {"voice-command": 0.7}
        cfg = load_experiment(rewrite(bundle, data))
        assert cfg.thresholds == {"voice-command": 0.7}
        data["thresholds"] = {"unknown-svc": 0.7}
        with pytest.raises(ConfigError, match="unknown service"):
            load_experiment(rewrite(bundle, data))
        data["thresholds"] = {"voice-command": 1.7}
        with pytest.raises(ConfigError, match="voice-command"):
            load_experiment(rewrite(bundle, data))
        for bad in (True, "0.5", float("nan")):
            data["thresholds"] = {"voice-command": bad}
            with pytest.raises(ConfigError, match=r"^experiment\.thresholds\.voice-command: "):
                load_experiment(rewrite(bundle, data))

    def test_step_fraction_range(self, bundle):
        data = load_bundle_data(bundle)
        data["control"]["step_fraction"] = 0.75
        with pytest.raises(ConfigError, match="step_fraction"):
            load_experiment(rewrite(bundle, data))


class TestTopologySchema:
    def test_device_store_requires_hashing(self):
        data = default_topology_data(0)
        data["devices"][0]["can_hash"] = False
        with pytest.raises(ConfigError, match="can_hash"):
            parse_topology(data)

    def test_unknown_router_reference(self):
        data = default_topology_data(0)
        data["devices"][0]["router"] = "r9"
        with pytest.raises(ConfigError, match="unknown router"):
            parse_topology(data)

    def test_router_must_link_every_server(self):
        data = default_topology_data(0)
        del data["routers"][0]["servers"]["s1"]
        with pytest.raises(ConfigError, match="missing links"):
            parse_topology(data)

    def test_duplicate_node_ids(self):
        data = default_topology_data(0)
        data["servers"][1]["id"] = "s0"
        with pytest.raises(ConfigError, match="duplicate node id"):
            parse_topology(data)

    def test_unknown_store_policy(self):
        data = default_topology_data(0)
        data["routers"][0]["store"]["policy"] = "random"
        with pytest.raises(ConfigError, match="unknown policy"):
            parse_topology(data)

    def test_default_topology_is_seeded(self):
        a = default_topology_data(3)
        b = default_topology_data(3)
        c = default_topology_data(4)
        assert a == b
        assert a != c
        delays = [d["delay_us"] for d in a["devices"]]
        delays += [v for r in a["routers"] for v in r["servers"].values()]
        assert all(3000 <= d <= 4000 for d in delays)


def assert_topology_rejected(bundle, tmp_path, capsys, mutate, field):
    """The mutated topology is a ConfigError naming the field, and
    `edgereuse run` exits 2 naming it too."""
    path = bundle / "topology.json"
    data = json.loads(path.read_text())
    mutate(data)
    write_json(path, data)
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_experiment(bundle / "experiment.json")
    code = main(["run", "--config", str(bundle / "experiment.json"),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    assert field in capsys.readouterr().err


class TestProbePathFields:
    """Bad per-node probe-path fields are config errors naming the field,
    and `edgereuse run` exits 2 on them."""

    def assert_rejected(self, bundle, tmp_path, capsys, mutate, field):
        assert_topology_rejected(bundle, tmp_path, capsys, mutate, field)

    def test_store_probe_radius_bool_rejected(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["routers"][0]["store"]["probe_radius"] = True
        self.assert_rejected(bundle, tmp_path, capsys, mutate,
                             "routers[0].store.probe_radius")

    def test_store_probe_radius_above_k_rejected(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["servers"][1]["store"]["probe_radius"] = 17
        self.assert_rejected(bundle, tmp_path, capsys, mutate,
                             "servers[1].store.probe_radius")

    def test_node_hash_time_type_checked(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["devices"][0]["hash_time_us"] = "abc"
        self.assert_rejected(bundle, tmp_path, capsys, mutate,
                             "devices[0].hash_time_us")

    def test_null_fields_inherit(self, bundle):
        path = bundle / "topology.json"
        data = json.loads(path.read_text())
        data["devices"][0]["hash_time_us"] = None
        data["routers"][0]["store"]["probe_radius"] = None
        write_json(path, data)
        cfg = load_experiment(bundle / "experiment.json")
        assert cfg.topology.devices[0].hash_time_us is None
        assert cfg.topology.routers[0].store.probe_radius is None


class TestStoreFitsLargestEntry:
    """A store with both capacities above 0 but smaller than the largest
    entry its node inserts is a config error at load, not an
    OversizedEntryError mid-replay. With the
    default catalog at dim 64, a response entry (key and output) is 1152
    bytes and a server entry (also two stage outputs) is 2304 bytes."""

    def set_capacity(self, group, index, capacity):
        def mutate(data):
            data[group][index]["store"]["capacity_bytes"] = capacity
        return mutate

    def test_device_store(self, bundle, tmp_path, capsys):
        assert_topology_rejected(bundle, tmp_path, capsys, self.set_capacity("devices", 0, 100),
                                 "topology.devices[0].store.capacity_bytes")

    def test_router_store(self, bundle, tmp_path, capsys):
        assert_topology_rejected(bundle, tmp_path, capsys,
                                 self.set_capacity("routers", 1, 1151),
                                 "topology.routers[1].store.capacity_bytes")

    def test_server_store_holds_stage_outputs(self, bundle, tmp_path, capsys):
        assert_topology_rejected(bundle, tmp_path, capsys,
                                 self.set_capacity("servers", 0, 2303),
                                 "topology.servers[0].store.capacity_bytes")

    def test_exact_fit_and_disabled_stores_load(self, bundle):
        path = bundle / "topology.json"
        data = json.loads(path.read_text())
        data["devices"][0]["store"]["capacity_bytes"] = 1152
        data["routers"][0]["store"]["capacity_bytes"] = 1152
        data["routers"][1]["store"]["capacity_bytes"] = 0
        data["servers"][0]["store"]["capacity_bytes"] = 2304
        data["servers"][1]["store"] = {"capacity_entries": 0, "capacity_bytes": 10}
        write_json(path, data)
        cfg = load_experiment(bundle / "experiment.json")
        assert cfg.topology.servers[0].store.capacity_bytes == 2304


class TestArraySizeBounds:
    """No array sized from the bundle may exceed MAX_ARRAY_ELEMENTS: the LSH
    hyperplanes, a stage's map and a service's class projections. An
    oversized field is a config error at load, and `edgereuse run` exits 2;
    nothing here builds such an array."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        import edgereuse.hashing
        import edgereuse.services

        def refuse(*args, **kwargs):
            raise AssertionError("an array was sized from the bundle")
        monkeypatch.setattr(edgereuse.hashing.LshFamily, "__init__", refuse)
        monkeypatch.setattr(edgereuse.services, "_transform_matrix", refuse)
        monkeypatch.setattr(edgereuse.services, "_class_projections", refuse)

    def assert_rejected(self, bundle, tmp_path, capsys, name, mutate, field):
        path = bundle / name
        data = json.loads(path.read_text())
        mutate(data)
        write_json(path, data)
        with pytest.raises(ConfigError, match="^" + re.escape(field) + ": "):
            load_experiment(bundle / "experiment.json")
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "results")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_lsh_tables_bounded(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["lsh"]["tables"] = 10**12
        self.assert_rejected(bundle, tmp_path, capsys, "experiment.json", mutate,
                             "experiment.lsh.tables")

    def test_lsh_tables_at_the_budget_load(self, bundle, tmp_path, capsys):
        # dim 64 and k 16: 16,384 tables are exactly the budget.
        tables = MAX_ARRAY_ELEMENTS // (16 * 64)
        data = load_bundle_data(bundle)
        data["lsh"]["tables"] = tables
        assert load_experiment(rewrite(bundle, data)).lsh.tables == tables

        def mutate(data):
            data["lsh"]["tables"] = tables + 1
        self.assert_rejected(bundle, tmp_path, capsys, "experiment.json", mutate,
                             "experiment.lsh.tables")

    def test_dim_bounded(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["dim"] = 10**12
        self.assert_rejected(bundle, tmp_path, capsys, "experiment.json", mutate,
                             "experiment.dim")

    def test_first_stage_out_dim_bounded(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["services"][0]["stages"][0]["out_dim"] = 10**12
        self.assert_rejected(bundle, tmp_path, capsys, "services.json", mutate,
                             "services.services[0].stages[0].out_dim")

    def test_later_stage_out_dim_bounded_by_its_input_width(self, bundle, tmp_path, capsys):
        # 2^20 x 64 is over the budget, though 2^20 alone is not.
        def mutate(data):
            data["services"][3]["stages"][1]["out_dim"] = 1 << 20
        self.assert_rejected(bundle, tmp_path, capsys, "services.json", mutate,
                             "services.services[3].stages[1].out_dim")

    def test_label_classes_bounded(self, bundle, tmp_path, capsys):
        def mutate(data):
            data["services"][2]["label_classes"] = 10**9
        self.assert_rejected(bundle, tmp_path, capsys, "services.json", mutate,
                             "services.services[2].label_classes")

    @pytest.mark.parametrize("profile", sorted(builtin_profiles()))
    def test_every_builtin_bundle_loads(self, tmp_path, profile):
        from edgereuse.cli import write_bundle
        import dataclasses
        write_bundle(dataclasses.replace(builtin_profiles()[profile], tasks=5), 3, tmp_path)
        cfg = load_experiment(tmp_path / "experiment.json")
        assert cfg.lsh.tables * cfg.lsh.k * cfg.dim <= MAX_ARRAY_ELEMENTS


class TestServicesSchema:
    def test_default_catalog_shape(self):
        specs = parse_services(default_services_data(64), 64)
        by_id = {s.service_id: s for s in specs}
        assert set(by_id) == {"cognitive-assist", "traffic-count",
                              "voice-command", "scene-render"}
        # Every pipeline costs the same fully executed, so reuse savings are
        # comparable across services.
        assert {sum(st.exec_time_us for st in s.stages) for s in specs} == {100_000}
        shared_a = by_id["cognitive-assist"].stages[0]
        shared_b = by_id["traffic-count"].stages[0]
        assert shared_a.stage_id == shared_b.stage_id
        assert shared_a == shared_b

    def test_shared_stage_must_match_exactly(self):
        data = default_services_data(64)
        data["services"][1]["stages"][0]["exec_time_us"] += 1
        with pytest.raises(ConfigError, match="redefined"):
            parse_services(data, 64)

    def test_duplicate_service_ids(self):
        data = default_services_data(64)
        data["services"][1]["id"] = data["services"][0]["id"]
        with pytest.raises(ConfigError, match="duplicate service id"):
            parse_services(data, 64)

    def test_stage_field_errors_name_the_path(self):
        data = default_services_data(64)
        del data["services"][0]["stages"][0]["transform_seed"]
        with pytest.raises(ConfigError, match=r"services\[0\].stages\[0\].transform_seed"):
            parse_services(data, 64)

    def test_label_classes_defaulting(self):
        data = default_services_data(32)
        data["label_classes"] = 5
        data["services"][0]["label_classes"] = 7
        specs = parse_services(data, 32)
        by_id = {s.service_id: s for s in specs}
        assert by_id["cognitive-assist"].label_classes == 7
        assert by_id["traffic-count"].label_classes == 5


# One misspelled key in each kind of object: (file, the object's place in
# it, the key, the field path that the error names).
MISSPELLED_KEYS = {
    "experiment": ("experiment.json", (), "typo_field", "experiment.typo_field"),
    "lsh": ("experiment.json", ("lsh",), "tabels", "experiment.lsh.tabels"),
    "cost": ("experiment.json", ("cost",), "hash_time", "experiment.cost.hash_time"),
    "control": ("experiment.json", ("control",), "window", "experiment.control.window"),
    "topology": ("topology.json", (), "device", "topology.device"),
    "device": ("topology.json", ("devices", 0), "delay", "topology.devices[0].delay"),
    "router": ("topology.json", ("routers", 0), "server", "topology.routers[0].server"),
    "server": ("topology.json", ("servers", 0), "stores", "topology.servers[0].stores"),
    "store": ("topology.json", ("routers", 0, "store"), "capacity",
              "topology.routers[0].store.capacity"),
    "services": ("services.json", (), "label_class", "services.label_class"),
    "service": ("services.json", ("services", 0), "stage", "services.services[0].stage"),
    "stage": ("services.json", ("services", 0, "stages", 0), "exec_time",
              "services.services[0].stages[0].exec_time"),
}


@pytest.mark.parametrize("kind", MISSPELLED_KEYS)
def test_a_key_the_schema_does_not_declare_is_an_error(bundle, tmp_path, capsys, kind):
    name, place, key, field = MISSPELLED_KEYS[kind]
    data = json.loads((bundle / name).read_text())
    obj = data
    for step in place:
        obj = obj[step]
    obj[key] = 9
    write_json(bundle / name, data)
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: unknown field$"):
        load_experiment(bundle / "experiment.json")
    code = main(["run", "--config", str(bundle / "experiment.json"),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    assert f"{field}: unknown field" in capsys.readouterr().err


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_default_experiment_references_bundle_files(self):
        data = default_experiment_data(9)
        assert data["topology"] == "topology.json"
        assert data["services"] == "services.json"
        assert data["trace"] == "trace.csv"
        assert data["vectors"] == "vectors.csv"
        assert default_experiment_data(9, dim=32)["dim"] == 32
