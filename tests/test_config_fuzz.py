"""Fuzz the bundle loader with mutated JSON.

Each example mutates one of the three JSON files of a 30-task bundle: a
value swapped for one of another type, a bool, a negative or huge number,
NaN, infinity or null; a key or list item deleted; an extra key or item
added. The loader must return an ExperimentConfig or raise a ConfigError
whose message starts with a field path. Only ``load_experiment`` runs, never
a replay, so a huge int never reaches an allocation.
"""

import copy
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereuse.cli import write_bundle
from edgereuse.config import ConfigError, ExperimentConfig, load_experiment, write_json
from edgereuse.workload import builtin_profiles

FILES = ("experiment.json", "topology.json", "services.json")
FIELD_PATH = re.compile(r"(experiment|topology|services)(\.[\w-]+|\[\d+\])*: ")

ODD_VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 0.5, -0.5, 2**63, 2**64, 10**30, -10**30, 10**400,
    float("nan"), float("inf"), float("-inf"), "", "x", "0.5", [], [1], {}, {"x": 1},
]).map(copy.deepcopy)  # a later mutation may append to a list drawn here


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-bundle")
    write_bundle(dataclasses.replace(builtin_profiles()["cctv-like"], tasks=30), 5, out)
    data = json.loads((out / "experiment.json").read_text())
    data["thresholds"] = {"voice-command": 0.7}  # so the fuzzer reaches the float map
    write_json(out / "experiment.json", data)
    originals = {name: json.loads((out / name).read_text()) for name in FILES}
    return out, originals, dict(originals)


def _slots(node):
    """(container, key) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated(draw, originals):
    name = draw(st.sampled_from(FILES))
    data = copy.deepcopy(originals[name])
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(data))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(["replace", "delete", "extra", "duplicate"]))
        if op == "replace":
            container[key] = draw(ODD_VALUES)
        elif op == "delete":
            del container[key]
        elif isinstance(container, dict):
            container["extra_" + op] = draw(ODD_VALUES) if op == "extra" else container[key]
        else:
            container.append(draw(ODD_VALUES) if op == "extra" else container[key])
    return name, data


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_loader_returns_config_or_names_the_field(bundle, data):
    out, originals, on_disk = bundle
    name, mutation = data.draw(mutated(originals))
    for file in FILES:
        want = mutation if file == name else originals[file]
        if on_disk[file] is not want:  # the mutated file, and the one to restore
            write_json(out / file, want)
            on_disk[file] = want
    try:
        cfg = load_experiment(out / "experiment.json")
    except ConfigError as exc:
        assert FIELD_PATH.match(str(exc)), str(exc)
    else:
        assert isinstance(cfg, ExperimentConfig)
