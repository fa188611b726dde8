import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import edgereuse.cli
from edgereuse.cli import BUNDLE_FILES, main
from edgereuse.config import load_experiment, write_json
from edgereuse.store import ReuseStore


def generate(tmp_path, *extra):
    out = tmp_path / "bundle"
    argv = ["generate", "--profile", "cctv-like", "--seed", "3",
            "--tasks", "60", "--out", str(out), *extra]
    assert main(argv) == 0
    return out


def never(*args, **kwargs):
    raise AssertionError("work began before the options were checked")


class TestGenerate:
    def test_writes_full_bundle(self, tmp_path, capsys):
        out = generate(tmp_path)
        for name in BUNDLE_FILES:
            assert (out / name).is_file(), name
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert "tasks=60" in captured
        assert "intra_cosine=" in captured

    def test_trace_without_same_cluster_pairs(self, tmp_path, capsys):
        # 20 tasks over 6 unique vectors leave nothing to measure the
        # intra-cluster cosine on.
        generate(tmp_path, "--tasks", "20")
        assert "intra_cosine=n/a" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a = generate(tmp_path / "a")
        b = generate(tmp_path / "b")
        for name in BUNDLE_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_unknown_profile(self, tmp_path, capsys):
        code = main(["generate", "--profile", "bogus", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown profile" in err
        assert "cctv-like" in err

    def test_rejects_nonpositive_tasks(self, tmp_path, capsys):
        code = main(["generate", "--profile", "cctv-like", "--tasks", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
    def test_rejects_a_seed_that_experiment_seed_refuses(self, tmp_path, capsys, seed):
        # The rule of experiment.seed, checked before any file is written.
        code = main(["generate", "--profile", "cctv-like", "--seed", str(seed),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --seed must be in [0, {2**64 - 1}], got {seed}"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("under", ["", "bundle"], ids=["file", "under-a-file"])
    def test_out_at_a_file_is_refused_before_generating(self, tmp_path, capsys, monkeypatch,
                                                        under):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        monkeypatch.setattr(edgereuse.cli, "generate_trace", never)
        code = main(["generate", "--profile", "cctv-like", "--out", str(taken / under)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --out: {taken} is not a directory"]
        assert taken.read_text() == "keep"

    def test_largest_seed_writes_a_bundle_that_loads(self, tmp_path):
        out = generate(tmp_path, "--seed", str(2**64 - 1), "--tasks", "20")
        assert load_experiment(out / "experiment.json").seed == 2**64 - 1


class TestRun:
    def test_produces_metrics(self, tmp_path, capsys):
        bundle = generate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "results"
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "per_task.csv").is_file()
        assert (out / "metrics.json").is_file()
        assert not (out / "events.csv").exists()
        stdout = capsys.readouterr().out
        assert "tasks=60" in stdout
        assert "reuse=" in stdout
        with open(out / "metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["tasks"] == 60

    def test_event_log_flag(self, tmp_path):
        bundle = generate(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(out), "--event-log"])
        assert code == 0
        header = (out / "events.csv").read_text().splitlines()[0]
        assert header == "time_us,seq,kind,node_id,task_id,detail,cost_us"

    def test_zero_byte_store_on_a_device_that_cannot_hash(self, tmp_path):
        # A store with capacity_bytes 0 builds no store, so a device that
        # cannot hash may carry one, and replays as with store null.
        outputs = []
        for tag, store in (("zero", {"capacity_entries": 8, "capacity_bytes": 0}),
                           ("none", None)):
            bundle = generate(tmp_path / tag)
            path = bundle / "topology.json"
            data = json.loads(path.read_text())
            device = next(d for d in data["devices"] if not d["can_hash"])
            assert device["store"] is None
            device["store"] = store
            path.write_text(json.dumps(data))
            out = tmp_path / tag / "results"
            code = main(["run", "--config", str(bundle / "experiment.json"),
                         "--out", str(out), "--event-log"])
            assert code == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("per_task.csv", "metrics.json", "events.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("under", ["", "results"], ids=["file", "under-a-file"])
    def test_out_at_a_file_is_refused_before_the_bundle_is_read(self, tmp_path, capsys,
                                                                monkeypatch, under):
        bundle = generate(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        monkeypatch.setattr(edgereuse.cli, "load_experiment", never)
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(taken / under)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --out: {taken} is not a directory"]
        assert taken.read_text() == "keep"

    def test_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_config_error_reports_field(self, tmp_path, capsys):
        bundle = generate(tmp_path)
        path = bundle / "experiment.json"
        data = json.loads(path.read_text())
        data["lsh"]["k"] = 12
        path.write_text(json.dumps(data))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "lsh.k" in capsys.readouterr().err


    def test_non_finite_vector_is_one_error_line(self, tmp_path, capsys):
        bundle = generate(tmp_path)
        path = bundle / "vectors.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "nan"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert "vector 4: feature vector contains NaN or Inf" in err[0]

    def test_coordinate_of_1e200_replays_and_its_repeats_are_reused(self, tmp_path):
        # Run as a process, as a user runs it: pytest would otherwise catch
        # a warning that the CLI leaks. The vector's squares overflow but its
        # norm does not, so it replays. Its first task executes; each repeat
        # overflows the raw score against its own stored key, is scored
        # again at a safe scale, and is reused.
        bundle = generate(tmp_path)
        path = bundle / "vectors.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "1e200"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "edgereuse", "run", "--config",
                               str(bundle / "experiment.json"), "--out", str(tmp_path / "r")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        with (bundle / "trace.csv").open() as f:
            huge = [i for i, row in enumerate(csv.DictReader(f)) if row["vector_id"] == "4"]
        with (tmp_path / "r" / "per_task.csv").open() as f:
            layers = [row["reuse_layer"] for row in csv.DictReader(f)]
        assert len(layers) == 60 and len(huge) > 1
        assert layers[huge[0]] == "none"
        assert "none" not in {layers[i] for i in huge[1:]}

    def test_non_ascii_device_id_under_an_ascii_locale(self, tmp_path):
        # Bundle files are UTF-8 whatever the locale: a device id that is not
        # ASCII replays under LC_ALL=C with Python's UTF-8 mode off.
        bundle = generate(tmp_path)
        topology = json.loads((bundle / "topology.json").read_text(encoding="utf-8"))
        assert topology["devices"][0]["id"] == "dev0"
        topology["devices"][0]["id"] = "dév0"
        (bundle / "topology.json").write_text(json.dumps(topology, ensure_ascii=False),
                                              encoding="utf-8")
        trace = bundle / "trace.csv"
        lines = trace.read_text(encoding="utf-8").splitlines()
        lines = [line.replace(",dev0,", ",dév0,") for line in lines]
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUTF8", "PYTHONIOENCODING") and not k.startswith("LC_")}
        env.update(LC_ALL="C", LANG="C",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = tmp_path / "r"
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "edgereuse", "run",
                               "--config", str(bundle / "experiment.json"), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert ",dév0," in (out / "per_task.csv").read_text(encoding="utf-8")

    def test_norm_at_the_overflow_edge_is_one_stderr_line(self, tmp_path):
        # A row whose norm is just past the largest float64, though every
        # coordinate and the norm of the row scaled by its largest magnitude
        # are finite: the load must reject it as the replay would.
        draws = np.random.default_rng(7).standard_normal((120, 64))
        v = draws[119] / np.linalg.norm(draws[119]) * (1 + 2**-30) * sys.float_info.max
        peak = np.abs(v).max()
        assert np.isfinite(v).all() and np.isfinite(np.linalg.norm(v / peak))
        with np.errstate(over="ignore"):
            assert not np.isfinite(peak * np.linalg.norm(v / peak))
        bundle = generate(tmp_path, "--tasks", "20")
        path = bundle / "vectors.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["0"] + [repr(float(x)) for x in v])
        path.write_text("\n".join(lines) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "edgereuse", "run", "--config",
                               str(bundle / "experiment.json"), "--out", str(tmp_path / "r")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1, proc.stderr
        assert err[0].startswith("error:")
        assert "vector 0: feature vector norm overflows float64" in err[0]

    @pytest.mark.parametrize("name, field, value, why", [
        ("vectors.csv", None, None, "expected 65 fields, got 64"),
        ("trace.csv", 0, "12.5", "invalid literal for int()")])
    def test_malformed_csv_row_is_one_error_line(self, tmp_path, capsys, name, field, value, why):
        bundle = generate(tmp_path)
        path = bundle / name
        lines = path.read_text().splitlines()
        fields = lines[6].split(",")
        if field is None:
            fields.pop()
        else:
            fields[field] = value
        lines[6] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: row 7: {why}")

    @staticmethod
    def _without_windows_last_row_at(bundle, time_us):
        # No control windows, so no window count bounds the trace's times.
        experiment = json.loads((bundle / "experiment.json").read_text())
        experiment["control"]["window_us"] = 0
        write_json(bundle / "experiment.json", experiment)
        path = bundle / "trace.csv"
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[0] = str(time_us)
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines)

    @pytest.mark.parametrize("time_us, why", [
        (-1, "time_us must be in [0, 9223372036854775807]"),
        (2**63, "time_us must be in [0, 9223372036854775807]"),
        (10**400, "time_us must be in [0, 9223372036854775807]")],
        ids=["negative", "past-int64", "10**400"])
    def test_trace_time_out_of_range_is_one_error_line(self, tmp_path, capsys, time_us, why):
        bundle = generate(tmp_path)
        path, row = self._without_windows_last_row_at(bundle, time_us)
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: row {row}: {why}"]
        assert not (tmp_path / "r").exists()

    def test_largest_trace_time_replays_to_a_readable_report(self, tmp_path, capsys):
        # Every file a replay writes is one its reader accepts: the last
        # task's completion lands past int64, as a Python int, and far
        # below the largest float metrics.json admits.
        bundle = generate(tmp_path)
        self._without_windows_last_row_at(bundle, 2**63 - 1)
        out = tmp_path / "r"
        assert main(["run", "--config", str(bundle / "experiment.json"), "--out", str(out)]) == 0
        makespan = json.loads((out / "metrics.json").read_text())["makespan_us"]
        assert 2**63 - 1 < makespan < sys.float_info.max
        capsys.readouterr()
        assert main(["report", "--metrics", str(out / "metrics.json")]) == 0
        assert "makespan" in capsys.readouterr().out

    @pytest.mark.parametrize("name, quote", [("vectors.csv", '"'), ("vectors.csv", ""),
                                             ("trace.csv", "")])
    def test_field_over_csvs_limit_is_one_error_line(self, tmp_path, capsys, name, quote):
        bundle = generate(tmp_path)
        path = bundle / name
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = quote + "1" * (csv.field_size_limit() + 1) + quote
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: row 4: field larger than field limit "
                       f"({csv.field_size_limit()})"]

    @pytest.mark.parametrize("name", ["vectors.csv", "trace.csv"])
    @pytest.mark.parametrize("line", [1, 7, -1], ids=["header", "row-7", "last-row"])
    def test_non_utf8_byte_is_one_error_line(self, tmp_path, capsys, name, line):
        # The last row of vectors.csv lies beyond the reader's first buffered
        # chunk, so its row is counted on the raw file, not on the chunk.
        bundle = generate(tmp_path)
        path = bundle / name
        lines = path.read_bytes().split(b"\n")[:-1]
        row = line if line > 0 else len(lines)
        lines[row - 1] = lines[row - 1][:2] + b"\xff" + lines[row - 1][2:]
        path.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        code = main(["run", "--config", str(bundle / "experiment.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: row {row}: not valid UTF-8"]


class TestSweep:
    def sweep(self, tmp_path, thresholds, capsys):
        bundle = generate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(bundle / "experiment.json"),
                     "--thresholds", thresholds, "--out", str(out)])
        return code, out, capsys.readouterr()

    def test_writes_csv_and_prints_rows(self, tmp_path, capsys):
        code, out, captured = self.sweep(tmp_path, "0.6,0.8,0.9", capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,reuse_pct,accuracy_pct"
        assert len(lines) == 4
        printed = [l for l in captured.out.splitlines() if l.startswith("threshold=")]
        assert len(printed) == 3
        assert all("reuse=" in l for l in printed)

    def test_percent_form_matches_fractions(self, tmp_path, capsys):
        _, frac_csv, _ = self.sweep(tmp_path / "f", "0.6,0.8", capsys)
        _, pct_csv, _ = self.sweep(tmp_path / "p", "60,80", capsys)
        assert frac_csv.read_bytes() == pct_csv.read_bytes()

    def test_descending_rejected(self, tmp_path, capsys):
        code, _, captured = self.sweep(tmp_path, "0.9,0.6", capsys)
        assert code == 2
        assert "ascending" in captured.err

    def test_empty_rejected(self, tmp_path, capsys):
        code, _, captured = self.sweep(tmp_path, " ", capsys)
        assert code == 2

    @pytest.mark.parametrize("under, error", [("", "{} is a directory"),
                                              ("file/sweep.csv", "{}/file is not a directory")],
                             ids=["directory", "under-a-file"])
    def test_out_of_the_wrong_kind_is_refused_before_the_bundle_is_read(
            self, tmp_path, capsys, monkeypatch, under, error):
        bundle = generate(tmp_path)
        (tmp_path / "file").write_text("keep")
        monkeypatch.setattr(edgereuse.cli, "load_experiment", never)
        capsys.readouterr()
        code = main(["sweep", "--config", str(bundle / "experiment.json"),
                     "--thresholds", "0.8", "--out", str(tmp_path / under)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --out: {error.format(tmp_path)}"]

    @pytest.mark.parametrize("thresholds, error", [
        ("0.9,0.6", "thresholds must be sorted ascending: [0.9, 0.6]"),
        (" ", "no thresholds given"),
        ("0.5,abc", "threshold 'abc' is not a number")])
    def test_thresholds_are_checked_before_the_bundle_is_read(self, tmp_path, capsys,
                                                              monkeypatch, thresholds, error):
        monkeypatch.setattr(edgereuse.cli, "load_experiment", never)
        code = main(["sweep", "--config", str(tmp_path / "experiment.json"),
                     "--thresholds", thresholds, "--out", str(tmp_path / "sweep.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--thresholds", "0.8"]],
                             ids=["run", "sweep"])
    def test_fault_inside_a_replay_is_not_bad_usage(self, tmp_path, argv):
        # A ValueError raised inside a replay is a fault of the program: it
        # propagates from a sweep as it does from a run, and is not exit 2.
        bundle = generate(tmp_path)
        with mock.patch.object(ReuseStore, "insert", side_effect=ValueError("injected fault")):
            with pytest.raises(ValueError, match="^injected fault$"):
                main([*argv, "--config", str(bundle / "experiment.json"),
                      "--out", str(tmp_path / "out")])

    def test_row_threshold_outside_unit_interval_aborts(self, tmp_path, capsys):
        # The sweep checks the trace as a run does, although each replay
        # sets every task's threshold itself.
        bundle = generate(tmp_path)
        trace = bundle / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",1.5"
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        config = str(bundle / "experiment.json")
        errors = []
        for argv in (["run", "--out", str(tmp_path / "results")],
                     ["sweep", "--thresholds", "0.6,0.8", "--out", str(tmp_path / "sweep.csv")]):
            assert main([argv[0], "--config", config, *argv[1:]]) == 1
            errors.append(capsys.readouterr().err)
        assert "row 3: threshold 1.5 outside [0, 1]" in errors[0]
        assert errors[1] == errors[0]
        assert not (tmp_path / "sweep.csv").exists()


DROP = object()  # a value that deletes its key

# name: (the key path of the one value changed, the value, the error line)
MALFORMED_METRICS = {
    "per-layer-list": (["per_layer"], [], "metrics.per_layer: expected object, got list"),
    "string-mean": (["mean_completion_ms"], "16.38",
                    "metrics.mean_completion_ms: expected float, got str"),
    "nan-reuse": (["reuse_pct"], float("nan"), "metrics.reuse_pct: must be in [0.0, 100.0]"),
    "server-missing-reused": (["servers", "s0", "reused_count"], DROP,
                              "metrics.servers.s0.reused_count: missing required field"),
    # A key that may be null may not be absent.
    "absent-accuracy": (["accuracy_pct"], DROP, "metrics.accuracy_pct: missing required field"),
    "huge-makespan": (["makespan_us"], 10**400,
                      f"metrics.makespan_us: must be in [0, {sys.float_info.max}]"),
    "negative-window-count": (["windows", 1, "servers", "s1", "executed_count"], -1,
                              "metrics.windows[1].servers.s1.executed_count: "
                              f"must be in [0, {sys.float_info.max}]"),
    "undeclared-key": (["per_layer", "device", "p99_ms"], 1.0,
                       "metrics.per_layer.device.p99_ms: unknown field"),
}


class TestReport:
    def test_prints_summary_tables(self, tmp_path, capsys):
        bundle = generate(tmp_path)
        out = tmp_path / "results"
        main(["run", "--config", str(bundle / "experiment.json"), "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "--metrics", str(out / "metrics.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tasks" in stdout
        assert "reuse" in stdout
        for layer in ("device", "network", "server", "partial_server"):
            assert layer in stdout

    def test_missing_file(self, tmp_path, capsys):
        code = main(["report", "--metrics", str(tmp_path / "none.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for content in (b"{not json", b'{"tasks": "\xff"}'):
            bad.write_bytes(content)
            assert main(["report", "--metrics", str(bad)]) == 2, content
            assert capsys.readouterr().err.startswith("error: "), content

    def test_missing_keys(self, tmp_path, capsys):
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps({"tasks": 5}))
        assert main(["report", "--metrics", str(sparse)]) == 2

    @pytest.fixture(scope="class")
    def metrics(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        bundle = generate(out)
        assert main(["run", "--config", str(bundle / "experiment.json"), "--out", str(out)]) == 0
        data = json.loads((out / "metrics.json").read_text())
        assert len(data["windows"]) > 1 and data["accuracy_pct"] is not None
        return data

    @staticmethod
    def malformed(metrics, tmp_path, name):
        """The named malformed copy of metrics, written to a file, and the
        error line it must give."""
        (*parents, last), value, message = MALFORMED_METRICS[name]
        data = copy.deepcopy(metrics)
        node = data
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        write_json(tmp_path / "metrics.json", data)
        return tmp_path / "metrics.json", f"error: {message}\n"

    @pytest.mark.parametrize("name", list(MALFORMED_METRICS))
    def test_malformed_file_names_its_field(self, metrics, tmp_path, capsys, name):
        path, error = self.malformed(metrics, tmp_path, name)
        capsys.readouterr()
        assert main(["report", "--metrics", str(path)]) == 2
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("name", ["per-layer-list", "string-mean", "nan-reuse"])
    def test_malformed_file_is_one_stderr_line_from_the_process(self, metrics, tmp_path, name):
        # Run as a user runs it: exit 2 and one error line, with no traceback.
        path, error = self.malformed(metrics, tmp_path, name)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "edgereuse", "report", "--metrics", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "generate" in capsys.readouterr().out

    def test_no_subcommand_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
