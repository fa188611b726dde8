import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgereuse.cli import BUNDLE_FILES, main


def generate(tmp_path, *extra):
    out = tmp_path / "bundle"
    argv = ["generate", "--profile", "cctv-like", "--seed", "3",
            "--tasks", "60", "--out", str(out), *extra]
    assert main(argv) == 0
    return out


class TestGenerate:
    def test_writes_full_bundle(self, tmp_path, capsys):
        out = generate(tmp_path)
        for name in BUNDLE_FILES:
            assert (out / name).is_file(), name
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert "tasks=60" in captured
        assert "intra_cosine=" in captured

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
        assert "vector 4 is not finite" in err[0]

    def test_overflowing_norm_is_one_stderr_line(self, tmp_path):
        # Run as a process, as a user runs it: pytest would otherwise catch
        # a warning that the CLI leaks before its error line.
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
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1, proc.stderr
        assert err[0].startswith("error:")
        assert "vector 4 has a norm that overflows float64" in err[0]

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
        bad.write_text("{not json")
        assert main(["report", "--metrics", str(bad)]) == 2

    def test_missing_keys(self, tmp_path, capsys):
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps({"tasks": 5}))
        assert main(["report", "--metrics", str(sparse)]) == 2


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
