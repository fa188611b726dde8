"""The bundle's CSV readers against their row-by-row reference, and replays
of mutated CSVs.

``read_vectors_csv`` parses the values in one np.loadtxt pass, and
``read_trace_csv`` fills its rows without the frozen __init__. Their accepted
files, arrays, rows and ``row N`` errors must be those of the row-by-row
readers below, which are the readers as they were before either change.
"""

import csv
import dataclasses
import re
import struct
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereuse import workload
from edgereuse.cli import write_bundle
from edgereuse.config import ConfigError, load_experiment
from edgereuse.simulator import Simulation, SimulationError
from edgereuse.workload import TRACE_HEADER, TraceRow, read_trace_csv, read_vectors_csv


# -- the reference readers -------------------------------------------------

def oracle_read_vectors_csv(path) -> np.ndarray:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "vector_id":
            raise ValueError(f"{path}: not a vectors file (bad header)")
        dim = len(header) - 1
        out = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise ValueError(f"{path}: row {lineno}: expected {dim + 1} fields, got {len(row)}")
            try:
                vid = int(row[0])
                values = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
            if vid != len(out):
                raise ValueError(f"{path}: row {lineno}: vector ids must be dense and ordered")
            out.append(values)
    return np.array(out, dtype=np.float64).reshape(len(out), dim)


def oracle_read_trace_csv(path) -> list[TraceRow]:
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: not a trace file (expected header {','.join(TRACE_HEADER)})")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ValueError(f"{path}: row {lineno}: expected 5 fields, got {len(row)}")
            try:
                rows.append(TraceRow(int(row[0]), row[1], row[2], int(row[3]), float(row[4])))
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
    return rows


def outcome(read, path):
    """What a reader makes of a file: ("ok", value) or ("error", message)."""
    try:
        return "ok", read(path)
    except ValueError as exc:
        return "error", str(exc)


def trace_key(rows):
    # Bit patterns, so that NaN thresholds and their signs compare too.
    return [(r.time_us, r.device_id, r.service_id, r.vector_id, struct.pack("<d", r.threshold))
            for r in rows]


def rows_are_plain(path):
    """Whether every row after the header is ASCII and holds no quote, no
    underscore and none of \\x1c-\\x1f: the rows np.loadtxt may parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        next(csv.reader(fh), None)
        body = fh.read()
    return body.isascii() and not re.search('["_\x1c-\x1f]', body)


def assert_vectors_agree(path):
    """Both readers accept with the same bytes, or reject with the same
    message. On a file both accept, the row-by-row scan runs once if a row
    is not plain, and never otherwise."""
    want = outcome(oracle_read_vectors_csv, path)
    with mock.patch.object(workload, "_scan_vectors", wraps=workload._scan_vectors) as scan:
        got = outcome(read_vectors_csv, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert got[1].dtype == np.float64 and got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()
        assert got[1].flags["C_CONTIGUOUS"]
        assert scan.call_count == (0 if rows_are_plain(path) else 1)
    else:
        assert got[1] == want[1]


def assert_traces_agree(path):
    want = outcome(oracle_read_trace_csv, path)
    got = outcome(read_trace_csv, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert trace_key(got[1]) == trace_key(want[1])
    else:
        assert got[1] == want[1]


# -- hand-made files -------------------------------------------------------

V_HEAD = "vector_id,v0,v1\n"
T_HEAD = ",".join(TRACE_HEADER) + "\n"

VECTOR_CASES = {
    "plain": V_HEAD + "0,1.5,-2.0\n1,3.0,4.0\n",
    "blank line mid-file": V_HEAD + "0,1.5,-2.0\n\n1,3.0,4.0\n",
    "trailing blank line": V_HEAD + "0,1.5,-2.0\n1,3.0,4.0\n\n",
    "whitespace-only line": V_HEAD + "0,1.5,-2.0\n  \n1,3.0,4.0\n",
    "quoted fields": V_HEAD + '"0","1.5",-2.0\n1,"3.0","4.0"\n',
    "quoted field spanning lines": V_HEAD + '0,"1.5\n",-2.0\n1,3.0,4.0\n',
    "quoted comma": V_HEAD + '0,"1,5",-2.0\n',
    "underscore literals": V_HEAD + "0,1_0,-2.0\n1,3.0,4_0.2_5\n",
    "underscore id": V_HEAD + "0,1.0,2.0\n0_1,3.0,4.0\n",
    "bad underscore": V_HEAD + "0,1__0,-2.0\n",
    "padded spaces": V_HEAD + " 0 , 1.5 ,\t-2.0\n+1,3.0 , 4.0\n",
    "comment line": V_HEAD + "0,1.5,-2.0\n# a note\n1,3.0,4.0\n",
    "short row": V_HEAD + "0,1.5,-2.0\n1,3.0\n",
    "long row": V_HEAD + "0,1.5,-2.0\n1,3.0,4.0,5.0\n",
    "short rows throughout": V_HEAD + "0,1.5\n1,3.0\n",
    "non-numeric field": V_HEAD + "0,1.5,abc\n",
    "empty field": V_HEAD + "0,1.5,\n",
    "float id": V_HEAD + "0,1.5,-2.0\n1.0,3.0,4.0\n",
    "negative id": V_HEAD + "-1,1.5,-2.0\n",
    "gapped ids": V_HEAD + "0,1.5,-2.0\n2,3.0,4.0\n",
    "huge id": V_HEAD + "9" * 30 + ",1.5,-2.0\n",
    "nan inf and 1e999": V_HEAD + "0,nan,-inf\n1,1e999,-Infinity\n2,-nan,NaN\n",
    "quoted signed nan": V_HEAD + '0,"-nan",1.0\n',
    "subnormal and tiny": V_HEAD + "0,1e-320,1e-400\n",
    "CRLF": V_HEAD.replace("\n", "\r\n") + "0,1.5,-2.0\r\n1,3.0,4.0\r\n",
    "CR only": V_HEAD.replace("\n", "\r") + "0,1.5,-2.0\r1,3.0,4.0\r",
    "no final newline": V_HEAD + "0,1.5,-2.0\n1,3.0,4.0",
    "header only": V_HEAD,
    "header only, no newline": V_HEAD.rstrip("\n"),
    "empty file": "",
    "bad header": "id,v0,v1\n0,1.5,-2.0\n",
    "blank first line": "\n" + V_HEAD + "0,1.5,-2.0\n",
    "no value columns": "vector_id\n0\n1\n",
    "unicode digits": V_HEAD + "0,١.5,-2.0\n",
    "unicode space": V_HEAD + "0, 1.5 ,-2.0\n",
    "file separator padding": V_HEAD + "0,\x1c1.5,-2.0\n",
    "vertical tab padding": V_HEAD + "0,\x0b1.5\x0c,-2.0\n",
    "NUL in a field": V_HEAD + "0,1.5\x00,-2.0\n",
    "hex literal": V_HEAD + "0,0x10,-2.0\n",
}

TRACE_CASES = {
    "plain": T_HEAD + "100,dev0,svc,0,0.8\n250,dev1,svc,1,0.9\n",
    "blank line mid-file": T_HEAD + "100,dev0,svc,0,0.8\n\n250,dev1,svc,1,0.9\n",
    "trailing blank line": T_HEAD + "100,dev0,svc,0,0.8\n\n",
    "quoted and underscored": T_HEAD + '"1_00",dev0,"s,vc",0,0.8\n',
    "padded spaces": T_HEAD + " 100 ,dev0,svc, 0 ,0.8 \n",
    "short row": T_HEAD + "100,dev0,svc,0\n",
    "long row": T_HEAD + "100,dev0,svc,0,0.8,x\n",
    "float time": T_HEAD + "100.5,dev0,svc,0,0.8\n",
    "nan threshold": T_HEAD + "100,dev0,svc,0,nan\n200,dev0,svc,0,-nan\n",
    "CRLF, no final newline": T_HEAD.replace("\n", "\r\n") + "100,dev0,svc,0,0.8\r\n200,dev0,svc,0,0.8",
    "header only": T_HEAD,
    "bad header": "time,device\n",
}


@pytest.mark.parametrize("name", VECTOR_CASES)
def test_vectors_reader_matches_row_by_row_reader(tmp_path, name):
    path = tmp_path / "vectors.csv"
    path.write_text(VECTOR_CASES[name], newline="", encoding="utf-8")
    assert_vectors_agree(path)


@pytest.mark.parametrize("name", TRACE_CASES)
def test_trace_reader_matches_row_by_row_reader(tmp_path, name):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_CASES[name], newline="", encoding="utf-8")
    assert_traces_agree(path)


@pytest.mark.parametrize("name, row", [
    ("blank line mid-file", 3), ("trailing blank line", 4), ("whitespace-only line", 3),
    ("comment line", 3), ("short row", 3), ("float id", 3), ("gapped ids", 3),
    ("file separator padding", 2)])
def test_vectors_errors_name_the_file_line(tmp_path, name, row):
    # row N is the file line, the header being row 1.
    path = tmp_path / "vectors.csv"
    path.write_text(VECTOR_CASES[name], newline="", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row {row}: "):
        read_vectors_csv(path)


def test_header_only_vectors_file_is_empty_and_silent(tmp_path):
    path = tmp_path / "vectors.csv"
    path.write_text("vector_id," + ",".join(f"v{i}" for i in range(7)) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vectors = read_vectors_csv(path)
    assert vectors.shape == (0, 7) and vectors.dtype == np.float64


def test_generated_vectors_take_the_single_pass(tmp_path, rng):
    path = tmp_path / "vectors.csv"
    m = rng.standard_normal((50, 16)) * np.logspace(-300, 300, 16)
    workload.write_vectors_csv(path, m)
    with mock.patch.object(workload, "_scan_vectors", side_effect=AssertionError("rescanned")):
        back = read_vectors_csv(path)
    assert back.tobytes() == m.tobytes()


def test_trace_rows_stay_frozen_dataclasses(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_CASES["plain"], encoding="utf-8")
    row = read_trace_csv(path)[0]
    built = TraceRow(100, "dev0", "svc", 0, 0.8)
    assert row == built and hash(row) == hash(built) and vars(row) == vars(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.time_us = 5
    assert dataclasses.replace(row, service_id="other") == TraceRow(100, "dev0", "other", 0, 0.8)


# -- mutated files ---------------------------------------------------------

TOKENS = ["", " ", "abc", "#", "1.0", "-1", "+1", "007", "1_0", "1__0", "_1", "2_5.0_1", "nan",
          "-nan", "NaN", "inf", "-Infinity", "1e999", "-1e999", "1e-320", "1e150", "1e308",
          "0x10", "١", "\x1c1", "1\x1f", "\t2.5 ", "99999999999999999999999", '"3"', '""',
          '"1,5"', '"4\n"', '"0.5"x']


def _split(line):
    body = line.rstrip("\r\n")
    return body.split(","), line[len(body):]


@st.composite
def mutated_csv(draw, text):
    """text with one to three edits: blank, comment, deleted or repeated
    lines; a field replaced, quoted, padded, underscored, dropped or
    repeated; CRLF endings, no final newline, or the header alone."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["blank", "comment", "delete", "repeat", "field", "field",
                                   "field", "crlf", "no final newline", "header only"]))
        if op in ("blank", "comment"):
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, "\n" if op == "blank" else "# note\n")
        elif op == "crlf":
            lines = [line.rstrip("\r\n") + "\r\n" for line in lines]
        elif op == "no final newline":
            lines[-1] = lines[-1].rstrip("\r\n")
        elif op == "header only":
            lines = lines[:1]
        elif len(lines) > 1:
            at = draw(st.integers(0 if op == "field" else 1, len(lines) - 1))
            if op == "delete":
                del lines[at]
            elif op == "repeat":
                lines.insert(at, lines[at] if lines[at].endswith("\n") else lines[at] + "\n")
            else:
                fields, end = _split(lines[at])
                j = draw(st.integers(0, len(fields) - 1))
                edit = draw(st.sampled_from(["token", "token", "quote", "pad", "underscore",
                                             "drop", "repeat"]))
                if edit == "token":
                    fields[j] = draw(st.sampled_from(TOKENS))
                elif edit == "quote":
                    fields[j] = f'"{fields[j]}"'
                elif edit == "pad":
                    fields[j] = f" {fields[j]} "
                elif edit == "underscore":
                    k = draw(st.integers(0, len(fields[j])))
                    fields[j] = fields[j][:k] + "_" + fields[j][k:]
                elif edit == "drop":
                    del fields[j]
                else:
                    fields.insert(j, fields[j])
                lines[at] = ",".join(fields) + end
    return "".join(lines)


def _vectors_text(n=4, dim=3):
    m = np.random.default_rng(11).standard_normal((n, dim))
    return "vector_id," + ",".join(f"v{i}" for i in range(dim)) + "\n" + "".join(
        f"{i}," + ",".join(repr(float(x)) for x in row) + "\n" for i, row in enumerate(m))


SMALL_VECTORS = _vectors_text()
SMALL_TRACE = T_HEAD + "".join(f"{100 * i},dev{i % 2},svc-{i % 3},{i % 4},0.{8 - i}\n"
                               for i in range(5))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_vectors_read_as_row_by_row(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated-vectors.csv"
    path.write_text(data.draw(mutated_csv(SMALL_VECTORS)), newline="", encoding="utf-8")
    assert_vectors_agree(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_traces_read_as_row_by_row(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated-trace.csv"
    path.write_text(data.draw(mutated_csv(SMALL_TRACE)), newline="", encoding="utf-8")
    assert_traces_agree(path)


# -- replays of mutated bundles --------------------------------------------

@pytest.fixture(scope="module")
def replay_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("csv-fuzz-bundle")
    write_bundle(dataclasses.replace(workload.builtin_profiles()["cctv-like"], tasks=30), 5, out)
    originals = {name: (out / name).read_text(encoding="utf-8")
                 for name in ("vectors.csv", "trace.csv")}
    return out, originals


def _replay_bytes(cfg, out):
    report = Simulation(cfg).run()
    report.write_per_task_csv(out / "per_task.csv")
    report.write_metrics_json(out / "metrics.json")
    return (out / "per_task.csv").read_bytes(), (out / "metrics.json").read_bytes()


def check_mutated_replay(replay_bundle, data):
    """A bundle with a mutated CSV either replays twice to identical bytes,
    or Simulation rejects it with a SimulationError that starts with the
    file's path. Two rejections name something else: a trace row whose
    vector a mutated vectors.csv no longer has names the trace, and a trace
    whose times outgrow the control-window bound is a ConfigError naming
    that field."""
    out, originals = replay_bundle
    name = data.draw(st.sampled_from(sorted(originals)))
    for file, text in originals.items():
        (out / file).write_text(data.draw(mutated_csv(text)) if file == name else text,
                                newline="", encoding="utf-8")
    cfg = load_experiment(out / "experiment.json")
    mutated = out / name
    try:
        first = _replay_bytes(cfg, out)
    except SimulationError as exc:
        message = str(exc)
        assert (message.startswith(f"{mutated}: ")
                or re.match(rf"{re.escape(str(out / 'trace.csv'))}: row \d+: unknown vector ", message)
                and name == "vectors.csv"), message
        return
    except ConfigError as exc:
        assert name == "trace.csv" and str(exc).startswith("experiment.control.window_us: "), str(exc)
        return
    assert _replay_bytes(cfg, out) == first


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_bundle_replays_identically_or_names_its_csv(replay_bundle, data):
    check_mutated_replay(replay_bundle, data)


@pytest.mark.fuzz
@settings(max_examples=1_000, deadline=None)
@given(data=st.data())
def test_mutated_bundle_replays_identically_or_names_its_csv_deep(replay_bundle, data):
    check_mutated_replay(replay_bundle, data)
