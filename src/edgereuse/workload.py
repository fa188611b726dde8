"""Synthetic workload generation and the trace/vector file formats.

A workload is a stream of offloaded tasks whose input vectors come from a
seeded cluster model: orthonormal cluster centers plus Gaussian perturbation
calibrated to hit a target mean intra-cluster cosine, with a configurable
fraction of tasks repeating a recently emitted vector exactly. Repeats are
what the caches can serve verbatim; cluster neighbors exercise the
similarity thresholds.
"""

from __future__ import annotations

import csv
import io
import itertools
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import check_integer, check_threshold

_CALIBRATION_PAIRS = 384
_CALIBRATION_ROUNDS = 6
_CALIBRATION_TOL = 0.005
_VERIFY_TOL = 0.02
_MIN_VERIFY_PAIRS = 100
_MAX_STAT_PAIRS = 2000


class CalibrationError(ValueError):
    """The generator could not realize the requested cluster spread."""


@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs for one synthetic workload.

    intra_cosine is the target mean pairwise cosine between fresh vectors of
    one cluster; repeat_fraction is the chance a task re-submits one of the
    last repeat_window vectors of its cluster instead of drawing fresh.
    """

    name: str
    dim: int = 64
    n_clusters: int = 8
    intra_cosine: float = 0.8
    repeat_fraction: float = 0.5
    tasks: int = 2000
    mean_interarrival_us: int = 60_000
    arrival: str = "exponential"
    threshold: float = 0.8
    services: tuple[str, ...] = ("cognitive-assist", "traffic-count", "voice-command", "scene-render")
    devices: tuple[str, ...] = ("dev0", "dev1")
    repeat_window: int = 25

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile name must be non-empty")
        dim = check_integer("dim", self.dim, 1)
        check_integer("n_clusters", self.n_clusters, 1, dim)
        if self.intra_cosine > 1.0:
            raise CalibrationError(f"target intra-cluster cosine {self.intra_cosine} exceeds 1")
        if self.intra_cosine <= 0.0:
            raise CalibrationError(f"target intra-cluster cosine must be positive, got {self.intra_cosine}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ValueError("repeat_fraction must be in [0, 1]")
        check_integer("tasks", self.tasks, 0)
        check_integer("mean_interarrival_us", self.mean_interarrival_us, 1)
        if self.arrival not in ("fixed", "exponential"):
            raise ValueError(f"arrival must be 'fixed' or 'exponential', got {self.arrival!r}")
        check_threshold(self.threshold)
        if not self.services:
            raise ValueError("profile needs at least one service")
        if not self.devices:
            raise ValueError("profile needs at least one device")
        check_integer("repeat_window", self.repeat_window, 1)


@dataclass(frozen=True)
class TraceRow:
    time_us: int
    device_id: str
    service_id: str
    vector_id: int
    threshold: float


@dataclass
class Workload:
    """Generated vectors plus the task schedule referencing them."""

    vectors: np.ndarray
    rows: list[TraceRow]
    stats: dict


def builtin_profiles() -> dict[str, WorkloadProfile]:
    """Four similarity tiers (high to low) plus a layered default.

    The tiers differ in how often inputs repeat exactly and how tight the
    clusters are; 'mixed' is shaped so that a default topology sees traffic
    at every reuse layer.
    """
    profiles = [
        WorkloadProfile("cctv-like", n_clusters=6, intra_cosine=0.82,
                        repeat_fraction=0.75, tasks=1200),
        WorkloadProfile("pandaset-like", n_clusters=12, intra_cosine=0.78,
                        repeat_fraction=0.60, tasks=1200),
        WorkloadProfile("mobile-ar-like", n_clusters=20, intra_cosine=0.74,
                        repeat_fraction=0.45, tasks=1200),
        WorkloadProfile("mnist-like", n_clusters=40, intra_cosine=0.68,
                        repeat_fraction=0.30, tasks=1200),
        WorkloadProfile("mixed", n_clusters=10, intra_cosine=0.80,
                        repeat_fraction=0.60, tasks=10_000),
    ]
    return {p.name: p for p in profiles}


def _orthonormal_centers(rng: np.random.Generator, dim: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, n)))
    return q.T[:n]


def _pairwise_mean_cosine(vectors: np.ndarray) -> float:
    v = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    g = v @ v.T
    n = len(v)
    return float((g.sum() - n) / (n * (n - 1)))


def _calibrate_sigma(rng: np.random.Generator, center: np.ndarray, target: float) -> float:
    """Find the perturbation scale whose mean pairwise cosine hits the target.

    Starts from the analytic estimate 1/(1 + sigma^2 * dim) = target and
    refines by the measured/target ratio on a throwaway sample stream.
    """
    if target >= 1.0:
        return 0.0
    dim = center.size
    sigma = np.sqrt((1.0 / target - 1.0) / dim)
    for _ in range(_CALIBRATION_ROUNDS):
        sample = center + sigma * rng.standard_normal((_CALIBRATION_PAIRS, dim))
        measured = _pairwise_mean_cosine(sample)
        if abs(measured - target) <= _CALIBRATION_TOL:
            break
        if measured <= 0.0:
            sigma *= 0.5
            continue
        sigma *= np.sqrt(max((1.0 / target - 1.0), 1e-12) / max((1.0 / measured - 1.0), 1e-12))
    return float(sigma)


def generate_trace(profile: WorkloadProfile, seed: int) -> Workload:
    """Deterministic workload: vectors, schedule, and measured statistics.

    The spread is verified post hoc: the mean pairwise cosine of fresh
    same-cluster vectors must land within 0.02 of the profile target, else
    generation fails rather than emit a mislabeled workload.
    """
    ss = np.random.SeedSequence(seed)
    rng_centers, rng_sigma, rng_tasks, rng_arrival = (np.random.default_rng(c) for c in ss.spawn(4))

    centers = _orthonormal_centers(rng_centers, profile.dim, profile.n_clusters)
    sigma = _calibrate_sigma(rng_sigma, centers[0], profile.intra_cosine)

    vectors: list[np.ndarray] = []
    rows: list[TraceRow] = []
    cluster_history: list[list[int]] = [[] for _ in range(profile.n_clusters)]
    fresh_by_cluster: list[list[int]] = [[] for _ in range(profile.n_clusters)]
    repeats = 0

    time_us = 0
    for i in range(profile.tasks):
        if profile.arrival == "fixed":
            gap = profile.mean_interarrival_us
        else:
            gap = max(1, int(round(rng_arrival.exponential(profile.mean_interarrival_us))))
        time_us += gap
        device = profile.devices[i % len(profile.devices)]
        cluster = int(rng_tasks.integers(profile.n_clusters))
        service = profile.services[cluster % len(profile.services)]
        history = cluster_history[cluster]
        if history and rng_tasks.random() < profile.repeat_fraction:
            window = history[-profile.repeat_window:]
            vector_id = window[int(rng_tasks.integers(len(window)))]
            repeats += 1
        else:
            v = centers[cluster] + sigma * rng_tasks.standard_normal(profile.dim)
            v /= np.linalg.norm(v)
            vector_id = len(vectors)
            vectors.append(v)
            fresh_by_cluster[cluster].append(vector_id)
        history.append(vector_id)
        rows.append(TraceRow(time_us, device, service, vector_id, profile.threshold))

    matrix = np.stack(vectors) if vectors else np.zeros((0, profile.dim))
    stats = _measure_stats(matrix, fresh_by_cluster, profile, repeats, len(rows))
    # Tiny traces cannot estimate the spread reliably, so the hard gate only
    # applies once there are enough same-cluster pairs behind the mean.
    if stats["intra_pairs"] >= _MIN_VERIFY_PAIRS:
        intra = stats["intra_cosine_measured"]
        if abs(intra - profile.intra_cosine) > _VERIFY_TOL:
            raise CalibrationError(
                f"measured intra-cluster cosine {intra:.4f} misses target "
                f"{profile.intra_cosine:.4f} by more than {_VERIFY_TOL}")
    return Workload(matrix, rows, stats)


def _measure_stats(matrix: np.ndarray, fresh_by_cluster: list[list[int]],
                   profile: WorkloadProfile, repeats: int, n_tasks: int) -> dict:
    intra_samples = []
    for ids in fresh_by_cluster:
        if len(ids) < 2:
            continue
        take = ids[: int(np.sqrt(2 * _MAX_STAT_PAIRS / max(1, profile.n_clusters))) + 2]
        sub = matrix[take]
        g = sub @ sub.T
        n = len(sub)
        iu = np.triu_indices(n, k=1)
        intra_samples.extend(g[iu].tolist())
    inter = None
    heads = [ids[0] for ids in fresh_by_cluster if ids]
    if len(heads) >= 2:
        sub = matrix[heads]
        g = sub @ sub.T
        iu = np.triu_indices(len(sub), k=1)
        inter = float(np.mean(g[iu]))
    return {
        "tasks": n_tasks,
        "unique_vectors": int(matrix.shape[0]),
        "repeat_tasks": repeats,
        "intra_cosine_target": profile.intra_cosine,
        "intra_cosine_measured": float(np.mean(intra_samples)) if intra_samples else None,
        "intra_pairs": len(intra_samples),
        "inter_cosine_measured": inter,
    }


def write_csv(path, header, rows) -> None:
    """Write one CSV table, UTF-8 with LF line ends: the header, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_vectors_csv(path, vectors: np.ndarray) -> None:
    vectors = np.asarray(vectors, dtype=np.float64)
    dim = vectors.shape[1] if vectors.ndim == 2 and vectors.size else vectors.shape[-1]
    write_csv(path, ["vector_id"] + [f"v{i}" for i in range(dim)],
              ([vid] + [repr(float(x)) for x in row] for vid, row in enumerate(vectors)))


# Characters that keep a vectors row from np.loadtxt: a quote needs csv's
# quoting rules, float() reads an underscore as digit grouping ("1_0") where
# numpy rejects it, and numpy strips \x1c-\x1f as whitespace where float()
# rejects them. On any other ASCII row the two parsers agree: both strip the
# same whitespace and then call PyOS_string_to_double, so they accept the
# same fields with the same bits.
_NOT_FOR_NUMPY = ('"', "_", "\x1c", "\x1d", "\x1e", "\x1f")


def _csv_rows(path: Path):
    """Yield (row number, fields) for each row of the UTF-8 CSV file at path,
    the header being row 1.

    A byte that is not UTF-8 fails as ``<path>: row N: not valid UTF-8``, N
    being the row of the first bad byte. The decoder's own error names
    neither, and its position is within a buffered chunk, so the raw file is
    read again to count the rows before the byte, on this failure path only.
    A row that csv rejects, a field over csv.field_size_limit(), fails with
    csv's reason.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from _numbered(path, fh)
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The rows of the text before the byte, which a stand-in for the
            # byte ends either inside its row or as the first of a new one.
            text = io.StringIO(data[:exc.start].decode("utf-8") + "x", newline="")
            row = sum(1 for _ in _numbered(path, text))
            raise ValueError(f"{path}: row {row}: not valid UTF-8") from None
        raise


def _numbered(path: Path, lines):
    """Yield (row number, fields) for each csv row of lines, the first
    being row 1; a row that csv rejects raises ValueError naming it."""
    row = 0
    try:
        for row, fields in enumerate(csv.reader(lines), start=1):
            yield row, fields
    except csv.Error as exc:
        raise ValueError(f"{path}: row {row + 1}: {exc}") from None


def read_vectors_csv(path) -> np.ndarray:
    """Read vectors.csv as an (n, dim) float64 array, row i being vector i.

    While every row is plain (ASCII, with none of _NOT_FOR_NUMPY, no longer
    than csv's field limit, and with values after its id), one np.loadtxt
    pass parses the values straight into the matrix that is returned. A
    file with any other row, or one that pass rejects, is read again by the
    row-by-row reference, which names the first bad row; so the accepted
    files and the arrays they give are those of the row-by-row read.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            dim = _vectors_dim(path, next(csv.reader(fh), None))
            lines = _numpy_lines(fh)
            first = next(lines, None)
            if first is None:
                return np.empty((0, dim))
            vectors = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                 comments=None, ndmin=2)
    except (ValueError, csv.Error):  # UnicodeDecodeError included
        return _scan_vectors(path)
    if vectors.shape[1] != dim:
        return _scan_vectors(path)
    return vectors


def _vectors_dim(path: Path, header) -> int:
    if not header or header[0] != "vector_id":
        raise ValueError(f"{path}: not a vectors file (bad header)")
    return len(header) - 1


def _numpy_lines(fh):
    """Yield the values of each row left in fh, the text after its id, for
    np.loadtxt. Raises ValueError at the first row that is not plain, or
    whose id is not int() of the next dense id."""
    limit = csv.field_size_limit()
    for row, line in enumerate(fh):
        vid, _, values = line.partition(",")
        # np.loadtxt skips a row with no values, which the row-by-row read fails.
        if (len(line) > limit or not line.isascii() or not values or values.isspace()
                or any(map(line.__contains__, _NOT_FOR_NUMPY))):
            raise ValueError("not a plain row")
        if int(vid) != row:
            raise ValueError("vector ids must be dense and ordered")
        yield values


def _scan_vectors(path: Path) -> np.ndarray:
    """The row-by-row read: raises at the first bad row, naming it."""
    rows = _csv_rows(path)
    dim = _vectors_dim(path, next(rows, (1, None))[1])
    out = []
    for lineno, fields in rows:
        try:
            if len(fields) != dim + 1:
                raise ValueError(f"expected {dim + 1} fields, got {len(fields)}")
            vid, values = int(fields[0]), [float(x) for x in fields[1:]]
            if vid != len(out):
                raise ValueError("vector ids must be dense and ordered")
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from None
        out.append(values)
    return np.array(out, dtype=np.float64).reshape(len(out), dim)


TRACE_HEADER = ["time_us", "device_id", "service_id", "vector_id", "threshold"]

# A trace's time_us and vector_id are integers in [0, TRACE_INT_MAX]: the
# int64 columns hold them, and every time a replay writes stays below the
# largest float that metrics.json admits.
TRACE_INT_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """A trace as read-only typed columns, index i being the file's data
    row i (row i + 2, the header being row 1).

    ``device`` and ``service`` are codes into ``device_ids`` and
    ``service_ids``, the distinct ids in order of first appearance, so the
    trace keeps one str per id, not one per row.
    """

    time_us: np.ndarray       # int64
    device: np.ndarray        # int32 codes into device_ids
    service: np.ndarray       # int32 codes into service_ids
    vector_id: np.ndarray     # int64
    threshold: np.ndarray     # float64
    device_ids: tuple[str, ...]
    service_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.time_us)


def write_trace_csv(path, rows: list[TraceRow]) -> None:
    write_csv(path, TRACE_HEADER, ([r.time_us, r.device_id, r.service_id, r.vector_id,
                                    repr(float(r.threshold))] for r in rows))


def read_trace_csv(path) -> TraceColumns:
    """Read trace.csv as TraceColumns, one row at a time.

    Each row is checked in this order: 5 fields, int() of time_us and of
    vector_id, float() of threshold, then time_us and vector_id in
    [0, TRACE_INT_MAX]. The first bad row raises ``<path>: row N: <reason>``.
    """
    path = Path(path)
    rows = _csv_rows(path)
    if next(rows, (1, None))[1] != TRACE_HEADER:
        raise ValueError(f"{path}: not a trace file (expected header {','.join(TRACE_HEADER)})")
    arrays = [array(typecode) for typecode in "qiiqd"]  # int64, int32 codes, float64
    times, devices, services, vector_ids, thresholds = arrays
    device_code, service_code = {}, {}  # id -> code
    for lineno, fields in rows:
        try:
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            time_us, device, service, vector_id, threshold = fields
            time_us, vector_id, threshold = int(time_us), int(vector_id), float(threshold)
            if not (0 <= time_us <= TRACE_INT_MAX and 0 <= vector_id <= TRACE_INT_MAX):
                name = "vector_id" if 0 <= time_us <= TRACE_INT_MAX else "time_us"
                raise ValueError(f"{name} must be in [0, {TRACE_INT_MAX}]")
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from None
        times.append(time_us)
        # A new id takes the next code; the dict keeps its first appearance's str.
        devices.append(device_code.setdefault(device, len(device_code)))
        services.append(service_code.setdefault(service, len(service_code)))
        vector_ids.append(vector_id)
        thresholds.append(threshold)
    columns = [np.frombuffer(memoryview(a).toreadonly(), dtype=a.typecode) for a in arrays]
    return TraceColumns(*columns, tuple(device_code), tuple(service_code))
