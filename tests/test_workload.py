import numpy as np
import pytest

from edgereuse.core import similarity
from edgereuse.workload import (CalibrationError, TraceRow, WorkloadProfile,
                                builtin_profiles, generate_trace, read_trace_csv,
                                read_vectors_csv, write_trace_csv,
                                write_vectors_csv)


def small_profile(**kw):
    defaults = dict(name="unit", dim=16, n_clusters=4, intra_cosine=0.8,
                    repeat_fraction=0.5, tasks=400, mean_interarrival_us=1000)
    defaults.update(kw)
    return WorkloadProfile(**defaults)


class TestProfileValidation:
    def test_builtins_cover_the_expected_names(self):
        profiles = builtin_profiles()
        assert set(profiles) == {"cctv-like", "pandaset-like", "mobile-ar-like",
                                 "mnist-like", "mixed"}
        # Reuse potential is tiered: repeats and cluster tightness both fall
        # from the cctv-like end to the mnist-like end.
        order = ["cctv-like", "pandaset-like", "mobile-ar-like", "mnist-like"]
        reps = [profiles[n].repeat_fraction for n in order]
        coss = [profiles[n].intra_cosine for n in order]
        assert reps == sorted(reps, reverse=True)
        assert coss == sorted(coss, reverse=True)

    @pytest.mark.parametrize("kw", [
        dict(intra_cosine=1.2), dict(intra_cosine=0.0), dict(intra_cosine=-0.5)])
    def test_bad_cosine_is_a_calibration_error(self, kw):
        with pytest.raises(CalibrationError):
            small_profile(**kw)

    @pytest.mark.parametrize("kw", [
        dict(name=""), dict(dim=0), dict(n_clusters=0), dict(n_clusters=17),
        dict(repeat_fraction=1.5), dict(tasks=-1), dict(mean_interarrival_us=0),
        dict(arrival="poisson"), dict(threshold=2.0), dict(services=()),
        dict(devices=()), dict(repeat_window=0)])
    def test_other_validation(self, kw):
        with pytest.raises(ValueError):
            small_profile(**kw)


class TestGenerateTrace:
    def test_deterministic_per_seed(self):
        profile = small_profile()
        a = generate_trace(profile, 7)
        b = generate_trace(profile, 7)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.rows == b.rows
        assert a.stats == b.stats
        c = generate_trace(profile, 8)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_measured_cosines(self):
        workload = generate_trace(small_profile(tasks=600), 3)
        stats = workload.stats
        assert abs(stats["intra_cosine_measured"] - 0.8) <= 0.02
        assert abs(stats["inter_cosine_measured"]) <= 0.05

    def test_schedule_shape(self):
        profile = small_profile()
        workload = generate_trace(profile, 1)
        rows = workload.rows
        assert len(rows) == profile.tasks
        assert all(rows[i].time_us < rows[i + 1].time_us or
                   rows[i].time_us <= rows[i + 1].time_us for i in range(len(rows) - 1))
        times = [r.time_us for r in rows]
        assert times == sorted(times)
        assert {r.device_id for r in rows} == set(profile.devices)
        assert all(r.threshold == profile.threshold for r in rows)
        assert all(0 <= r.vector_id < len(workload.vectors) for r in rows)

    def test_devices_round_robin(self):
        workload = generate_trace(small_profile(tasks=10), 1)
        assert [r.device_id for r in workload.rows] == ["dev0", "dev1"] * 5

    def test_repeats_reference_earlier_vectors(self):
        workload = generate_trace(small_profile(tasks=500, repeat_fraction=0.6), 2)
        stats = workload.stats
        repeats = stats["repeat_tasks"]
        assert repeats == stats["tasks"] - stats["unique_vectors"]
        # With 60% repeat probability, 500 tasks stray far from 300 only if
        # the stream is broken.
        assert 240 <= repeats <= 360

    def test_no_repeats_when_fraction_zero(self):
        workload = generate_trace(small_profile(tasks=200, repeat_fraction=0.0), 2)
        assert workload.stats["repeat_tasks"] == 0
        assert workload.stats["unique_vectors"] == 200

    def test_fixed_arrival_spacing(self):
        profile = small_profile(arrival="fixed", tasks=5, mean_interarrival_us=250)
        rows = generate_trace(profile, 1).rows
        assert [r.time_us for r in rows] == [250, 500, 750, 1000, 1250]

    def test_cluster_service_binding_is_stable(self):
        # A repeated vector must always land on the same service, otherwise
        # replays would mix full and partial reuse unpredictably.
        workload = generate_trace(small_profile(tasks=600), 5)
        seen = {}
        for row in workload.rows:
            if row.vector_id in seen:
                assert seen[row.vector_id] == row.service_id
            else:
                seen[row.vector_id] = row.service_id

    def test_vectors_are_unit_scale_and_nonzero(self):
        workload = generate_trace(small_profile(tasks=100), 4)
        norms = np.linalg.norm(workload.vectors, axis=1)
        assert np.all(norms > 0)
        assert np.allclose(norms, 1.0)

    def test_empty_trace_allowed(self):
        workload = generate_trace(small_profile(tasks=0), 1)
        assert workload.rows == []
        assert workload.stats["tasks"] == 0


class TestCsvRoundTrips:
    def test_vectors_round_trip_bitwise(self, tmp_path, rng):
        m = rng.standard_normal((7, 5))
        path = tmp_path / "vectors.csv"
        write_vectors_csv(path, m)
        back = read_vectors_csv(path)
        assert np.array_equal(back, m)

    def test_vectors_header(self, tmp_path):
        path = tmp_path / "vectors.csv"
        write_vectors_csv(path, np.ones((1, 3)))
        assert path.read_text().splitlines()[0] == "vector_id,v0,v1,v2"

    def test_vectors_require_dense_ids(self, tmp_path):
        path = tmp_path / "vectors.csv"
        path.write_text("vector_id,v0\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_vectors_csv(path)

    def test_trace_round_trip(self, tmp_path):
        rows = [TraceRow(10, "dev0", "svc-a", 0, 0.8),
                TraceRow(25, "dev1", "svc-b", 1, 0.9)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rows)
        assert read_trace_csv(path) == rows

    def test_trace_header_enforced(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,device\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_trace_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_us,device_id,service_id,vector_id,threshold\n"
                        "100,dev0,svc,0,0.8\n"
                        "oops,dev0,svc,1,0.8\n")
        with pytest.raises(ValueError, match="row 3"):
            read_trace_csv(path)


class TestClusterGeometry:
    def test_same_cluster_vectors_are_similar(self):
        workload = generate_trace(small_profile(tasks=300, repeat_fraction=0.0), 6)
        by_service = {}
        for row in workload.rows:
            by_service.setdefault(row.service_id, []).append(row.vector_id)
        # Same service implies same cluster here (4 clusters, 4 services).
        for ids in by_service.values():
            v = workload.vectors[ids[:20]]
            sims = [similarity(v[i], v[j])
                    for i in range(len(v)) for j in range(i + 1, len(v))]
            assert np.mean(sims) > 0.7
