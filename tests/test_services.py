import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgereuse.services import (ServiceSpec, StageSpec, execute_service, execute_stage,
                                label_of, oracle)


def two_stage_service(service_id="svc-x", dim=6):
    return ServiceSpec(service_id, dim, (StageSpec("stage-a", 7001, dim, 1000),
                                         StageSpec("stage-b", 7002, dim, 2000)))


class TestSpecs:
    def test_total_exec_and_dims(self):
        svc = ServiceSpec("svc", 4, (StageSpec("a", 1, 8, 100),
                                     StageSpec("b", 2, 3, 50)))
        assert svc.output_dim == 3

    @pytest.mark.parametrize("kwargs", [
        dict(stage_id="", transform_seed=1, out_dim=4, exec_time_us=1),
        dict(stage_id="a", transform_seed=-1, out_dim=4, exec_time_us=1),
        dict(stage_id="a", transform_seed=1, out_dim=0, exec_time_us=1),
        dict(stage_id="a", transform_seed=1, out_dim=4, exec_time_us=-1),
    ])
    def test_stage_validation(self, kwargs):
        with pytest.raises(ValueError):
            StageSpec(**kwargs)

    def test_service_validation(self):
        stage = StageSpec("a", 1, 4, 1)
        with pytest.raises(ValueError):
            ServiceSpec("", 4, (stage,))
        with pytest.raises(ValueError):
            ServiceSpec("svc", 4, ())
        with pytest.raises(ValueError):
            ServiceSpec("svc", 4, (stage,), label_classes=1)


class TestExecuteStage:
    def test_frozen_example(self):
        stage = StageSpec("stage-a", 7001, 6, 1000)
        x = np.arange(1.0, 7.0) / 10
        y = execute_stage(stage, x)
        assert y[:3] == pytest.approx(
            [-0.022946012731, 0.410255064265, -0.005299713821], abs=1e-12)

    def test_deterministic_and_read_only(self):
        stage = StageSpec("s", 42, 5, 1)
        x = np.ones(3)
        y1 = execute_stage(stage, x)
        y2 = execute_stage(stage, x.copy())
        assert np.array_equal(y1, y2)
        assert not y1.flags.writeable

    def test_same_seed_same_transform_across_stage_ids(self):
        # The transform is a pure function of (seed, out_dim, in_dim), so
        # stages shared between services compute bitwise identical outputs.
        a = StageSpec("detect-a", 7001, 8, 10)
        b = StageSpec("detect-b", 7001, 8, 999)
        x = np.linspace(-1, 1, 5)
        assert np.array_equal(execute_stage(a, x), execute_stage(b, x))

    def test_output_bounded_by_tanh(self, rng):
        stage = StageSpec("s", 3, 16, 1)
        y = execute_stage(stage, rng.standard_normal(32) * 100)
        assert np.all(np.abs(y) <= 1.0)

    def test_output_dim(self):
        stage = StageSpec("s", 3, 11, 1)
        assert execute_stage(stage, np.ones(4)).shape == (11,)


class TestLabels:
    def test_zero_vector_labels_class_zero(self):
        svc = two_stage_service()
        assert label_of(svc, np.zeros(6)) == 0

    def test_label_range(self, rng):
        svc = two_stage_service()
        labels = {label_of(svc, rng.standard_normal(6)) for _ in range(200)}
        assert labels <= set(range(svc.label_classes))
        assert len(labels) > 1

    def test_label_depends_on_service_id(self, rng):
        # Each service gets its own projection bank.
        a = two_stage_service("svc-a")
        b = two_stage_service("svc-b")
        outs = rng.standard_normal((100, 6))
        assert any(label_of(a, o) != label_of(b, o) for o in outs)

    def test_scale_invariance(self, rng):
        svc = two_stage_service()
        o = rng.standard_normal(6)
        assert label_of(svc, o) == label_of(svc, o * 7.5)


class TestExecuteService:
    def test_frozen_example(self):
        svc = two_stage_service()
        x = np.arange(1.0, 7.0) / 10
        res = execute_service(svc, x)
        assert res.label == 3
        assert res.output[0] == pytest.approx(-0.18103519401331775, abs=1e-15)

    def test_chains_stages(self):
        svc = two_stage_service()
        x = np.arange(1.0, 7.0) / 10
        manual = execute_stage(svc.stages[1], execute_stage(svc.stages[0], x))
        res = execute_service(svc, x)
        assert np.array_equal(res.output, manual)
        assert res.label == label_of(svc, manual)

    def test_oracle_is_full_execution(self, rng):
        svc = two_stage_service()
        x = rng.standard_normal(6)
        (a,) = oracle(svc, x[None])
        b = execute_service(svc, x)
        assert np.array_equal(a.output, b.output)
        assert a.label == b.label

    def test_shared_first_stage_outputs_are_interchangeable(self, rng):
        # Two pipelines sharing stage-a: reusing a's intermediate output in
        # b's pipeline reproduces b's own execution exactly.
        shared = StageSpec("stage-shared", 9001, 6, 500)
        svc_a = ServiceSpec("svc-a", 6, (shared, StageSpec("tail-a", 9002, 6, 100)))
        svc_b = ServiceSpec("svc-b", 6, (shared, StageSpec("tail-b", 9003, 6, 100)))
        x = rng.standard_normal(6)
        intermediate_from_a = execute_stage(svc_a.stages[0], x)
        spliced = execute_stage(svc_b.stages[1], intermediate_from_a)
        assert np.array_equal(spliced, execute_service(svc_b, x).output)

    def test_tight_cluster_labels_mostly_agree(self, rng):
        # Near-duplicate inputs should usually land on the same label; this
        # is what makes near-neighbor reuse return plausible results even
        # when outputs differ at fine precision.
        svc = two_stage_service(dim=16)
        svc = ServiceSpec("svc-c", 16, (StageSpec("s1", 31, 16, 1),))
        center = rng.standard_normal(16)
        base = execute_service(svc, center).label
        agree = 0
        for _ in range(200):
            noisy = center + 0.01 * rng.standard_normal(16)
            agree += execute_service(svc, noisy).label == base
        assert agree >= 190


WIDTHS = (1, 3, 65)


@st.composite
def pipelines(draw):
    """A service of 1-3 stages drawn from a pool of two specs, so a stage id
    may appear twice, over widths 1, 3 and 65."""
    pool = [StageSpec(f"stage-{i}", draw(st.integers(0, 2**32)), draw(st.sampled_from(WIDTHS)), 1)
            for i in range(2)]
    stages = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    return ServiceSpec("svc-p", draw(st.sampled_from(WIDTHS)), stages,
                       label_classes=draw(st.integers(2, 12)))


class TestOracle:
    """The batched ground truth: row i of oracle(svc, xs) is bit for bit
    what executing xs[i] alone gives, whatever the batch around it."""

    @settings(max_examples=150, deadline=None)
    @given(svc=pipelines(), n=st.integers(1, 50), offset=st.integers(0, 3),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32))
    def test_rows_equal_single_executions(self, svc, n, offset, scale, seed):
        # The batch starts at 0-3 elements into a buffer, so its rows sit
        # at several memory alignments.
        size = n * svc.input_dim
        buf = np.random.default_rng(seed).standard_normal(size + offset) * scale
        xs = buf[offset:].reshape(n, svc.input_dim)
        results = oracle(svc, xs)
        assert len(results) == n
        for x, res in zip(xs, results):
            alone = execute_service(svc, x)
            assert np.array_equal(res.output, alone.output)
            assert res.label == alone.label
            # execute_service against the stage-by-stage path the servers run.
            chained = x
            for stage in svc.stages:
                chained = execute_stage(stage, chained)
            assert np.array_equal(res.output, chained)
            assert res.label == label_of(svc, chained)
            assert res.output.shape == (svc.output_dim,)
            assert not res.output.flags.writeable
            with pytest.raises(ValueError):
                res.output[0] = 0.0

    def test_empty_batch(self):
        assert oracle(two_stage_service(), np.empty((0, 6))) == []

    @pytest.mark.parametrize("xs", [
        np.ones(6),
        np.ones((2, 5)),
        np.ones((2, 7)),
        np.ones((1, 2, 6)),
        np.array([[1.0, 2, 3, np.nan, 5, 6]]),
        np.array([[1.0, 2, 3, 4, 5, 6], [1.0, np.inf, 3, 4, 5, 6]]),
        np.array([[1.0, 2, 3, 4, 5, -np.inf]]),
    ], ids=["1-d", "narrow", "wide", "3-d", "nan", "inf", "-inf"])
    def test_rejects_bad_matrix(self, xs):
        with pytest.raises(ValueError):
            oracle(two_stage_service(), xs)


@st.composite
def staged_pipelines(draw):
    """A service of 1-4 stages, each with its own seed and width, over an
    input width of 1-130."""
    widths = st.integers(1, 130)
    stages = tuple(StageSpec(f"stage-{j}", draw(st.integers(0, 2**64 - 1)), draw(widths), 1)
                   for j in range(draw(st.integers(1, 4))))
    return ServiceSpec("svc-s", draw(widths), stages, label_classes=draw(st.integers(2, 12)))


class TestStageOutputs:
    """Each result of oracle carries every stage's output, and each one is
    byte for byte what the stage chain a server runs gives, so a server may
    take a task's own stage outputs from the ground-truth pass."""

    @settings(max_examples=120, deadline=None)
    @given(svc=staged_pipelines(), exponents=st.lists(st.integers(-150, 150), min_size=1,
                                                       max_size=12),
           seed=st.integers(0, 2**32))
    def test_stage_outputs_equal_the_stage_chain(self, svc, exponents, seed):
        # Each row has its own magnitude, from 1e-150 to 1e150.
        scales = 10.0 ** np.array(exponents, dtype=float)[:, None]
        xs = np.random.default_rng(seed).standard_normal((len(exponents), svc.input_dim)) * scales
        results = oracle(svc, xs)
        for x, res in zip(xs, results):
            assert len(res.stage_outputs) == len(svc.stages)
            assert res.output is res.stage_outputs[-1]
            chained = x
            for stage, out in zip(svc.stages, res.stage_outputs):
                chained = execute_stage(stage, chained)
                assert out.shape == chained.shape == (stage.out_dim,)
                assert out.tobytes() == chained.tobytes()
                assert not out.flags.writeable
                with pytest.raises(ValueError):
                    out[0] = 0.0
            assert res.label == label_of(svc, res.output)
