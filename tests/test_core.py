import dataclasses

import numpy as np
import pytest

from edgereuse.core import (ReuseLayer, TaskEnvelope, as_feature_vector, check_threshold,
                            similarity)
from edgereuse.fabric import ResultPayload
from edgereuse.services import ServiceResult
from edgereuse.simulator import _agrees


def results_equal(output1, label1, output2, label2):
    # A task's own result against a reused one, judged by the replay's predicate.
    truth = ServiceResult(np.asarray(output1, dtype=float), label1)
    return _agrees(truth, ResultPayload(np.asarray(output2, dtype=float), label2,
                                        ReuseLayer.DEVICE))


class TestFeatureVector:
    def test_accepts_lists_and_freezes(self):
        v = as_feature_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)
        assert not v.flags.writeable

    def test_copy_detaches_from_source(self):
        src = np.ones(4)
        v = as_feature_vector(src)
        src[0] = 99.0
        assert v[0] == 1.0

    @pytest.mark.parametrize("bad", [[], np.zeros((2, 2)), [1.0, np.nan], [np.inf]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            as_feature_vector(bad)

    def test_dim_enforced(self):
        as_feature_vector([1.0, 2.0], dim=2)
        with pytest.raises(ValueError, match="dim 2"):
            as_feature_vector([1.0, 2.0], dim=3)


class Testthreshold:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_valid(self, t):
        assert check_threshold(t) == t

    @pytest.mark.parametrize("t", [-0.01, 1.01, float("nan")])
    def test_invalid(self, t):
        with pytest.raises(ValueError):
            check_threshold(t)


class TestTaskEnvelope:
    def test_construction_and_frozen(self):
        env = TaskEnvelope(7, "dev0", "svc", [1.0, 2.0], 0.8, forwarding_hash=512)
        assert env.input.flags.writeable is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            env.threshold = 0.9

    @pytest.mark.parametrize("h", [-1, 0x10000])
    def test_forwarding_hash_range(self, h):
        with pytest.raises(ValueError, match="forwarding hash"):
            TaskEnvelope(0, "dev0", "svc", [1.0], 0.5, forwarding_hash=h)

    def test_hash_boundaries_allowed(self):
        for h in (0, 0xFFFF, None):
            TaskEnvelope(0, "dev0", "svc", [1.0], 0.5, forwarding_hash=h)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            TaskEnvelope(0, "dev0", "svc", [1.0], 1.5)


class TestSimilarity:
    def test_known_angle(self):
        # 3-4-5 triangle: cos = 0.6 against the x axis.
        assert similarity([1.0, 0.0], [0.6, 0.8]) == pytest.approx(0.6)

    def test_self_similarity_is_exactly_one(self):
        v = np.array([0.31, -2.7, 15.9, 1e-4])
        assert similarity(v, v) == 1.0
        assert similarity(v, 3.0 * v) == 1.0

    def test_negative_cosine_clamps_to_zero(self):
        assert similarity([1.0, 0.0], [-1.0, 0.0]) == 0.0
        assert similarity([1.0, 0.0], [-1.0, 0.1]) == 0.0

    def test_orthogonal(self):
        assert similarity([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_scale_invariance(self):
        a = np.array([2.0, 1.0, -3.0])
        b = np.array([0.5, 4.0, 1.0])
        assert similarity(a, b) == pytest.approx(similarity(10 * a, 0.01 * b))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            similarity([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            similarity([1.0], [1.0, 2.0])


class TestResultsEqual:
    """Two results agree (simulator._agrees): equal labels, equal shapes, and
    every output element within RESULT_ATOL."""

    def test_identical(self):
        assert results_equal([1.0, 2.0], 3, [1.0, 2.0], 3)

    def test_tolerates_tiny_drift(self):
        assert results_equal([1.0, 2.0], 3, [1.0 + 1e-10, 2.0], 3)

    def test_rejects_visible_drift(self):
        assert not results_equal([1.0, 2.0], 3, [1.0 + 1e-8, 2.0], 3)

    def test_label_mismatch(self):
        assert not results_equal([1.0], 1, [1.0], 2)

    def test_shape_mismatch_is_unequal(self):
        assert not results_equal([1.0], 1, [1.0, 1.0], 1)


def test_reuse_layer_values():
    assert {layer.value for layer in ReuseLayer} == {
        "none", "device", "network", "server", "partial_server"}
