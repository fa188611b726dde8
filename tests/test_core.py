import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _as_feature_vector_by_elements(values, dim=None):
    # The element-wise finiteness test with a separate copy: the oracle for
    # the one-call copy and the sum-of-squares proof.
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"feature vector must be 1-D and non-empty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("feature vector contains NaN or Inf")
    if dim is not None and v.size != dim:
        raise ValueError(f"feature vector has dim {v.size}, expected {dim}")
    v = v.copy()
    v.setflags(write=False)
    return v


_HUGE = st.floats(1e154, 1.7e308)
_ELEMENTS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308]),
    _HUGE, _HUGE.map(lambda x: -x),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _raw_vectors(draw):
    # Every form a caller may hand in: float64 arrays, read-only views of a
    # larger base, lists, ints, float32, and the wrong shapes.
    values = np.array(draw(st.lists(_ELEMENTS, max_size=12)))
    kind = draw(st.sampled_from(["array", "readonly-view", "list", "int", "float32",
                                 "0-d", "2-D"]))
    if kind == "readonly-view":
        base = np.concatenate([values, values, [1.0]])
        base.setflags(write=False)
        return base[::2][:len(values)]
    if kind == "list":
        return values.tolist()
    if kind == "int":
        return draw(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=12))
    if kind == "float32":
        with np.errstate(over="ignore"):
            return values.astype(np.float32)
    if kind == "0-d":
        return values[0] if values.size else np.float64(1.0)
    if kind == "2-D":
        return np.resize(values, (2, 3)) if values.size else np.zeros((0, 3))
    return values


class TestFeatureVectorOracle:
    @settings(max_examples=300, deadline=None)
    @given(values=_raw_vectors(), dim=st.one_of(st.none(), st.integers(0, 12)))
    def test_same_verdict_and_bytes_as_the_element_wise_check(self, values, dim):
        try:
            expected = _as_feature_vector_by_elements(values, dim)
        except ValueError as e:
            expected = e
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = as_feature_vector(values, dim)
            except ValueError as e:
                got = e
        if isinstance(expected, ValueError):
            assert isinstance(got, ValueError) and str(got) == str(expected)
            return
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable and got.flags.c_contiguous
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(got, values)


class Testthreshold:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_valid(self, t):
        assert check_threshold(t) == t

    @pytest.mark.parametrize("t", [-0.01, 1.01, float("nan"), pytest.param(10**400, id="10**400")])
    def test_invalid(self, t):
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            check_threshold(t)

    @pytest.mark.parametrize("t", [True, False, np.True_, pytest.param("0.5", id="str"),
                                   pytest.param(b"0.5", id="bytes"), None,
                                   pytest.param([0.5], id="list"), 1 + 0j,
                                   pytest.param(np.array([0.5]), id="array")])
    def test_bool_is_not_a_threshold(self, t):
        with pytest.raises(TypeError, match="threshold"):
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
        for bad in (True, "0.9"):
            with pytest.raises(TypeError, match="threshold"):
                TaskEnvelope(0, "dev0", "svc", [1.0], bad)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            similarity([1.0, bad], [1.0, 0.0])
        with pytest.raises(ValueError, match="NaN or Inf"):
            similarity([1.0, 0.0], [bad, 1.0])

    def test_huge_inputs_stay_in_the_unit_interval(self):
        huge = np.full(8, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert similarity(huge, huge) == 1.0
            assert similarity(huge, -huge) == 0.0
            assert similarity([1e300, 1e300], [1e300, 0.0]) == pytest.approx(np.sqrt(0.5))

    def test_tiny_inputs_are_not_all_zero(self):
        tiny = np.full(4, 1e-170)
        assert similarity(tiny, tiny) == 1.0
        assert similarity(tiny, np.ones(4)) == 1.0
        assert similarity(np.full(4, 1e-160), np.ones(4)) == 1.0
        assert similarity([1e-170, 0.0], [1e-170, 1e-170]) == pytest.approx(np.sqrt(0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
           st.integers(-1000, 1000))
    def test_scaling_keeps_the_cosine(self, v, exponent):
        # Small integers scaled by a power of two are exact floats at every
        # exponent, so the angle is the unscaled one whether the squares
        # overflow, underflow or neither.
        a, b = np.array(v[:3], dtype=float), np.array(v[3:], dtype=float)
        if not (a.any() and b.any()):
            return
        scale = 2.0 ** exponent
        assert similarity(a * scale, b * scale) == pytest.approx(similarity(a, b), abs=1e-12)


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
