import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgereuse.hashing import (FORWARDING_BITS, FORWARDING_SPACE, LshFamily, feature_hash,
                               forwarding_hash, probe_masks)


class TestLshFamily:
    def test_determinism_across_instances(self):
        a = LshFamily(8, k=4, tables=2, seed=1)
        b = LshFamily(8, k=4, tables=2, seed=1)
        v = np.arange(1.0, 9.0)
        assert a.signature_bits(v, 0) == b.signature_bits(v, 0) == 5
        assert a.signature_bits(v, 1) == b.signature_bits(v, 1) == 0

    def test_seed_changes_planes(self):
        a = LshFamily(8, k=4, tables=1, seed=1)
        b = LshFamily(8, k=4, tables=1, seed=2)
        assert not np.array_equal(a.hyperplanes, b.hyperplanes)

    def test_hyperplanes_are_unit_rows(self):
        fam = LshFamily(12, k=6, tables=3, seed=9)
        norms = np.linalg.norm(fam.hyperplanes, axis=2)
        assert np.allclose(norms, 1.0)
        assert not fam.hyperplanes.flags.writeable

    def test_scale_invariance(self):
        fam = LshFamily(16, k=8, tables=2, seed=4)
        v = np.random.default_rng(0).standard_normal(16)
        for table in range(2):
            assert fam.signature_bits(v, table) == fam.signature_bits(1e6 * v, table)
            assert fam.signature_bits(v, table) == fam.signature_bits(1e-6 * v, table)

    def test_negation_complements_bits(self):
        # Flipping the vector flips every strictly-nonzero dot product.
        fam = LshFamily(64, k=16, tables=1, seed=3)
        v = np.arange(1.0, 65.0)
        bits = fam.signature_bits(v, 0)
        assert fam.signature_bits(-v, 0) == (~bits) & (FORWARDING_SPACE - 1)

    def test_exact_zero_dot_is_bit_zero(self):
        # Axis-aligned planes make the dot products exact: a query on a
        # hyperplane (dot exactly 0.0) must map to bit 0, same as negative.
        fam = LshFamily(2, k=2, tables=1, seed=0)
        planes = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        planes.setflags(write=False)
        fam.hyperplanes = planes
        assert fam.signature_bits([5.0, 0.0], 0) == 0b01
        assert fam.signature_bits([0.0, 5.0], 0) == 0b10
        assert fam.signature_bits([-3.0, 5.0], 0) == 0b10
        assert fam.batch_signature_bits(np.array([[5.0, 0.0], [0.0, 5.0]])).tolist() == [1, 2]

    def test_batch_matches_scalar(self, rng):
        fam = LshFamily(10, k=7, tables=3, seed=11)
        m = rng.standard_normal((50, 10))
        for table in range(3):
            batch = fam.batch_signature_bits(m, table)
            scalar = [fam.signature_bits(row, table) for row in m]
            assert batch.tolist() == scalar

    def test_zero_vector_rejected(self):
        fam = LshFamily(4, k=4, tables=1, seed=0)
        with pytest.raises(ValueError, match="all-zero"):
            fam.signature_bits(np.zeros(4), 0)
        with pytest.raises(ValueError, match="all-zero"):
            fam.batch_signature_bits(np.zeros((2, 4)), 0)

    def test_table_index_validated(self):
        fam = LshFamily(4, k=4, tables=2, seed=0)
        with pytest.raises(ValueError, match="table index"):
            fam.signature_bits(np.ones(4), 2)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=0), dict(dim=4, k=0), dict(dim=4, k=33),
        dict(dim=4, tables=0), dict(dim=4, seed=-1),
    ])
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            LshFamily(**kwargs)


def _vectors_with_zeros(dim):
    # Exact zeros are drawn often, so dot products see skipped coordinates;
    # the smallest subnormals make many dot products round to exactly 0.
    coords = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324]),
                       st.floats(allow_nan=False, allow_infinity=False))
    return arrays(np.float64, dim, elements=coords).filter(lambda v: v.any())


def _oracle_bits(fam, v, table):
    # One plain gemv per table: bit j is set iff hyperplane j's dot is > 0.
    return sum(1 << j for j, dot in enumerate(fam.hyperplanes[table] @ v) if dot > 0)


class TestTableSignatureBits:
    """Every table's signature bits of one input, as prepare(v).bits holds them."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 16, 32]), tables=st.integers(1, 6),
           dim=st.integers(1, 40), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_fused_equals_per_table(self, k, tables, dim, seed, data):
        fam = LshFamily(dim, k=k, tables=tables, seed=seed)
        v = data.draw(_vectors_with_zeros(dim))
        norm = np.linalg.norm(v)
        # A norm that underflows to 0 or overflows leaves nothing to sign.
        if norm == 0.0 or not np.isfinite(norm):
            fault = "underflows" if norm == 0.0 else "overflows"
            with pytest.raises(ValueError, match=f"norm {fault} float64"):
                fam.prepare(v)
            return
        assert fam.prepare(v).bits == tuple(_oracle_bits(fam, v, t) for t in range(tables))

    def test_exact_zero_dot_is_bit_zero(self):
        fam = LshFamily(2, k=2, tables=2, seed=0)
        planes = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]])
        planes.setflags(write=False)
        fam.hyperplanes = planes
        v = np.array([1.0, 0.0])
        assert fam.prepare(v).bits == (0b01, 0b10)
        assert fam.prepare(v).bits == tuple(fam.signature_bits(v, t) for t in range(2))

    def test_returns_plain_ints(self, rng):
        fam = LshFamily(8, k=32, tables=3, seed=2)
        bits = fam.prepare(rng.standard_normal(8)).bits
        assert [type(b) for b in bits] == [int, int, int]
        assert all(0 <= b < 1 << 32 for b in bits)

    def test_input_validated(self):
        fam = LshFamily(4, k=4, tables=2, seed=0)
        with pytest.raises(ValueError, match="all-zero"):
            fam.prepare(np.zeros(4))
        with pytest.raises(ValueError, match="dim"):
            fam.prepare(np.ones(5))
        with pytest.raises(ValueError, match="NaN"):
            fam.prepare([1.0, float("nan"), 0.0, 0.0])


def _signers(fam):
    # Every public signer, each giving the table-0 bits of one vector.
    return {
        "prepare": lambda v: fam.prepare(v).bits[0],
        "signature_bits": lambda v: fam.signature_bits(v, 0),
        "batch_signature_bits": lambda v: int(fam.batch_signature_bits(v[None, :])[0]),
        "forwarding_hash": lambda v: forwarding_hash(fam, v),
    }


class TestOneSigningKernel:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 130), tables=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           order=st.sampled_from("CF"), data=st.data())
    def test_near_plane_rows_sign_alike(self, dim, tables, seed, order, data):
        # Rows with one hyperplane's component projected out put that dot
        # product at rounding level, where its sign depends on the order
        # the products are summed in; every signer must sum alike.
        fam = LshFamily(dim, k=16, tables=tables, seed=seed)
        table = data.draw(st.integers(0, tables - 1))
        plane = fam.hyperplanes[table, data.draw(st.integers(0, fam.k - 1))]
        m = np.random.default_rng(seed).standard_normal((48, dim))
        m -= np.outer(m @ plane, plane)
        m[np.linalg.norm(m, axis=1) == 0.0] = 1.0
        m = np.asarray(m, order=order)
        for t in range(tables):
            batch = fam.batch_signature_bits(m, t)
            assert batch.dtype == np.uint64
            for i, row in enumerate(m):
                oracle = _oracle_bits(fam, row, t)
                assert batch[i] == fam.prepare(row).bits[t] == fam.signature_bits(row, t) == oracle

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(tables=st.integers(1, 4), dim=st.integers(1, 40), seed=st.integers(0, 2**64 - 1),
           data=st.data())
    def test_every_signer_has_prepares_domain(self, tables, dim, seed, data):
        # Subnormal, zero and huge coordinates: every signer accepts the
        # vector with the same bits, or every one rejects it alike.
        fam = LshFamily(dim, k=FORWARDING_BITS, tables=tables, seed=seed)
        huge = st.sampled_from([1e154, -1e154, 1e200, -1e300, 1.7e308, 1.0, 0.0])
        v = data.draw(st.one_of(_vectors_with_zeros(dim),
                                arrays(np.float64, dim, elements=huge).filter(lambda v: v.any())))
        outcomes = {}
        for name, sign in _signers(fam).items():
            try:
                outcomes[name] = sign(v)
            except ValueError as exc:
                outcomes[name] = str(exc)
        assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("sign", [
    lambda fam, v: fam.signature_bits(v),
    lambda fam, v: fam.prepare(v),
    lambda fam, v: fam.batch_signature_bits(v[None, :]),
], ids=["signature_bits", "prepare", "batch_signature_bits"])
def test_overflowing_norm_rejected(sign):
    # Every coordinate is finite, but the norm is not; the dot products
    # would overflow to inf or NaN and NaN would read as a 0 bit.
    fam = LshFamily(8, k=16, tables=2, seed=3)
    with pytest.raises(ValueError, match="norm overflows float64"):
        sign(fam, np.full(8, 1e308))


@pytest.mark.parametrize("name", ["prepare", "signature_bits", "batch_signature_bits",
                                  "forwarding_hash"])
def test_underflowing_norm_is_not_called_all_zero(name):
    fam = LshFamily(8, k=16, tables=2, seed=3)
    with pytest.raises(ValueError, match="^feature vector norm underflows float64 to 0$"):
        _signers(fam)[name](np.full(8, 1e-200))
    with pytest.raises(ValueError, match="all-zero"):
        _signers(fam)[name](np.zeros(8))


class TestCollisionLaw:
    def test_bit_agreement_tracks_angle(self, rng):
        # Pairs built at an exact angle theta agree on each signature bit
        # with probability 1 - theta/pi.
        fam = LshFamily(24, k=16, tables=4, seed=21)
        n = 4000
        for theta in (math.pi / 8, math.pi / 4, math.pi / 2):
            u = rng.standard_normal((n, 24))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            w = rng.standard_normal((n, 24))
            w -= (w * u).sum(axis=1, keepdims=True) * u
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            v = math.cos(theta) * u + math.sin(theta) * w
            agree = 0
            total = 0
            for table in range(fam.tables):
                su = fam.batch_signature_bits(u, table)
                sv = fam.batch_signature_bits(v, table)
                diff = np.bitwise_xor(su, sv)
                agree += sum(fam.k - bin(int(d)).count("1") for d in diff)
                total += n * fam.k
            expected = 1.0 - theta / math.pi
            assert abs(agree / total - expected) < 0.02


class TestForwardingHash:
    def test_range_and_determinism(self):
        fam = LshFamily(64, k=16, tables=4, seed=3)
        h = forwarding_hash(fam, np.arange(1.0, 65.0))
        assert h == 18102
        assert 0 <= h < FORWARDING_SPACE

    def test_requires_16_bit_family(self):
        fam = LshFamily(8, k=8, tables=1, seed=0)
        with pytest.raises(ValueError, match="k=16"):
            forwarding_hash(fam, np.ones(8))

    def test_matches_table_zero_signature(self):
        fam = LshFamily(32, k=16, tables=2, seed=5)
        v = np.random.default_rng(8).standard_normal(32)
        assert forwarding_hash(fam, v) == fam.signature_bits(v, 0)


def _reference_probe_bits(bits, k, radius):
    # The multi-probe order spelled out flip by flip.
    out = []
    for d in range(radius + 1):
        for flips in itertools.combinations(range(k), d):
            b = bits
            for i in flips:
                b ^= 1 << i
            out.append(b)
    return out


class TestProbeMasks:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 32), data=st.data())
    def test_masks_reproduce_probe_order(self, k, data):
        radius = data.draw(st.integers(0, k if k <= 10 else 2))
        bits = data.draw(st.integers(0, (1 << k) - 1))
        masks = probe_masks(k, radius)
        assert len(masks) == sum(math.comb(k, d) for d in range(radius + 1))
        assert len(set(masks)) == len(masks)
        assert [bits ^ m for m in masks] == _reference_probe_bits(bits, k, radius)

    def test_radius_zero_is_identity(self):
        assert probe_masks(4, 0) == (0,)

    def test_radius_one_order(self):
        # Distance-1 probes flip one bit each, lowest bit index first.
        assert probe_masks(4, 1) == (0b0000, 0b0001, 0b0010, 0b0100, 0b1000)

    def test_full_radius_enumerates_space(self):
        assert sorted(0b101 ^ m for m in probe_masks(3, 3)) == list(range(8))

    @pytest.mark.parametrize("k,radius,expected", [
        (16, 1, 17),
        (16, 2, 137),
        (8, 8, 256),
        (4, 2, 11),
    ])
    def test_lengths(self, k, radius, expected):
        assert len(probe_masks(k, radius)) == expected
        assert expected == sum(math.comb(k, d) for d in range(radius + 1))

    def test_computed_once_per_width_and_radius(self):
        assert probe_masks(16, 1) is probe_masks(16, 1)

    @pytest.mark.parametrize("k,radius", [(4, -1), (4, 5), (0, 0), (33, 1)])
    def test_arguments_validated(self, k, radius):
        with pytest.raises(ValueError):
            probe_masks(k, radius)


class TestProbeSequence:
    # The probe sequence of a k-bit signature reaches at most k flips.
    @pytest.mark.parametrize("radius", [-1, 5])
    def test_radius_validated(self, radius):
        with pytest.raises(ValueError, match="radius"):
            probe_masks(4, radius)


class TestFeatureHash:
    def test_frozen_example(self):
        v = feature_hash([("alpha", 2.0), ("beta", 1.0)], 8, seed=0)
        assert v.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, -2.0]

    def test_order_independent(self):
        a = feature_hash([("x", 1.0), ("y", 2.0)], 16)
        b = feature_hash([("y", 2.0), ("x", 1.0)], 16)
        assert np.array_equal(a, b)

    def test_linear_in_values(self):
        a = feature_hash([("x", 1.0)], 16)
        b = feature_hash([("y", 1.0)], 16)
        combined = feature_hash([("x", 3.0), ("y", -2.0)], 16)
        assert np.allclose(combined, 3 * a - 2 * b)

    def test_empty_gives_zero_vector(self):
        v = feature_hash([], 4)
        assert v.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_seed_changes_layout(self):
        tokens = [(f"t{i}", 1.0) for i in range(32)]
        assert not np.array_equal(feature_hash(tokens, 64, seed=0),
                                  feature_hash(tokens, 64, seed=1))

    def test_rejects_bad_tokens(self):
        with pytest.raises(TypeError):
            feature_hash([(7, 1.0)], 4)
        with pytest.raises(ValueError):
            feature_hash([("x", float("nan"))], 4)
        with pytest.raises(ValueError):
            feature_hash([("x", 1.0)], 0)
