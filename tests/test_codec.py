import hashlib
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypc.codebook import (
    CodebookConfig,
    DirectionMode,
    build_codebook,
    cached_codebook,
    covering_radius,
)
from hypc.codec import (
    EncodeParams,
    EncodedLayer,
    MIN_BOX_SIDE,
    _categorize_distances,
    decode_layer,
    encode_layer,
    group_pairs,
    pack_bits,
    ring_error_bounds,
    unpack_bits,
)
from hypc import codebook, codec
from hypc.container import CompressedModel, dump_hcmp
from hypc.errors import ConsistencyError, DataError, FormatError

import codec_digest
import hcmp_v1_spec
import reference_encoder
from roundtrip_bounds import pair_errors, rounding_terms, stored_rings

SRC = Path(__file__).resolve().parent.parent / "src"
GRID = DirectionMode.GRID_SHEAR
PARAMS = EncodeParams()  # l=0.1, 225 points, 3 rings, grid direction


def roundtrip_bounds(weights, params=PARAMS):
    """Per-weight error bounds: the ring bound of its pair's stored code."""
    enc = encode_layer(weights, "w", (len(np.ravel(weights)),), params)
    return np.repeat(ring_error_bounds(enc.config)[stored_rings(enc)], 2)[: enc.element_count]


def oracle_layer(weights, params=PARAMS):
    """The reference encoder's encoding of weights, as an EncodedLayer."""
    flat = np.ravel(weights)
    enc = reference_encoder.encode(flat, params.box_side, params.num_points,
                                   params.max_category, params.direction_mode)
    config = CodebookConfig(params.box_side, params.num_points, params.max_category,
                            params.direction_mode, enc.centroid, enc.max_radius)
    return EncodedLayer("w", (flat.size,), config, enc.bit_width, enc.payload, enc.pad_value)


def box_queries(cfg: CodebookConfig, points: np.ndarray, rng) -> np.ndarray:
    """100,000 uniform box samples, the corners, the midpoints of every gap
    between stored y values (the box edges included) at the box's left edge,
    middle and right edge, and for U <= 16 a 101 x 101 grid."""
    x_lo, x_hi, y_lo, y_hi = cfg.box
    xs = np.array([x_lo, (x_lo + x_hi) / 2, x_hi])
    ys = np.unique(np.r_[y_lo, points[:, 1], y_hi])
    parts = [rng.uniform((x_lo, y_lo), (x_hi, y_hi), size=(100_000, 2)),
             np.array([[x_lo, y_lo], [x_lo, y_hi], [x_hi, y_lo], [x_hi, y_hi]]),
             np.stack(np.meshgrid(xs, (ys[1:] + ys[:-1]) / 2), -1).reshape(-1, 2)]
    if cfg.num_points <= 16:
        grid = np.linspace((x_lo, y_lo), (x_hi, y_hi), 101)
        parts.append(np.stack(np.meshgrid(grid[:, 0], grid[:, 1]), -1).reshape(-1, 2))
    return np.vstack(parts)


class TestGroupPairs:
    def test_even_length(self):
        points, padded, pad = group_pairs([0.1, 0.2, 0.4, 0.5])
        assert points.tolist() == [[0.1, 0.2], [0.4, 0.5]]
        assert padded is False and pad == 0.0

    def test_empty(self):
        points, padded, _ = group_pairs([])
        assert points.shape == (0, 2) and padded is False

    def test_odd_length_pads_with_prefix_centroid(self):
        points, padded, pad = group_pairs([0.3, 0.3, 0.3])
        assert padded is True
        assert pad == pytest.approx(0.3)
        assert points == pytest.approx(np.array([[0.3, 0.3], [0.3, 0.3]]))

    def test_single_element(self):
        points, padded, pad = group_pairs([0.7])
        assert padded is True
        assert points.tolist() == [[0.7, 0.7]] and pad == pytest.approx(0.7)

    def test_nan_reports_index(self):
        with pytest.raises(DataError, match="2"):
            group_pairs([0.0, 0.1, math.nan, 0.2])


class TestAnalyze:
    """Centroid and largest centroid distance, as encode_layer records them."""

    @staticmethod
    def analyze(weights):
        cfg = encode_layer(weights, "w", (len(weights),), PARAMS).config
        return cfg.centroid, cfg.max_radius

    def test_single_point(self):
        centroid, radius = self.analyze([0.5, 0.5])
        assert centroid == (0.5, 0.5) and radius == 0.0

    def test_symmetric_pair(self):
        centroid, radius = self.analyze([0.0, 0.0, 1.0, 1.0])
        assert centroid == (0.5, 0.5)
        assert radius == pytest.approx(math.sqrt(0.5))

    def test_worked_example(self):
        centroid, radius = self.analyze([0.1, 0.2, 0.4, 0.5])
        assert centroid == pytest.approx((0.25, 0.35))
        assert radius == pytest.approx(0.2121320, abs=1e-7)

    @staticmethod
    def one_array(weights):
        """Pad, centroid and max_radius from whole float64 arrays, as the
        reference encoder takes them."""
        points, pad = reference_encoder.pairs(weights)
        return (pad, *reference_encoder.centroid_and_radius(points))

    @pytest.mark.parametrize("pairs", [1, 7, 8, 9, 127, 128, 129, 2**15 - 1, 2**15,
                                       2**15 + 1, 2**16 + 1, 2**16 + 7, 2 * 2**16 + 7, 422_500])
    @pytest.mark.parametrize("odd", [0, 1])
    def test_blocked_centroid_matches_one_array_mean(self, pairs, odd):
        # Blocks convert float32 pairs one at a time; the running total enters
        # each block's first row and the pad is summed along numpy's pairwise
        # tree, so every float equals the one-array computation's.
        rng = np.random.default_rng(pairs + odd)
        size = 2 * pairs - odd  # magnitudes over twelve decades expose any other order
        weights = (rng.normal(0.1, 0.3, size) * 10.0 ** rng.uniform(-6, 6, size)).astype(np.float32)
        points, padded, pad = group_pairs(weights)
        centroid, radius = codec._analyze(points)
        assert (pad, centroid, radius) == self.one_array(weights)
        assert padded == bool(odd) and points.dtype == (np.float64 if odd else np.float32)

    def test_blocked_centroid_matches_on_random_float64_sizes(self):
        rng = np.random.default_rng(11)
        for size in rng.integers(1, 300_000, size=8):
            weights = rng.normal(-2.0, 5.0, size=size)
            points, _, pad = group_pairs(weights)
            assert (pad, *codec._analyze(points)) == self.one_array(weights)


def ring_of(d, box_side, max_radius, max_category):
    """The ring of distance d, the same from the reference encoder's scalar
    plan and the codec's vectorized one."""
    ring = reference_encoder.ring(d, box_side, max_radius, max_category)
    assert _categorize_distances(np.array([d]), box_side, max_radius,
                                 max_category).tolist() == [ring]
    return ring


def refuse_ring(d, box_side, max_radius, max_category, match):
    """Both ring plans refuse distance d with a message matching match."""
    with pytest.raises(ValueError, match=match):
        reference_encoder.ring(d, box_side, max_radius, max_category)
    with pytest.raises(ConsistencyError, match=match):
        _categorize_distances(np.array([d]), box_side, max_radius, max_category)


class TestCategorize:
    def test_inside_box(self):
        assert ring_of(0.03, 0.1, 0.4, 3) == 0

    def test_first_ring(self):
        # d = 0.2 with l=0.1, l_f=0.4, M=2: smallest m with 0.2 <= 0.05 + 0.2 m
        assert ring_of(0.2, 0.1, 0.4, 2) == 1

    def test_outermost_ring(self):
        assert ring_of(0.4, 0.1, 0.4, 2) == 2

    def test_beyond_rings_rejected(self):
        refuse_ring(0.5, 0.1, 0.4, 2, r"distance 0\.5 exceeds outermost ring")

    def test_within_slack_past_the_outermost_ring(self):
        # Just past half + max_radius = 0.45 but within the relative slack:
        # rounding, not data, put it there, so both plans give the last ring.
        d = 0.45 * (1 + 5e-10)
        assert d > 0.05 + 0.2 * 2
        assert ring_of(d, 0.1, 0.4, 2) == 2

    def test_scale_plan_names_the_distance_beyond_the_rings(self):
        dists = np.array([0.01, 1.25, 0.3])
        with pytest.raises(ConsistencyError, match=r"distance 1\.25 exceeds outermost ring"):
            _categorize_distances(dists, 0.1, 0.4, 2)

    def test_no_rings_requires_box_fit(self):
        # M = 0 is one band out to l/2, whatever max_radius says.
        assert ring_of(0.04, 0.1, 0.0, 0) == 0
        refuse_ring(0.06, 0.1, 0.0, 0, r"distance 0\.06 exceeds outermost ring 0\.05")
        for max_radius in (0.0, 0.3):
            inside = np.array([0.0, 0.03, 0.05, 0.05 * (1 + 5e-10)])
            assert _categorize_distances(inside, 0.1, max_radius, 0).tolist() == [0] * 4
            assert [ring_of(d, 0.1, max_radius, 0) for d in inside] == [0] * 4
            with pytest.raises(ConsistencyError, match=r"distance 0\.06 exceeds outermost ring 0\.05"):
                _categorize_distances(np.array([0.01, 0.06, 0.02]), 0.1, max_radius, 0)

    @pytest.mark.parametrize("reference", [False, True])
    def test_no_rings_slack_scales_with_the_box(self, reference):
        # At l = 1e-14 a pair 2.5e-13 out is 50 half-sides past the box; it
        # would decode 260 times beyond its ring bound, so the codec
        # (reference=False) and the reference encoder both refuse it.
        params = EncodeParams(box_side=1e-14, max_category=0)
        weights = [0, 0, 5e-13, 0]
        message = r"distance 2\.5e-13 exceeds outermost ring 5e-15"
        if reference:
            with pytest.raises(ValueError, match=message):
                oracle_layer(weights, params)
        else:
            with pytest.raises(ConsistencyError, match=message):
                encode_layer(weights, "w", (4,), params)
        refuse_ring(2.5e-13, 1e-14, 2.5e-13, 0, r"distance 2\.5e-13")

    @pytest.mark.parametrize("max_radius", [0.0, 1e-300, 1e30])
    @pytest.mark.parametrize("m", [1, 3, 15, 65535])
    def test_ring_index_matches_searchsorted_at_band_edges(self, max_radius, m):
        # The closed-form ring guess must agree with a binary search over the
        # bands exactly where rounding decides: at every band edge and at the
        # neighbouring floats on both sides, also where the step is zero or
        # far below ulp(half).
        half = 0.05
        bands = half + (max_radius / m) * np.arange(1, m + 1, dtype=np.float64)
        edges = np.concatenate(([half], bands))
        dists = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf), [0.0, half / 2]])
        want = np.searchsorted(bands, dists, side="left") + 1
        want[dists <= half] = 0
        np.minimum(want, m, out=want)
        got = _categorize_distances(dists, 2 * half, max_radius, m)
        assert got.tolist() == want.tolist()


class TestScaleFactor:
    @staticmethod
    def factors(box_side, max_radius, max_category):
        """s_0 .. s_M, the same from the reference encoder and the codec."""
        want = [reference_encoder.scale(m, box_side, max_radius, max_category)
                for m in range(max_category + 1)]
        cfg = CodebookConfig(box_side, 225, max_category, GRID, (0.0, 0.0), max_radius)
        assert codec._scale_factors(np.arange(max_category + 1), cfg).tolist() == want
        return want

    def test_inner_points_unscaled(self):
        assert self.factors(0.1, 0.4, 2)[0] == 1.0

    def test_ring_one(self):
        assert self.factors(0.1, 0.4, 2)[1] == pytest.approx(0.2)

    def test_ring_two(self):
        assert self.factors(0.1, 0.4, 2)[2] == pytest.approx(1 / 9)

    def test_zero_radius_never_scales(self):
        assert self.factors(0.1, 0.0, 3) == [1.0] * 4

    def test_monotone_non_increasing(self):
        values = self.factors(0.1, 0.7, 6)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_category_beyond_max_rejected(self):
        with pytest.raises(ValueError):
            reference_encoder.scale(1, 0.1, 0.4, 0)


class TestPackBits:
    def test_layout_example(self):
        assert pack_bits([1, 2, 3], 2) == b"\x39"

    def test_empty(self):
        assert pack_bits([], 7) == b""
        assert unpack_bits(b"", 7, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_bits([4], 2)
        with pytest.raises(ValueError):
            pack_bits([-1], 2)

    def test_truncated_rejected(self):
        with pytest.raises(FormatError):
            unpack_bits(b"\x39", 2, 5)

    def test_bad_width_rejected(self):
        for w in (0, 33):
            with pytest.raises(ValueError):
                pack_bits([0], w)

    def test_roundtrip_many_widths(self):
        rng = np.random.default_rng(0)
        for width in range(1, 18):
            values = rng.integers(0, 1 << width, size=6000)
            data = pack_bits(values, width)
            assert len(data) == (6000 * width + 7) // 8
            assert np.array_equal(unpack_bits(data, width, 6000), values)

    @given(
        st.integers(min_value=1, max_value=32),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50),
    )
    def test_roundtrip_property(self, width, values):
        values = [v & ((1 << width) - 1) for v in values]
        assert unpack_bits(pack_bits(values, width), width, len(values)).tolist() == values


def matrix_pack(values, bit_width: int) -> bytes:
    """The bit-matrix packer hypc used before word-level packing: an oracle."""
    arr = np.asarray(values).astype(np.uint64).reshape(-1)
    bits = (arr[:, None] >> np.arange(bit_width, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8).ravel(), bitorder="little").tobytes()


def matrix_unpack(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """The bit-matrix unpacker hypc used before word-level unpacking: an oracle."""
    raw = np.frombuffer(data, dtype=np.uint8, count=(count * bit_width + 7) // 8)
    bits = np.unpackbits(raw, bitorder="little", count=count * bit_width)
    weights = np.arange(bit_width, dtype=np.uint64)
    vals = (bits.reshape(count, bit_width).astype(np.uint64) << weights).sum(
        axis=1, dtype=np.uint64
    )
    return vals.astype(np.int64)


class TestPackBitsOracle:
    LENGTHS = (1, 7, 8, 9, 63, 64, 65, 4097)
    # pack_bits works in blocks of 2^15 values: these lengths put values on
    # both sides of one or more block boundaries, and end a block short.
    BLOCK_LENGTHS = (2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7)

    @pytest.mark.parametrize("width", range(1, 33))
    def test_matches_the_bit_matrix(self, width):
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        lengths = self.LENGTHS + (self.BLOCK_LENGTHS if width in (1, 7, 20, 32) else ())
        for count in lengths:
            for values in (rng.integers(0, top + 1, size=count), np.full(count, top)):
                data = pack_bits(values, width)
                assert data == matrix_pack(values, width), count
                unpacked = unpack_bits(data, width, count)
                assert unpacked.dtype == np.int64
                assert np.array_equal(unpacked, values), count
                assert np.array_equal(unpacked, matrix_unpack(data, width, count))

    @pytest.mark.parametrize("width", range(1, 33))
    def test_matches_a_plain_lsb_first_packer(self, width):
        # A fault shared by pack_bits and unpack_bits passes every round trip;
        # this compares the bytes with a packer that shares no code with them.
        # Lengths straddle a slot of eight values and a block of _QUERY_BLOCK,
        # with odd tails; each input type that holds the width is tried.
        rng = np.random.default_rng([width, 28])
        top = (1 << width) - 1
        dtypes = [d for d in (np.uint8, np.uint16, np.uint32, np.int64)
                  if top <= np.iinfo(d).max]
        block = codec._QUERY_BLOCK
        for count in (1, 7, 8, 9, 13, 8 * 37 + 5, block - 1, block + 1):
            small = count < 1000
            for values in [rng.integers(0, top + 1, size=count)] + small * [np.full(count, top)]:
                for d in dtypes if small else dtypes[count % len(dtypes):][:1]:
                    want = reference_encoder.pack(values, width)
                    assert pack_bits(values.astype(d), width) == want, (count, d)

    @pytest.mark.parametrize("width,count", [(1, 8), (3, 8), (8, 5), (20, 2), (32, 3), (12, 66)])
    def test_payload_ending_on_its_last_bit(self, width, count):
        # count * width fills whole bytes: the last value ends on the final bit,
        # and the unpacker must read nothing past it.
        assert count * width % 8 == 0
        values = np.full(count, (1 << width) - 1)
        data = pack_bits(values, width)
        assert data == b"\xff" * (count * width // 8)
        assert np.array_equal(unpack_bits(bytearray(data), width, count), values)

    @pytest.mark.parametrize("width", [1, 5, 17, 31, 32])
    def test_trailing_bytes_ignored(self, width):
        values = np.random.default_rng(width).integers(0, 1 << width, size=65)
        data = pack_bits(values, width)
        for tail in (b"\xff", b"\xff" * 9, bytes(range(256))):
            assert np.array_equal(unpack_bits(data + tail, width, 65), values)

    def test_unpack_peak_memory(self):
        # As many values as the reference model has pairs; the bit-matrix
        # unpacker peaked near 180 MB on them.
        count = 554_854
        values = np.random.default_rng(0).integers(0, 1 << 20, size=count)
        data = pack_bits(values, 20)
        tracemalloc.start()
        try:
            unpacked = unpack_bits(data, 20, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(unpacked, values)
        assert peak < 40e6, peak


class TestEncodeDecode:
    def test_constant_layer(self):
        weights = np.full(1000, 0.5)
        enc = encode_layer(weights, "w", (1000,), PARAMS)
        theta = unpack_bits(enc.payload, enc.bit_width, enc.group_count)
        assert np.unique(theta).size == 1
        restored = decode_layer(enc)
        # every group sits at the box center; half the covering bound applies
        assert np.abs(weights - restored).max() <= ring_error_bounds(enc.config)[0] / 2

    @pytest.mark.parametrize("layer", [[0.5] * 1000, [0.23, -0.41] * 300])
    def test_reencoding_decoded_output_is_fixed_point(self, layer):
        first = encode_layer(layer, "w", (len(layer),), PARAMS)
        restored = decode_layer(first)
        second = encode_layer(restored, "w", (len(layer),), PARAMS)
        assert second.payload == first.payload
        assert second.bit_width == first.bit_width

    def test_worked_example_error_bound(self):
        weights = [0.1, 0.2, 0.4, 0.5]
        enc = encode_layer(weights, "w", (4,), PARAMS)
        restored = decode_layer(enc)
        assert (np.abs(np.array(weights) - restored) <= roundtrip_bounds(weights)).all()

    def test_random_layer_error_bound(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(-0.5, 0.5, size=10_000)
        enc = encode_layer(weights, "w", (10_000,), PARAMS)
        restored = decode_layer(enc)
        assert (np.abs(weights - restored) <= roundtrip_bounds(weights)).all()

    def test_theta_range_invariant(self):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=2001)
        enc = encode_layer(weights, "w", (2001,), PARAMS)
        theta = unpack_bits(enc.payload, enc.bit_width, enc.group_count)
        assert int(theta.max()) < enc.config.theta_bound
        assert enc.bit_width == max(1, int(theta.max()).bit_length())

    def test_scale_containment(self):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=5000)
        points, _, _ = group_pairs(weights)
        enc = encode_layer(weights, "w", (5000,), PARAMS)
        cfg = enc.config
        scales = codec._scale_factors(stored_rings(enc), cfg)
        center = np.array(cfg.centroid)
        scaled = (points - center) * scales[:, None] + center
        dist = np.hypot(*(scaled - center).T)
        assert dist.max() <= (0.1 / 2) * (1 + 1e-12)

    @pytest.mark.parametrize("length", [0, 1, 2, 7, 100, 101])
    def test_padding_roundtrip_lengths(self, length):
        rng = np.random.default_rng(length)
        weights = rng.uniform(-1, 1, size=length)
        enc = encode_layer(weights, "w", (length,), PARAMS)
        assert (enc.element_count % 2 == 1) == (length % 2 == 1)
        restored = decode_layer(enc)
        assert restored.size == length

    def test_decode_deterministic(self):
        enc = encode_layer(np.linspace(-1, 1, 501), "w", (501,), PARAMS)
        a = decode_layer(enc)
        b = decode_layer(enc)
        assert a.tobytes() == b.tobytes()

    def test_encode_deterministic(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=400)
        a = encode_layer(weights, "w", (400,), PARAMS)
        b = encode_layer(weights, "w", (400,), PARAMS)
        assert a == b

    def test_all_arms_agree(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(scale=0.3, size=2000)
        reference = oracle_layer(weights)
        full = encode_layer(weights, "w", (2000,), PARAMS)
        assert full.payload == reference.payload
        assert full.bit_width == reference.bit_width
        assert full == reference

    def test_empty_layer(self):
        enc = encode_layer([], "w", (0,), PARAMS)
        assert enc.payload == b"" and enc.bit_width == 1
        assert decode_layer(enc).size == 0

    def test_max_category_zero_requires_fit(self):
        params = EncodeParams(max_category=0)
        with pytest.raises(ConsistencyError):
            encode_layer(np.linspace(-2, 2, 100), "w", (100,), params)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            encode_layer([1.0, 2.0], "w", (3,), PARAMS)

    def test_codes_wider_than_32_bits_are_a_data_error(self):
        # One outlier puts its pair in ring 65535, code ~ 65535 * 2^20 (36
        # bits); at U = 2^16 the widest code still fits in 32 bits.
        weights = np.random.default_rng(24).normal(0.0, 0.1, size=1000)
        weights[0] = 1e3
        with pytest.raises(DataError, match=r"layer 'w': widest code \d+ needs 36 bits; "
                                            r"HCMP stores codes of at most 32 bits"):
            encode_layer(weights, "w", (1000,), EncodeParams(0.1, 1 << 20, 65535))
        enc = encode_layer(weights, "w", (1000,), EncodeParams(0.1, 1 << 16, 65535))
        assert enc.bit_width == 32

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, first", [
        ([1e300, -1e300, 0.0, 1.0], 0),
        # Only the last pair's distance (1.5e154) overflows when squared.
        ([0.0] * 6 + [2e154, 0.0], 6),
    ])
    def test_overflowing_distance_names_the_weight(self, weights, first):
        with pytest.raises(DataError, match=f"weight {first}: .* overflows"):
            encode_layer(np.array(weights), "w", (len(weights),), PARAMS)

    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_squared_distance_overflow_is_the_limit(self, mode):
        # Pairs farther than about 1.3e154 from the centroid are refused.
        params = EncodeParams(direction_mode=mode)
        with pytest.raises(DataError, match=r"weight 0: the squared distance .* float64"):
            encode_layer(np.array([1e160, 0.0, -1e160, 5e159]), "w", (4,), params)
        enc = encode_layer(np.array([1e150, 0.0, -1e150, 5e149]), "w", (4,), params)
        assert np.isfinite(decode_layer(enc)).all()

    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_box_side_below_the_floor_is_a_data_error(self, mode):
        # At l = 1e-200 the lookup's squared distances underflow, and grid mode
        # at U = 225 decoded pairs 9.9 times past their ring bound. At the
        # floor every pair decodes within its bound plus rounding.
        weights = np.random.default_rng(29).uniform(-0.3, 0.3, size=40)
        with pytest.raises(DataError, match=r"layer 'w': box side 1e-200 is below the floor "
                                            r"1e-150, where the lookup's squared distances"):
            encode_layer(weights * 1e-200, "w", (40,), EncodeParams(1e-200, 225, 0, mode))
        weights *= MIN_BOX_SIDE
        for u in (4, 225, 4096, 65536):
            for m in (0, 3):
                enc = encode_layer(weights, "w", (40,), EncodeParams(MIN_BOX_SIDE, u, m, mode))
                bounds = ring_error_bounds(enc.config) + rounding_terms(enc.config)
                assert (pair_errors(weights, enc) <= bounds[stored_rings(enc)]).all(), (u, m)

    @pytest.mark.filterwarnings("error")
    def test_near_float_max_encodes_without_warning(self):
        # The lattice certificate's bound is hugely negative here; squared
        # unclipped, it overflowed (with a warning) before settling nothing.
        weights = np.array([1.7e308, 0.0])
        for enc in (encode_layer(weights, "w", (2,), PARAMS), oracle_layer(weights)):
            assert (enc.payload, enc.bit_width) == (b"\xad", 8)
            assert enc.config.centroid == (1.7e308, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [[1.7e308] * 4, [-1.7e308] * 4, [1.7e308] * 3,
                                         [1e308] * 7])
    def test_overflowing_centroid_sum_is_rescaled(self, weights):
        # The sums behind the centroid and the odd-length pad overflow; taken
        # again on terms scaled by a power of two they give the true mean.
        weights = np.array(weights)
        for enc in (encode_layer(weights, "w", (len(weights),), PARAMS), oracle_layer(weights)):
            assert enc.config.centroid == (weights[0], weights[0])
            restored = decode_layer(enc)
            assert (np.abs(weights - restored) <= roundtrip_bounds(weights)).all()

    @pytest.mark.filterwarnings("error")
    def test_pair_distance_past_float_max_names_the_weight(self):
        # Centroid (0, 0), found without overflow; both pairs lie 2.4e308 from it.
        weights = np.array([1.7e308, -1.7e308, -1.7e308, 1.7e308])
        with pytest.raises(DataError, match=r"weight 0: .* \(0\.0, 0\.0\) overflows"):
            encode_layer(weights, "w", (4,), PARAMS)

    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_collapsed_codebook_encodes_quickly(self, mode):
        # At 1e16 all 2^20 points round to a few floats. The row sweep keeps
        # one copy of each (the smallest index); stepping through every tied
        # copy took 39 s. Every pair sits on the centroid, so one query stands
        # for all and a scan of all points gives the code.
        weights = np.full(1000, 1e16, dtype=np.float32)
        params = EncodeParams(num_points=1 << 20, direction_mode=mode)
        start = time.perf_counter()
        enc = encode_layer(weights, "w", (1000,), params)
        assert time.perf_counter() - start < 5.0
        points = build_codebook(enc.config).points
        dx = points[:, 0] - enc.config.centroid[0]
        dy = points[:, 1] - enc.config.centroid[1]
        want = np.argmin(dx * dx + dy * dy)
        assert unpack_bits(enc.payload, enc.bit_width, 500).tolist() == [want] * 500

    @pytest.mark.parametrize("block", [32, 96])
    def test_block_size_leaves_bytes_unchanged(self, monkeypatch, block):
        # Plan, rescale, lookup and packing run per block of pairs; any block
        # size that is a multiple of 32 must give the one-pass bytes.
        weights = np.random.default_rng(8).normal(scale=0.3, size=4001)
        whole = encode_layer(weights, "w", (4001,), PARAMS)
        monkeypatch.setattr(codec, "_QUERY_BLOCK", block)
        assert encode_layer(weights, "w", (4001,), PARAMS) == whole

    def test_encode_peak_memory(self):
        # layer0.weight of the reference model: 845,000 float32 weights, kept
        # as float32 and converted a block of 2^15 pairs at a time. The codes
        # are uint16 (0.8 MiB) and the payload 0.5 MiB; measured peak 4.4 MiB
        # (4.8 MiB with column-wise centring and bincount packing), against
        # 16.9 MiB with a float64 copy and whole-layer distances and 32.3 MiB
        # with whole-layer plan, lookup and packing as well.
        weights = np.random.default_rng(9).random(845_000, dtype=np.float32) - np.float32(0.5)
        tracemalloc.start()
        try:
            encode_layer(weights, "layer0.weight", (650, 1300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    @pytest.mark.parametrize("mode", list(DirectionMode))
    def test_small_layer_at_large_u_allocates_nothing_of_size_u(self, monkeypatch, mode):
        # 40 weights at U = 2^20, after a warm-up that caches the box-frame
        # points: a layer gathers the points it reads and shifts them into its
        # box, so it copies none of the 16 MiB array. Measured peak 0.09 MiB,
        # against 32.1 MiB when each layer shifted and transposed every point.
        # These inputs reach no row sweep, which indexes all U points.
        monkeypatch.setattr(codebook._RowSweep, "sweep", None)
        params = EncodeParams(num_points=1 << 20, direction_mode=mode)
        weights = np.random.default_rng(0).normal(size=40)
        encode_layer(weights, "w", (40,), params)
        for i in range(1, 8):
            tracemalloc.start()
            try:
                encode_layer(weights + 0.1 * i, "w", (40,), params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (i, peak)


class TestReferenceEncoder:
    @pytest.mark.parametrize("u", [1, 2, 3, 4, 5, 9, 16, 225, 361])
    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_matches_encode_layer_on_edge_configs(self, mode, u):
        # Every field of the layer, or the refusal, for each ring count, box
        # side and input: float32 of odd length (a pad, blocks converted from
        # float32), float64, and float64 around a centroid near (1e9, 1e9).
        encoded = refused = 0
        for m in (0, 1, 3):
            for side in (1e-14, 0.1, 1e6):
                inputs = (
                    (side * np.random.default_rng(1).normal(size=41)).astype(np.float32),
                    side * np.random.default_rng(2).uniform(-0.3, 0.3, size=40),
                    1e9 + side * np.random.default_rng(3).uniform(-0.3, 0.3, size=40),
                )
                for weights in inputs:
                    params = EncodeParams(side, u, m, mode)
                    try:
                        want = oracle_layer(weights, params)
                    except ValueError:
                        with pytest.raises(ConsistencyError):
                            encode_layer(weights, "w", (weights.size,), params)
                        refused += 1
                        continue
                    assert encode_layer(weights, "w", (weights.size,), params) == want, (
                        m, side, weights.dtype)
                    encoded += 1
        assert (encoded, refused) == (24, 3)


class TestDecodeTheta:
    def cfg(self, m=0, radius=0.0):
        return CodebookConfig(0.1, 4, m, GRID, (0.5, 0.5), radius)

    @staticmethod
    def decode_one(theta, cfg):
        """Decode a 2-weight layer whose only stored index is ``theta``."""
        width = max(1, theta.bit_length())
        layer = EncodedLayer("w", (2,), cfg, width,
                             pack_bits([theta], width), 0.0)
        return tuple(decode_layer(layer))

    def test_zero_index_is_box_corner(self):
        w1, w2 = self.decode_one(0, self.cfg())
        assert (w1, w2) == pytest.approx((0.45, 0.45), abs=1e-12)

    def test_ring_one_inverse_scaling(self):
        w1, w2 = self.decode_one(1 * 4 + 0, self.cfg(m=2, radius=0.4))
        assert (w1, w2) == pytest.approx((0.25, 0.25), abs=1e-9)

    def test_category_zero_point_is_exact(self):
        cfg = self.cfg(m=2, radius=0.4)
        cb = build_codebook(cfg)
        w1, w2 = self.decode_one(3, cfg)
        assert (w1, w2) == (cb.points[3][0], cb.points[3][1])

    def test_out_of_range_rejected(self):
        cfg = self.cfg(m=2, radius=0.4)  # bound = 12, the first index it rejects
        with pytest.raises(FormatError):
            self.decode_one(12, cfg)

    def test_non_finite_weights_are_refused_where_stored(self):
        # Ring 1's shrink factor underflows to 0, so its codes restore to inf
        # or nan and ring 0's stay finite. 8 pairs (theta_bound) decode
        # through the per-code table, 7 code by code: either way a layer that
        # stores no ring-1 code decodes, and one that does is refused.
        cfg = CodebookConfig(1e-300, 4, 1, GRID, (0.0, 0.0), 1e308)
        for theta in ([0, 1, 2, 3] * 2, [0, 1, 2, 3, 3, 2, 1]):
            n = 2 * len(theta)
            layer = EncodedLayer("w", (n,), cfg, 3, pack_bits(theta, 3), 0.0)
            with np.errstate(all="raise"):
                assert np.isfinite(decode_layer(layer)).all()
            layer = EncodedLayer("w", (n,), cfg, 3,
                                 pack_bits(theta[:-1] + [5], 3), 0.0)
            for dtype in (np.float64, np.float32):
                with np.errstate(all="raise"), pytest.raises(
                        FormatError, match=rf"layer 'w': code 5 decodes weight {n - 2} to "):
                    decode_layer(layer, dtype)

    @pytest.mark.parametrize("num_points", [1, 4])  # table path, block path
    def test_dropped_pad_is_not_checked(self, num_points):
        # Only the pad coordinate, y ~ 1e300, overflows float32; the layer's
        # one weight, x = -0.5, is finite.
        cfg = CodebookConfig(1.0, num_points, 0, GRID, (0.0, 1e300), 0.0)
        layer = EncodedLayer("w", (1,), cfg, 1, pack_bits([0], 1), 1e300)
        with np.errstate(all="raise"):
            assert decode_layer(layer, np.float32).tolist() == [-0.5]
        layer = EncodedLayer("w", (2,), cfg, 1, pack_bits([0], 1), 0.0)
        assert decode_layer(layer).tolist() == [-0.5, 1e300]
        with pytest.raises(FormatError, match=r"code 0 decodes weight 1 to inf in float32"):
            decode_layer(layer, np.float32)

    @pytest.mark.parametrize("mode", list(DirectionMode))
    def test_decode_reads_the_encoder_points(self, mode):
        # Decoding reads memoized points without the row index; they must be the
        # very points the encoder's nearest lookup searched.
        weights = np.random.default_rng(int(mode)).normal(0.0, 0.2, size=301)
        params = EncodeParams(num_points=361, max_category=4, direction_mode=mode)
        enc = encode_layer(weights, "w", (301,), params)
        cfg = enc.config
        points = build_codebook(cfg).points
        cached = cached_codebook(cfg.num_points, cfg.box_side, cfg.direction_mode)
        shift = np.array(cfg.centroid) - cfg.box_side / 2.0
        assert (cached + shift).tobytes() == points.tobytes()
        assert not cached.flags.writeable
        cats, lam = np.divmod(unpack_bits(enc.payload, enc.bit_width, enc.group_count),
                              cfg.num_points)
        assert cats.max() > 0  # some pairs lie outside the box
        scales = np.array([reference_encoder.scale(int(c), cfg.box_side, cfg.max_radius,
                                                   cfg.max_category) for c in cats])
        center = np.array(cfg.centroid)
        want = (points[lam] - center) / scales[:, None] + center
        assert decode_layer(enc).tobytes() == want.reshape(-1)[:301].tobytes()

    def test_layers_with_one_codebook_share_a_cache_entry(self):
        # Twelve layers differ only in their centroid, so their U = 2^20
        # codebooks are one set of wrapped points shifted twelve ways.
        u = 1 << 20
        cached_codebook.cache_clear()
        layers = [
            EncodedLayer("w", (2,),
                         CodebookConfig(0.1, u, 0, GRID, (0.01 * i, -0.02 * i), 0.0),
                         20, pack_bits([12345 + i], 20), 0.0)
            for i in range(12)
        ]
        decoded = [decode_layer(layer) for layer in layers]
        assert cached_codebook.cache_info().currsize == 1
        points = cached_codebook(u, 0.1, GRID)
        for i, (layer, pair) in enumerate(zip(layers, decoded)):
            center = np.array(layer.config.centroid)
            want = (points[12345 + i] + (center - 0.1 / 2) - center) / 1.0 + center
            assert pair.tobytes() == want.tobytes()

    def test_layers_that_differ_in_centroid_share_points_and_bound(self):
        # Eight layers at U = 2^20 differ only in their centroid: encoding and
        # decoding them computes the points once, and their ring bounds
        # compute the covering radius (a row index over 2^20 points) once.
        u = 1 << 20
        cached_codebook.cache_clear()
        covering_radius.cache_clear()
        params = EncodeParams(num_points=u, direction_mode=DirectionMode.PAPER_EQ)
        weights = np.random.default_rng(24).normal(0.0, 0.2, size=40)
        for i in range(8):
            enc = encode_layer(weights + 0.1 * i, "w", (40,), params)
            decode_layer(enc)
            ring_error_bounds(enc.config)
        assert cached_codebook.cache_info().currsize == 1
        assert covering_radius.cache_info().misses == 1

    def test_decode_layer_rejects_out_of_range_theta(self):
        # One pair decodes code by code; six pairs (>= the bound) through the table.
        cfg = self.cfg()  # bound = 4, but 3 bits can hold up to 7
        for theta in ([5], [0, 1, 2, 3, 5, 3]):
            count = 2 * len(theta)
            layer = EncodedLayer("w", (count,), cfg, 3,
                                 pack_bits(theta, 3), 0.0)
            with pytest.raises(FormatError):
                decode_layer(layer)

    @pytest.mark.parametrize("mode", list(DirectionMode))
    def test_matches_the_spec_decode_around_the_table_threshold(self, mode):
        # Layers hold bound - 2 .. bound + 2 pairs, so both call shapes of the
        # decode formula run; each must equal the README's operation-by-operation
        # decode byte for byte.
        rng = np.random.default_rng(int(mode) + 40)
        for m in range(16):
            u = int(rng.choice([1, 2, 4, 9, 10, 25, 36]))
            bound = u * (m + 1)
            for groups in range(max(1, bound - 2), bound + 3):
                count = 2 * groups - 1  # odd: the last pair is padded
                theta = rng.integers(0, bound, groups)
                width = max(1, int(theta.max()).bit_length())
                cfg = CodebookConfig(float(rng.uniform(0.01, 0.5)), u, m, mode,
                                     tuple(rng.normal(0, 0.1, 2).tolist()),
                                     float(rng.uniform(0.0, 1.0)))
                layer = EncodedLayer("w", (count,), cfg, width,
                                     pack_bits(theta, width), 0.0)
                (spec,) = hcmp_v1_spec.read_layers(dump_hcmp(CompressedModel([layer])))
                weights = hcmp_v1_spec.decode_weights(spec)
                assert struct.pack(f"<{count}d", *weights) == decode_layer(layer).tobytes()

    @pytest.mark.parametrize("u, m, limit_mb", [(225, 3, 11), (65536, 15, 15)])
    def test_decode_peak_memory(self, u, m, limit_mb):
        # 422,500 pairs, as in the reference model's layer0.weight: at U = 225
        # they decode through a 900-code table, at U = 2^16 and M = 15 code by
        # code, a block at a time. Measured peaks, codebook build included:
        # 9.7 MiB and 13.5 MiB as float64 (17.1 MiB code by code over the
        # whole layer), 6.5 MiB and 10.3 MiB as float32; the float64 output
        # alone is 6.4 MiB and the codes 3.2 MiB.
        groups = 422_500
        theta = np.random.default_rng(u).integers(0, u * (m + 1), size=groups)
        width = int(theta.max()).bit_length()
        cfg = CodebookConfig(0.1, u, m, GRID, (0.01, -0.02), 0.3)
        layer = EncodedLayer("w", (2 * groups,), cfg, width,
                             pack_bits(theta, width), 0.0)
        del theta
        for dtype, limit in ((np.float64, limit_mb), (np.float32, limit_mb - 3)):
            cached_codebook.cache_clear()
            tracemalloc.start()
            try:
                decode_layer(layer, dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * 2**20, (dtype, peak)

    @pytest.mark.parametrize("u, m, groups", [(225, 3, 5000), (4096, 15, 5000),
                                              (65536, 15, 2**15 + 3)])
    def test_float32_decode_equals_the_cast_float64_decode(self, u, m, groups):
        # Table path (groups >= theta_bound) and code-by-code path, the last
        # over more than one block.
        theta = np.random.default_rng(groups).integers(0, u * (m + 1), size=groups)
        width = int(theta.max()).bit_length()
        cfg = CodebookConfig(0.1, u, m, GRID, (0.3, -0.7), 2.5)
        count = 2 * groups - 1
        layer = EncodedLayer("w", (count,), cfg, width,
                             pack_bits(theta, width), 0.0)
        assert (groups >= cfg.theta_bound) == (u * (m + 1) <= 5000)
        single = decode_layer(layer, np.float32)
        assert single.dtype == np.float32 and single.size == count
        assert single.tobytes() == decode_layer(layer).astype(np.float32).tobytes()


class TestPinnedBytes:
    def test_sweep_settings_bytes(self):
        # The four (U, M, l) settings of the codec-sweep benchmark on a small
        # seeded model: one digest over the HCMP bytes (payloads and configs)
        # and one over the decoded floats. Tensors of 1 to 6,240 pairs take
        # every lookup stage and both decode paths.
        rng = np.random.default_rng(15)
        half = np.float32(0.5)
        tensors = [
            ("w0", (96, 130), rng.random(12480, dtype=np.float32) - half),
            ("b0", (163,), rng.random(163, dtype=np.float32) - half),
            ("w1", (25, 13), rng.random(325, dtype=np.float32) - half),
            ("b1", (1,), rng.random(1, dtype=np.float32) - half),
            ("w2", (4001,), rng.normal(0, 0.03, 4001).astype(np.float32)),
        ]
        encoded, decoded = hashlib.sha256(), hashlib.sha256()
        for u, m, side in ((225, 3, 0.1), (361, 8, 0.01), (4096, 3, 0.1), (65536, 15, 0.1)):
            params = EncodeParams(box_side=side, num_points=u, max_category=m)
            layers = [encode_layer(data, name, shape, params) for name, shape, data in tensors]
            encoded.update(dump_hcmp(CompressedModel(layers)))
            for layer in layers:
                decoded.update(decode_layer(layer).tobytes())
        assert encoded.hexdigest() == (
            "0bb262c5934bee35afce3f6ae40c39738406ccf2cde8ad3ef43523c6652bf588")
        assert decoded.hexdigest() == (
            "9d4aed46091a729c2a36c5491b3758e07472d9470959bcb6af20f1b7bb1da4c2")

    def test_codec_digest_is_pinned(self, tmp_path):
        # encode_layer and decode_layer bytes over 1,188 configs, hashed in
        # their own process (see codec_digest.py): a change that keeps every
        # output byte keeps this digest.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-W", "error", str(Path(__file__).with_name("codec_digest.py"))],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.startswith(f"1188 cases, digest {codec_digest.PINNED}, ")


class TestRingErrorBounds:
    @pytest.mark.parametrize("u", [*range(1, 10), 16, 99, 225, 361, 1000, 4095, 4096,
                                   65535, 65536])
    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_no_box_point_lies_beyond_the_bound(self, mode, u):
        rng = np.random.default_rng(u)
        for centroid, side in (((0.5, 0.5), 0.1), ((-3.0, 7.25), 10.0), ((0.0, 1e3), 1e-3)):
            cfg = CodebookConfig(side, u, 3, mode, centroid, 0.37 * side)
            bounds = ring_error_bounds(cfg)
            if mode is GRID:
                # Bit for bit the grid formula the acceptance criteria assert.
                cover = 2 ** 0.5 * side / math.isqrt(u)
                assert bounds.tolist() == [
                    cover / reference_encoder.scale(m, side, 0.37 * side, 3) for m in range(4)]
            cb = build_codebook(cfg)
            _, dist = cb.nearest_many(box_queries(cfg, cb.points, rng))
            assert dist.max() <= bounds[0] + rounding_terms(cfg)[0]
            assert dist.max() >= 0.7 * bounds[0]  # the bound is nearly reached

    @pytest.mark.parametrize("mode", [GRID, DirectionMode.PAPER_EQ])
    def test_roundtrip_with_rings_within_ring_bounds(self, mode):
        weights = np.random.default_rng(8).uniform(-0.5, 0.5, size=20_000)
        enc = encode_layer(weights, "w", (20_000,), EncodeParams(direction_mode=mode))
        rings = stored_rings(enc)
        assert np.unique(rings).tolist() == [0, 1, 2, 3]
        assert (pair_errors(weights, enc) <= ring_error_bounds(enc.config)[rings]).all()

    def test_roundtrip_within_ring_bounds_plus_rounding(self, tmp_path):
        # One process under a 2 GiB address-space cap runs 1,000 hypothesis
        # cases, U = 2^20 among them, each under a deadline (see
        # roundtrip_bounds.py); a warning there fails it.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-W", "error", str(Path(__file__).with_name("roundtrip_bounds.py")),
             "1000"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
