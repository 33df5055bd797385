import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypc.codebook import CodebookConfig, DirectionMode, build_codebook, cached_codebook
from hypc.codec import (
    EncodeParams,
    EncodedLayer,
    _categorize_distances,
    build_scale_plan,
    categorize,
    decode_layer,
    encode_layer,
    group_pairs,
    pack_bits,
    scale_factor,
    unpack_bits,
)
from hypc import codec
from hypc.container import CompressedModel, dump_hcmp
from hypc.errors import ConsistencyError, DataError, FormatError

import hcmp_v1_spec

GRID = DirectionMode.GRID_SHEAR
PARAMS = EncodeParams()  # l=0.1, 225 points, 3 rings, grid direction


def covering_bound(params: EncodeParams) -> float:
    return math.sqrt(2) * params.box_side / math.isqrt(params.num_points)


def roundtrip_bounds(weights, params=PARAMS):
    """Per-weight error bounds (covering radius divided by the group's scale)."""
    points, _, _ = group_pairs(weights)
    cfg = encode_layer(weights, "w", (len(np.ravel(weights)),), params).config
    plan = build_scale_plan(points, cfg)
    per_group = covering_bound(params) / plan.scales
    return np.repeat(per_group, 2)[: len(np.ravel(weights))]


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
        """Pad, centroid and max_radius from whole float64 arrays, as encode_layer
        took them before it worked block by block: the oracle."""
        flat = np.asarray(weights, dtype=np.float64)
        pad = 0.0
        if flat.size % 2:
            prefix, lone = flat[:-1].reshape(-1, 2), flat[-1]
            pad = float(np.vstack([prefix, [[lone, lone]]])[:, 0].mean())
            flat = np.append(flat, pad)
        points = flat.reshape(-1, 2)
        center = points.mean(axis=0)
        dx, dy = points[:, 0] - center[0], points[:, 1] - center[1]
        dists = np.sqrt(dx * dx + dy * dy)
        return pad, (float(center[0]), float(center[1])), float(dists.max())

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


class TestCategorize:
    def test_inside_box(self):
        assert categorize((0.03, 0.0), (0.0, 0.0), 0.4, 0.1, 3) == 0

    def test_first_ring(self):
        # d = 0.2 with l=0.1, l_f=0.4, M=2: smallest m with 0.2 <= 0.05 + 0.2 m
        assert categorize((0.2, 0.0), (0.0, 0.0), 0.4, 0.1, 2) == 1

    def test_outermost_ring(self):
        assert categorize((0.4, 0.0), (0.0, 0.0), 0.4, 0.1, 2) == 2

    def test_beyond_rings_rejected(self):
        with pytest.raises(ConsistencyError):
            categorize((0.5, 0.0), (0.0, 0.0), 0.4, 0.1, 2)

    def test_no_rings_requires_box_fit(self):
        assert categorize((0.04, 0.0), (0.0, 0.0), 0.0, 0.1, 0) == 0
        with pytest.raises(ConsistencyError):
            categorize((0.06, 0.0), (0.0, 0.0), 0.0, 0.1, 0)

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
    def test_inner_points_unscaled(self):
        assert scale_factor(0, 0.1, 0.4, 2) == 1.0

    def test_ring_one(self):
        assert scale_factor(1, 0.1, 0.4, 2) == pytest.approx(0.2)

    def test_ring_two(self):
        assert scale_factor(2, 0.1, 0.4, 2) == pytest.approx(1 / 9)

    def test_zero_radius_never_scales(self):
        for m in range(4):
            assert scale_factor(m, 0.1, 0.0, 3) == 1.0

    def test_monotone_non_increasing(self):
        values = [scale_factor(m, 0.1, 0.7, 6) for m in range(7)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    def test_category_beyond_max_rejected(self):
        with pytest.raises(ValueError):
            scale_factor(1, 0.1, 0.4, 0)


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
        assert np.abs(weights - restored).max() <= covering_bound(PARAMS) / 2

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
        cfg = encode_layer(weights, "w", (5000,), PARAMS).config
        plan = build_scale_plan(points, cfg)
        center = np.array(cfg.centroid)
        scaled = (points - center) * plan.scales[:, None] + center
        dist = np.hypot(*(scaled - center).T)
        assert dist.max() <= (0.1 / 2) * (1 + 1e-12)

    @pytest.mark.parametrize("length", [0, 1, 2, 7, 100, 101])
    def test_padding_roundtrip_lengths(self, length):
        rng = np.random.default_rng(length)
        weights = rng.uniform(-1, 1, size=length)
        enc = encode_layer(weights, "w", (length,), PARAMS)
        assert enc.padded == (length % 2 == 1)
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
        reference = encode_layer(weights, "w", (2000,), PARAMS, reference=True)
        full = encode_layer(weights, "w", (2000,), PARAMS)
        assert full.payload == reference.payload
        assert full.bit_width == reference.bit_width

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, first", [
        ([1e300, -1e300, 0.0, 1.0], 0),
        # Only the last pair's distance (1.5e154) overflows when squared.
        ([0.0] * 6 + [2e154, 0.0], 6),
    ])
    def test_overflowing_distance_names_the_weight(self, weights, first):
        with pytest.raises(DataError, match=f"weight {first}: .* overflows"):
            encode_layer(np.array(weights), "w", (len(weights),), PARAMS)

    @pytest.mark.filterwarnings("error")
    def test_near_float_max_encodes_without_warning(self):
        # The lattice certificate's bound is hugely negative here; squared
        # unclipped, it overflowed (with a warning) before settling nothing.
        for reference in (False, True):
            enc = encode_layer(np.array([1.7e308, 0.0]), "w", (2,), PARAMS,
                               reference=reference)
            assert (enc.payload, enc.bit_width) == (b"\xad", 8)
            assert enc.config.centroid == (1.7e308, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [[1.7e308] * 4, [-1.7e308] * 4, [1.7e308] * 3,
                                         [1e308] * 7])
    def test_overflowing_centroid_sum_is_rescaled(self, weights):
        # The sums behind the centroid and the odd-length pad overflow; taken
        # again on terms scaled by a power of two they give the true mean.
        weights = np.array(weights)
        for reference in (False, True):
            enc = encode_layer(weights, "w", (len(weights),), PARAMS, reference=reference)
            assert enc.config.centroid == (weights[0], weights[0])
            restored = decode_layer(enc)
            assert (np.abs(weights - restored) <= roundtrip_bounds(weights)).all()

    @pytest.mark.filterwarnings("error")
    def test_pair_distance_past_float_max_names_the_weight(self):
        # Centroid (0, 0), found without overflow; both pairs lie 2.4e308 from it.
        weights = np.array([1.7e308, -1.7e308, -1.7e308, 1.7e308])
        with pytest.raises(DataError, match=r"weight 0: .* \(0\.0, 0\.0\) overflows"):
            encode_layer(weights, "w", (4,), PARAMS)

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
        # are uint16 (0.8 MiB) and the payload 0.5 MiB; measured peak 4.8 MiB,
        # against 16.9 MiB with a float64 copy and whole-layer distances and
        # 32.3 MiB with whole-layer plan, lookup and packing as well.
        weights = np.random.default_rng(9).random(845_000, dtype=np.float32) - np.float32(0.5)
        tracemalloc.start()
        try:
            encode_layer(weights, "layer0.weight", (650, 1300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak


class TestDecodeTheta:
    def cfg(self, m=0, radius=0.0):
        return CodebookConfig(0.1, 4, m, GRID, (0.5, 0.5), radius)

    @staticmethod
    def decode_one(theta, cfg):
        """Decode a 2-weight layer whose only stored index is ``theta``."""
        width = max(1, theta.bit_length())
        layer = EncodedLayer("w", (2,), 2, False, cfg, width,
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

    @pytest.mark.parametrize("mode", list(DirectionMode))
    def test_decode_reads_the_encoder_points(self, mode):
        # Decoding reads memoized points without the row index; they must be the
        # very points the encoder's nearest lookup searched.
        weights = np.random.default_rng(int(mode)).normal(0.0, 0.2, size=301)
        params = EncodeParams(num_points=361, max_category=4, direction_mode=mode)
        enc = encode_layer(weights, "w", (301,), params)
        cfg = enc.config
        points = build_codebook(cfg).points
        assert cached_codebook(cfg).tobytes() == points.tobytes()
        assert not cached_codebook(cfg).flags.writeable
        cats, lam = np.divmod(unpack_bits(enc.payload, enc.bit_width, enc.group_count),
                              cfg.num_points)
        assert cats.max() > 0  # some pairs lie outside the box
        scales = np.array([scale_factor(int(c), cfg.box_side, cfg.max_radius,
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
            EncodedLayer("w", (2,), 2, False,
                         CodebookConfig(0.1, u, 0, GRID, (0.01 * i, -0.02 * i), 0.0),
                         20, pack_bits([12345 + i], 20), 0.0)
            for i in range(12)
        ]
        decoded = [decode_layer(layer) for layer in layers]
        assert cached_codebook.cache_info().currsize == 1
        for i, (layer, pair) in enumerate(zip(layers, decoded)):
            center = np.array(layer.config.centroid)
            want = (cached_codebook(layer.config)[12345 + i] - center) / 1.0 + center
            assert pair.tobytes() == want.tobytes()

    def test_decode_layer_rejects_out_of_range_theta(self):
        # One pair decodes code by code; six pairs (>= the bound) through the table.
        cfg = self.cfg()  # bound = 4, but 3 bits can hold up to 7
        for theta in ([5], [0, 1, 2, 3, 5, 3]):
            count = 2 * len(theta)
            layer = EncodedLayer("w", (count,), count, False, cfg, 3,
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
                layer = EncodedLayer("w", (count,), count, True, cfg, width,
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
        layer = EncodedLayer("w", (2 * groups,), 2 * groups, False, cfg, width,
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
        layer = EncodedLayer("w", (count,), count, True, cfg, width,
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
