"""Encode a flat weight vector into bit-packed codebook indices and back.

Pipeline: pair consecutive weights into 2-D points, center a box on their
centroid, classify points into distance rings, shrink each ring onto the box,
snap to the nearest codebook point, and store ``ring * num_points + index``
as a bit-packed integer stream. Decoding inverts every step exactly.

Every pass runs a block of ``_QUERY_BLOCK`` pairs at a time and gives the
floats of one pass over the whole layer. The codes equal those of an encoder
that takes each formula plainly (``tests/reference_encoder.py``). Float32
weights stay float32 and each block is converted on its own; every sum adds in
the order of numpy's whole-array one. A block's pairs are centred and
uncentred through their complex128 view (``complex_rows``): one pass adds or
subtracts x and y apart, the floats of two column passes. pack_bits writes
the slot layout unpack_bits reads, eight values to ``bit_width`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import (
    _QUERY_BLOCK,
    Codebook,
    CodebookConfig,
    DirectionMode,
    build_codebook,
    cached_codebook,
    complex_rows,
    covering_radius,
    gather,
)
from .errors import ConsistencyError, DataError, FormatError

# Slack for points that sit on the outermost ring boundary up to rounding.
_OVER_RTOL = 1e-9
_SUM_LEAF = 1 << 16  # most terms _tree_sum hands to one np.add.reduce
# Smallest box side encode_layer takes. The lookup picks the least computed
# dx*dx + dy*dy, and a square below 2^-1022 (subnormal) may be off by 2^-1075
# rather than by 2^-53 of itself. The covering radius B is at least
# l / (2 * isqrt(U)) >= l / 2^11, half paper mode's row spacing, so at
# l >= 2^-498.5 (8.6e-151) B^2 >= 2^-1019: the errors of one comparison stay
# below 2^-53 * B^2 and the picked point lies within B * (1 + 3 * 2^-53).
# At l = 1e-200 pairs decoded up to 9.9 times past their ring bound.
MIN_BOX_SIDE = 1e-150
# Largest box side encode_layer takes, the floor's mirror. Queries and points
# lie in the box up to rounding, so each sum of two squares the lookup compares
# is at most about 2 l^2, 2e300 here; past about 9.5e153 it can overflow and tie
# every candidate (at l = 1e160, U = 225 decoded 7.5 times past the bound).
MAX_BOX_SIDE = 1e150


@dataclass(frozen=True)
class EncodeParams:
    """User-facing knobs for encoding one layer."""

    box_side: float = 0.1
    num_points: int = 225
    max_category: int = 3
    direction_mode: DirectionMode = DirectionMode.GRID_SHEAR


@dataclass(frozen=True)
class EncodedLayer:
    """One compressed tensor: packed indices plus the geometry to invert them."""

    name: str
    shape: tuple[int, ...]
    config: CodebookConfig
    bit_width: int
    payload: bytes
    pad_value: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if not 1 <= self.bit_width <= 32:
            raise ValueError(f"bit_width must be in [1, 32], got {self.bit_width}")
        expected = (self.group_count * self.bit_width + 7) // 8
        if len(self.payload) != expected:
            raise FormatError(
                f"payload of layer {self.name!r} is {len(self.payload)} bytes, "
                f"expected {expected}"
            )

    @property
    def element_count(self) -> int:
        return math.prod(self.shape)

    @property
    def group_count(self) -> int:
        return (self.element_count + 1) // 2


def _tree_sum(count: int, leaf):
    """np.add.reduce's float64 sum of count terms, bit for bit, with no array of
    them all: numpy halves a run at n // 2 - (n // 2) % 8 until a part holds
    at most 128 terms; this halves alike down to parts of at most _SUM_LEAF and
    adds leaf(lo, hi), the np.add.reduce of terms lo..hi (Higham 1993)."""
    def part(lo: int, hi: int):
        if hi - lo <= _SUM_LEAF:
            return leaf(lo, hi)
        half = (hi - lo) // 2 - (hi - lo) // 2 % 8
        return part(lo, lo + half) + part(lo + half, hi)

    return part(0, count)


def _mean(count: int, total):
    """total(scale) / count, total summing count terms each times scale. A sum
    that overflows is taken again on terms scaled by 2^-k, 2^k > count."""
    with np.errstate(over="ignore", invalid="ignore"):
        summed = total(1.0)
        if np.isfinite(summed).all():
            return summed / count
        scale = 2.0 ** count.bit_length()
        return total(1.0 / scale) / count * scale


def group_pairs(weights) -> tuple[np.ndarray, bool, float]:
    """Split a flat weight vector into consecutive pairs.

    Odd lengths append one synthetic coordinate: the centroid x of the pairs
    formed by the even prefix plus the lone element duplicated. Returns
    (points (G, 2), padded, pad_value); pad_value is 0.0 when nothing was added.
    Float32 weights of even length pair up as a float32 view, all others as float64.
    """
    flat = np.asarray(weights).ravel()
    if flat.dtype != np.float32:
        flat = flat.astype(np.float64, copy=False)
    finite = np.isfinite(flat)
    if not finite.all():
        idx = int(np.nonzero(~finite)[0][0])
        raise DataError(f"weight {idx} is not finite: {flat[idx]}")
    if flat.size == 0:
        return np.zeros((0, 2), dtype=np.float64), False, 0.0
    if flat.size % 2 == 0:
        return flat.reshape(-1, 2), False, 0.0
    xs = flat[::2]  # the prefix pairs' x, then the lone element
    pad_value = float(_mean(xs.size, lambda scale: _tree_sum(
        xs.size, lambda lo, hi: np.add.reduce(xs[lo:hi].astype(np.float64) * scale))))
    points = np.empty((xs.size, 2), dtype=np.float64)
    points.reshape(-1)[:-1] = flat
    points[-1, 1] = pad_value
    return points, True, pad_value


def _blocks(points: np.ndarray):
    """(start, float64 copy) of each run of ``_QUERY_BLOCK`` pairs."""
    for lo in range(0, len(points), _QUERY_BLOCK):
        yield lo, points[lo : lo + _QUERY_BLOCK].astype(np.float64)


def _squared_norms(centred: np.ndarray) -> np.ndarray:
    """dx*dx + dy*dy of each (dx, dy) row."""
    dsq = centred[:, 0] * centred[:, 0]
    dsq += centred[:, 1] * centred[:, 1]
    return dsq


def _analyze(points: np.ndarray) -> tuple[tuple[float, float], float]:
    """Centroid and max_radius, a block at a time. The centroid is
    points.mean(axis=0) bit for bit: numpy adds the rows in order, as
    np.add.accumulate does along a block's complex view, and each block's first
    row carries the total before it. max_radius is the square root of the
    largest squared distance: sqrt is monotone and correctly rounded, so that
    is the largest distance. A DataError names the first weight whose pair's
    squared distance to the centroid overflows float64."""
    def total(scale):
        acc = np.zeros(2)
        for lo, block in _blocks(points):
            if scale != 1.0:
                block *= scale
            if lo:
                block[0] += acc
            acc = np.add.accumulate(complex_rows(block))[-1:].view(np.float64)
        return acc

    centroid = tuple(map(float, _mean(len(points), total))) if len(points) else (0.0, 0.0)
    largest = 0.0
    for lo, block in _blocks(points):
        with np.errstate(over="ignore", invalid="ignore"):
            complex_rows(block)[...] -= complex(*centroid)
            dsq = _squared_norms(block)
        top = float(dsq.max())
        if not math.isfinite(top):  # finite inputs: an overflow shows as inf
            at = lo + int(np.flatnonzero(~np.isfinite(dsq))[0])
            raise DataError(f"weight {2 * at}: the squared distance of its "
                            f"pair to centroid {centroid} overflows float64")
        largest = max(largest, top)
    return centroid, math.sqrt(largest)


def _categorize_distances(
    dists: np.ndarray, box_side: float, max_radius: float, max_category: int
) -> np.ndarray:
    """Smallest ring index whose boundary reaches each distance; 0 inside the box."""
    half = box_side / 2.0
    reach = max_radius if max_category else 0.0  # M = 0: one band, out to half
    outer_limit = (half + reach) * (1.0 + _OVER_RTOL)
    # Ring c in [0, M + 1] (M + 1: past the last band) holds edges[c] < d <=
    # edges[c + 1]. A closed form guesses c; searchsorted takes the distances
    # it misses (rounding at an edge, a zero step or one far below ulp(half)).
    step = reach / max(max_category, 1)
    bands = half + step * np.arange(max_category + 1, dtype=np.float64)  # half, then ring m's
    edges = np.concatenate(([-np.inf], bands, [np.inf]))
    guess = dists - half
    if step > 0:
        np.minimum(guess, step * (max_category + 1), out=guess)
        guess /= step
    np.ceil(guess, out=guess)
    cats = np.clip(guess, 0, max_category + 1, out=guess).astype(np.int64)
    missed = np.flatnonzero((np.take(edges[:-1], cats) >= dists) | (dists > np.take(edges[1:], cats)))
    cats[missed] = np.searchsorted(bands, dists[missed], side="left")
    over = cats > max_category
    if over.any():
        worst = float(dists[over].max())
        if worst > outer_limit:
            raise ConsistencyError(f"distance {worst} exceeds outermost ring {half + reach}")
        cats[over] = max_category
    return cats


def _scale_factors(categories: np.ndarray, cfg: CodebookConfig) -> np.ndarray:
    half = cfg.box_side / 2.0
    return half / (half + cfg.max_radius / max(cfg.max_category, 1) * categories)


def ring_error_bounds(config: CodebookConfig) -> np.ndarray:
    """(M + 1,) float64: ring m's pairs decode within B / s_m of the pairs
    encoded, B the covering radius: a rescaled pair lies in the box and its
    code is its nearest point. Rounding adds O(ulp(max|c| + l) / s_m)."""
    cover = covering_radius(config.num_points, config.box_side, config.direction_mode)
    return cover / _scale_factors(np.arange(config.max_category + 1), config)


def _encode_thetas(points: np.ndarray, config: CodebookConfig, codebook: Codebook) -> np.ndarray:
    """Distances, ring plan, rescale and nearest lookup, per block: elementwise
    given the centroid and max_radius, so blocks give one pass's floats. Codes
    are held in the narrowest unsigned type."""
    theta = np.empty(len(points), dtype=np.min_scalar_type(config.theta_bound - 1))
    ring_scales = _scale_factors(np.arange(config.max_category + 1), config)
    centroid = complex(*config.centroid)
    for lo, block in _blocks(points):
        centred = complex_rows(block)
        centred -= centroid  # (p - c) * scale + c, in place
        dists = np.sqrt(_squared_norms(block))
        cats = _categorize_distances(dists, config.box_side, config.max_radius,
                                     config.max_category)
        scales = np.take(ring_scales, cats)
        block[:, 0] *= scales
        block[:, 1] *= scales
        centred += centroid
        del dists, scales  # freed before the lookup's temporaries
        lam, _ = codebook.nearest_many(block)
        theta[lo : lo + len(block)] = cats * config.num_points + lam
    return theta


def encode_layer(
    weights,
    name: str,
    shape,
    params: EncodeParams = EncodeParams(),
) -> EncodedLayer:
    """Compress one tensor into an EncodedLayer.

    Passes over blocks of ``_QUERY_BLOCK`` pairs, in float64, find the centroid,
    then max_radius, then each block's ring plan, rescale and lookup; packing
    is blocked too. The codes equal an exhaustive scan's, smallest index on
    ties. Ring m's pairs decode within ring_error_bounds[m] up to rounding.
    DataError refuses a box side in (0, MIN_BOX_SIDE) or (MAX_BOX_SIDE, inf),
    outside Codebook's domain; a pair farther than about 1.3e154 (sqrt of the
    float64 max) from the centroid, whose squared distance overflows; and a
    code wider than HCMP's 32 bits: codes run below (M + 1) * U <= 2^36.
    """
    if 0 < params.box_side < MIN_BOX_SIDE:
        raise DataError(f"layer {name!r}: box side {params.box_side} is below the floor "
                        f"{MIN_BOX_SIDE}, where the lookup's squared distances underflow")
    if MAX_BOX_SIDE < params.box_side < math.inf:
        raise DataError(f"layer {name!r}: box side {params.box_side} is above the ceiling "
                        f"{MAX_BOX_SIDE}, where the lookup's squared distances overflow")
    shape = tuple(int(s) for s in shape)
    flat = np.asarray(weights)
    if math.prod(shape) != flat.size:
        raise DataError(f"shape {shape} does not match {flat.size} weights")
    points, _, pad_value = group_pairs(flat)
    centroid, max_radius = _analyze(points)
    config = CodebookConfig(params.box_side, params.num_points, params.max_category,
                            params.direction_mode, centroid, max_radius)
    if len(points) == 0:
        return EncodedLayer(name, shape, config, 1, b"", 0.0)
    theta = _encode_thetas(points, config, build_codebook(config))
    del flat, points
    bit_width = max(1, int(theta.max()).bit_length())
    if bit_width > 32:
        raise DataError(f"layer {name!r}: widest code {int(theta.max())} needs {bit_width} "
                        "bits; HCMP stores codes of at most 32 bits")
    payload = pack_bits(theta, bit_width)
    return EncodedLayer(name, shape, config, bit_width, payload, pad_value)


def _restore(theta: np.ndarray, cfg: CodebookConfig) -> np.ndarray:
    """The (len(theta), 2) float64 pairs that stored codes theta decode to."""
    rings, lam = np.divmod(theta, cfg.num_points)
    scales = np.take(_scale_factors(np.arange(cfg.max_category + 1), cfg), rings)
    del rings
    frame = cached_codebook(cfg.num_points, cfg.box_side, cfg.direction_mode)
    restored = gather(frame, lam, cfg)
    del lam
    centred = complex_rows(restored)
    centroid = complex(*cfg.centroid)
    centred -= centroid  # (p - c) / scale + c, in place
    restored[:, 0] /= scales
    restored[:, 1] /= scales
    centred += centroid
    return restored


def decode_layer(enc: EncodedLayer, dtype=np.float64) -> np.ndarray:
    """Restore the layer's weights in original order (padding dropped) as dtype:
    float64, or float32, equal bit for bit to the float64 result cast.

    A layer holding at least theta_bound pairs restores every possible code once
    and gathers from that table: the same float operations, fewer of them. A
    smaller one restores its codes a block at a time.

    A weight that is not finite in dtype raises FormatError naming its code: a
    file's config may shrink a ring to s_m = 0 (a division by zero) or restore
    values beyond float32's range. The table path checks the table, O(theta_bound),
    and looks at the weights only when some code, stored or not, is not finite;
    the block path checks the weights. numpy's warnings on those values are
    silenced, since they are refused.
    """
    groups = enc.group_count
    if groups == 0:
        return np.zeros(0, dtype=dtype)
    theta = unpack_bits(enc.payload, enc.bit_width, groups)
    cfg = enc.config
    bound = cfg.theta_bound
    if int(theta.max()) >= bound:
        raise FormatError(
            f"layer {enc.name!r} holds theta {int(theta.max())} >= bound {bound}"
        )
    with np.errstate(all="ignore"):
        if bound <= groups:
            table = _restore(np.arange(bound), cfg).astype(dtype)
            restored = np.take(table, theta, axis=0)
            finite = bool(np.isfinite(table).all())
        else:
            restored = np.empty((groups, 2), dtype=dtype)
            for lo in range(0, groups, _QUERY_BLOCK):
                restored[lo : lo + _QUERY_BLOCK] = _restore(theta[lo : lo + _QUERY_BLOCK], cfg)
            finite = False
    weights = restored.reshape(-1)[: enc.element_count]
    if not finite and not np.isfinite(weights).all():
        at = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise FormatError(f"layer {enc.name!r}: code {int(theta[at // 2])} decodes "
                          f"weight {at} to {weights[at]} in {np.dtype(dtype).name}")
    return weights


def pack_bits(values, bit_width: int) -> bytes:
    """Lay integers down LSB-first, bit_width bits each, no per-value padding."""
    if not 1 <= bit_width <= 32:
        raise ValueError(f"bit_width must be in [1, 32], got {bit_width}")
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        return b""
    lo = int(arr.min())
    hi = int(arr.max())
    if lo < 0 or hi >= (1 << bit_width):
        raise ValueError(f"value {lo if lo < 0 else hi} does not fit in {bit_width} bits")
    # The layout unpack_bits reads: eight values fill bit_width bytes, value j
    # of a slot at bit j * bit_width. A block of _QUERY_BLOCK values (a multiple
    # of 8) is ORed slot by slot into 64-bit words, value j shifted by its
    # offset in word (j * bit_width) >> 6, its spill in the next word; each
    # slot's first bit_width bytes are its bytes.
    need = (arr.size * bit_width + 7) // 8
    out = np.empty((arr.size + 7) // 8 * bit_width, dtype=np.uint8)
    for first in range(0, arr.size, _QUERY_BLOCK):
        block = arr[first : first + _QUERY_BLOCK]
        vals = np.zeros((block.size + 7) // 8 * 8, dtype=np.uint64)
        vals[: block.size] = block
        vals = vals.reshape(-1, 8)
        words = np.zeros((len(vals), bit_width // 8 + 2), dtype="<u8")
        for j in range(8):
            word, shift = divmod(j * bit_width, 64)
            words[:, word] |= vals[:, j] << np.uint64(shift)
            if shift + bit_width > 64:
                words[:, word + 1] |= vals[:, j] >> np.uint64(64 - shift)
        at = first // 8 * bit_width
        out[at : at + len(words) * bit_width].reshape(-1, bit_width)[...] = (
            words.view(np.uint8)[:, :bit_width])
    return out[:need].tobytes()


def unpack_bits(data: bytes, bit_width: int, count: int) -> np.ndarray:
    """Exact inverse of pack_bits for the first ``count`` values."""
    if not 1 <= bit_width <= 32:
        raise ValueError(f"bit_width must be in [1, 32], got {bit_width}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    need = (count * bit_width + 7) // 8
    if len(data) < need:
        raise FormatError(f"payload holds {len(data)} bytes, need {need}")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    # Eight consecutive values fill exactly bit_width bytes, so value j of every
    # 8-value slot starts (j * bit_width) & 7 bits into the byte at
    # (j * bit_width) >> 3 of its slot, and spans at most 39 bits of the 8-byte
    # window read there. Zero padding to whole slots plus 8 bytes keeps every
    # window in bounds.
    slots = (count + 7) // 8
    padded = bytearray(slots * bit_width + 8)
    padded[:need] = memoryview(data)[:need]
    vals = np.empty((slots, 8), dtype=np.uint64)
    for j in range(8):
        start, shift = divmod(j * bit_width, 8)
        window = np.ndarray((slots,), "<u8", buffer=padded, offset=start, strides=(bit_width,))
        np.right_shift(window, np.uint64(shift), out=vals[:, j])
    vals &= np.uint64((1 << bit_width) - 1)
    return vals.reshape(-1)[:count].view(np.int64)
