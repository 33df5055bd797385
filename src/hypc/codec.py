"""Encode a flat weight vector into bit-packed codebook indices and back.

Pipeline: pair consecutive weights into 2-D points, center a box on their
centroid, classify points into distance rings, shrink each ring onto the box,
snap to the nearest codebook point, and store ``ring * num_points + index``
as a bit-packed integer stream. Decoding inverts every step exactly.

The block path (per ``_QUERY_BLOCK`` pairs) and the per-group reference path
produce bit-identical indices; the reference path is the speed ablation's slow arm.
Float32 weights stay float32 and each block is converted on its own; every sum
adds in the order of numpy's whole-array one.
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
    covering_radius,
    wrapped_points,
)
from .errors import ConsistencyError, DataError, FormatError

# Slack for points that sit on the outermost ring boundary up to rounding.
_OVER_RTOL = 1e-9
_SUM_LEAF = 1 << 16  # most terms _tree_sum hands to one np.add.reduce


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
    element_count: int
    padded: bool
    config: CodebookConfig
    bit_width: int
    payload: bytes
    pad_value: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if math.prod(self.shape) != self.element_count:
            raise ValueError(
                f"shape {self.shape} holds {math.prod(self.shape)} elements, "
                f"not {self.element_count}"
            )
        if self.padded != (self.element_count % 2 == 1):
            raise ValueError("padded flag must mark exactly the odd-length layers")
        if not 1 <= self.bit_width <= 32:
            raise ValueError(f"bit_width must be in [1, 32], got {self.bit_width}")
        expected = (self.group_count * self.bit_width + 7) // 8
        if len(self.payload) != expected:
            raise FormatError(
                f"payload of layer {self.name!r} is {len(self.payload)} bytes, "
                f"expected {expected}"
            )

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


def _distances(points: np.ndarray, cx: float, cy: float) -> np.ndarray:
    dx = points[:, 0] - cx
    dy = points[:, 1] - cy
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _analyze(points: np.ndarray) -> tuple[tuple[float, float], float]:
    """Centroid and max_radius, a block at a time. The centroid is
    points.mean(axis=0) bit for bit: numpy adds the rows in order, so each
    block's first row carries the total before it. A DataError names the first
    weight whose pair's squared distance to it overflows float64."""
    def total(scale):
        acc = np.zeros(2)
        for lo, block in _blocks(points):
            block *= scale
            if lo:
                block[0] += acc
            acc = np.add.reduce(block, axis=0)
        return acc

    centroid = tuple(map(float, _mean(len(points), total))) if len(points) else (0.0, 0.0)
    radius = 0.0
    for lo, block in _blocks(points):
        with np.errstate(over="ignore", invalid="ignore"):
            dists = _distances(block, *centroid)
        bad = np.flatnonzero(~np.isfinite(dists))
        if bad.size:
            raise DataError(f"weight {2 * (lo + int(bad[0]))}: the squared distance of its "
                            f"pair to centroid {centroid} overflows float64")
        radius = max(radius, float(dists.max()))
    return centroid, radius


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


def categorize(point, centroid, max_radius: float, box_side: float, max_category: int) -> int:
    """Ring index of a single pair: the scalar twin of _categorize_distances."""
    dx = float(point[0]) - float(centroid[0])
    dy = float(point[1]) - float(centroid[1])
    d = math.sqrt(dx * dx + dy * dy)
    half = box_side / 2.0
    if d <= half:
        return 0
    if max_category:
        step = max_radius / max_category
        for m in range(1, max_category + 1):
            if d <= half + step * m:
                return m
    outer = half + max_radius if max_category else half
    if d > outer * (1.0 + _OVER_RTOL):
        raise ConsistencyError(f"distance {d} exceeds outermost ring {outer}")
    return max_category


def _scale_factors(categories: np.ndarray, cfg: CodebookConfig) -> np.ndarray:
    half = cfg.box_side / 2.0
    return half / (half + cfg.max_radius / max(cfg.max_category, 1) * categories)


def scale_factor(category: int, box_side: float, max_radius: float, max_category: int) -> float:
    """Shrink factor for one ring: 1 inside the box, then decreasing ring by ring."""
    if category < 0 or category > max_category:
        raise ValueError(f"category {category} outside [0, {max_category}]")
    if category == 0:
        return 1.0
    half = box_side / 2.0
    step = max_radius / max_category
    return float(half / (half + step * category))


def ring_error_bounds(config: CodebookConfig) -> np.ndarray:
    """(M + 1,) float64: ring m's pairs decode within B / s_m of the pairs
    encoded, B = covering_radius(config): a rescaled pair lies in the box and
    its code is its nearest point. Rounding adds O(ulp(max|c| + l) / s_m)."""
    return covering_radius(config) / _scale_factors(np.arange(config.max_category + 1), config)


def _encode_thetas(points: np.ndarray, config: CodebookConfig, codebook: Codebook) -> np.ndarray:
    """Distances, ring plan, rescale and nearest lookup, per block: elementwise
    given the centroid and max_radius, so blocks give one pass's floats. Codes
    are held in the narrowest unsigned type."""
    theta = np.empty(len(points), dtype=np.min_scalar_type(config.theta_bound - 1))
    for lo, block in _blocks(points):
        cats = _categorize_distances(_distances(block, *config.centroid), config.box_side,
                                     config.max_radius, config.max_category)
        scales = _scale_factors(cats, config)
        for j, c in enumerate(config.centroid):  # (p - c) * scale + c, in place
            col = block[:, j]
            col -= c
            col *= scales
            col += c
        lam, _ = codebook.nearest_many(block)
        theta[lo : lo + len(block)] = cats * config.num_points + lam
    return theta


def _reference_thetas(
    points: np.ndarray, config: CodebookConfig, codebook_points: np.ndarray
) -> np.ndarray:
    """Per-group scalar arithmetic and an exhaustive scan, first minimum on ties.

    Must reproduce the block path's indices exactly.
    """
    num_points = config.num_points
    box, radius, rings = config.box_side, config.max_radius, config.max_category
    cx, cy = config.centroid
    pts = codebook_points.tolist()
    theta = np.empty(len(points), dtype=np.int64)
    for g, (px, py) in enumerate(points.tolist()):
        cat = categorize((px, py), (cx, cy), radius, box, rings)
        s = scale_factor(cat, box, radius, rings)
        ox = (px - cx) * s + cx
        oy = (py - cy) * s + cy
        best = 0
        best_dsq = math.inf
        for j, (qx, qy) in enumerate(pts):
            dx = ox - qx
            dy = oy - qy
            dsq = dx * dx + dy * dy
            if dsq < best_dsq:
                best = j
                best_dsq = dsq
        theta[g] = cat * num_points + best
    return theta


def encode_layer(
    weights,
    name: str,
    shape,
    params: EncodeParams = EncodeParams(),
    *,
    reference: bool = False,
) -> EncodedLayer:
    """Compress one tensor into an EncodedLayer.

    Passes over blocks of ``_QUERY_BLOCK`` pairs, in float64, find the centroid,
    then max_radius, then each block's ring plan, rescale and lookup; packing
    is blocked too. ``reference=True`` swaps the block arithmetic and lattice
    lookup for the per-group scalar path with an exhaustive scan; both return
    byte-identical payloads. Ring m's pairs decode within ring_error_bounds[m]
    up to rounding. A pair farther than about 1.3e154 (sqrt of the float64
    max) from the centroid raises DataError: its squared distance overflows.
    """
    shape = tuple(int(s) for s in shape)
    flat = np.asarray(weights)
    if math.prod(shape) != flat.size:
        raise DataError(f"shape {shape} does not match {flat.size} weights")
    points, padded, pad_value = group_pairs(flat)
    centroid, max_radius = _analyze(points)
    config = CodebookConfig(params.box_side, params.num_points, params.max_category,
                            params.direction_mode, centroid, max_radius)
    if len(points) == 0:
        return EncodedLayer(name, shape, 0, False, config, 1, b"", 0.0)
    if reference:
        theta = _reference_thetas(points, config, build_codebook(config).points)
    else:
        theta = _encode_thetas(points, config, build_codebook(config))
    del flat, points
    bit_width = max(1, int(theta.max()).bit_length())
    payload = pack_bits(theta, bit_width)
    return EncodedLayer(name, shape, math.prod(shape), padded, config, bit_width, payload, pad_value)


def _restore(theta: np.ndarray, cfg: CodebookConfig) -> np.ndarray:
    """The (len(theta), 2) float64 pairs that stored codes theta decode to."""
    half = cfg.box_side / 2.0
    scales = _scale_factors(theta // cfg.num_points, cfg)
    restored = np.take(wrapped_points(cfg), theta % cfg.num_points, axis=0)
    # In place, column by column, the float operations of build_codebook and
    # then (p - c) / scale + c.
    for j, c in enumerate(cfg.centroid):
        col = restored[:, j]
        col += c - half
        col -= c
        col /= scales
        col += c
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
    # Shifted by its offset in 32-bit word bitpos >> 5, a value spans at most 63
    # bits; values never share a bit, so the float64 sums over words are exact ORs.
    # A block of _QUERY_BLOCK values (a multiple of 32) ends on a word: its zero
    # spill word past the end is the next block's first, which overwrites it.
    words = np.empty(((arr.size - 1) * bit_width >> 5) + 2, dtype="<u4")
    for first in range(0, arr.size, _QUERY_BLOCK):
        block = arr[first : first + _QUERY_BLOCK].astype(np.int64, copy=False)
        bitpos = np.arange(block.size, dtype=np.int64) * bit_width
        shifted = block << (bitpos & 31)
        part = np.bincount((bitpos >> 5) + 1, weights=shifted >> 32)
        part[:-1] += np.bincount(bitpos >> 5, weights=shifted & 0xFFFFFFFF)
        words[first * bit_width >> 5 :][: part.size] = part
    return words.view(np.uint8)[: (arr.size * bit_width + 7) // 8].tobytes()


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
