"""Encode a flat weight vector into bit-packed codebook indices and back.

Pipeline: pair consecutive weights into 2-D points, center a box on their
centroid, classify points into distance rings, shrink each ring onto the box,
snap to the nearest codebook point, and store ``ring * num_points + index``
as a bit-packed integer stream. Decoding inverts every step exactly.

The whole-array path and the per-group reference path produce bit-identical
indices; the reference path doubles as the slow arm of the speed ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import (
    Codebook,
    CodebookConfig,
    DirectionMode,
    _points,
    build_codebook,
    wrapped_points,
)
from .errors import ConsistencyError, DataError, FormatError

# Slack for points that sit on the outermost ring boundary up to rounding.
_OVER_RTOL = 1e-9
_OVER_ATOL = 1e-12


@dataclass(frozen=True)
class EncodeParams:
    """User-facing knobs for encoding one layer."""

    box_side: float = 0.1
    num_points: int = 225
    max_category: int = 3
    direction_mode: DirectionMode = DirectionMode.GRID_SHEAR


@dataclass(frozen=True)
class ScalePlan:
    """Per-pair ring index and the shrink factor applied before snapping."""

    categories: np.ndarray  # (G,) int64 in [0, max_category]
    scales: np.ndarray  # (G,) float64 in (0, 1]


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


def group_pairs(weights) -> tuple[np.ndarray, bool, float]:
    """Split a flat weight vector into consecutive pairs.

    Odd lengths append one synthetic coordinate: the centroid x of the pairs
    formed by the even prefix plus the lone element duplicated. Returns
    (points (G, 2), padded, pad_value); pad_value is 0.0 when nothing was added.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        idx = int(np.nonzero(~finite)[0][0])
        raise DataError(f"weight {idx} is not finite: {flat[idx]}")
    if flat.size == 0:
        return np.zeros((0, 2), dtype=np.float64), False, 0.0
    if flat.size % 2 == 0:
        return flat.reshape(-1, 2), False, 0.0
    prefix = flat[:-1].reshape(-1, 2)
    lone = float(flat[-1])
    pad_value = float(np.vstack([prefix, [[lone, lone]]])[:, 0].mean())
    points = np.vstack([prefix, [[lone, pad_value]]])
    return points, True, pad_value


def _distances(points: np.ndarray, cx: float, cy: float) -> np.ndarray:
    dx = points[:, 0] - cx
    dy = points[:, 1] - cy
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _analyze(points: np.ndarray) -> tuple[tuple[float, float], float, np.ndarray]:
    center = points.mean(axis=0)
    cx, cy = float(center[0]), float(center[1])
    dists = _distances(points, cx, cy)
    return (cx, cy), float(dists.max()), dists


def _categorize_distances(
    dists: np.ndarray, box_side: float, max_radius: float, max_category: int
) -> np.ndarray:
    """Smallest ring index whose boundary reaches each distance; 0 inside the box."""
    half = box_side / 2.0
    outer_limit = (half + max_radius) * (1.0 + _OVER_RTOL) + _OVER_ATOL
    if max_category == 0:
        limit = half * (1.0 + _OVER_RTOL) + _OVER_ATOL
        if dists.size and dists.max() > limit:
            raise ConsistencyError(
                f"distance {dists.max()} exceeds box half-side {half} with no rings"
            )
        return np.zeros(dists.shape, dtype=np.int64)
    # Ring c in [0, M + 1] (M + 1: past the last band) holds edges[c] < d <=
    # edges[c + 1]. A closed form guesses c; searchsorted takes the distances
    # it misses (rounding at an edge, a zero step or one far below ulp(half)).
    step = max_radius / max_category
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
            raise ConsistencyError(
                f"distance {worst} exceeds outermost ring {half + max_radius}"
            )
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
    if d > outer * (1.0 + _OVER_RTOL) + _OVER_ATOL:
        raise ConsistencyError(f"distance {d} exceeds outermost ring {outer}")
    return max_category


def _scale_factors(
    categories: np.ndarray, box_side: float, max_radius: float, max_category: int
) -> np.ndarray:
    half = box_side / 2.0
    if max_category == 0:
        return np.ones(categories.shape, dtype=np.float64)
    step = max_radius / max_category
    return half / (half + step * categories)


def scale_factor(category: int, box_side: float, max_radius: float, max_category: int) -> float:
    """Shrink factor for one ring: 1 inside the box, then decreasing ring by ring."""
    if category < 0 or category > max_category:
        raise ValueError(f"category {category} outside [0, {max_category}]")
    if category == 0:
        return 1.0
    half = box_side / 2.0
    step = max_radius / max_category
    return float(half / (half + step * category))


def build_scale_plan(points: np.ndarray, config: CodebookConfig) -> ScalePlan:
    """Whole-array categorization and scale-factor list for a layer's pairs."""
    cx, cy = config.centroid
    dists = _distances(np.asarray(points, dtype=np.float64), cx, cy)
    return _plan_from_distances(dists, config)


def _plan_from_distances(dists: np.ndarray, config: CodebookConfig) -> ScalePlan:
    cats = _categorize_distances(
        dists, config.box_side, config.max_radius, config.max_category
    )
    scales = _scale_factors(cats, config.box_side, config.max_radius, config.max_category)
    cats.setflags(write=False)
    scales.setflags(write=False)
    return ScalePlan(cats, scales)


def _encode_thetas(
    points: np.ndarray, dists: np.ndarray, config: CodebookConfig, codebook: Codebook
) -> np.ndarray:
    """Whole-array ring plan, rescale and row-sweep nearest lookup.

    A function of its own so the (G, 2) temporaries are freed before packing.
    """
    plan = _plan_from_distances(dists, config)
    scaled = np.empty_like(points)
    for j, c in enumerate(config.centroid):  # (p - c) * scale + c, column by column
        col = scaled[:, j]
        np.subtract(points[:, j], c, out=col)
        col *= plan.scales
        col += c
    lam, _ = codebook.nearest_many(scaled)
    return plan.categories * config.num_points + lam


def _reference_thetas(
    points: np.ndarray, config: CodebookConfig, codebook_points: np.ndarray
) -> np.ndarray:
    """Per-group scalar arithmetic and an exhaustive scan, first minimum on ties.

    Must reproduce the whole-array path's indices exactly.
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

    ``reference=True`` swaps the whole-array arithmetic and row-sweep lookup for
    the per-group scalar path with an exhaustive scan; both return
    byte-identical payloads.
    """
    shape = tuple(int(s) for s in shape)
    flat = np.asarray(weights, dtype=np.float64).ravel()
    if math.prod(shape) != flat.size:
        raise DataError(f"shape {shape} does not match {flat.size} weights")
    points, padded, pad_value = group_pairs(flat)
    if len(points) == 0:
        config = CodebookConfig(
            params.box_side, params.num_points, params.max_category,
            params.direction_mode, (0.0, 0.0), 0.0,
        )
        return EncodedLayer(name, shape, 0, False, config, 1, b"", 0.0)
    centroid, max_radius, dists = _analyze(points)
    config = CodebookConfig(
        params.box_side, params.num_points, params.max_category,
        params.direction_mode, centroid, max_radius,
    )
    if reference:
        theta = _reference_thetas(points, config, _points(config))
    else:
        theta = _encode_thetas(points, dists, config, build_codebook(config))
    bit_width = max(1, int(theta.max()).bit_length())
    payload = pack_bits(theta, bit_width)
    return EncodedLayer(
        name, shape, flat.size, padded, config, bit_width, payload, pad_value
    )


def _restore(theta: np.ndarray, cfg: CodebookConfig) -> np.ndarray:
    """The (len(theta), 2) float64 pairs that stored codes theta decode to."""
    half = cfg.box_side / 2.0
    scales = _scale_factors(theta // cfg.num_points, cfg.box_side, cfg.max_radius,
                            cfg.max_category)
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


def decode_layer(enc: EncodedLayer) -> np.ndarray:
    """Restore the layer's weights in original order (padding dropped), float64.

    A layer holding at least theta_bound pairs restores every possible code once
    and gathers from that table: the same float operations, fewer of them.
    """
    groups = enc.group_count
    if groups == 0:
        return np.zeros(0, dtype=np.float64)
    theta = unpack_bits(enc.payload, enc.bit_width, groups)
    cfg = enc.config
    bound = cfg.theta_bound
    if int(theta.max()) >= bound:
        raise FormatError(
            f"layer {enc.name!r} holds theta {int(theta.max())} >= bound {bound}"
        )
    if bound <= groups:
        restored = np.take(_restore(np.arange(bound), cfg), theta, axis=0)
    else:
        restored = _restore(theta, cfg)
    return restored.reshape(-1)[: enc.element_count]


def pack_bits(values, bit_width: int) -> bytes:
    """Lay integers down LSB-first, bit_width bits each, no per-value padding."""
    if not 1 <= bit_width <= 32:
        raise ValueError(f"bit_width must be in [1, 32], got {bit_width}")
    arr = np.asarray(values)
    if arr.size == 0:
        return b""
    lo = int(arr.min())
    hi = int(arr.max())
    if lo < 0 or hi >= (1 << bit_width):
        raise ValueError(f"value {lo if lo < 0 else hi} does not fit in {bit_width} bits")
    # Shifted by its offset in 32-bit word bitpos >> 5, a value spans at most 63
    # bits; values never share a bit, so the float64 sums over words are exact ORs.
    bitpos = np.arange(arr.size, dtype=np.int64) * bit_width
    shifted = arr.astype(np.int64, copy=False).reshape(-1) << (bitpos & 31)
    words = np.bincount((bitpos >> 5) + 1, weights=shifted >> 32)
    words[:-1] += np.bincount(bitpos >> 5, weights=shifted & 0xFFFFFFFF)
    return words.astype("<u4").tobytes()[: (arr.size * bit_width + 7) // 8]


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
