"""A slow encoder written apart from hypc: the check on encode_layer's output.

Nothing here imports hypc. Each step is the formula hypc documents, written
plainly: whole-array means, the scalar ring plan and rescale of one pair at a
time, an exhaustive scan over every codebook point and a bit-by-bit packer.
A fault in the code that encode_layer's fast path relies on (pairing, the
blocked centroid, the lattice lookup, the slot packer) therefore cannot hide
in a comparison with this encoder. It is also the slow arm of the acceleration
ablation (acceptance criterion 12).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

GRID_SHEAR = 0  # the grid direction's on-disk tag; paper mode's is 1
OVER_RTOL = 1e-9  # slack past the outermost ring for rounding, relative


class Encoded(NamedTuple):
    """The fields of an encoded layer that its weights determine."""

    centroid: tuple[float, float]
    max_radius: float
    pad_value: float
    bit_width: int
    payload: bytes


def mean(values: np.ndarray) -> np.ndarray:
    """Float64 mean along axis 0. A sum that overflows is taken again on terms
    scaled by 2^-k, 2^k > len(values), and scaled back after the divide."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    count = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum(axis=0)
        if np.isfinite(total).all():
            return total / count
        scale = 2.0 ** count.bit_length()
        return (values * (1.0 / scale)).sum(axis=0) / count * scale


def pairs(weights) -> tuple[np.ndarray, float]:
    """(G, 2) float64 pairs of consecutive weights, and the pad value (0.0
    when nothing is padded). An odd length pairs its last weight with the mean
    of the pairs' x values, that weight being the last pair's x."""
    flat = np.asarray(weights).ravel().astype(np.float64)
    if not np.isfinite(flat).all():
        raise ValueError("weights must be finite")
    if flat.size % 2 == 0:
        return flat.reshape(-1, 2), 0.0
    pad_value = float(mean(flat[::2]))
    return np.append(flat, pad_value).reshape(-1, 2), pad_value


def centroid_and_radius(points: np.ndarray) -> tuple[tuple[float, float], float]:
    """The mean pair, and max_radius: the square root of the largest squared
    distance dx*dx + dy*dy to it."""
    cx, cy = map(float, mean(points))
    with np.errstate(over="ignore"):
        dx, dy = points[:, 0] - cx, points[:, 1] - cy
        largest = float((dx * dx + dy * dy).max())
    if not math.isfinite(largest):
        raise ValueError("a squared distance to the centroid overflows float64")
    return (cx, cy), math.sqrt(largest)


def box_points(box_side: float, num_points: int, mode: int) -> np.ndarray:
    """The (U, 2) codebook points in the box frame: np.mod(lam * a, l), where
    a is (l/U, l/R) in grid mode and (l/(U R), l/R) in paper mode, R = isqrt(U).
    A coordinate that rounds up to l wraps to 0."""
    root = math.isqrt(num_points)
    step_x = box_side / num_points if mode == GRID_SHEAR else box_side / (num_points * root)
    lam = np.arange(num_points, dtype=np.float64)
    points = np.stack([np.mod(lam * step_x, box_side), np.mod(lam * (box_side / root), box_side)],
                      axis=1)
    points[points == box_side] = 0.0
    return points


def ring(d: float, box_side: float, max_radius: float, max_category: int) -> int:
    """Ring of a pair at distance d from the centroid: 0 within l/2, else the
    smallest m <= M with d <= l/2 + m * max_radius / M. A distance past the
    outermost ring (l/2 + max_radius, or l/2 when M = 0), beyond the relative
    slack, is refused."""
    half = box_side / 2.0
    if d <= half:
        return 0
    if max_category:
        step = max_radius / max_category
        for m in range(1, max_category + 1):
            if d <= half + step * m:
                return m
    outer = half + max_radius if max_category else half
    if d > outer * (1.0 + OVER_RTOL):
        raise ValueError(f"distance {d} exceeds outermost ring {outer}")
    return max_category


def scale(m: int, box_side: float, max_radius: float, max_category: int) -> float:
    """Shrink factor of ring m: s_m = (l/2) / (l/2 + m * max_radius / M)."""
    if not 0 <= m <= max_category:
        raise ValueError(f"ring {m} outside [0, {max_category}]")
    half = box_side / 2.0
    return half / (half + max_radius / max(max_category, 1) * m)


def pack(values, bit_width: int) -> bytes:
    """Each value's bit_width bits, least significant first, end to end."""
    out = bytearray()
    acc = filled = 0
    for value in values:
        acc |= int(value) << filled
        filled += bit_width
        while filled >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            filled -= 8
    if filled:
        out.append(acc)
    return bytes(out)


def encode(weights, box_side: float, num_points: int, max_category: int,
           mode: int) -> Encoded:
    """What encode_layer stores for weights under these parameters."""
    points, pad_value = pairs(weights)
    if len(points) == 0:
        return Encoded((0.0, 0.0), 0.0, 0.0, 1, b"")
    (cx, cy), max_radius = centroid_and_radius(points)
    half = box_side / 2.0
    book = (box_points(box_side, num_points, mode) + (cx - half, cy - half)).tolist()
    codes = []
    for px, py in points.tolist():
        m = ring(math.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy)),
                 box_side, max_radius, max_category)
        s = scale(m, box_side, max_radius, max_category)
        qx, qy = (px - cx) * s + cx, (py - cy) * s + cy
        best, best_dsq = 0, math.inf
        for j, (bx, by) in enumerate(book):
            dsq = (qx - bx) * (qx - bx) + (qy - by) * (qy - by)
            if dsq < best_dsq:
                best, best_dsq = j, dsq
        codes.append(m * num_points + best)
    bit_width = max(1, max(codes).bit_length())
    if bit_width > 32:
        raise ValueError(f"widest code {max(codes)} needs {bit_width} bits")
    return Encoded((cx, cy), max_radius, pad_value, bit_width, pack(codes, bit_width))
