"""Winding-trajectory codebooks over a per-layer box, with exact nearest-neighbor lookup.

A codebook is the finite set of points ``tau(lam * a)`` for ``lam = 0 .. num_points-1``,
where ``tau`` wraps coordinates into a square box centered on the layer's centroid and
``a`` is the per-step direction vector. Decoding only reads points by index
(``cached_codebook``). The k-d tree exists only for encoding (``build_codebook``):
its lookups are guaranteed to match an exhaustive scan, including the
smallest-index rule on exact ties. scipy is imported when the first tree is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative gap under which two candidate distances are re-checked exactly.
_TIE_RTOL = 1e-9
# Largest codebook a config may name: bounds the memory a decoder allocates
# (16 MB of float64 points) for any num_points read from a file.
MAX_NUM_POINTS = 1 << 20
# Largest ring count: HCMP stores it as a u16.
MAX_CATEGORY = 0xFFFF


class DirectionMode(enum.IntEnum):
    """How the per-step direction vector is derived from (num_points, box_side).

    Values double as the on-disk tag in the compressed container.
    """

    GRID_SHEAR = 0
    PAPER_EQ = 1


@dataclass(frozen=True)
class CodebookConfig:
    """Everything needed to rebuild one layer's codebook deterministically.

    box_side:     side length of the square box (weight units, > 0)
    num_points:   number of codebook points / exclusive bound on the point index
    max_category: number of scaling rings outside the box (0 = everything fits)
    centroid:     box center, the mean of the layer's coordinate pairs
    max_radius:   largest centroid distance over the layer's pairs (sizes the rings)
    """

    box_side: float
    num_points: int
    max_category: int
    direction_mode: DirectionMode
    centroid: tuple[float, float]
    max_radius: float

    def __post_init__(self):
        if not (math.isfinite(self.box_side) and self.box_side > 0):
            raise ValueError(f"box_side must be finite and > 0, got {self.box_side}")
        if not isinstance(self.num_points, int) or self.num_points < 1:
            raise ValueError(f"num_points must be a positive integer, got {self.num_points}")
        if self.num_points > MAX_NUM_POINTS:
            raise ValueError(f"num_points must be <= {MAX_NUM_POINTS}, got {self.num_points}")
        if not isinstance(self.max_category, int) or self.max_category < 0:
            raise ValueError(f"max_category must be a non-negative integer, got {self.max_category}")
        if self.max_category > MAX_CATEGORY:
            raise ValueError(f"max_category must be <= {MAX_CATEGORY}, got {self.max_category}")
        if len(self.centroid) != 2 or not all(math.isfinite(c) for c in self.centroid):
            raise ValueError(f"centroid must be a finite 2-D point, got {self.centroid}")
        if not (math.isfinite(self.max_radius) and self.max_radius >= 0):
            raise ValueError(f"max_radius must be finite and >= 0, got {self.max_radius}")
        object.__setattr__(self, "direction_mode", DirectionMode(self.direction_mode))

    @property
    def box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi) of the closed box."""
        half = self.box_side / 2.0
        cx, cy = self.centroid
        return (cx - half, cx + half, cy - half, cy + half)

    @property
    def theta_bound(self) -> int:
        """Exclusive upper bound on stored indices: (max_category + 1) * num_points."""
        return (self.max_category + 1) * self.num_points


def generalized_tau(v, config: CodebookConfig) -> np.ndarray:
    """Wrap coordinates mod box_side and shift into the config's box.

    Accepts a single 2-vector or an (n, 2) array; returns the same shape.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != 2:
        raise ValueError(f"expected 2-D coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("generalized_tau requires finite coordinates")
    side = config.box_side
    wrapped = np.mod(arr, side)
    wrapped = np.where(wrapped >= side, 0.0, wrapped)  # guard mod rounding up to side
    offset = np.array(config.centroid) - side / 2.0
    return wrapped + offset


def direction_vector(
    num_points: int, box_side: float, mode: DirectionMode
) -> tuple[float, float]:
    """Per-step (dx, dy) increments of the winding trajectory for the chosen mode.

    GRID_SHEAR: (box_side/num_points, box_side/isqrt(num_points)) -- a sheared
    lattice that covers the whole box for perfect-square num_points.
    PAPER_EQ: closed form of the normalized-diagonal construction,
    (box_side/(num_points*isqrt(num_points)), box_side/isqrt(num_points)).
    For num_points <= 3 the second component degenerates to box_side itself.
    """
    if not isinstance(num_points, int) or num_points < 1:
        raise ValueError(f"num_points must be a positive integer, got {num_points}")
    if not (math.isfinite(box_side) and box_side > 0):
        raise ValueError(f"box_side must be finite and > 0, got {box_side}")
    root = math.isqrt(num_points)
    mode = DirectionMode(mode)
    if mode is DirectionMode.GRID_SHEAR:
        return (box_side / num_points, box_side / root)
    return (box_side / (num_points * root), box_side / root)


class Codebook:
    """Read-only points plus the k-d tree the encoder's nearest lookup searches.

    Built only to encode (``build_codebook``); decoding reads the points alone.
    Safe for concurrent readers.
    """

    def __init__(self, config: CodebookConfig, points: np.ndarray, tree):
        self.config = config
        self.points = points
        self._tree = tree

    def __len__(self) -> int:
        return len(self.points)

    def nearest_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized nearest: (indices, distances) for an (n, 2) query array.

        Matches an exhaustive argmin over the points exactly: candidate pairs whose
        k-d distances are within _TIE_RTOL of each other are re-ranked by the same
        squared-distance arithmetic a linear scan would use.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 2:
            raise ValueError(f"queries must be (n, 2), got {queries.shape}")
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries must be finite")
        n = len(queries)
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        if len(self.points) == 1:
            idx = np.zeros(n, dtype=np.int64)
        else:
            kd_dist, kd_idx = self._tree.query(queries, k=2)
            idx = kd_idx[:, 0].astype(np.int64)
            close = kd_dist[:, 1] - kd_dist[:, 0] <= _TIE_RTOL * (kd_dist[:, 0] + 1e-300)
            for i in np.nonzero(close)[0]:
                idx[i] = self._resolve_near_tie(queries[i], kd_dist[i, 0])
        diff = self.points[idx] - queries
        dist = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
        return idx, dist

    def _resolve_near_tie(self, q: np.ndarray, kd_dist: float) -> int:
        # All points at the true minimum distance lie inside this inflated ball.
        radius = kd_dist * (1.0 + _TIE_RTOL) + 1e-300
        cand = sorted(self._tree.query_ball_point(q, radius))
        pts = self.points[cand]
        dsq = (pts[:, 0] - q[0]) ** 2 + (pts[:, 1] - q[1]) ** 2
        return cand[int(np.argmin(dsq))]


def _points(config: CodebookConfig) -> np.ndarray:
    """The (num_points, 2) trajectory points, float64 and read-only.

    Points are computed once per codebook and never per query, so an encoded
    file decodes identically on any platform.
    """
    direction = direction_vector(config.num_points, config.box_side, config.direction_mode)
    lam = np.arange(config.num_points, dtype=np.float64)
    raw = lam[:, None] * np.asarray(direction)
    points = np.ascontiguousarray(generalized_tau(raw, config))
    points.setflags(write=False)
    return points


def build_codebook(config: CodebookConfig) -> Codebook:
    """Materialize the trajectory points for a config and index them for encoding.

    The tree is built here, before the encoder allocates its per-pair arrays,
    so scipy, which loads on the first call, does not load while those are alive.
    """
    from scipy.spatial import cKDTree

    points = _points(config)
    return Codebook(config, points, cKDTree(points))


@lru_cache(maxsize=16)
def cached_codebook(config: CodebookConfig) -> np.ndarray:
    """Memoized read-only points. Decoding asks with the centroid at box_side/2,
    so one un-offset array serves all layers with the same U, side and mode."""
    return _points(config)
