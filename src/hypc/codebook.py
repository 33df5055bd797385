"""Winding-trajectory codebooks over a per-layer box, with exact nearest-neighbor lookup.

A codebook is the finite set of points ``tau(lam * a)`` for ``lam = 0 .. num_points-1``,
where ``tau`` wraps coordinates into a square box centered on the layer's centroid and
``a`` is the per-step direction vector. The points in the box frame and the covering
radius depend on U, l and the mode alone: one array and one radius per that triple
(``cached_codebook``, ``covering_radius``). A layer's point lam is row lam of that array
plus ``centroid - l/2``, added after the gather (``gather``) by decoder and encoder alike,
so a layer does no O(U) work unless its lookup reaches the row sweep. Encoding
(``build_codebook``) looks each query up in three stages: it rounds the query to a
lattice point, kept when the query lies in a box inside that point's Voronoi cell; it
examines the 3x3 lattice neighbourhood of what rounding leaves open, kept when a
distance certificate proves a candidate the unique nearest; the rest go to a sweep over
the points' horizontal rows, outward from the query. All equal an exhaustive scan,
including the smallest-index rule on exact ties. Nothing here needs scipy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Queries per block of the nearest lookup: bounds its temporaries (a few MB).
_QUERY_BLOCK = 1 << 15
# Offsets of the stencil's rows and in-row indices around the rounded query.
_STEPS = np.array([[-1.0], [0.0], [1.0]])
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
    """One layer's view of the cached box-frame points, indexed for lookup.

    The points lie on ``isqrt(U) + 1`` horizontal rows: row ``r`` near
    ``y_lo + r * l / isqrt(U)``, where the top row holds bottom-row points
    whose ``lam * dy`` rounded below a multiple of ``l``. Point ``lam`` sits near row
    ``lam % isqrt(U)`` at ``x_lo + lam * dx``, so rounding a query to that
    lattice finds a candidate in O(1), settled by a box in its Voronoi cell
    (``_round``). Other queries, in either mode, get the nine lattice points
    of the three rows and in-row indices around them (``_stencil``); ties at
    its edge and float-collapsed codebooks go to the row sweep (``_RowSweep``).
    Each stage gathers the points it reads (``gather``), so a layer holds
    scalars and O(isqrt(U)) tables; the shifted ``points`` and the sweep's
    index are built on first use. Safe for concurrent readers. The box side
    lies in [codec.MIN_BOX_SIDE, codec.MAX_BOX_SIDE], as encode_layer enforces:
    there the compared squares stay finite and, near the covering radius, normal,
    and each step is normal, so x = fl(lam * dx) < l rises from point 0 to U - 1.
    """

    def __init__(self, config: CodebookConfig):
        self.config = config
        key = (config.num_points, config.box_side, config.direction_mode)
        self._frame = cached_codebook(*key)
        root = math.isqrt(config.num_points)
        # Lattice of the rounding pre-pass: point lam sits near row lam % root
        # at y_lo + row * h and x_lo + lam * dx. A stored point is at most err
        # from that position per coordinate: the products lam * dx and lam * dy
        # (lam * dy < (root + 2) * l) and the shift into the box each round.
        self._root = root
        self._dx, self._h = direction_vector(*key)
        self._inverse = (1 / self._dx, 1 / self._h)  # rounding multiplies by these
        corner = max(abs(c) for c in config.box)
        self._err = 4 * (root + 2) * math.ulp(config.box_side) + 4 * math.ulp(corner)
        margin = 4 * (root + 4) * self._err + 1e-9 * self._h
        self._box = (root * self._dx / 2 - margin, self._h / 2 - margin)
        # For each row position p in [0, root]: the rows at positions p - 1,
        # p and p + 1 (mod root) and the last in-row index of each, as float.
        self._rows = np.mod(np.arange(root + 1) + _STEPS, root)
        self._last = (config.num_points - 1 - self._rows) // root
        # Point 0 has the least x and point U - 1 the greatest (see above), shifted or not.
        self._x_extent = gather(self._frame, [0, config.num_points - 1], config)[:, 0]

    @cached_property
    def points(self) -> np.ndarray:
        """All U points in the box, read-only: the row sweep's input, built on first use."""
        points = gather(self._frame, np.arange(self.config.num_points), self.config)
        points.setflags(write=False)
        return points

    def nearest_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized nearest: (indices, distances) for an (n, 2) query array.

        Equals an exhaustive argmin of ``dx*dx + dy*dy`` over the points,
        smallest index on ties. Queries run in blocks of ``_QUERY_BLOCK`` so
        the temporaries stay bounded; in each block lattice rounding settles
        what it can, the stencil most of the rest, and the sweep what is left,
        wherever the query lies.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 2:
            raise ValueError(f"queries must be (n, 2), got {queries.shape}")
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries must be finite")
        idx = np.empty(len(queries), dtype=np.int64)
        dsq = np.empty(len(queries), dtype=np.float64)
        for lo in range(0, len(queries), _QUERY_BLOCK):
            block = slice(lo, lo + _QUERY_BLOCK)
            qx, qy = queries[block, 0], queries[block, 1]
            idx[block], dsq[block], settled = self._round(queries[block])
            rest = np.flatnonzero(~settled)
            if rest.size and self._root >= 3:
                lam, near_dsq, ok = self._stencil(qx[rest], qy[rest])
                idx[lo + rest[ok]], dsq[lo + rest[ok]] = lam[ok], near_dsq[ok]
                rest = rest[~ok]
            if rest.size:
                idx[lo + rest], dsq[lo + rest] = self._sweeper.sweep(qx[rest], qy[rest])
        return idx, np.sqrt(dsq, out=dsq)

    def _round(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Round each row of C-contiguous (n, 2) queries to a lattice point:
        (index, dsq, settled).

        Each stored point lies within ``err`` per coordinate of the lattice
        {(x_lo + a*dx, y_lo + b*h): a = b mod root, 0 <= b <= root}, generated
        by (pitch, 0) and (dx, h) with pitch = root*dx <= h (b = root holds the
        moved row-0 points). With d = query - candidate, the box |d_x| <
        pitch/2 - mu, |d_y| < h/2 - |d_x|*dx/h - mu lies in the candidate's
        Voronoi cell: |v|^2 - 2|d_x||v_x| - 2|d_y||v_y| > 0 for every other
        lattice vector v. Same position (v_y = 0): |v_x| >= pitch > 2|d_x|,
        leaving 2*mu*|v_x|. Adjacent position (|v_y| = h): the nearest two,
        at |v_x| = dx and pitch - dx, leave dx^2 (2|d_x|*dx at pitch - dx = 0
        when root = 1), the others more, and the margin adds 2*mu*h. Two or
        more positions away: at least 2h^2 - pitch^2/4 > 0. Missing points only
        remove competitors. The two points' errors move the scan's distance
        difference by at most 4*err*(|v_x| + |v_y| + |d_x| + |d_y|), which
        mu = 4*(root + 4)*err covers in every case (h/pitch < root + 3);
        1e-9*h covers the rounding of the scan's ``dx*dx + dy*dy`` and of the
        box test, which squares nothing. Where mu swamps pitch/2 (collapsed
        codebooks, boxes a few ulps wide) the box is empty. Unsettled queries
        go to the stencil. The box test does not depend on how the candidate
        was found, so rounding by reciprocal multiplies is as sound as by
        divides.
        """
        root = self._root
        x_lo, x_hi, y_lo, y_hi = self.config.box
        # Clipped: a box a few ulps wide can round past position root.
        at = np.clip(queries[:, 1], y_lo, y_hi)
        at -= y_lo
        at *= self._inverse[1]
        at = np.rint(at, out=at).astype(np.intp)
        row = np.take(self._rows[1], at, mode="clip")
        k = np.clip(queries[:, 0], x_lo, x_hi)
        k -= x_lo
        k *= self._inverse[0]
        k -= row
        k *= 1 / root
        np.rint(k, out=k)
        np.maximum(k, 0, out=k)  # np.clip with an array bound takes three times as long
        np.minimum(k, np.take(self._last[1], at, mode="clip"), out=k)
        k *= root
        k += row
        lam = k.astype(np.int64)
        diff = gather(self._frame, lam, self.config)
        complex_rows(diff)[...] -= complex_rows(queries)
        near = np.abs(diff, out=diff)  # |d_x|, |d_y|
        settled = near[:, 0] < self._box[0]
        slant = near[:, 0] * (self._dx / self._h)
        slant += near[:, 1]
        settled &= slant < self._box[1]
        near *= near
        dsq = np.add(near[:, 0], near[:, 1], out=slant)
        return lam, dsq, settled

    def _stencil(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle queries by their 3x3 lattice neighbourhood: (index, dsq, settled).

        The rows at positions ``pos0 - 1 .. pos0 + 1`` around the rounded
        ``pos0`` (position ``root`` holds the moved row-0 points: row
        ``pos % root``) and, in each, the in-row indices ``k - 1 .. k + 1``
        with ``k`` clipped to ``[1, last - 1]``; ties go to the smallest index.
        A point not examined is in one of these rows, at least ``side`` (the
        x-gap to index ``k +- 2``) away, or at position ``pos0 +- 2`` or beyond,
        at least ``gap`` (that y-gap) away in y and, like every stored point,
        ``e = max(qx - x_max, x_min - qx, 0)`` in x (points 0 and U - 1). The gaps
        are less ``2*err`` (``_round``); ``e`` needs none: rounding is monotone,
        so the scan's ``|dx|`` is at least ``e`` as computed, its dsq at least
        ``e*e + gap*gap``. Kept when dsq is below ``side**2`` and that, times
        ``1 - 1e-12`` (the gaps' rounding), a superset of ``min(side, gap)**2``.
        Needs ``root >= 3``, so the window never holds both row-0 positions; a
        position outside ``[0, root]`` wraps to a row the y-gaps bound, an
        extra candidate. Arrays are (9, n): numpy is slow over a short axis.
        """
        root, dx, h = self._root, self._dx, self._h
        x_lo, x_hi, y_lo, y_hi = self.config.box
        pos0 = np.clip(np.rint((np.clip(qy, y_lo, y_hi) - y_lo) / h), 0, root)
        at = pos0.astype(np.intp)
        row = np.take(self._rows, at, axis=1)
        last = np.take(self._last, at, axis=1)
        k = np.rint(((np.clip(qx, x_lo, x_hi) - x_lo) / dx - row) / root)
        np.clip(k, 1, last - 1, out=k)
        lam = ((k[:, None] + _STEPS) * root + row[:, None]).astype(np.int64).reshape(9, len(qx))
        diff = gather(self._frame, lam, self.config)
        diff[..., 0] -= qx
        diff[..., 1] -= qy
        diff *= diff
        near = diff[..., 0] + diff[..., 1]
        dsq = near.min(axis=0)
        lam = np.where(near == dsq, lam, self.config.num_points).min(axis=0)
        left = np.where(k < 2, np.inf, qx - (((k - 2) * root + row) * dx + x_lo))
        right = np.where(k + 2 > last, np.inf, ((k + 2) * root + row) * dx + x_lo - qx)
        below = np.where(pos0 < 2, np.inf, qy - (y_lo + (pos0 - 2) * h))
        above = np.where(pos0 + 2 > root, np.inf, y_lo + (pos0 + 2) * h - qy)
        side = np.maximum(np.minimum(left, right).min(axis=0) - 2 * self._err, 0)
        gap = np.maximum(np.minimum(below, above) - 2 * self._err, 0)
        e = np.maximum(np.maximum(qx - self._x_extent[1], self._x_extent[0] - qx), 0)
        settled = (dsq < side * side * (1 - 1e-12)) & (dsq < (e * e + gap * gap) * (1 - 1e-12))
        return lam, dsq, settled

    @cached_property
    def _sweeper(self) -> _RowSweep:
        """Built on the first sweep: rounding and the stencil often settle every
        query, and the index's sort is most of the cost of a build."""
        return _RowSweep(self.points, self.config.box[2], self._h)


class _RowSweep:
    """Exact lookup by the rows y ~ y_lo + r*h: the distinct points sorted by
    (r, x, index), each non-empty row with its start offset and stored minimum
    and maximum y. Equal points tie, so only the smallest index of each is kept.
    Copies share a row and an x, so they are looked for only when two neighbours do."""

    def __init__(self, points: np.ndarray, y_lo: float, h: float):
        rows = np.rint((points[:, 1] - y_lo) / h)
        order = np.lexsort((points[:, 0], rows))  # a stable sort: ties keep index order
        x, sorted_rows = points[order, 0], rows[order]
        if ((x[1:] == x[:-1]) & (sorted_rows[1:] == sorted_rows[:-1])).any():
            xy = points.view(np.complex128)[:, 0]
            by_point = np.argsort(xy, kind="stable")  # by x, then y, then index
            xy = xy[by_point]
            first = np.ones(len(points), dtype=bool)
            first[by_point[1:]] = xy[1:] != xy[:-1]
            keep = first[order]
            order, x, sorted_rows = order[keep], x[keep], sorted_rows[keep]
        # One +inf past the end keeps the binary search's probes in bounds.
        self._order, self._x, self._y = order, np.append(x, np.inf), points[order, 1]
        self._starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1], True])
        self._y_min = np.minimum.reduceat(self._y, self._starts[:-1])
        self._y_max = np.maximum.reduceat(self._y, self._starts[:-1])
        self._depth = int(np.diff(self._starts).max()).bit_length()

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        """(x, starts, y_min, y_max), to read only: row i, bottom to top, holds x
        ``x[starts[i]:starts[i + 1]]``, ascending, and y in ``[y_min[i], y_max[i]]``."""
        return self._x[:-1], self._starts, self._y_min, self._y_max

    def sweep(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        best = np.full(len(qx), np.inf)
        arg = np.zeros(len(qx), dtype=np.int64)
        last = len(self._y_min) - 1
        start = np.clip(np.searchsorted(self._y_min, qy, side="right") - 1, 0, last)
        above = np.minimum(start + 1, last)
        start = np.where(self._y_min[above] - qy < qy - self._y_max[start], above, start)
        everyone = np.arange(len(qx))
        self._visit(qx, qy, everyone, start, best, arg)
        for step in (-1, 1):
            sel, row = everyone, start + step
            while True:
                inside = (row >= 0) & (row <= last)
                sel, row = sel[inside], row[inside]
                # Every point of this row and of the rows past it is at least
                # gap away in y, and float rounding is monotone, so its scanned
                # distance is at least gap*gap: a side stops once that exceeds
                # the best distance so far.
                near = self._gap_sq(qy[sel], row) <= best[sel]
                sel, row = sel[near], row[near]
                if not sel.size:
                    break
                self._visit(qx, qy, sel, row, best, arg)
                row += step
        return arg, best

    def _gap_sq(self, y: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Squared y-distance from each query to the stored y range of its row."""
        gap = np.maximum(self._y_min[row] - y, y - self._y_max[row])
        np.maximum(gap, 0.0, out=gap)
        return gap * gap

    def _visit(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        sel: np.ndarray,
        row: np.ndarray,
        best: np.ndarray,
        arg: np.ndarray,
    ) -> None:
        """Fold the points of rows ``row`` into queries ``sel``'s best (dsq, index).

        A binary search finds the query's x in its row; the scan then walks out
        from there on both sides while ``dx*dx + gap*gap``, a lower bound on the
        next point's scanned distance, does not exceed the best distance.
        """
        x, y = qx[sel], qy[sel]
        begin, end = self._starts[row], self._starts[row + 1]
        gap_sq = self._gap_sq(y, row)
        lo, hi = begin, end
        for _ in range(self._depth):  # first position in [begin, end] with x >= query x
            mid = (lo + hi) >> 1
            right = (lo < hi) & (self._x[mid] < x)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        for step, cand in ((-1, lo - 1), (1, lo)):
            walk = np.flatnonzero((cand >= begin) & (cand < end))
            cand = cand[walk]
            while walk.size:
                dx = self._x[cand] - x[walk]
                dx *= dx
                held = best[sel[walk]]
                near = dx + gap_sq[walk] <= held
                walk, cand, dx, held = walk[near], cand[near], dx[near], held[near]
                dy = self._y[cand] - y[walk]
                dsq = dx + dy * dy
                index = self._order[cand]
                at = sel[walk]
                win = (dsq < held) | ((dsq == held) & (index < arg[at]))
                best[at[win]] = dsq[win]
                arg[at[win]] = index[win]
                cand += step
                inside = (cand >= begin[walk]) & (cand < end[walk])
                walk, cand = walk[inside], cand[inside]


def build_codebook(config: CodebookConfig) -> Codebook:
    """The config's codebook, indexed for encoding."""
    return Codebook(config)


def gather(frame: np.ndarray, lam, config: CodebookConfig) -> np.ndarray:
    """Points ``lam`` of config's codebook, new: box-frame points ``frame[lam]``
    plus ``centroid - l/2``. Encoder and decoder both shift only here."""
    points = np.take(frame, lam, axis=0)
    (cx, cy), half = config.centroid, config.box_side / 2.0
    complex_rows(points)[...] += complex(cx - half, cy - half)
    return points


def complex_rows(pairs: np.ndarray) -> np.ndarray:
    """The complex128 view of C-contiguous float64 (..., 2) pairs, one value per
    row: a complex add or subtract is one pass over the rows that adds or
    subtracts the x and the y parts apart, the same floats as two column passes."""
    return pairs.view(np.complex128)[..., 0]


@lru_cache(maxsize=16)
def covering_radius(num_points: int, box_side: float, mode: DirectionMode) -> float:
    """B, the covering radius of the codebook over its box (Conway & Sloane,
    ch. 2), memoized: it depends on U, l and the mode alone.

    In the box frame, with R = isqrt(U) and h = l/R. Grid: B = sqrt(2)*h; row
    r >= 1 holds x = (r + jR)*l/U, R*l/U <= h apart from below h to past l - h,
    and every query lies within h in y of such a row (R = 1: of the points).
    Paper: B from the stored points in the sweep's rows (its dedup drops only
    copies, so no row's x gaps or y extent change), as rows end at different x
    and np.mod moves some row-0 points to y ~ l (a row of their own). Row i
    reaches each x in [0, l] within X_i = max(first x, l - last x, half its
    widest x gap). A query between rows i and i + 1 lies within half the span
    of their y values of one of them in y (a row's y spread is rounding), so
    within hypot(that, max(X_i, X_i+1)) of a point; one below the first row or
    above the last, within hypot(its X, the y distance from the box edge to its
    far side).
    """
    side, root = box_side, math.isqrt(num_points)
    if mode == DirectionMode.GRID_SHEAR:
        return math.sqrt(2) * side / root
    x, starts, y_lo, y_hi = _RowSweep(cached_codebook(num_points, side, mode), 0.0,
                                      side / root).rows
    first, last = starts[:-1], starts[1:] - 1
    half_gaps = np.diff(x, append=side) / 2
    half_gaps[last] = side - x[last]  # from a row's last point to the box edge
    reach = np.maximum(np.maximum.reduceat(half_gaps, first), x[first])
    spans = np.r_[2 * y_hi[0], y_hi[1:] - y_lo[:-1], 2 * (side - y_lo[-1])]
    worse = np.maximum(np.r_[reach, reach[-1]], np.r_[reach[0], reach])
    return float(np.hypot(worse, spans / 2).max())


@lru_cache(maxsize=16)
def cached_codebook(num_points: int, box_side: float, mode: DirectionMode) -> np.ndarray:
    """The (num_points, 2) trajectory points in the box frame [0, l) x [0, l),
    ``np.mod(lam * a, l)``, float64, read-only and memoized: the encoder and
    the decoder add the layer's ``centroid - l/2`` to the rows they gather.

    Points are computed once per (U, l, mode) and never per query, so an
    encoded file decodes identically on any platform.
    """
    lam = np.arange(num_points, dtype=np.float64)
    points = np.mod(lam[:, None] * np.asarray(direction_vector(num_points, box_side, mode)),
                    box_side)
    points.setflags(write=False)
    return points
