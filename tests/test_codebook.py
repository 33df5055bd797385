import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypc.codebook import (
    MAX_CATEGORY,
    MAX_NUM_POINTS,
    CodebookConfig,
    DirectionMode,
    build_codebook,
    cached_codebook,
    direction_vector,
)
from hypc.codec import MAX_BOX_SIDE, MIN_BOX_SIDE, ring_error_bounds

GRID = DirectionMode.GRID_SHEAR
PAPER = DirectionMode.PAPER_EQ


def exhaustive_nearest(points: np.ndarray, q) -> tuple[int, float]:
    """Independent oracle: linear scan, first minimum wins."""
    dsq = (points[:, 0] - q[0]) ** 2 + (points[:, 1] - q[1]) ** 2
    idx = int(np.argmin(dsq))
    return idx, float(np.sqrt(dsq[idx]))


def exhaustive_argmin(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Vectorized twin of exhaustive_nearest: the first minimum of dx*dx + dy*dy."""
    out = np.empty(len(queries), dtype=np.int64)
    chunk = max(1, (1 << 21) // len(points))
    for lo in range(0, len(queries), chunk):
        q = queries[lo:lo + chunk]
        dx = points[None, :, 0] - q[:, 0:1]
        dy = points[None, :, 1] - q[:, 1:2]
        out[lo:lo + chunk] = np.argmin(dx * dx + dy * dy, axis=1)
    return out


def point_rows(cfg, points: np.ndarray) -> np.ndarray:
    """Row r of each point, y ~ y_lo + r * l / isqrt(U); r = isqrt(U) holds the
    bottom-row points whose lam * dy rounded below a multiple of l, at the top."""
    step = cfg.box_side / math.isqrt(cfg.num_points)
    return np.rint((points[:, 1] - cfg.box[2]) / step).astype(np.int64)


def near_tie_queries(cfg, points: np.ndarray, rng, cap: int) -> np.ndarray:
    """Uniform queries out to 100 box sides, the points themselves, and midpoints
    between x-neighbours in a row and y-neighbours in adjacent rows; at most
    ``cap`` of each kind."""
    rows = point_rows(cfg, points)
    order = np.lexsort((points[:, 0], rows))
    p, r = points[order], rows[order]
    x_mids = ((p[1:] + p[:-1]) / 2)[r[1:] == r[:-1]]
    y_mids = [points[:0]]
    occupied = np.unique(r)
    for lower, upper in zip(occupied[:-1], occupied[1:]):
        a, b = p[r == lower], p[r == upper]
        y_mids.append((a + b[exhaustive_argmin(b, a)]) / 2)
    uniform = rng.uniform(-100, 100, size=(cap, 2)) * cfg.box_side + np.array(cfg.centroid)
    kinds = [uniform, points, x_mids, np.vstack(y_mids)]
    return np.vstack([k[rng.permutation(len(k))[:cap]] for k in kinds])


def config(side=0.1, u=225, m=0, mode=GRID, centroid=(0.5, 0.5), radius=0.0):
    return CodebookConfig(side, u, m, mode, centroid, radius)


CENTROIDS = [0.0, 1e3, -1e3, 1e9, -1e9, 1e13, -1e13, 1e16, -1e16]


class TestDirectionVector:
    def test_paper_mode_closed_form(self):
        d = direction_vector(225, 0.1, PAPER)
        assert d[0] == pytest.approx(2.962963e-5, rel=1e-6)
        assert d[1] == pytest.approx(6.666667e-3, rel=1e-6)

    def test_paper_mode_matches_trig_evaluation(self):
        # closed form vs the normalized-diagonal construction with trig terms
        for u, side in [(225, 0.1), (4, 0.1), (361, 0.02), (1000, 1.0)]:
            root = math.isqrt(u)
            diag = np.array([side / u, side])
            unit = diag / np.linalg.norm(diag)
            alpha = math.atan(u)
            step_len = side / (math.sin(alpha) * root)
            expected = unit * step_len
            got = direction_vector(u, side, PAPER)
            assert got == pytest.approx(tuple(expected), rel=1e-12)

    def test_grid_mode(self):
        d = direction_vector(225, 0.1, GRID)
        assert d[0] == pytest.approx(4.444444e-4, rel=1e-6)
        assert d[1] == pytest.approx(6.666667e-3, rel=1e-6)

    def test_small_u_paper_mode(self):
        d = direction_vector(4, 0.1, PAPER)
        assert d == pytest.approx((0.0125, 0.05), rel=1e-12)
        # sanity: sin(alpha) = 4 / sqrt(17) for tan(alpha) = 4
        assert math.sin(math.atan(4)) == pytest.approx(4 / math.sqrt(17))

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            direction_vector(0, 0.1, GRID)

    @given(
        u=st.integers(min_value=4, max_value=5000),
        side=st.floats(min_value=1e-3, max_value=10.0),
        mode=st.sampled_from([GRID, PAPER]),
    )
    def test_components_positive_below_side(self, u, side, mode):
        a1, a2 = direction_vector(u, side, mode)
        assert 0 < a1 < side
        assert 0 < a2 < side


class TestBuildCodebook:
    def test_first_point_is_box_corner(self):
        cb = build_codebook(config(u=4))
        assert cb.points[0] == pytest.approx([0.45, 0.45], abs=1e-12)

    def test_fourth_point(self):
        cb = build_codebook(config(u=4))
        assert cb.points[3] == pytest.approx([0.525, 0.50], abs=1e-12)

    def test_sheared_lattice_row_structure(self):
        cfg = config(u=225)
        cb = build_codebook(cfg)
        assert len(cb.points) == 225
        # bin y-coordinates into lattice rows; values a rounding error below the
        # box top are the wrap-around image of row 0
        rel = (cb.points[:, 1] - cfg.box[2]) / cfg.box_side
        rows = np.round(rel * 15).astype(int) % 15
        assert np.unique(rows).size == 15
        assert np.abs(rel * 15 - np.round(rel * 15)).max() < 1e-9
        counts = np.bincount(rows, minlength=15)
        assert (counts == 15).all()

    def test_deterministic_bit_identical(self):
        cfg = config(u=361, mode=PAPER, centroid=(-0.3, 2.0))
        a = build_codebook(cfg).points
        b = build_codebook(cfg).points
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("u", [1, 2, 3, 7, 64, 225])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_box_containment(self, u, mode):
        cfg = config(side=0.25, u=u, mode=mode, centroid=(-0.8, 0.33))
        cb = build_codebook(cfg)
        x_lo, x_hi, y_lo, y_hi = cfg.box
        assert (cb.points[:, 0] >= x_lo).all() and (cb.points[:, 0] <= x_hi).all()
        assert (cb.points[:, 1] >= y_lo).all() and (cb.points[:, 1] <= y_hi).all()

    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_box_frame_points_lie_below_l_with_x_rising(self, mode):
        # Over the box sides encode_layer takes, the lookup reads the x extent
        # from points 0 and U - 1, and no coordinate may reach l: both rest on
        # np.mod being the exact fmod and each step a normal float. The
        # unmemoized function keeps 16-MB arrays out of the process-wide cache.
        points_of = cached_codebook.__wrapped__
        sampled = (600, 1000, 1023, 1024, 2047, 4095, 4096, 10007, 16384, 65535, 65536,
                   100_000, 131_071, 262_143, 262_144, 500_000, 999_999, (1 << 20) - 1, 1 << 20)
        for side in (MIN_BOX_SIDE, 1e-14, 0.1, 1e6, MAX_BOX_SIDE):
            for u in (*range(1, 513), *sampled):
                points = points_of(u, side, mode)
                assert ((points >= 0) & (points < side)).all(), (side, u)
                assert (np.diff(points[:, 0]) >= 0).all(), (side, u)

    def test_points_read_only(self):
        cb = build_codebook(config(u=9))
        with pytest.raises(ValueError):
            cb.points[0, 0] = 0.0

    def test_geometry_bytes_are_pinned(self):
        # One digest over the points and ring bounds of 756 configs: both
        # modes, U in 1..39, 225, 4096 and 65536, three sides and three
        # centroids. Pinned before the points were cached per (U, l, mode).
        digest = hashlib.sha256()
        for mode in (GRID, PAPER):
            for u in (*range(1, 40), 225, 4096, 65536):
                for side in (1e-3, 0.1, 10.0):
                    for centroid in ((0.0, 0.0), (0.3, -0.2), (1e9, 1e9)):
                        cfg = CodebookConfig(side, u, 3, mode, centroid, 0.37 * side)
                        digest.update(build_codebook(cfg).points.tobytes())
                        digest.update(ring_error_bounds(cfg).tobytes())
        assert digest.hexdigest() == (
            "5195b4e773cc9705422d964fa92a0e760c15b5c3163ff2f5c39605a3ccc8d8e0")


class TestNearest:
    def test_codebook_point_recovers_itself(self):
        cb = build_codebook(config(u=16))
        idx, dist = cb.nearest_many(cb.points[3:4])
        assert (idx[0], dist[0]) == (3, 0.0)

    def test_exact_tie_prefers_smaller_index(self):
        # side 0.5 with centroid (0.5, 0.5) keeps every coordinate exactly
        # representable, so the midpoint of points 1 and 2 is a true tie
        cb = build_codebook(config(side=0.5, u=4))
        p1, p2 = cb.points[1], cb.points[2]
        mid = (p1 + p2) / 2.0
        d1 = ((p1 - mid) ** 2).sum()
        d2 = ((p2 - mid) ** 2).sum()
        assert d1 == d2  # genuine tie, bit for bit
        idx, _ = cb.nearest_many(mid.reshape(1, 2))
        assert idx[0] == 1

    @pytest.mark.parametrize("u", [1, 2, 5, 225, 361])
    def test_matches_exhaustive_scan(self, u):
        cfg = config(u=u, centroid=(0.2, -0.1), side=0.4)
        cb = build_codebook(cfg)
        rng = np.random.default_rng(u)
        # queries both inside the box and far outside it
        queries = np.vstack([
            rng.uniform(0.0, 0.4, size=(400, 2)) + np.array([0.0, -0.3]),
            rng.normal(size=(100, 2)) * 3.0,
        ])
        idx, dist = cb.nearest_many(queries)
        for q, got_i, got_d in zip(queries, idx, dist):
            want_i, want_d = exhaustive_nearest(cb.points, q)
            assert got_i == want_i
            assert got_d == want_d

    def test_covering_radius_grid_mode(self):
        for u, side in [(16, 0.5), (225, 0.1)]:
            cfg = config(side=side, u=u, centroid=(0.0, 0.0))
            cb = build_codebook(cfg)
            rng = np.random.default_rng(1)
            samples = rng.uniform(-side / 2, side / 2, size=(20_000, 2))
            _, dist = cb.nearest_many(samples)
            assert dist.max() <= ring_error_bounds(cfg)[0]

    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_sweep_matches_exhaustive_scan_small_u(self, mode):
        rng = np.random.default_rng(int(mode))
        for u in range(1, 401):
            cb = build_codebook(config(u=u, mode=mode, centroid=(0.2, -0.1)))
            queries = near_tie_queries(cb.config, cb.points, rng, cap=200)
            idx, _ = cb.nearest_many(queries)
            assert (idx == exhaustive_argmin(cb.points, queries)).all(), u

    @pytest.mark.parametrize("u", [529, 1000, 1024, 2047, 4096, 65536])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_sweep_matches_exhaustive_scan_large_u(self, u, mode):
        cb = build_codebook(config(u=u, mode=mode, centroid=(0.2, -0.1)))
        queries = near_tie_queries(cb.config, cb.points, np.random.default_rng(u), cap=600)
        idx, dist = cb.nearest_many(queries)
        want = exhaustive_argmin(cb.points, queries)
        assert (idx == want).all()
        diff = cb.points[want] - queries
        assert dist.tobytes() == np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    @pytest.mark.parametrize("u", [4, 9, 16, 64])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_exact_ties_across_rows(self, u, mode):
        # With side 0.5 every point and every query on a 1/256 grid is exactly
        # representable, so many queries tie between points of different rows,
        # some at a y-gap equal to the best distance found so far.
        cb = build_codebook(config(side=0.5, u=u, mode=mode))
        grid = np.arange(-64, 321) / 256
        queries = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        idx, _ = cb.nearest_many(queries)
        assert (idx == exhaustive_argmin(cb.points, queries)).all()

    @pytest.mark.parametrize("u", [225, 361, 1000, 4096, 65536])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_points_moved_to_the_top_row(self, u, mode):
        cfg = config(u=u, mode=mode, centroid=(0.2, -0.1))
        cb = build_codebook(cfg)
        root = math.isqrt(u)
        rows = point_rows(cfg, cb.points)
        moved = cb.points[rows == root]
        assert len(moved) > 0  # np.mod leaves some bottom-row points at y ~ l
        below = cb.points[rows == root - 1]
        nearest_below = below[exhaustive_argmin(below, moved)]
        bottom = cb.points[rows == 0]
        twin = bottom[exhaustive_argmin(bottom, moved - np.array([0.0, cfg.box_side]))]
        rng = np.random.default_rng(u)
        step = cfg.box_side / root
        queries = np.vstack([
            moved,
            (moved + nearest_below) / 2,
            (moved + twin) / 2,
            moved + rng.uniform(-step, step, size=moved.shape),
            moved + np.array([0.0, 3 * cfg.box_side]),
        ])
        idx, _ = cb.nearest_many(queries)
        assert (idx == exhaustive_argmin(cb.points, queries)).all()

    @pytest.mark.parametrize("u", [1, 2, 3, 9, 200, 225, 1000, 4096])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_matches_exhaustive_scan_far_from_origin(self, u, mode):
        # Far from the origin the shift into the box rounds at the scale of
        # the centroid, not of l: a fixed relative slack on the rounding
        # certificate picks wrong indices here; the error bound must follow
        # the magnitudes, and where it swamps l every query goes to the sweep.
        rng = np.random.default_rng([u, int(mode)])
        centroids = [(3e7, -3e7), (-2.5e7, 1.2e6), (1e6, 3e7), (0.2, -0.1)]
        for centroid in centroids:
            for side in (1e-4, 0.37, 10.0):
                cfg = config(side=side, u=u, mode=mode, centroid=centroid)
                cb = build_codebook(cfg)
                x_lo, x_hi, y_lo, y_hi = cfg.box
                pairs = rng.integers(0, u, size=(2, 300))
                near = np.minimum(pairs[0] + rng.choice([1, math.isqrt(u)], 300), u - 1)
                queries = np.vstack([
                    np.stack([rng.uniform(x_lo, x_hi, 300), rng.uniform(y_lo, y_hi, 300)], 1),
                    cb.points,
                    (cb.points[pairs[0]] + cb.points[pairs[1]]) / 2,
                    (cb.points[pairs[0]] + cb.points[near]) / 2,
                ])
                idx, _ = cb.nearest_many(queries)
                want = exhaustive_argmin(cb.points, queries)
                assert (idx == want).all(), (centroid, side)

    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_boxes_a_few_ulps_wide(self, mode):
        # With l at the ulp of the centroid, y_hi - y_lo can round to 2 l, so a
        # query clipped into the box rounds to a row position past isqrt(U).
        for base in (3e7, 0.3):
            for u in (9, 225, 1000):
                for j in range(4):
                    c = base + j * math.ulp(base)
                    for side in np.array([1, 1.5, 2, 3]) * math.ulp(base):
                        cb = build_codebook(config(side=side, u=u, mode=mode, centroid=(c, -c)))
                        rng = np.random.default_rng(u)
                        queries = np.vstack([
                            rng.uniform(-3, 3, size=(100, 2)) * side + np.array([c, -c]),
                            cb.points,
                        ])
                        idx, _ = cb.nearest_many(queries)
                        assert (idx == exhaustive_argmin(cb.points, queries)).all()

    def test_rounding_settles_most_queries(self):
        # A certificate too cautious to settle anything would pass every
        # exactness test while leaving all the work to the sweep.
        cb = build_codebook(config(side=0.1, u=225, centroid=(0.0, 0.0)))
        rng = np.random.default_rng(5)
        radius = 0.05 * np.sqrt(rng.uniform(size=20_000))
        angle = rng.uniform(0, 2 * np.pi, size=20_000)
        qx, qy = radius * np.cos(angle), radius * np.sin(angle)
        lam, dsq, settled = cb._round(np.stack([qx, qy], 1))
        assert settled.mean() >= 0.7
        queries = np.stack([qx, qy], 1)[settled]
        assert (lam[settled] == exhaustive_argmin(cb.points, queries)).all()
        diff = cb.points[lam[settled]] - queries
        assert dsq[settled].tobytes() == (diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    def test_rounding_settles_nearly_all_disc_queries(self):
        # The same disc queries: the box inside each lattice point's Voronoi
        # cell settles 95.8% of them.
        cb = build_codebook(config(side=0.1, u=225, centroid=(0.0, 0.0)))
        rng = np.random.default_rng(5)
        radius = 0.05 * np.sqrt(rng.uniform(size=20_000))
        angle = rng.uniform(0, 2 * np.pi, size=20_000)
        _, _, settled = cb._round(np.stack([radius * np.cos(angle), radius * np.sin(angle)], 1))
        assert settled.mean() >= 0.95

    @pytest.mark.parametrize("u", [1, 2, 3, 4, 9, 10, 15, 16, 200, 225, 361, 1000, 2047,
                                   4096, 65536])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_rounding_box_edges_match_exhaustive_scan(self, u, mode):
        # Queries a few ulps and a few err either side of the box's edges,
        # |d_x| = pitch/2 and |d_y| = h/2 - |d_x|*dx/h, of the box less its
        # margin, and of the flat top |d_y| = h/2, around random points:
        # whatever rounding settles must equal the exhaustive scan in index and
        # in dsq bytes. Each case says whether some query must settle: boxes a
        # few ulps wide settle none, and far from the origin at small l that
        # depends on U and the mode (the margin grows with the centroid's ulp).
        rng = np.random.default_rng([u, int(mode), 17])
        root = math.isqrt(u)
        cases = [((0.2, -0.1), 0.37, True), ((3e7, -3e7), 10.0, True),
                 ((3e7, -3e7), 0.37, None), ((-2.5e7, 1.2e6), 0.37, None),
                 ((1e6, 3e7), 1e-3, None)]
        cases += [((0.3, -0.3), k * math.ulp(0.3), False) for k in (1, 2, 3)]
        for centroid, side, settles in cases:
            cb = build_codebook(config(side=side, u=u, mode=mode, centroid=centroid))
            dx, h = direction_vector(u, side, mode)
            half = root * dx / 2
            margin = half - cb._box[0]
            ulp = math.ulp(max(abs(c) for c in cb.config.box))
            nudges = np.concatenate([
                np.array([-6, -3, -1, 0, 1, 3, 6]) * ulp,
                np.array([-4, -1, 1, 4]) * cb._err,
                -margin + np.array([-3, -1, 0, 1, 3]) * ulp,
            ])
            n = 300
            t = rng.uniform(0, half, n)
            edge_x = half + rng.choice(nudges, n)
            kinds = [
                (edge_x, rng.uniform(0, 1, n) * (h / 2 - half * dx / h)),  # x edge
                (t, h / 2 - t * dx / h + rng.choice(nudges, n)),  # slanted y edge
                (t, h / 2 + rng.choice(nudges, n)),  # flat top
                (edge_x, h / 2 - edge_x * dx / h + rng.choice(nudges, n)),  # corner
            ]
            d = np.vstack([np.stack(kind, 1) for kind in kinds])
            d *= rng.choice([-1.0, 1.0], size=d.shape)
            queries = cb.points[rng.integers(0, u, len(d))] + d
            lam, dsq, settled = cb._round(queries)
            assert settles is None or settled.any() == settles, (centroid, side)
            queries = queries[settled]
            assert (lam[settled] == exhaustive_argmin(cb.points, queries)).all(), (centroid, side)
            diff = cb.points[lam[settled]] - queries
            assert dsq[settled].tobytes() == (diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    @pytest.mark.parametrize("u", [9, 10, 15, 16, 200, 1000, 2047])
    @pytest.mark.parametrize("mode", [GRID, PAPER])
    def test_stencil_matches_exhaustive_scan(self, u, mode):
        # Row lengths differ when U is not a perfect square; queries out to 3 l
        # past the box, at the moved top-row points and midway to their
        # neighbours, and at midpoints within and across rows. Both the whole
        # lookup and what the stencil settles on its own must be exact.
        cfg = config(u=u, mode=mode, centroid=(0.2, -0.1))
        cb = build_codebook(cfg)
        rng = np.random.default_rng([u, int(mode)])
        rows = point_rows(cfg, cb.points)
        moved = cb.points[rows == math.isqrt(u)]
        step = cfg.box_side / math.isqrt(u)
        # Past the points' x extent (a strip l / isqrt(U) wide in PAPER_EQ),
        # two row spacings to 3 l on either side, where only the x-distance
        # to that extent can settle a query.
        x_min, x_max = cb.points[:, 0].min(), cb.points[:, 0].max()
        e = rng.uniform(2 * step, 3 * cfg.box_side, 500)
        past = np.stack([np.where(rng.random(500) < 0.5, x_min - e, x_max + e),
                         rng.uniform(cfg.box[2], cfg.box[3], 500)], 1)
        queries = np.vstack([
            near_tie_queries(cfg, cb.points, rng, cap=400),
            rng.uniform(-3.5, 3.5, size=(2000, 2)) * cfg.box_side + np.array(cfg.centroid),
            moved,
            moved + rng.uniform(-step, step, size=moved.shape),
            past,
        ])
        want = exhaustive_argmin(cb.points, queries)
        idx, _ = cb.nearest_many(queries)
        assert (idx == want).all()
        lam, dsq, settled = cb._stencil(queries[:, 0], queries[:, 1])
        assert settled[-len(past):].any()
        assert (lam[settled] == want[settled]).all()
        diff = cb.points[lam[settled]] - queries[settled]
        assert dsq[settled].tobytes() == (diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    def test_stencil_settles_what_rounding_leaves(self):
        # The sweep is the fallback for ties and extreme magnitudes, not a
        # second stage: on disc queries, as the encoder asks them, rounding
        # and the stencil together must settle nearly everything, exactly.
        cb = build_codebook(config(side=0.1, u=225, centroid=(0.0, 0.0)))
        rng = np.random.default_rng(6)
        radius = 0.05 * np.sqrt(rng.uniform(size=20_000))
        angle = rng.uniform(0, 2 * np.pi, size=20_000)
        qx, qy = radius * np.cos(angle), radius * np.sin(angle)
        _, _, rounded = cb._round(np.stack([qx, qy], 1))
        rest = np.flatnonzero(~rounded)
        lam, dsq, settled = cb._stencil(qx[rest], qy[rest])
        assert rounded.sum() + settled.sum() >= 0.99 * len(qx)
        rest = rest[settled]
        queries = np.stack([qx[rest], qy[rest]], 1)
        assert (lam[settled] == exhaustive_argmin(cb.points, queries)).all()
        diff = cb.points[lam[settled]] - queries
        assert dsq[settled].tobytes() == (diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(mode=st.sampled_from([GRID, PAPER]),
           u=st.sampled_from([*range(1, 10), 16, 225, 361, 1000, 4096, 65536]),
           side=st.sampled_from([1e-3, 0.1, 10.0]),
           cx=st.sampled_from(CENTROIDS), cy=st.sampled_from(CENTROIDS),
           seed=st.integers(0, 2**32 - 1))
    def test_lookup_matches_exhaustive_scan(self, mode, u, side, cx, cy, seed):
        # Queries inside the box, on its corners, and far past the PAPER_EQ
        # strip (l / isqrt(U) wide) on either side: indices, smallest on ties,
        # and distance bytes must equal a scan of all points, without a numpy
        # warning, at any centroid magnitude (at 1e16 every point collapses).
        cfg = config(side=side, u=u, mode=mode, centroid=(cx, cy))
        cb = build_codebook(cfg)
        rng = np.random.default_rng(seed)
        x_lo, x_hi, y_lo, y_hi = cfg.box
        n = 50
        strip = x_lo + side / math.isqrt(u)
        far = side * 10.0 ** rng.uniform(-3, 3, n)
        queries = np.vstack([
            np.stack([rng.uniform(x_lo, x_hi, n), rng.uniform(y_lo, y_hi, n)], 1),
            [[x, y] for x in (x_lo, x_hi) for y in (y_lo, y_hi)],
            np.stack([np.where(rng.random(n) < 0.5, x_lo - far, strip + far),
                      rng.uniform(y_lo - side, y_hi + side, n)], 1),
        ])
        with np.errstate(all="raise", under="ignore"):
            idx, dist = cb.nearest_many(queries)
        want = exhaustive_argmin(cb.points, queries)
        assert (idx == want).all()
        diff = cb.points[want] - queries
        assert dist.tobytes() == np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

    def test_lookup_memory_is_bounded(self):
        # 554,854 queries, one per pair of the 1300-650-325-160-2 model. The
        # two outputs take 8.9 MB; blocking keeps the sweep's temporaries to a
        # few MB more (15.6 MB in all, against 117.5 MB in one block).
        cb = build_codebook(config(u=65536, centroid=(0.0, 0.0)))
        queries = np.random.default_rng(11).uniform(-0.05, 0.05, size=(554_854, 2))
        tracemalloc.start()
        try:
            cb.nearest_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_rejects_non_finite_query(self):
        cb = build_codebook(config(u=4))
        with pytest.raises(ValueError):
            cb.nearest_many(np.array([[math.nan, 0.0]]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"side": 0.0},
            {"side": -1.0},
            {"side": math.inf},
            {"u": 0},
            {"u": MAX_NUM_POINTS + 1},
            {"m": -1},
            {"radius": -0.1},
            {"centroid": (math.nan, 0.0)},
            {"m": 65536},  # HCMP stores the ring count as a u16
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            config(**kwargs)

    def test_theta_bound(self):
        assert config(u=225, m=3).theta_bound == 900

    def test_largest_codebook_accepted(self):
        assert config(u=MAX_NUM_POINTS).num_points == 1 << 20

    def test_largest_ring_count_accepted(self):
        assert config(m=MAX_CATEGORY).max_category == 65535
