import numpy as np
import pytest

import hypc.percolation as percolation
from hypc.percolation import (
    LatticeSpec,
    PercolationEstimate,
    _trial_seed,
    check_g2_isomorphism,
    estimate_threshold,
    percolation_trial,
    solve_p0,
)


def union_find_crosses(kernel, width, height, p, seed):
    """Independent oracle: lists the bonds itself, in (column, row, offset)
    order, and joins their open ends with a union-find."""
    draws = np.random.default_rng(seed).random((width - 1) * height * kernel).tolist()
    parent = {}

    def root(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    k = 0
    for m in range(width - 1):
        for n in range(height):
            for i in range(kernel):
                if draws[k] < p:
                    parent[root((m, n))] = root((m + 1, (n + i) % height))
                k += 1
    left = {root((0, n)) for n in range(height)}
    return any(root((width - 1, n)) in left for n in range(height))


# Rough crossing thresholds of the 30 x 30 lattice, per kernel.
NEAR_THRESHOLD = {2: 0.5, 3: 0.31, 4: 0.22}


class TestTrial:
    @pytest.mark.parametrize("kernel", [2, 3, 4])
    def test_matches_union_find_oracle(self, kernel):
        pc = NEAR_THRESHOLD[kernel]
        geometries = [(2, kernel), (2, 15), (25, kernel), (30, 30)]
        near = []
        for width, height in geometries:
            for p in (0.0, 1.0, pc - 0.02, pc, pc + 0.02):
                for seed in range(8):
                    spec = LatticeSpec(kernel, width, height, p, seed)
                    expected = union_find_crosses(kernel, width, height, p, seed)
                    assert percolation_trial(spec) == expected, spec
                    if (width, height) == (30, 30) and 0.0 < p < 1.0:
                        near.append(expected)
        assert 0 < sum(near) < len(near)  # both outcomes occur near threshold

    def test_all_open_crosses(self):
        assert percolation_trial(LatticeSpec(2, 30, 20, 1.0, seed=0)) is True

    def test_all_closed_does_not_cross(self):
        assert percolation_trial(LatticeSpec(2, 30, 20, 0.0, seed=0)) is False

    def test_reproducible(self):
        spec = LatticeSpec(3, 40, 40, 0.41, seed=123)
        assert percolation_trial(spec) == percolation_trial(spec)

    def test_subcritical_rarely_crosses(self):
        crossings = sum(
            percolation_trial(LatticeSpec(2, 200, 200, 0.3, seed=s))
            for s in range(200)
        )
        assert crossings / 200 < 0.1

    def test_kernel_three_threshold_below_one_third(self):
        # The undirected kernel-3 lattice percolates below the paper's 1/3
        # lower bound; a directed lattice (threshold ~0.41) would rarely cross
        # at p = 1/3.
        def frequency(p):
            return sum(
                percolation_trial(LatticeSpec(3, 200, 200, p, seed=s))
                for s in range(100)
            ) / 100

        assert frequency(1 / 3) >= 0.9
        assert frequency(0.30) <= 0.1

    def test_monotone_in_p_with_coupled_draws(self):
        for seed in range(30):
            previous = False
            for p in np.linspace(0.0, 1.0, 11):
                crossed = percolation_trial(LatticeSpec(2, 40, 40, float(p), seed))
                assert crossed or not previous  # once crossing, always crossing
                previous = previous or crossed

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(1, 10, 10, 0.5, 0)
        with pytest.raises(ValueError):
            LatticeSpec(2, 1, 10, 0.5, 0)
        with pytest.raises(ValueError):
            LatticeSpec(2, 10, 10, 1.5, 0)
        with pytest.raises(ValueError):
            LatticeSpec(12, 10, 10, 0.5, 0)  # kernel larger than height

    def test_bond_cap(self):
        LatticeSpec(2, 2049, 1024, 0.5, 0)  # exactly MAX_BONDS bonds
        with pytest.raises(ValueError, match="lattice has 4198400 bonds"):
            LatticeSpec(2, 2049, 1025, 0.5, 0)
        with pytest.raises(ValueError, match="bonds"):
            LatticeSpec(2, 100_000, 100_000, 0.5, 0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            LatticeSpec(2, 10, 10, 0.5, -1)


class TestEstimate:
    def test_square_lattice_threshold_small_scale(self):
        est = estimate_threshold(2, 100, 100, trials=100, seed=7)
        assert 0.46 <= est.p_hat <= 0.54
        lo, hi = est.interval
        assert lo <= est.p_hat <= hi

    def test_kernel_bounds_property(self):
        # walk-counting lower bound: at most 2r-1 continuations per step of a
        # self-avoiding walk on the degree-2r graph, so p_c >= 1/(2r-1)
        p0 = solve_p0()
        estimates = {}
        for kernel in (3, 4, 5):
            est = estimate_threshold(kernel, 100, 100, trials=100, seed=11)
            estimates[kernel] = est.p_hat
            assert 1.0 / (2 * kernel - 1) <= est.p_hat <= p0 + 0.005
        # denser kernels cannot percolate later
        assert estimates[4] <= estimates[3] + 0.02
        assert estimates[5] <= estimates[4] + 0.02

    def test_json_shape(self):
        est = estimate_threshold(2, 50, 50, trials=50, seed=0)
        d = est.to_json_dict()
        assert set(d) == {"r", "H", "W", "trials", "p_hat", "interval"}
        assert d["r"] == 2 and len(d["interval"]) == 2

    @pytest.mark.parametrize(
        "kernel, height, width, trials, probes, seed",
        [
            (2, 8, 12, 50, 10, 0),
            (2, 40, 40, 80, 16, 3),
            (3, 20, 9, 64, 12, 5),
            (3, 36, 24, 50, 14, 8),
            (4, 12, 40, 73, 11, 13),
            (4, 30, 16, 80, 13, 21),
            # 58-62 probes: mid reaches float resolution and repeats
            (2, 10, 10, 50, 58, 1),
            (3, 12, 8, 60, 60, 2),
            (4, 9, 14, 55, 62, 3),
        ],
    )
    def test_matches_full_bisection(self, kernel, height, width, trials, probes, seed):
        # Reference: every trial re-run at every probe.
        seeds = [_trial_seed(seed, t) for t in range(trials)]
        lo, hi = 0.0, 1.0
        for _ in range(probes):
            mid = 0.5 * (lo + hi)
            crossings = sum(
                percolation_trial(LatticeSpec(kernel, width, height, mid, s))
                for s in seeds
            )
            if crossings / trials >= 0.5:
                hi = mid
            else:
                lo = mid
        expected = PercolationEstimate(
            kernel, height, width, trials, probes, 0.5 * (lo + hi), 0.5 * (hi - lo)
        )
        assert estimate_threshold(kernel, height, width, trials, probes, seed) == expected

    def test_settled_trials_are_not_rerun(self, monkeypatch):
        # The second case has 60 probes, so mid reaches float resolution.
        for args in ((2, 30, 30, 60, 12, 4), (3, 12, 10, 55, 60, 9)):
            self._check_probe_calls(monkeypatch, *args)

    @staticmethod
    def _check_probe_calls(monkeypatch, kernel, height, width, trials, probes, seed):
        seeds = [_trial_seed(seed, t) for t in range(trials)]
        need = (trials + 1) // 2

        # Full bisection: every trial's outcome at every probe.
        path = []
        lo, hi = 0.0, 1.0
        for _ in range(probes):
            mid = 0.5 * (lo + hi)
            outcomes = {
                s: percolation_trial(LatticeSpec(kernel, width, height, mid, s))
                for s in seeds
            }
            crossing = sum(outcomes.values()) >= need
            path.append((mid, crossing, outcomes))
            if crossing:
                hi = mid
            else:
                lo = mid

        calls = []

        def recording_trial(spec):
            crossed = percolation_trial(spec)
            calls.append((spec.seed, spec.p, crossed))
            return crossed

        monkeypatch.setattr(percolation, "percolation_trial", recording_trial)
        estimate_threshold(kernel, height, width, trials, probes, seed)

        # Replay the calls probe by probe against each trial's bracket.
        fails_at = dict.fromkeys(seeds, -np.inf)
        crosses_at = dict.fromkeys(seeds, np.inf)
        pos = 0
        for mid, crossing, outcomes in path:
            crossings = sum(crosses_at[s] <= mid for s in seeds)
            pending = sum(fails_at[s] < mid < crosses_at[s] for s in seeds)
            while pos < len(calls) and calls[pos][1] == mid:
                s, p, crossed = calls[pos]
                pos += 1
                assert fails_at[s] < p < crosses_at[s]  # the bracket holds mid
                assert crossings < need <= crossings + pending  # verdict still open
                assert crossed == outcomes[s]
                pending -= 1
                if crossed:
                    crosses_at[s] = p
                    crossings += 1
                else:
                    fails_at[s] = p
            # The probe stopped once settled, on the full bisection's verdict.
            assert crossings >= need or crossings + pending < need
            assert (crossings >= need) == crossing
        assert pos == len(calls)
        assert len({(s, p) for s, p, _ in calls}) == len(calls)

        # Fewer calls than re-running only the trials that earlier probes
        # left unsettled.
        undecided = set(seeds)
        settled_only = 0
        for _, crossing, outcomes in path:
            settled_only += len(undecided)
            undecided = {s for s in undecided if outcomes[s] == crossing}
        assert len(calls) < settled_only

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_threshold(2, 50, 50, trials=10)
        with pytest.raises(ValueError):
            estimate_threshold(2, 50, 50, trials=50, probes=5)

    @pytest.mark.parametrize(
        "height, width, seed, message",
        [(100_000, 100_000, 0, "bonds"), (50, 50, -3, "seed must be >= 0")],
    )
    def test_lattice_checked_before_seeds(self, monkeypatch, height, width, seed, message):
        def no_seed(seed, index):
            raise AssertionError("trial seeds derived before the lattice was checked")

        monkeypatch.setattr(percolation, "_trial_seed", no_seed)
        with pytest.raises(ValueError, match=message):
            estimate_threshold(2, height, width, trials=50, seed=seed)


class TestP0:
    def test_reference_value(self):
        assert solve_p0() == pytest.approx(0.425787, abs=1e-5)

    def test_residual(self):
        p = solve_p0()
        assert abs(2 * p + p * p - p**4 - 1) < 1e-9

    def test_unique_root_on_unit_interval(self):
        grid = np.linspace(1e-9, 1 - 1e-9, 10_000)
        values = 2 * grid + grid**2 - grid**4 - 1
        sign_changes = int(np.sum(np.diff(np.sign(values)) != 0))
        assert sign_changes == 1


class TestIsomorphism:
    def test_small_patch(self):
        assert check_g2_isomorphism(2) is True

    def test_large_patch(self):
        assert check_g2_isomorphism(50) is True

    def test_identity_map_is_no_isomorphism(self):
        assert check_g2_isomorphism(2, vertex_map=lambda m, n: (m, n)) is False
        assert check_g2_isomorphism(50, vertex_map=lambda m, n: (m, n)) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            check_g2_isomorphism(1)
