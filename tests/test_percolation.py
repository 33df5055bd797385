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


class TestTrial:
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
        calls = []
        real_trial = percolation.percolation_trial

        def recording_trial(spec):
            crossed = real_trial(spec)
            calls.append((spec.seed, spec.p, crossed))
            return crossed

        monkeypatch.setattr(percolation, "percolation_trial", recording_trial)
        trials, probes = 60, 12
        estimate_threshold(2, 30, 30, trials=trials, probes=probes, seed=4)

        probes_run: dict[float, dict[int, bool]] = {}
        for s, p, crossed in calls:
            probes_run.setdefault(p, {})[s] = crossed
        ps = list(probes_run)
        assert sorted(probes_run[ps[0]]) == sorted(_trial_seed(4, t) for t in range(trials))
        for p, next_p in zip(ps, ps[1:]):
            # a lower next probe re-runs only the trials that crossed at p,
            # a higher one only those that failed
            outcomes = probes_run[p]
            undecided = {s for s, c in outcomes.items() if c == (next_p < p)}
            assert set(probes_run[next_p]) == undecided
        assert len({(s, p) for s, p, _ in calls}) == len(calls)
        assert len(calls) < trials * probes

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_threshold(2, 50, 50, trials=10)
        with pytest.raises(ValueError):
            estimate_threshold(2, 50, 50, trials=50, probes=5)


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
