import math
import tracemalloc

import numpy as np
import pytest

from hypc.analysis import compression_ratio, error_stats, validate_error_bound
from hypc.codec import EncodeParams
from hypc.errors import DataError


class TestErrorStats:
    def test_identical_vectors(self):
        stats = error_stats([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert stats == {"max_abs": 0.0, "mean_abs": 0.0, "rmse": 0.0}

    def test_hand_example(self):
        stats = error_stats([0.0, 1.0], [0.0, 0.5])
        assert stats["max_abs"] == 0.5
        assert stats["mean_abs"] == 0.25
        assert stats["rmse"] == pytest.approx(math.sqrt(0.125))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            error_stats([1.0], [1.0, 2.0])

    @staticmethod
    def separate_temporaries(original, restored):
        """The formula error_stats used before it worked in place: an oracle."""
        a = np.asarray(original, dtype=np.float64).ravel()
        b = np.asarray(restored, dtype=np.float64).ravel()
        diff = np.abs(a - b)
        return {
            "max_abs": float(diff.max()),
            "mean_abs": float(diff.mean()),
            "rmse": float(np.sqrt(np.mean(diff * diff))),
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64, list])
    def test_matches_separate_temporaries(self, dtype):
        rng = np.random.default_rng(1)
        a = rng.normal(scale=50.0, size=(40, 25))
        b = a + rng.normal(scale=3.0, size=a.shape)
        if dtype is list:
            a, b = a.tolist(), b.ravel().tolist()
        else:
            a, b = a.astype(dtype), b.astype(dtype)
        assert error_stats(a, b) == self.separate_temporaries(a, b)

    def test_mixed_precisions_match_separate_temporaries(self):
        rng = np.random.default_rng(2)
        a = rng.random(1001, dtype=np.float32)
        b = rng.random(1001)
        assert error_stats(a, b) == self.separate_temporaries(a, b)
        assert error_stats(b, a) == self.separate_temporaries(b, a)

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 20))
        b = rng.normal(size=600)
        before = a.copy(), b.copy()
        error_stats(a, b)  # ravel of a C-contiguous float64 array is a view
        error_stats(a[5:25].T, b[100:500])  # views, one of them transposed
        error_stats(b[::2], a.ravel()[1::2])
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16,
                                      2**16 + 1, 2 * 2**16 + 7, 2 * 2**16 + 13, 1_109_707])
    def test_blocked_sums_match_one_array_means(self, size):
        # The differences are summed leaf by leaf along numpy's pairwise tree,
        # so both means carry the bits of one whole-array mean. Magnitudes
        # spread over twelve decades make any other summation order show.
        rng = np.random.default_rng(size)
        a = (rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6, size)).astype(np.float32)
        b = rng.random(size, dtype=np.float32)
        assert error_stats(a, b) == self.separate_temporaries(a, b)

    def test_blocked_sums_match_on_random_sizes_and_views(self):
        rng = np.random.default_rng(5)
        for size in rng.integers(1, 600_000, size=6):
            a = rng.normal(size=size)
            b = rng.normal(size=size).astype(np.float32)
            assert error_stats(a, b) == self.separate_temporaries(a, b)
        grid = rng.normal(size=(700, 300))
        other = rng.normal(size=(300, 700))
        for x, y in ((grid.T, other), (grid[::3], other[:, ::3].T),
                     (grid.ravel()[::2], other.ravel()[1::2])):
            assert error_stats(x, y) == self.separate_temporaries(x, y)

    def test_peak_memory(self):
        # The model's 1.1 M weights as float32: the float64 difference is
        # formed one leaf of at most 2^16 values (0.5 MiB) at a time; measured
        # peak 0.4 MiB, against 8.5 MiB for one whole-array difference and
        # 33.6 MiB with separate float64 copies, difference, |d| and square.
        rng = np.random.default_rng(4)
        a = rng.random(1_100_000, dtype=np.float32)
        b = rng.random(1_100_000, dtype=np.float32)
        tracemalloc.start()
        try:
            error_stats(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2**20, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_difference_reaches_max_abs(self, bad):
        # A NaN in any leaf propagates to max_abs, as in one whole-array max.
        a = np.zeros(3 * 2**16, dtype=np.float32)
        a[2**16 + 5] = bad
        with np.errstate(invalid="ignore"):
            stats = error_stats(a, np.zeros_like(a))
        assert math.isnan(stats["max_abs"]) if np.isnan(bad) else stats["max_abs"] == np.inf


class TestCompressionRatio:
    def test_reference_file_sizes(self):
        # 51.10 MB over 6.49 MB rounds to the reported 7.87x
        assert round(compression_ratio(51.10, 6.49), 2) == 7.87

    def test_equal_sizes(self):
        assert compression_ratio(123, 123) == 1.0

    def test_ten_bit_payload_ratio(self):
        assert compression_ratio(64, 10) == 6.4

    def test_scale_invariance(self):
        assert compression_ratio(7 * 100, 3 * 100) == compression_ratio(7, 3)

    def test_positive_only(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 1)
        with pytest.raises(ValueError):
            compression_ratio(1, -2)


class TestValidateErrorBound:
    def test_small_run_passes_deterministically(self):
        report = validate_error_bound(8, 16, trials=10, seed=42)
        assert report["trials"] == 10
        assert report["pass_fraction"] == 1.0
        assert report["pass_fraction_preactivation"] == 1.0
        assert report["pass_fraction_relu"] == 1.0
        assert 0.0 < report["max_ratio_observed"] <= 1.0
        assert report["epsilon_max"] > 0.0

    def test_relu_never_exceeds_preactivation(self):
        # 1-Lipschitz contraction: check on explicit draws
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random((6, 9))
            w = rng.random(9)
            q = w + rng.normal(scale=1e-3, size=9)
            pre = np.abs(x @ w - x @ q).sum()
            act = np.abs(np.maximum(x @ w, 0) - np.maximum(x @ q, 0)).sum()
            assert act <= pre

    def test_lossless_case_trivially_holds(self):
        w = np.full(16, 0.5)
        x = np.random.default_rng(1).random((4, 16))
        assert np.abs(x @ w - x @ w).sum() == 0.0

    def test_report_is_json_serializable(self):
        import json

        report = validate_error_bound(4, 8, trials=3, seed=0)
        parsed = json.loads(json.dumps(report))
        assert set(parsed) >= {"trials", "pass_fraction", "max_ratio_observed",
                               "epsilon_max"}

    def test_custom_params_respected(self):
        report = validate_error_bound(
            4, 8, params=EncodeParams(num_points=64), trials=3, seed=0
        )
        assert report["pass_fraction"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            validate_error_bound(0, 8)
        with pytest.raises(ValueError):
            validate_error_bound(8, 8, trials=0)
