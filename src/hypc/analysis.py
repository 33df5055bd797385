"""Error metrics, compression ratios, and the layer-output error-bound check."""

from __future__ import annotations

import numpy as np

from .codec import EncodeParams, _tree_sum, decode_layer, encode_layer
from .errors import DataError


def error_stats(original, restored) -> dict[str, float]:
    """max_abs / mean_abs / rmse between two equal-length weight vectors. The
    float64 difference (cast as by asarray) is formed one _tree_sum leaf at a
    time, |d| then d*d in place, so both means add in the order of one
    whole-array mean, bit for bit. Inputs are never written."""
    a = np.asarray(original).ravel()
    b = np.asarray(restored).ravel()
    if a.size != b.size:
        raise DataError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        return {"max_abs": 0.0, "mean_abs": 0.0, "rmse": 0.0}
    peaks = []

    def leaf(lo: int, hi: int) -> np.ndarray:
        diff = np.subtract(a[lo:hi], b[lo:hi], dtype=np.float64, casting="unsafe")
        np.abs(diff, out=diff)
        peaks.append(diff.max())
        abs_sum = np.add.reduce(diff)
        diff *= diff
        return np.array([abs_sum, np.add.reduce(diff)])

    abs_sum, square_sum = _tree_sum(a.size, leaf)
    return {"max_abs": float(np.max(peaks)), "mean_abs": float(abs_sum / a.size),
            "rmse": float(np.sqrt(square_sum / a.size))}


def compression_ratio(original_bytes: float, compressed_bytes: float) -> float:
    """Plain size quotient; scale-invariant."""
    if original_bytes <= 0 or compressed_bytes <= 0:
        raise ValueError("byte counts must be positive")
    return original_bytes / compressed_bytes


def validate_error_bound(
    sample_count: int,
    input_dim: int,
    params: EncodeParams | None = None,
    trials: int = 100,
    seed: int = 0,
) -> dict[str, float]:
    """Check the pre-activation and ReLU output-error bounds over random trials.

    Per trial: draw inputs uniform in [0,1]^(sample_count x input_dim) and a
    weight vector uniform in [0,1]^input_dim, round-trip the weights through the
    codec, and verify that the L1 output discrepancy never exceeds
    2 * sample_count * input_dim * eps, with eps the worst per-weight error.
    With the constant factor pinned at its upper end the inequality is a
    deterministic consequence, so the pass fraction must be exactly 1.
    """
    if sample_count < 1 or input_dim < 1:
        raise ValueError("sample_count and input_dim must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = params or EncodeParams()

    passed_pre = 0
    passed_act = 0
    passed_both = 0
    max_ratio = 0.0
    eps_max = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        x = rng.random((sample_count, input_dim))
        w = rng.random(input_dim)
        enc = encode_layer(w, "trial", (input_dim,), params)
        q = decode_layer(enc)
        eps = float(np.abs(w - q).max())
        eps_max = max(eps_max, eps)
        bound = 2.0 * sample_count * input_dim * eps
        out_w = x @ w
        out_q = x @ q
        lhs_pre = float(np.abs(out_w - out_q).sum())
        lhs_act = float(np.abs(np.maximum(out_w, 0.0) - np.maximum(out_q, 0.0)).sum())
        ok_pre = lhs_pre <= bound
        ok_act = lhs_act <= bound
        passed_pre += ok_pre
        passed_act += ok_act
        passed_both += ok_pre and ok_act
        worst = max(lhs_pre, lhs_act)
        if bound > 0.0:
            max_ratio = max(max_ratio, worst / bound)
        elif worst > 0.0:
            max_ratio = float("inf")
    return {
        "trials": trials,
        "pass_fraction": passed_both / trials,
        "pass_fraction_preactivation": passed_pre / trials,
        "pass_fraction_relu": passed_act / trials,
        "max_ratio_observed": max_ratio,
        "epsilon_max": eps_max,
    }
