"""Round trips stay within their ring's error bound plus rounding, run as its own process.

Hypothesis draws 1,000 derandomized cases: a weight vector of 1 to 64 values
of very different magnitudes, a direction mode, U from 1 to 2^20, a box side
and a ring count. Each case encodes and decodes the vector, and every pair must
decode finite and within ``ring_error_bounds`` of its stored ring plus
``rounding_terms``; a vector the encoder refuses with DataError or
ConsistencyError passes. The process caps its address space at 2 GiB before
the first case and gives each case a deadline, so a case that needs more
memory or time than the cached points and covering radius allow fails here.
The round-trip helpers are imported by ``test_codec.py`` too.

Usage: PYTHONPATH=src python -W error tests/roundtrip_bounds.py [EXAMPLES]
Exits 0 when every case passes; hypothesis prints the failing case otherwise.
"""

import math
import resource
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypc import codec
from hypc.codebook import CodebookConfig, DirectionMode
from hypc.codec import (
    EncodedLayer,
    EncodeParams,
    decode_layer,
    encode_layer,
    group_pairs,
    ring_error_bounds,
    unpack_bits,
)
from hypc.errors import ConsistencyError, DataError

GRID, PAPER = DirectionMode.GRID_SHEAR, DirectionMode.PAPER_EQ
DEADLINE_MS = 3000  # per case: ten times the slowest seen, 0.27 s at U = 2^20


def stored_rings(enc: EncodedLayer) -> np.ndarray:
    """Each pair's ring as the decoder reads it: its stored code div U."""
    return unpack_bits(enc.payload, enc.bit_width, enc.group_count) // enc.config.num_points


def rounding_terms(cfg: CodebookConfig) -> np.ndarray:
    """Per-ring float64 slack of a round trip on top of ring_error_bounds:
    20 ulp(a) / s_m with a = max(|cx|, |cy|) + l, plus, when M = 0, what the
    encoder accepts past l/2 (1e-9 relative).

    With u = 2^-53 and E = ulp(a) > u*a, an operation whose exact result is at
    most a in magnitude errs by at most E/2, one at most a/s_m by under E/s_m.
    In the plane: the rescale (p - c)*s + c errs by 2.2 E (per coordinate its
    first two roundings u*l/2 each, as |p - c|*s <= l/2, then E/2); a stored
    point w + (c - l/2) by 1.5 E; the exact rescaled pair lies under 3.5 E past
    the disc of radius l/2 (ring rounding); and the scan's float distances
    pick a point at most 4u times a distance under 1.42 l, < 5.7 E, past the
    nearest. So the chosen point is within B + 3.5 + 2*2.2 + 1.5 + 5.7 < B +
    15.2 E of the exact rescaled pair (the rescale counts once to reach the
    float pair and once to come back), decoding divides that exactly by s_m,
    and (q - c)/s + c errs by 2.5 E/s_m per coordinate, 3.6 in the plane:
    under 19 E/s_m in all. Near float collapse (1e16 weights, l = 0.1) this
    term dominates the bound.
    """
    a = max(map(abs, cfg.centroid)) + cfg.box_side
    scales = codec._scale_factors(np.arange(cfg.max_category + 1), cfg)
    accepted = 0.0 if cfg.max_category else codec._OVER_RTOL * cfg.box_side / 2
    return 20 * math.ulp(a) / scales + accepted


def pair_errors(weights: np.ndarray, enc: EncodedLayer) -> np.ndarray:
    """Distance from each encoded pair to its decoded pair; a padded layer's
    last pair compares its x alone."""
    points, padded, _ = group_pairs(weights)
    restored = decode_layer(enc)
    if padded:
        restored = np.append(restored, points[-1, 1])
    return np.hypot(*(points - restored.reshape(-1, 2)).T)


def weight_vectors():
    """Float64 vectors of 1 to 64 weights in runs of one value: subnormals and
    zeros, 1e16 plus small even integers, one decade from 1e-300 to 1e150 of
    either sign, and +-1e160 (whose squared distance overflows)."""
    decade = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.9),
                       st.integers(-300, 150)).map(lambda t: t[0] * t[1] * 10.0 ** t[2])
    value = st.one_of(st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True),
                      st.integers(-8, 8).map(lambda k: 1e16 + 2 * k),
                      decade, st.sampled_from([1e160, -1e160]))
    runs = st.lists(st.tuples(value, st.integers(1, 8)), min_size=1, max_size=8)
    return runs.map(lambda r: np.array([v for v, n in r for _ in range(n)]))


def check(examples: int) -> None:
    @settings(max_examples=examples, deadline=DEADLINE_MS, database=None, derandomize=True)
    @given(weights=weight_vectors(), mode=st.sampled_from([GRID, PAPER]),
           u=st.sampled_from([1, 2, 3, 4, 5, 9, 16, 225, 361, 4096, 65536, 1 << 20]),
           side=st.sampled_from([1e-3, 0.1, 10.0]), m=st.sampled_from([0, 1, 3, 15]))
    # Near float collapse the rescale's rounding dominates: these pairs decode
    # 4.0 to 6.3 away, against grid ring bounds of 0.80 to 1.20.
    @example(weights=1e16 + np.array([0.0, 2, -2, 4, 6, -4, 8, 2]), mode=GRID, u=225,
             side=0.1, m=3)
    def within_ring_bounds_plus_rounding(weights, mode, u, side, m):
        try:
            enc = encode_layer(weights, "w", weights.shape, EncodeParams(side, u, m, mode))
        except (DataError, ConsistencyError):
            return
        errors = pair_errors(weights, enc)
        limits = (ring_error_bounds(enc.config) + rounding_terms(enc.config))[stored_rings(enc)]
        assert np.isfinite(decode_layer(enc)).all()
        assert (errors <= limits).all(), (errors / limits).max()

    within_ring_bounds_plus_rounding()


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    check(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
