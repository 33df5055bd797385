"""One sha256 digest of what encode_layer and decode_layer give over a grid of configs.

A change that should leave every output byte unchanged must leave this digest
unchanged; it covers configs the pinned model files and the frozen corpus do
not reach. The grid, loop order outermost first:

    mode      GRID_SHEAR, PAPER_EQ
    U         1, 2, 3, 15, 16, 225, 361, 4095, 4096, 65536, 2^20
    l         1e-14, 0.1, 1e6
    M         0, 3, 15
    centroid  near (0, 0), near (1e9, 1e9)
    input     "odd":       301 float32 weights, centroid + l * N(0, 1)
              "float64":   300 float64 weights, centroid + l * U(-0.3, 0.3)
              "12-decade": 300 float64 weights, centroid +- l * 10^U(-6, 6)

Each input draws from its own fixed seed, so the weights of a case do not
depend on the loop order. Per case the digest takes the case's repr, then either
the encoded layer's config repr, bit width, pad value repr and payload, and
decode_layer's bytes in float64 and in float32, or the type and message of the
error that refused the case (an encode or a decode may be refused).

Usage: PYTHONPATH=src python tests/codec_digest.py
Prints the case count, the digest and the run time; exits 1 when the digest is
not PINNED.
"""

import hashlib
import sys
import time

import numpy as np

from hypc.codebook import DirectionMode
from hypc.codec import EncodeParams, decode_layer, encode_layer
from hypc.errors import HypcError

PINNED = "ff7132279021ec555dc7510eafb7f5664732cbb5a8988ecde6db3f3ee0e43bed"

MODES = (DirectionMode.GRID_SHEAR, DirectionMode.PAPER_EQ)
NUM_POINTS = (1, 2, 3, 15, 16, 225, 361, 4095, 4096, 65536, 1 << 20)
BOX_SIDES = (1e-14, 0.1, 1e6)
RINGS = (0, 3, 15)
CENTROIDS = (0.0, 1e9)


def inputs(box_side: float, centroid: float):
    """(name, weights) of the three inputs around one centroid."""
    odd = np.random.default_rng(1).normal(size=301)
    yield "odd", (centroid + box_side * odd).astype(np.float32)
    flat = np.random.default_rng(2).uniform(-0.3, 0.3, size=300)
    yield "float64", centroid + box_side * flat
    rng = np.random.default_rng(3)
    decades = rng.choice([-1.0, 1.0], size=300) * 10.0 ** rng.uniform(-6, 6, size=300)
    yield "12-decade", centroid + box_side * decades


def cases():
    for mode in MODES:
        for num_points in NUM_POINTS:
            for box_side in BOX_SIDES:
                for rings in RINGS:
                    for centroid in CENTROIDS:
                        for name, weights in inputs(box_side, centroid):
                            params = EncodeParams(box_side, num_points, rings, mode)
                            yield (params, centroid, name), weights


def digest() -> tuple[str, int]:
    """(hex digest, case count) over the whole grid."""
    h = hashlib.sha256()
    count = 0
    for case, weights in cases():
        count += 1
        h.update(repr(case).encode())
        try:
            enc = encode_layer(weights, "w", weights.shape, case[0])
            h.update(f"{enc.config!r} {enc.bit_width} {enc.pad_value!r}".encode())
            h.update(enc.payload)
            for dtype in (np.float64, np.float32):
                h.update(decode_layer(enc, dtype).tobytes())
        except HypcError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest(), count


def main() -> int:
    start = time.perf_counter()
    value, count = digest()
    print(f"{count} cases, digest {value}, {time.perf_counter() - start:.1f} s")
    return 0 if value == PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
