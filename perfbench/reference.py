"""Computations the benchmark makes apart from hypc, to check its outputs.

Nothing here imports hypc: inputs are generated, files are parsed and the
expected results are derived from the formats and formulas hypc documents,
so a fault in the program cannot hide in the check.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# The reference model: a 1300-650-325-160-2 MLP, 1,109,707 float32 weights.
LAYER_DIMS = (1300, 650, 325, 160, 2)
NTB_MAGIC = b"NTB1"


def make_model(seed: int) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    """(name, shape, flat float32 array) per tensor, uniform in [-0.5, 0.5)."""
    rng = np.random.default_rng([seed, 1])
    tensors = []
    for i, (fan_in, fan_out) in enumerate(zip(LAYER_DIMS, LAYER_DIMS[1:])):
        w = rng.random(fan_in * fan_out, dtype=np.float32) - np.float32(0.5)
        b = rng.random(fan_out, dtype=np.float32) - np.float32(0.5)
        tensors.append((f"layer{i}.weight", (fan_out, fan_in), w))
        tensors.append((f"layer{i}.bias", (fan_out,), b))
    return tensors


def make_inputs(seed: int, stream: int, rows: int) -> np.ndarray:
    """Float32 input rows uniform in [0, 1), one stream per use."""
    rng = np.random.default_rng([seed, 2, stream])
    return rng.random((rows, LAYER_DIMS[0]), dtype=np.float32)


def dump_ntb(tensors) -> bytes:
    parts = [NTB_MAGIC, struct.pack("<I", len(tensors))]
    for name, shape, data in tensors:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
        parts.append(struct.pack("<B", len(shape)))
        parts.extend(struct.pack("<Q", d) for d in shape)
        parts.append(struct.pack("<B", 0))
        parts.append(np.asarray(data, dtype="<f4").tobytes())
    return b"".join(parts)


def load_ntb(blob: bytes) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    if blob[:4] != NTB_MAGIC:
        raise ValueError("not an NTB file")
    (count,) = struct.unpack_from("<I", blob, 4)
    pos = 8
    tensors = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + length].decode("utf-8")
        pos += 2 + length
        rank = blob[pos]
        shape = struct.unpack_from(f"<{rank}Q", blob, pos + 1)
        pos += 1 + 8 * rank
        if blob[pos] != 0:
            raise ValueError(f"tensor {name!r}: dtype tag {blob[pos]} is not float32")
        n = math.prod(shape)
        data = np.frombuffer(blob, dtype="<f4", count=n, offset=pos + 1).astype(np.float32)
        pos += 1 + 4 * n
        tensors.append((name, tuple(shape), data))
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes")
    return tensors


def write_csv(path, inputs: np.ndarray, labels: np.ndarray) -> None:
    """x1..xd,label rows; 9 significant digits round-trip float32 exactly."""
    header = ",".join(f"x{i + 1}" for i in range(inputs.shape[1])) + ",label"
    lines = [header]
    for row, y in zip(inputs, labels):
        lines.append(",".join(format(float(v), ".9g") for v in row) + f",{int(y)}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Float32 MLP: ReLU after every layer but the last."""
    for i, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if i < len(layers) - 1:
            x = np.maximum(x, np.float32(0.0))
    return x


def as_layers(tensors) -> list[tuple[np.ndarray, np.ndarray]]:
    by_name = {name: data.reshape(shape) for name, shape, data in tensors}
    return [(by_name[f"layer{i}.weight"], by_name[f"layer{i}.bias"])
            for i in range(len(LAYER_DIMS) - 1)]


def error_bound(weights: np.ndarray, num_points: int, max_category: int,
                box_side: float) -> np.ndarray:
    """Largest error each weight may restore with, from its pair's ring.

    Pairs are consecutive weights. An odd-length tensor pairs its last weight
    with a pad: the mean x of the even prefix's pairs plus (last, last).
    The box of side l sits on the pair centroid; rings of width
    max_radius / M lie beyond l/2, and ring m shrinks by
    s_m = (l/2) / (l/2 + m * width). A shrunk pair lies in the box, whose
    codebook covers it to sqrt(2) * l / isqrt(U), so each restored weight is
    within that distance divided by s_m.
    """
    flat = np.asarray(weights, dtype=np.float64)
    if flat.size % 2:
        prefix_x = flat[:-1:2]
        pad = (prefix_x.sum() + flat[-1]) / (prefix_x.size + 1)
        flat = np.append(flat, pad)
    pts = flat.reshape(-1, 2)
    centroid = pts.sum(axis=0) / len(pts)
    dist = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
    half = box_side / 2.0
    width = dist.max() / max_category
    # A pair within 1e-9 of a ring edge may fall either side of it by
    # rounding, so it gets the outer ring's looser bound.
    if width > 0:
        ring = np.clip(np.ceil((dist - half) / width + 1e-9), 0, max_category)
    else:  # a single pair: it is the centroid
        ring = np.zeros_like(dist)
    shrink = half / (half + ring * width)
    bound = math.sqrt(2.0) * box_side / math.isqrt(num_points) / shrink
    return np.repeat(bound, 2)[: np.size(weights)]


def within_bound(original: np.ndarray, restored: np.ndarray, bound: np.ndarray,
                 float32_output: bool) -> bool:
    """Every restored weight within its bound; float32 output adds its rounding."""
    original = np.asarray(original, dtype=np.float64)
    restored = np.asarray(restored, dtype=np.float64)
    if restored.shape != original.shape:
        return False
    allowed = bound
    if float32_output:
        allowed = bound + (np.abs(original) + bound) * 2.0 ** -23
    return bool(np.all(np.abs(restored - original) <= allowed))


# --- percolation ----------------------------------------------------------


def comparison_root() -> float:
    """p0: the root in (0, 1) of 2p + p^2 - p^4 = 1."""
    roots = np.roots([-1.0, 0.0, 1.0, 2.0, -1.0])
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
    return float(real[0])


def trial_seed(seed: int, index: int) -> int:
    """Per-trial seed, as the estimator derives it from (seed, index)."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def crosses(kernel: int, width: int, height: int, p: float, seed: int) -> bool:
    """Union-find over the kernel lattice: does an open path join the end columns?

    Vertex (m, n) is m * height + n; bond (m, n)-(m+1, (n+i) mod height) for
    i < kernel, in (m, n, i) order, opens iff its uniform draw is below p.
    """
    draws = np.random.default_rng(seed).random((width - 1) * height * kernel)
    is_open = (draws < p).tolist()
    parent = list(range(width * height))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    k = 0
    for m in range(width - 1):
        for n in range(height):
            for i in range(kernel):
                if is_open[k]:
                    ra = root(m * height + n)
                    rb = root((m + 1) * height + (n + i) % height)
                    if ra != rb:
                        parent[ra] = rb
                k += 1
    left = {root(n) for n in range(height)}
    return any(root((width - 1) * height + n) in left for n in range(height))
