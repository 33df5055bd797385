"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np

from hypc.analysis import validate_error_bound
from hypc.codebook import CodebookConfig, DirectionMode, build_codebook
from hypc.codec import (
    EncodeParams,
    decode_layer,
    encode_layer,
    ring_error_bounds,
    unpack_bits,
)
from hypc.container import (
    CompressedModel,
    Tensor,
    TensorBundle,
    dump_hcmp,
    dump_ntb,
    load_hcmp,
    load_ntb,
)
from hypc.inference import (
    MlpLayer,
    MlpNetwork,
    eval_accuracy,
    make_toy_dataset,
    mlp_forward,
    model_to_network,
    network_to_bundle,
    pipelined_forward,
    train_toy,
)
from hypc.percolation import estimate_threshold, solve_p0

import reference_encoder

GRID = DirectionMode.GRID_SHEAR
MAIN_PARAMS = EncodeParams(box_side=0.1, num_points=225, max_category=3,
                           direction_mode=GRID)


def check(criterion: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def million_weight_layer():
    rng = np.random.default_rng(1)
    return rng.uniform(-0.5, 0.5, size=1_000_000)


def per_weight_bounds(enc):
    """Each pair's ring bound (covering radius over the ring's shrink factor),
    the ring read from its stored code, expanded per weight."""
    rings = unpack_bits(enc.payload, enc.bit_width, enc.group_count) // enc.config.num_points
    return np.repeat(ring_error_bounds(enc.config)[rings], 2)[: enc.element_count]


def test_c01_roundtrip_error_bound():
    start = time.perf_counter()
    weights = million_weight_layer()
    enc = encode_layer(weights, "big", (weights.size,), MAIN_PARAMS)
    restored = decode_layer(enc)
    bounds = per_weight_bounds(enc)
    holds = bool((np.abs(weights - restored) <= bounds).all())
    elapsed = time.perf_counter() - start
    check(1, "round-trip bound on 1e6 weights", holds and elapsed < 30.0,
          f"all within bound={holds}, {elapsed:.1f}s")


def test_c02_payload_and_file_ratio():
    weights = million_weight_layer()
    enc = encode_layer(weights, "big", (weights.size,), MAIN_PARAMS)
    payload_ratio = 64 / enc.bit_width
    dims = [1300, 650, 325, 160, 2]
    rng = np.random.default_rng(2)
    tensors = []
    for i in range(len(dims) - 1):
        w = rng.random((dims[i + 1], dims[i]), dtype=np.float32) - np.float32(0.5)
        b = rng.random(dims[i + 1], dtype=np.float32) - np.float32(0.5)
        tensors.append(Tensor(f"layer{i}.weight", w.shape, w.reshape(-1)))
        tensors.append(Tensor(f"layer{i}.bias", b.shape, b))
    bundle = TensorBundle(tensors)
    ntb_bytes = len(dump_ntb(bundle))
    model = CompressedModel(
        [encode_layer(t.data, t.name, t.shape, MAIN_PARAMS) for t in bundle.tensors]
    )
    hcmp_bytes = len(dump_hcmp(model))
    payload_bytes = sum(len(l.payload) for l in model.layers)
    file_ratio = ntb_bytes / hcmp_bytes
    overhead = (hcmp_bytes - payload_bytes) / hcmp_bytes
    ok = (enc.bit_width == 10 and payload_ratio == 6.4
          and ntb_bytes >= 4 * 2**20 and file_ratio >= 6.2 and overhead <= 0.03)
    check(2, "bit width 10, payload ratio 6.4x, file ratio >= 6.2x", ok,
          f"bit_width={enc.bit_width}, file_ratio={file_ratio:.2f}, "
          f"metadata={overhead:.2%} of {hcmp_bytes} bytes")


def test_c03_tree_matches_exhaustive_scan():
    mismatches = 0
    for num_points in (4, 225, 361, 4096):
        cfg = CodebookConfig(0.1, num_points, 0, GRID, (0.5, 0.5), 0.0)
        cb = build_codebook(cfg)
        rng = np.random.default_rng(num_points)
        queries = rng.uniform(0.5 - 0.1, 0.5 + 0.1, size=(10_000, 2))
        got, _ = cb.nearest_many(queries)
        dsq = ((queries[:, None, :] - cb.points[None, :, :]) ** 2).sum(axis=2)
        want = np.argmin(dsq, axis=1)
        mismatches += int((got != want).sum())
    check(3, "nearest lookup equals exhaustive scan for U in {4,225,361,4096}",
          mismatches == 0, f"{mismatches} mismatches over 40000 queries")


def test_c04_covering_radius():
    cfg = CodebookConfig(0.1, 225, 0, GRID, (0.5, 0.5), 0.0)
    cb = build_codebook(cfg)
    rng = np.random.default_rng(4)
    samples = rng.uniform(0.45, 0.55, size=(100_000, 2))
    _, dist = cb.nearest_many(samples)
    limit = ring_error_bounds(cfg)[0]
    check(4, "covering radius over 1e5 box samples", float(dist.max()) <= limit,
          f"max={dist.max():.6f} <= {limit:.6f}")


def test_c05_toy_accuracy_drop():
    start = time.perf_counter()
    net = train_toy(7)
    ds = make_toy_dataset(7)
    baseline = eval_accuracy(net, ds.test_x, ds.test_y)
    params = EncodeParams(box_side=0.01, num_points=361, max_category=3,
                          direction_mode=GRID)
    bundle = network_to_bundle(net)
    model = CompressedModel(
        [encode_layer(t.data, t.name, t.shape, params) for t in bundle.tensors]
    )
    compressed = eval_accuracy(model, ds.test_x, ds.test_y)
    drop_pp = (baseline - compressed) * 100
    elapsed = time.perf_counter() - start
    ok = baseline >= 0.95 and drop_pp <= 1.0 and elapsed < 60.0
    check(5, "toy accuracy >= 0.95 with drop <= 1pp after compression", ok,
          f"baseline={baseline:.3f}, compressed={compressed:.3f}, "
          f"drop={drop_pp:.2f}pp, {elapsed:.1f}s")


def test_c06_pipeline_bitwise_equal():
    rng = np.random.default_rng(6)
    dims = (24, 32, 28, 24, 20, 16, 12, 8, 4)  # eight layers
    layers = []
    for i in range(len(dims) - 1):
        w = rng.normal(scale=0.3, size=(dims[i + 1], dims[i])).astype(np.float32)
        b = rng.normal(scale=0.05, size=dims[i + 1]).astype(np.float32)
        layers.append(MlpLayer(w, b))
    bundle = network_to_bundle(MlpNetwork(layers))
    model = CompressedModel(
        [encode_layer(t.data, t.name, t.shape, MAIN_PARAMS) for t in bundle.tensors]
    )
    ok = True
    for batch_size in (1, 2, 4, 8):
        x = rng.normal(size=(batch_size, dims[0])).astype(np.float32)
        piped = pipelined_forward(model, x)
        sequential = mlp_forward(model_to_network(model), x)
        ok = ok and piped.tobytes() == sequential.tobytes()
    check(6, "pipelined forward bitwise equals sequential for batches 1,2,4,8", ok)


def test_c07_threshold_kernel_two():
    start = time.perf_counter()
    est = estimate_threshold(2, 200, 200, trials=200, seed=0)
    elapsed = time.perf_counter() - start
    ok = 0.48 <= est.p_hat <= 0.52 and elapsed < 60.0
    check(7, "kernel-2 threshold estimate in [0.48, 0.52]", ok,
          f"p_hat={est.p_hat:.4f}, {elapsed:.1f}s")


def test_c08_polynomial_root():
    p0 = solve_p0()
    residual = abs(2 * p0 + p0 * p0 - p0**4 - 1)
    ok = abs(p0 - 0.425787) <= 1e-5 and residual < 1e-9
    check(8, "root of 2p + p^2 - p^4 = 1", ok,
          f"p0={p0:.9f}, residual={residual:.2e}")


def test_c09_threshold_kernel_three():
    # Lower end: walk counting (Broadbent & Hammersley 1957). Connectivity is
    # undirected and each vertex has degree 2r, so a self-avoiding walk has at
    # most 2r-1 continuations per step and p_c >= 1/(2r-1). The paper's 1/3
    # is the 1/r count, which holds only for forward-only (directed) paths.
    # Upper end: comparison root p0 = 0.4258 plus 0.005.
    kernel = 3
    lower, upper = 1 / (2 * kernel - 1), 0.431
    est = estimate_threshold(kernel, 200, 200, trials=200, seed=0)
    ok = lower <= est.p_hat <= upper
    check(9, f"kernel-3 threshold estimate in [1/(2r-1), p0+0.005] = "
             f"[{lower:.4f}, {upper}]", ok,
          f"p_hat={est.p_hat:.4f}; paper states [1/3, 0.431], which assumes "
          f"directed paths")


def test_c10_error_bound_theorem():
    report = validate_error_bound(64, 128, trials=100, seed=0)
    ok = (report["pass_fraction_preactivation"] == 1.0
          and report["pass_fraction_relu"] == 1.0
          and report["pass_fraction"] == 1.0)
    check(10, "output error bound holds in 100/100 trials", ok,
          f"max_ratio={report['max_ratio_observed']:.3f}, "
          f"epsilon_max={report['epsilon_max']:.2e}")


def test_c11_format_roundtrips():
    rng = np.random.default_rng(11)
    cases = 0
    clean = True
    for case in range(1000):
        tensors = []
        for t in range(int(rng.integers(0, 4))):
            kind = case % 3
            if kind == 0:
                shape, data = (0,), np.zeros(0, np.float32)  # empty
            elif kind == 1:
                n = int(rng.integers(1, 16)) * 2 + 1  # odd length
                data = (rng.random(n, dtype=np.float32) - np.float32(0.5))
                shape = (n,)
            else:
                n = int(rng.integers(1, 30))
                data = np.full(n, rng.random(dtype=np.float32), dtype=np.float32)
                shape = (n,)
            tensors.append(Tensor(f"t{t}", shape, data))
        bundle = TensorBundle(tensors)
        blob = dump_ntb(bundle)
        clean &= dump_ntb(load_ntb(blob)) == blob
        params = EncodeParams(
            box_side=float(rng.uniform(0.05, 0.5)),
            num_points=int(rng.integers(1, 360)),
            max_category=int(rng.integers(1, 5)),
        )
        model = CompressedModel(
            [encode_layer(t.data, t.name, t.shape, params) for t in bundle.tensors]
        )
        hblob = dump_hcmp(model)
        reloaded = load_hcmp(hblob)
        clean &= dump_hcmp(reloaded) == hblob
        for ours, theirs in zip(model.layers, reloaded.layers):
            clean &= decode_layer(ours).tobytes() == decode_layer(theirs).tobytes()
        cases += 1
    check(11, "NTB and HCMP round trips bit-exact over randomized cases",
          clean and cases == 1000, f"{cases} cases")


def test_c12_acceleration_ablation():
    weights = million_weight_layer()
    shape = (weights.size,)
    encode_layer(weights[:20_000], "warm", (20_000,), MAIN_PARAMS)  # warm caches
    start = time.perf_counter()
    fast = encode_layer(weights, "big", shape, MAIN_PARAMS)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = reference_encoder.encode(weights, MAIN_PARAMS.box_side, MAIN_PARAMS.num_points,
                                    MAIN_PARAMS.max_category, MAIN_PARAMS.direction_mode)
    slow_s = time.perf_counter() - start
    speedup = slow_s / fast_s
    ok = fast.payload == slow.payload and speedup >= 10.0
    check(12, "full encode at least 10x faster than the scalar/linear-scan arm",
          ok, f"full={fast_s:.2f}s, naive={slow_s:.2f}s, speedup={speedup:.1f}x")
