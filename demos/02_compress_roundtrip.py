"""Round trip a random model through the codec and the two file formats.

Walks the full path: random weights -> NTB bytes -> per-layer encoding ->
HCMP bytes -> decode -> error statistics, and compares the measured errors
with the per-ring guarantee (covering radius divided by the ring's shrink
factor), each pair's ring read from its stored code as the decoder reads it.
"""

import numpy as np

from hypc import (
    CompressedModel,
    EncodeParams,
    Tensor,
    TensorBundle,
    decode_layer,
    encode_layer,
    error_stats,
    ring_error_bounds,
    unpack_bits,
)
from hypc.container import dump_hcmp, dump_ntb, load_hcmp

rng = np.random.default_rng(42)
dims = [256, 128, 64, 10]
tensors = []
for i in range(len(dims) - 1):
    w = rng.random((dims[i + 1], dims[i]), dtype=np.float32) - np.float32(0.5)
    b = rng.random(dims[i + 1], dtype=np.float32) - np.float32(0.5)
    tensors.append(Tensor(f"layer{i}.weight", w.shape, w.reshape(-1)))
    tensors.append(Tensor(f"layer{i}.bias", b.shape, b))
bundle = TensorBundle(tensors)

params = EncodeParams()  # box 0.1, 225 points, 3 rings, grid direction
model = CompressedModel(
    [encode_layer(t.data, t.name, t.shape, params) for t in bundle.tensors]
)

ntb_bytes = len(dump_ntb(bundle))
hcmp_bytes = len(dump_hcmp(model))
print(f"{bundle.total_elements} weights: {ntb_bytes} NTB bytes -> "
      f"{hcmp_bytes} HCMP bytes ({ntb_bytes / hcmp_bytes:.2f}x)")

print(f"\n{'layer':<14} {'bits':>4} {'max_abs':>10} {'bound':>10} {'rmse':>10}")
for tensor, layer in zip(bundle.tensors, model.layers):
    restored = decode_layer(layer)
    stats = error_stats(tensor.data, restored)
    theta = unpack_bits(layer.payload, layer.bit_width, layer.group_count)
    bound = ring_error_bounds(layer.config)[theta // layer.config.num_points].max()
    print(f"{layer.name:<14} {layer.bit_width:>4} {stats['max_abs']:>10.5f} "
          f"{bound:>10.5f} {stats['rmse']:>10.5f}")

reloaded = load_hcmp(dump_hcmp(model))
identical = all(
    decode_layer(a).tobytes() == decode_layer(b).tobytes()
    for a, b in zip(model.layers, reloaded.layers)
)
print(f"\ndecode after byte round trip identical: {identical}")
