"""Decode-while-compute pipelining on the toy classifier.

Trains the small blob classifier, compresses it, and runs the forward pass
two ways: decode everything first, and decode layer i+1 while layer i
computes. The outputs must match bit for bit; the stage timing table shows
where the overlap happens.
"""

import numpy as np

from hypc.codec import EncodeParams, encode_layer
from hypc.container import CompressedModel
from hypc.inference import (
    eval_accuracy,
    make_toy_dataset,
    mlp_forward,
    model_to_network,
    network_to_bundle,
    pipelined_forward,
    train_toy,
)

net = train_toy(7)
ds = make_toy_dataset(7)
baseline = eval_accuracy(net, ds.test_x, ds.test_y)
print(f"toy classifier test accuracy: {baseline:.3f}")

params = EncodeParams(box_side=0.01, num_points=361, max_category=3)
bundle = network_to_bundle(net)
model = CompressedModel(
    [encode_layer(t.data, t.name, t.shape, params) for t in bundle.tensors]
)
compressed_acc = eval_accuracy(model, ds.test_x, ds.test_y)
print(f"after compression:             {compressed_acc:.3f} "
      f"(drop {100 * (baseline - compressed_acc):.2f} pp)")

for batch_size in (1, 2, 4, 8):
    x = ds.test_x[:batch_size]
    piped = pipelined_forward(model, x)
    sequential = mlp_forward(model_to_network(model), x)
    print(f"batch {batch_size}: pipelined == sequential bitwise: "
          f"{piped.tobytes() == sequential.tobytes()}")

outputs, trace = pipelined_forward(model, ds.test_x, with_trace=True)
print(f"\nstage spans over {len(trace.decode_spans)} layers "
      f"(wall {1e3 * trace.wall:.2f} ms):")
origin = trace.decode_spans[0][0]
print(f"{'layer':>5} {'decode [ms]':>22} {'compute [ms]':>22}")
for i, (d, c) in enumerate(zip(trace.decode_spans, trace.compute_spans)):
    print(f"{i:>5} {1e3 * (d[0] - origin):>10.3f} -> {1e3 * (d[1] - origin):>8.3f} "
          f"{1e3 * (c[0] - origin):>10.3f} -> {1e3 * (c[1] - origin):>8.3f}")
print("decode of layer i always finishes before its compute starts;")
print("decode of layer i+1 runs while layer i computes.")
assert np.array_equal(outputs, mlp_forward(model_to_network(model), ds.test_x))
