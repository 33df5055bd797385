"""Dense forward pass with decode-while-compute pipelining, plus a toy trainer.

Every layer applies ReLU except the last, which is the identity, so a layer's
position decides its activation. The pipeline runs exactly two threads: a
one-worker executor decodes the layers in order and the calling thread
computes them. Layer i is always fully decoded before it is used; the decoder
may run any number of layers ahead, so at most it holds the decoded model,
as the sequential arm does. The outputs are bitwise identical to decoding
everything first and then running the forward pass, regardless of scheduling.
"""

from __future__ import annotations

import itertools
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import EncodedLayer, decode_layer
from .container import CompressedModel, Tensor, TensorBundle, _write_parts
from .errors import DataError

_WEIGHT_RE = re.compile(r"^layer(\d+)\.(weight|bias)$")


@dataclass
class MlpLayer:
    weight: np.ndarray  # (out, in) float32
    bias: np.ndarray  # (out,) float32

    def __post_init__(self):
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be (out, in) and bias (out,)")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias size {self.bias.shape[0]} != output dim {self.weight.shape[0]}"
            )


@dataclass
class MlpNetwork:
    """Layers applied in order: ReLU after each one but the last."""

    layers: list[MlpLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError(
                    f"layer input dim {nxt.weight.shape[1]} does not chain from "
                    f"previous output dim {prev.weight.shape[0]}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]


def _apply_layer(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 relu: bool) -> np.ndarray:
    y = x @ weight.T + bias
    if relu:
        y = np.maximum(y, np.float32(0.0))
    return y


def _as_batch(batch, width: int) -> np.ndarray:
    x = np.ascontiguousarray(batch, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"batch must be (n, {width}), got {x.shape}")
    return x


def mlp_forward(net: MlpNetwork, batch) -> np.ndarray:
    """Row-major float32 forward pass; deterministic evaluation order."""
    x = _as_batch(batch, net.input_dim)
    count = len(net.layers)
    for i, layer in enumerate(net.layers):
        x = _apply_layer(x, layer.weight, layer.bias, i < count - 1)
    return x


def network_to_bundle(net: MlpNetwork) -> TensorBundle:
    """Flatten a network into layer{i}.weight / layer{i}.bias tensors."""
    tensors = []
    for i, layer in enumerate(net.layers):
        tensors.append(Tensor(f"layer{i}.weight", layer.weight.shape, layer.weight.reshape(-1)))
        tensors.append(Tensor(f"layer{i}.bias", layer.bias.shape, layer.bias))
    return TensorBundle(tensors)


def _collect_mlp_parts(names: list[str]) -> int:
    """Validate the layer{i}.{weight,bias} naming and return the layer count."""
    seen: dict[tuple[int, str], None] = {}
    for name in names:
        m = _WEIGHT_RE.match(name)
        if not m:
            raise DataError(f"tensor {name!r} does not follow layer<i>.weight/bias naming")
        seen[(int(m.group(1)), m.group(2))] = None
    if not seen:
        raise DataError("model has no layers")
    count = 1 + max(i for i, _ in seen)
    expected = {(i, kind) for i in range(count) for kind in ("weight", "bias")}
    missing = expected - seen.keys()
    if missing:
        raise DataError(f"missing tensors for {sorted(missing)}")
    return count


def _layer_parts(parts: dict, i: int):
    """Layer i's weight and bias entries (anything with a .shape), rank-checked."""
    weight, bias = parts[f"layer{i}.weight"], parts[f"layer{i}.bias"]
    if len(weight.shape) != 2 or len(bias.shape) != 1:
        raise DataError(f"layer{i}: weight must be rank 2 and bias rank 1")
    return weight, bias


def _assemble_network(parts: dict, to_array) -> MlpNetwork:
    count = _collect_mlp_parts(list(parts))
    return MlpNetwork([MlpLayer(*map(to_array, _layer_parts(parts, i)))
                       for i in range(count)])


def bundle_to_network(bundle: TensorBundle) -> MlpNetwork:
    return _assemble_network({t.name: t for t in bundle.tensors},
                             lambda t: t.data.reshape(t.shape))


def decoded_tensor(enc: EncodedLayer) -> np.ndarray:
    """Decode one layer to float32 in its logical shape."""
    return decode_layer(enc, np.float32).reshape(enc.shape)


def model_to_network(model: CompressedModel) -> MlpNetwork:
    """Decode everything up front and assemble the network (the sequential arm)."""
    return _assemble_network({layer.name: layer for layer in model.layers},
                             decoded_tensor)


@dataclass
class PipelineTrace:
    """perf_counter spans for each stage, for overlap inspection."""

    decode_spans: list[tuple[float, float]]
    compute_spans: list[tuple[float, float]]
    wall: float


def pipelined_forward(model: CompressedModel, batch, with_trace: bool = False):
    """Forward pass that decodes layer i+1 while layer i computes.

    Each layer decodes exactly once per call. Returns the outputs, or
    (outputs, PipelineTrace) when with_trace is set.
    """
    parts = {layer.name: layer for layer in model.layers}
    count = _collect_mlp_parts(list(parts))
    x = _as_batch(batch, _layer_parts(parts, 0)[0].shape[1])
    decode_spans: list[tuple[float, float]] = []
    compute_spans: list[tuple[float, float]] = []

    def decode(i: int):
        t0 = time.perf_counter()
        weight, bias = map(decoded_tensor, _layer_parts(parts, i))
        return weight, bias, (t0, time.perf_counter())

    start = time.perf_counter()
    # Leaving the block waits for the decoder, so an error on either side
    # propagates from here and no decoder thread outlives the call.
    with ThreadPoolExecutor(1, thread_name_prefix="hypc-decoder") as decoder:
        for i, (weight, bias, span) in enumerate(decoder.map(decode, range(count))):
            decode_spans.append(span)
            t0 = time.perf_counter()
            x = _apply_layer(x, weight, bias, i < count - 1)
            compute_spans.append((t0, time.perf_counter()))
    wall = time.perf_counter() - start
    if with_trace:
        return x, PipelineTrace(decode_spans, compute_spans, wall)
    return x


# --- toy two-blob classification problem ---------------------------------

_BLOB_OFFSET = 1.25  # per-coordinate mean of the two classes, +/-
_TOY_DIMS = (4, 32, 16, 2)
_TOY_TRAIN_PER_CLASS = 1000
_TOY_TEST_PER_CLASS = 500
_TOY_EPOCHS = 500
_TOY_STEP = 0.1


@dataclass
class ToyDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def make_toy_dataset(seed: int) -> ToyDataset:
    """Two 4-D Gaussian blobs, balanced, deterministically shuffled."""
    rng = np.random.default_rng([int(seed), 0])

    def split(per_class: int):
        lo = rng.normal(-_BLOB_OFFSET, 1.0, size=(per_class, 4))
        hi = rng.normal(_BLOB_OFFSET, 1.0, size=(per_class, 4))
        x = np.vstack([lo, hi]).astype(np.float32)
        y = np.concatenate([np.zeros(per_class, np.int64), np.ones(per_class, np.int64)])
        perm = rng.permutation(2 * per_class)
        return x[perm], y[perm]

    train_x, train_y = split(_TOY_TRAIN_PER_CLASS)
    test_x, test_y = split(_TOY_TEST_PER_CLASS)
    return ToyDataset(train_x, train_y, test_x, test_y)


def train_toy(seed: int) -> MlpNetwork:
    """Full-batch gradient descent on the toy blobs; deterministic per seed."""
    ds = make_toy_dataset(seed)
    rng = np.random.default_rng([int(seed), 1])
    dims = _TOY_DIMS
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]

    x = ds.train_x.astype(np.float64)
    onehot = np.zeros((len(ds.train_y), dims[-1]))
    onehot[np.arange(len(ds.train_y)), ds.train_y] = 1.0
    n = len(x)

    for _ in range(_TOY_EPOCHS):
        # forward
        acts = [x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w.T + b
            acts.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        # backward
        delta = (probs - onehot) / n
        for i in range(len(weights) - 1, -1, -1):
            grad_w = delta.T @ acts[i]
            grad_b = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (acts[i] > 0.0)
            weights[i] = weights[i] - _TOY_STEP * grad_w
            biases[i] = biases[i] - _TOY_STEP * grad_b

    return MlpNetwork([MlpLayer(w.astype(np.float32), b.astype(np.float32))
                       for w, b in zip(weights, biases)])


def eval_accuracy(net_or_model, inputs, labels) -> float:
    """Top-1 accuracy of a network or compressed model on labeled inputs."""
    if isinstance(net_or_model, CompressedModel):
        outputs = pipelined_forward(net_or_model, inputs)
    else:
        outputs = mlp_forward(net_or_model, inputs)
    pred = np.argmax(outputs, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def save_dataset_csv(path, inputs: np.ndarray, labels: np.ndarray) -> None:
    """Write rows as x1..xd,label with enough digits to round-trip float32."""
    inputs = np.asarray(inputs, dtype=np.float32)
    labels = np.asarray(labels)
    header = ",".join(f"x{i + 1}" for i in range(inputs.shape[1])) + ",label"
    lines = [header]
    for row, y in zip(inputs, labels):
        lines.append(",".join(format(float(v), ".9g") for v in row) + f",{int(y)}")
    _write_parts([("\n".join(lines) + "\n").encode("utf-8")], path)


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Rows of finite features and a non-negative integer label, after a header line."""
    numbers: list[int] = []  # file line numbers of the rows read so far

    def data_rows(f):  # the non-blank lines after the header, streamed
        for n, line in enumerate(f, start=1):
            if n > 1 and line.strip():
                numbers.append(n)
                yield line

    with open(path, encoding="utf-8") as f:
        rows = data_rows(f)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        table = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2,
                           dtype=np.float64, comments=None)
    if table.shape[1] < 2:
        raise DataError("dataset CSV needs at least one feature column plus label")
    features, labels = table[:, :-1], table[:, -1]
    # Features are kept as float32, so a finite float64 beyond its range is refused too.
    bad = ~(np.abs(features) <= np.finfo(np.float32).max).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise DataError(f"{path}: line {numbers[row]}: feature is not finite in float32")
    # Labels are class indices; below 2^53 every integer is exact in float64.
    bad = ~((labels >= 0) & (labels < 2.0**53) & (labels == np.floor(labels)))
    if bad.any():
        row = int(np.argmax(bad))
        raise DataError(f"{path}: line {numbers[row]}: label {float(labels[row])} "
                        "is not a non-negative integer")
    return features.astype(np.float32), labels.astype(np.int64)
