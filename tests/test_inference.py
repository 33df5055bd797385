import re
import threading

import numpy as np
import pytest

import hypc.inference as inference
from hypc.codec import EncodeParams, encode_layer
from hypc.container import CompressedModel, Tensor, TensorBundle
from hypc.errors import DataError, FormatError
from hypc.inference import (
    MlpLayer,
    MlpNetwork,
    bundle_to_network,
    eval_accuracy,
    load_dataset_csv,
    make_toy_dataset,
    mlp_forward,
    model_to_network,
    network_to_bundle,
    pipelined_forward,
    save_dataset_csv,
    train_toy,
)


def random_network(rng, dims=(6, 5, 4, 3)) -> MlpNetwork:
    layers = []
    for i in range(len(dims) - 1):
        w = rng.normal(scale=0.4, size=(dims[i + 1], dims[i])).astype(np.float32)
        b = rng.normal(scale=0.1, size=dims[i + 1]).astype(np.float32)
        layers.append(MlpLayer(w, b))
    return MlpNetwork(layers)


def compress_network(net, params=EncodeParams()) -> CompressedModel:
    bundle = network_to_bundle(net)
    return CompressedModel(
        [encode_layer(t.data, t.name, t.shape, params) for t in bundle.tensors]
    )


class TestMlpForward:
    def test_identity_network(self):
        net = MlpNetwork([MlpLayer(np.eye(3), np.zeros(3))])
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert np.array_equal(mlp_forward(net, x), x)

    def test_zero_weights_emit_bias(self):
        bias = np.array([1.5, -2.0], dtype=np.float32)
        net = MlpNetwork([MlpLayer(np.zeros((2, 3)), bias)])
        out = mlp_forward(net, np.ones((4, 3), dtype=np.float32))
        assert np.array_equal(out, np.tile(bias, (4, 1)))

    def test_relu_hand_example(self):
        net = MlpNetwork([
            MlpLayer(np.array([[1, 2], [3, 4]]), np.zeros(2)),
            MlpLayer(np.eye(2), np.zeros(2)),
        ])
        out = mlp_forward(net, np.array([[1.0, 1.0]]))
        assert out.tolist() == [[3.0, 7.0]]

    def test_dimension_mismatch(self):
        net = random_network(np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros((2, 7), dtype=np.float32))

    def test_chain_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            MlpNetwork([
                MlpLayer(rng.normal(size=(4, 3)), np.zeros(4)),
                MlpLayer(rng.normal(size=(2, 5)), np.zeros(2)),
            ])


class TestBundleConversion:
    def test_roundtrip(self):
        net = random_network(np.random.default_rng(2))
        back = bundle_to_network(network_to_bundle(net))
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_unknown_tensor_name_rejected(self):
        bundle = TensorBundle([Tensor("stray", (2,), np.zeros(2))])
        with pytest.raises(DataError):
            bundle_to_network(bundle)

    def test_missing_bias_rejected(self):
        bundle = TensorBundle([Tensor("layer0.weight", (2, 2), np.zeros(4))])
        with pytest.raises(DataError):
            bundle_to_network(bundle)


class TestPipelinedForward:
    def test_matches_sequential_bitwise(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, dims=(16, 32, 24, 16, 12, 10, 8, 6, 4))
        model = compress_network(net)
        for batch_size in (1, 2, 4, 8):
            x = rng.normal(size=(batch_size, 16)).astype(np.float32)
            pipelined = pipelined_forward(model, x)
            sequential = mlp_forward(model_to_network(model), x)
            assert pipelined.tobytes() == sequential.tobytes()

    def test_single_layer_degenerates(self):
        rng = np.random.default_rng(4)
        net = MlpNetwork([MlpLayer(rng.normal(size=(3, 5)).astype(np.float32),
                                   np.zeros(3, np.float32))])
        model = compress_network(net)
        x = rng.normal(size=(2, 5)).astype(np.float32)
        out, trace = pipelined_forward(model, x, with_trace=True)
        assert out.tobytes() == mlp_forward(model_to_network(model), x).tobytes()
        assert len(trace.decode_spans) == len(trace.compute_spans) == 1
        assert trace.decode_spans[0][1] <= trace.compute_spans[0][0]

    def test_decode_happens_before_compute(self):
        rng = np.random.default_rng(5)
        model = compress_network(random_network(rng))
        _, trace = pipelined_forward(model, np.zeros((1, 6), np.float32),
                                     with_trace=True)
        for (d0, d1), (c0, c1) in zip(trace.decode_spans, trace.compute_spans):
            assert d0 <= d1 <= c0 <= c1

    def test_wall_time_consistent_with_overlap_schedule(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, dims=(256,) * 9)
        model = compress_network(net)
        x = rng.normal(size=(8, 256)).astype(np.float32)
        pipelined_forward(model, x)  # warm the codebook cache
        _, trace = pipelined_forward(model, x, with_trace=True)
        decode = [b - a for a, b in trace.decode_spans]
        compute = [b - a for a, b in trace.compute_spans]
        ideal = decode[0] + sum(
            max(decode[i + 1], compute[i]) for i in range(len(decode) - 1)
        ) + compute[-1]
        # generous allowance for scheduling noise
        assert trace.wall <= ideal * 1.5 + 0.1

    def test_each_layer_decodes_exactly_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = compress_network(random_network(rng))
        calls = []
        real = inference.decode_layer
        monkeypatch.setattr(inference, "decode_layer",
                            lambda enc, *a, **k: (calls.append(enc.name), real(enc, *a, **k))[1])
        pipelined_forward(model, np.zeros((2, 6), np.float32))
        assert sorted(calls) == sorted(layer.name for layer in model.layers)

    def test_decode_errors_abort_deterministically(self):
        rng = np.random.default_rng(8)
        model = compress_network(random_network(rng))
        bad = model.layers[2]
        # shrink the index bound below the stored payload's values
        hacked_cfg = type(bad.config)(
            bad.config.box_side, 1, 0, bad.config.direction_mode,
            bad.config.centroid, bad.config.max_radius,
        )
        hacked = type(bad)(bad.name, bad.shape, bad.element_count, bad.padded,
                           hacked_cfg, bad.bit_width, bad.payload, bad.pad_value)
        layers = [hacked if l.name == bad.name else l for l in model.layers]
        with pytest.raises(FormatError):
            pipelined_forward(CompressedModel(layers), np.zeros((1, 6), np.float32))


def raised_within(seconds, call):
    """Run call in a daemon thread and return what it raised; fail if it hangs."""
    raised = []

    def target():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"call still running after {seconds} s"
    assert not [t for t in threading.enumerate() if t.name.startswith("hypc-decoder")]
    return raised[0] if raised else None


class TestPipelineErrors:
    """A compute error must not leave the decoder blocked behind it."""

    def test_wrong_width_batch(self):
        model = compress_network(random_network(np.random.default_rng(9),
                                                dims=(6, 5, 4, 3, 2)))
        exc = raised_within(30, lambda: pipelined_forward(
            model, np.zeros((1, 3), np.float32)))
        assert isinstance(exc, ValueError)
        assert str(exc).startswith("batch must be (n, 6)")

    def test_layers_that_do_not_chain(self):
        rng = np.random.default_rng(10)
        shapes = [(5, 6), (4, 7), (3, 4), (2, 3)]  # layer1 expects 7 inputs, gets 5
        layers = []
        for i, (out, inp) in enumerate(shapes):
            w = rng.normal(size=out * inp)
            layers.append(encode_layer(w, f"layer{i}.weight", (out, inp)))
            layers.append(encode_layer(rng.normal(size=out), f"layer{i}.bias", (out,)))
        exc = raised_within(30, lambda: pipelined_forward(
            CompressedModel(layers), np.zeros((1, 6), np.float32)))
        assert isinstance(exc, ValueError)

    def test_rank_zero_weight_is_a_data_error(self):
        layers = [encode_layer([0.5], "layer0.weight", ()),
                  encode_layer([0.1], "layer0.bias", (1,))]
        with pytest.raises(DataError, match="rank"):
            pipelined_forward(CompressedModel(layers), np.zeros((1, 1), np.float32))


class TestEmptyModel:
    def test_empty_hcmp(self):
        with pytest.raises(DataError, match="model has no layers"):
            model_to_network(CompressedModel([]))
        with pytest.raises(DataError, match="model has no layers"):
            pipelined_forward(CompressedModel([]), np.zeros((1, 2), np.float32))

    def test_empty_ntb(self):
        with pytest.raises(DataError, match="model has no layers"):
            bundle_to_network(TensorBundle([]))


class TestToyProblem:
    def test_training_reaches_target_accuracy(self):
        net = train_toy(7)
        ds = make_toy_dataset(7)
        assert eval_accuracy(net, ds.test_x, ds.test_y) >= 0.95

    def test_constant_network_scores_half_on_balanced_data(self):
        ds = make_toy_dataset(0)
        net = MlpNetwork([MlpLayer(np.zeros((2, 4)), np.array([0.3, 0.1]))])
        assert eval_accuracy(net, ds.test_x, ds.test_y) == 0.5

    def test_eval_deterministic(self):
        net = train_toy(1)
        ds = make_toy_dataset(1)
        a = eval_accuracy(net, ds.test_x, ds.test_y)
        b = eval_accuracy(net, ds.test_x, ds.test_y)
        assert a == b

    def test_dataset_is_balanced_and_deterministic(self):
        a = make_toy_dataset(3)
        b = make_toy_dataset(3)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)
        assert a.train_y.sum() == len(a.train_y) // 2
        assert a.test_y.sum() == len(a.test_y) // 2
        assert a.train_x.shape == (2000, 4) and a.test_x.shape == (1000, 4)

    def test_csv_roundtrip(self, tmp_path):
        ds = make_toy_dataset(5)
        path = tmp_path / "toy.csv"
        save_dataset_csv(path, ds.test_x, ds.test_y)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,label"
        x, y = load_dataset_csv(path)
        assert np.array_equal(x, ds.test_x)
        assert np.array_equal(y, ds.test_y)


class TestDatasetCsv:
    @pytest.mark.parametrize("body, message", [
        ("0,0,1.5\n", "line 2: label 1.5 is not"),
        ("0,0,0\n0,0,nan\n", "line 3: label nan is not"),
        ("0,0,-1\n", "line 2: label -1.0 is not"),
        ("0,0,1e300\n", "line 2: label 1e+300 is not"),
        ("0,0,0\n\n0,nan,1\n", "line 4: feature is not finite"),
        ("0,inf,0\n", "line 2: feature is not finite"),
        ("0,-inf,0\n", "line 2: feature is not finite"),
        ("0,1e300,0\n", "line 2: feature is not finite in float32"),
        ("", "no data rows"),
        ("\n\n", "no data rows"),
    ])
    def test_bad_rows_are_data_errors(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n" + body)
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n\n0.5,-2,1\n\n3,4,0\n")
        x, y = load_dataset_csv(path)
        assert x.tolist() == [[0.5, -2.0], [3.0, 4.0]]
        assert y.tolist() == [1, 0] and y.dtype == np.int64
