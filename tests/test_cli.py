import argparse
import collections
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest

from hypc import cli, inference
from hypc.cli import build_parser, main
from hypc.codebook import Codebook, DirectionMode, _RowSweep
from hypc.codec import EncodeParams, encode_layer
from hypc.container import (
    CompressedModel,
    Tensor,
    TensorBundle,
    read_hcmp,
    read_ntb,
    write_hcmp,
    write_ntb,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = Path(__file__).parent / "data" / "hcmp_v1"


@pytest.fixture(scope="module")
def reference_model(tmp_path_factory):
    """gen, compress and decompress of the reference model, run once."""
    root = tmp_path_factory.mktemp("reference")
    ntb, hcmp, out = root / "m.ntb", root / "m.hcmp", root / "r.ntb"
    assert main(["gen", "--layers", "1300,650,325,160,2", "--seed", "1",
                 "--output", str(ntb)]) == 0
    assert main(["compress", "--input", str(ntb), "--output", str(hcmp)]) == 0
    assert main(["decompress", "--input", str(hcmp), "--output", str(out)]) == 0
    return ntb, hcmp, out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEndToEnd:
    def test_gen_compress_decompress_eval(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        hcmp = tmp_path / "m.hcmp"
        back = tmp_path / "back.ntb"

        code, out, _ = run(capsys, "gen", "--layers", "8,16,4", "--seed", "3",
                           "--output", str(ntb))
        assert code == 0
        assert json.loads(out)["weights"] == 8 * 16 + 16 * 4 + 16 + 4

        code, out, _ = run(capsys, "compress", "--input", str(ntb),
                           "--output", str(hcmp))
        assert code == 0
        ratio_report = json.loads(out)
        assert ratio_report["layers"] == 4
        assert ratio_report["ratio"] > 1.0

        code, out, _ = run(capsys, "inspect", str(hcmp))
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == [t.name for t in read_ntb(ntb).tensors]
        assert all(r["u"] == 225 and r["l"] == 0.1 for r in rows)

        code, out, _ = run(capsys, "decompress", "--input", str(hcmp),
                           "--output", str(back))
        assert code == 0

        code, out, _ = run(capsys, "eval", "--original", str(ntb),
                           "--restored", str(back))
        assert code == 0
        stats = json.loads(out)
        assert 0 < stats["max_abs"] < 0.1  # loose sanity; exact bound tested elsewhere

    def test_per_layer_overrides(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "6,6", "--seed", "1", "--output", str(ntb))
        overrides = tmp_path / "params.json"
        overrides.write_text(json.dumps({
            "default": {"u": 64, "max_class": 2},
            "layers": {"layer0.bias": {"u": 16, "l": 0.25, "direction": "paper"}},
        }))
        hcmp = tmp_path / "m.hcmp"
        code, out, _ = run(capsys, "compress", "--input", str(ntb),
                           "--output", str(hcmp), "--per-layer", str(overrides))
        assert code == 0
        by_name = {l.name: l for l in read_hcmp(hcmp).layers}
        assert by_name["layer0.weight"].config.num_points == 64
        assert by_name["layer0.weight"].config.max_category == 2
        assert by_name["layer0.bias"].config.num_points == 16
        assert by_name["layer0.bias"].config.box_side == 0.25

    def test_inspect_empty_model(self, tmp_path, capsys):
        hcmp = tmp_path / "empty.hcmp"
        write_hcmp(CompressedModel([]), hcmp)
        code, out, _ = run(capsys, "inspect", str(hcmp))
        assert code == 0
        assert json.loads(out) == []
        code, out, _ = run(capsys, "inspect", str(hcmp), "--pretty")
        assert code == 0

    def test_infer_pipeline_matches_sequential(self, tmp_path, capsys):
        ntb = tmp_path / "toy.ntb"
        csv = tmp_path / "toy.csv"
        hcmp = tmp_path / "toy.hcmp"
        code, out, _ = run(capsys, "train-toy", "--seed", "7", "--output", str(ntb),
                           "--dump-data", str(csv))
        assert code == 0
        assert json.loads(out)["test_accuracy"] >= 0.95
        run(capsys, "compress", "--input", str(ntb), "--output", str(hcmp),
            "--l", "0.01", "--u", "361")
        code, plain_out, _ = run(capsys, "infer", "--model", str(hcmp),
                                 "--data", str(csv))
        code2, piped_out, _ = run(capsys, "infer", "--model", str(hcmp),
                                  "--data", str(csv), "--pipeline")
        assert code == code2 == 0
        assert json.loads(plain_out) == json.loads(piped_out)
        code, ntb_out, _ = run(capsys, "infer", "--model", str(ntb),
                               "--data", str(csv))
        assert code == 0
        assert json.loads(ntb_out)["accuracy"] >= 0.95


class TestPerc:
    def test_p0_value(self, capsys):
        code, out, _ = run(capsys, "perc", "p0")
        assert code == 0
        assert math.isclose(float(out), 0.425787, abs_tol=1e-5)

    def test_estimate_json(self, capsys):
        code, out, _ = run(capsys, "perc", "estimate", "--r", "2", "--height", "50",
                           "--width", "50", "--trials", "50", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"r", "H", "W", "trials", "p_hat", "interval"}
        assert report["interval"][0] <= report["p_hat"] <= report["interval"][1]

    def test_negative_seed_is_named(self, capsys):
        code, out, err = run(capsys, "perc", "estimate", "--r", "2", "--height", "50",
                             "--width", "50", "--trials", "50", "--seed", "-3")
        assert (code, out) == (1, "")
        assert err == "error: seed must be >= 0, got -3\n"

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--trials", "100000000", "trials"), ("--probes", "65", "probes")],
    )
    def test_over_cap_counts_are_named(self, capsys, flag, value, field):
        code, out, err = run(capsys, "perc", "estimate", "--r", "2", "--height", "50",
                             "--width", "50", "--trials", "50", flag, value)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field} must be in [")
        assert err.endswith(f"got {value}\n") and err.count("\n") == 1

    def test_oversized_lattice_is_refused_up_front(self):
        # Under a 2 GiB address-space cap, as a 100000 x 100000 lattice would
        # need about 75 GiB of bond endpoints.
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from hypc.cli import main
            sys.exit(main(sys.argv[1:]))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-c", script, "perc", "estimate", "--r", "2",
             "--height", "100000", "--width", "100000", "--trials", "50"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: lattice has 19999800000 bonds")
        assert result.stderr.count("\n") == 1


class TestErrors:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_reader_exits_quietly(self, tmp_path, capsys, unbuffered):
        ntb = tmp_path / "m.ntb"
        hcmp = tmp_path / "m.hcmp"
        run(capsys, "gen", "--layers", "4,3,2", "--seed", "0", "--output", str(ntb))
        run(capsys, "compress", "--input", str(ntb), "--output", str(hcmp))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        # The read end is closed before the child starts, so its first write
        # to stdout fails with EPIPE, as under `hypc inspect m.hcmp | head -c 0`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hypc.cli", "inspect", str(hcmp)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")

    def test_missing_file_is_one_stderr_line(self, tmp_path, capsys):
        code, out, err = run(capsys, "inspect", str(tmp_path / "nope.hcmp"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.strip().count("\n") == 0

    def test_failed_compress_leaves_no_output(self, tmp_path, capsys):
        target = tmp_path / "out.hcmp"
        code, _, err = run(capsys, "compress", "--input", str(tmp_path / "no.ntb"),
                           "--output", str(target))
        assert code == 1 and not target.exists()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["zero_scale.hcmp", "float32_range.hcmp"])
    def test_non_finite_decode_is_one_error_line(self, tmp_path, capsys, name):
        # Each file loads, and its first layer decodes to inf in float32.
        csv = tmp_path / "d.csv"
        csv.write_text("x1,x2,label\n0.1,0.2,0\n0.3,0.4,1\n")
        model, out = str(CORPUS / name), str(tmp_path / "r.ntb")
        for argv in (["decompress", "--input", model, "--output", out],
                     ["infer", "--model", model, "--data", str(csv)],
                     ["infer", "--model", model, "--data", str(csv), "--pipeline"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (1, "")
            assert err.startswith("error: layer 'layer0.weight': code ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [csv]

    def test_pipeline_flag_rejected_for_ntb(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        csv = tmp_path / "d.csv"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        csv.write_text("x1,x2,x3,x4,label\n0,0,0,0,0\n")
        code, _, err = run(capsys, "infer", "--model", str(ntb), "--data", str(csv),
                           "--pipeline")
        assert code == 1 and "pipeline" in err

    def test_oversized_codebook_rejected(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        target = tmp_path / "o.hcmp"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        code, out, err = run(capsys, "compress", "--input", str(ntb),
                             "--output", str(target), "--u", "1048577")
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith("error: ") and "num_points" in err
        assert err.strip().count("\n") == 0

    def test_oversized_ring_count_rejected(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        target = tmp_path / "o.hcmp"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        code, out, err = run(capsys, "compress", "--input", str(ntb),
                             "--output", str(target), "--max-class", "65536")
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith("error: ") and "max_category" in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("overrides", [
        [1, 2],
        {"layers": {"layer0.weight": 5}},
        {"default": {"u": None}},
        {"default": {"direction": ["grid"]}},
        {"default": {"u": math.inf}},  # written as Infinity, read back as inf
        # Nothing is coerced: u and max_class are JSON integers, l a JSON
        # number, and booleans are neither.
        {"default": {"u": 16.7}},
        {"default": {"u": 64.0}},
        {"default": {"max_class": 2.9}},
        {"default": {"u": True}},
        {"default": {"max_class": False}},
        {"default": {"u": "64"}},
        {"default": {"l": True}},
        {"default": {"l": "0.1"}},
        {"default": {"l": None}},
    ])
    def test_malformed_overrides_rejected(self, tmp_path, capsys, overrides):
        ntb = tmp_path / "m.ntb"
        target = tmp_path / "o.hcmp"
        spec = tmp_path / "p.json"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        spec.write_text(json.dumps(overrides))
        code, out, err = run(capsys, "compress", "--input", str(ntb),
                             "--output", str(target), "--per-layer", str(spec))
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        default = overrides.get("default") if isinstance(overrides, dict) else None
        for key in default if isinstance(default, dict) else ():
            assert repr(key) in err

    @pytest.mark.parametrize("overrides, key", [
        ({"default": {"U": 64}}, "U"),
        ({"layers": {"layer0.weigth": {"u": 16}}}, "layer0.weigth"),
        ({"defaults": {"u": 64}}, "defaults"),
    ])
    def test_unknown_override_keys_rejected(self, tmp_path, capsys, overrides, key):
        ntb = tmp_path / "m.ntb"
        target = tmp_path / "o.hcmp"
        spec = tmp_path / "p.json"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        spec.write_text(json.dumps(overrides))
        code, out, err = run(capsys, "compress", "--input", str(ntb),
                             "--output", str(target), "--per-layer", str(spec))
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert repr(key) in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bad", ["original", "restored"])
    def test_eval_names_a_non_finite_weight(self, tmp_path, capsys, value, bad):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "4,3,2", "--seed", "0", "--output", str(ntb))
        tensors = read_ntb(ntb).tensors
        tensors[2].data[1] = value
        write_ntb(TensorBundle(tensors), tmp_path / "bad.ntb")
        paths = {"original": str(ntb), "restored": str(ntb), bad: str(tmp_path / "bad.ntb")}
        code, out, err = run(capsys, "eval", "--original", paths["original"],
                             "--restored", paths["restored"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert f"bad.ntb: tensor {tensors[2].name!r} element 1 is not finite: " in err

    @pytest.mark.parametrize("shapes_a, shapes_b, name", [
        ([(4,), (2,)], [(2,), (4,)], "a"),  # same names and flattened values
        ([(4,)], [(2, 2)], "a"),
        ([(3,), (2, 3)], [(3,), (3, 2)], "b"),
    ], ids=["swapped", "reshaped", "transposed"])
    def test_eval_refuses_a_shape_mismatch(self, tmp_path, capsys, shapes_a, shapes_b, name):
        paths = []
        for tag, shapes in (("a", shapes_a), ("b", shapes_b)):
            tensors, start = [], 0
            for n, shape in zip("ab", shapes):
                tensors.append(Tensor(n, shape, range(start, start + math.prod(shape))))
                start += math.prod(shape)
            paths.append(tmp_path / f"{tag}.ntb")
            write_ntb(TensorBundle(tensors), paths[-1])
        code, out, err = run(capsys, "eval", "--original", str(paths[0]),
                             "--restored", str(paths[1]))
        shape_a, shape_b = shapes_a["ab".index(name)], shapes_b["ab".index(name)]
        assert code == 1 and out == ""
        assert err.strip() == (f"error: tensor {name!r} has shape {shape_a} in {paths[0]} "
                               f"but {shape_b} in {paths[1]}")

    def test_pipelined_infer_on_wrong_width_exits(self, tmp_path, capsys):
        # A compute error in the pipelined arm must end the command, not hang it.
        ntb = tmp_path / "m.ntb"
        hcmp = tmp_path / "m.hcmp"
        csv = tmp_path / "bad.csv"
        run(capsys, "gen", "--layers", "6,5,4,3,2", "--seed", "0", "--output", str(ntb))
        run(capsys, "compress", "--input", str(ntb), "--output", str(hcmp))
        csv.write_text("x1,x2,x3,label\n0,0,0,0\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "hypc.cli", "infer", "--model", str(hcmp),
             "--data", str(csv), "--pipeline"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: batch must be (n, 6)")
        assert result.stderr.strip().count("\n") == 0
        # The message names the CSV and the model, in both arms.
        assert result.stderr == (f"error: batch must be (n, 6), got (1, 3): {csv} has 3 "
                                 f"feature columns, {hcmp} takes 6\n")
        for model, flags in ((ntb, []), (hcmp, [])):
            assert run(capsys, "infer", "--model", str(model), "--data", str(csv), *flags) == (
                1, "", f"error: batch must be (n, 6), got (1, 3): {csv} has 3 feature "
                f"columns, {model} takes 6\n")

    def test_piped_csv_error_names_the_file_line(self, tmp_path, capsys):
        # A pipe cannot be read twice: the row that does not parse is found
        # among the lines already read. Line 4 holds two of three columns.
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "2,3,2", "--seed", "0", "--output", str(ntb))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "hypc.cli", "infer", "--model", str(ntb),
             "--data", "/dev/stdin"],
            input="x1,x2,label\n0.1,0.2,0\n\n0.3,0.4\n0.5,0.6,1\n", env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: /dev/stdin: line 4: not 3 numbers\n"

    @pytest.mark.parametrize("flags", [[], ["--pipeline"]])
    @pytest.mark.parametrize("shapes, message", [
        ([((3, 4), (1,))], "bias size 1 != output dim 3"),
        ([((3, 4), (3,)), ((2, 5), (2,))],
         "layer input dim 5 does not chain from previous output dim 3"),
    ])
    def test_infer_refuses_bad_shapes_before_decoding(self, tmp_path, capsys, monkeypatch,
                                                      shapes, message, flags):
        # Both arms check every layer's shapes from the file's metadata, so
        # numpy never broadcasts a bias and no layer decodes first.
        hcmp = tmp_path / "m.hcmp"
        csv = tmp_path / "d.csv"
        layers = []
        for i, (weight, bias) in enumerate(shapes):
            layers.append(encode_layer([0.1] * math.prod(weight), f"layer{i}.weight", weight))
            layers.append(encode_layer([0.1] * math.prod(bias), f"layer{i}.bias", bias))
        write_hcmp(CompressedModel(layers), hcmp)
        csv.write_text("x1,x2,x3,x4,label\n0,0,0,0,0\n")
        decoded = []
        real = inference.decode_layer
        monkeypatch.setattr(inference, "decode_layer",
                            lambda enc, *a: (decoded.append(enc.name), real(enc, *a))[1])
        code, out, err = run(capsys, "infer", "--model", str(hcmp), "--data", str(csv),
                             *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert decoded == []

    @pytest.mark.parametrize("suffix, flags", [
        (".hcmp", []), (".hcmp", ["--pipeline"]), (".ntb", []),
    ])
    def test_empty_model_is_a_data_error(self, tmp_path, capsys, suffix, flags):
        model = tmp_path / f"empty{suffix}"
        csv = tmp_path / "d.csv"
        if suffix == ".hcmp":
            write_hcmp(CompressedModel([]), model)
        else:
            write_ntb(TensorBundle([]), model)
        csv.write_text("x1,x2,label\n0,0,0\n")
        code, out, err = run(capsys, "infer", "--model", str(model),
                             "--data", str(csv), *flags)
        assert code == 1 and out == ""
        assert err == "error: model has no layers\n"

    @pytest.mark.parametrize("body, message", [
        ("0,0,1.5\n", "line 2: label 1.5"),
        ("0,0,nan\n", "line 2: label nan"),
        ("0,0,0\n0,nan,0\n", "line 3: feature is not finite"),
        ("0,inf,1\n", "line 2: feature is not finite"),
        ("", "no data rows"),
        # Rows numpy cannot parse: the file line, not numpy's row index.
        ("0.1,0.2,0\n\n0.3,0.4\n", "d.csv: line 4: not 3 numbers"),
        ("0.1,0.2,0\n0.3,abc,1\n", "d.csv: line 3: not 3 numbers"),
        ("abc,0.2,0\n0.3,0.4,1\n", "d.csv: line 2: not 3 numbers"),
    ])
    def test_bad_dataset_rows_rejected(self, tmp_path, capsys, body, message):
        ntb = tmp_path / "m.ntb"
        csv = tmp_path / "d.csv"
        run(capsys, "gen", "--layers", "2,3,2", "--seed", "0", "--output", str(ntb))
        csv.write_text("x1,x2,label\n" + body)
        code, out, err = run(capsys, "infer", "--model", str(ntb), "--data", str(csv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("rename", [False, True])
    def test_leading_zero_layer_index_is_refused(self, tmp_path, capsys, rename):
        # A zero layer01.weight next to layer1.weight, or in its place: both
        # arms refuse the name instead of ignoring the tensor or failing a lookup.
        ntb, hcmp, csv = tmp_path / "m.ntb", tmp_path / "m.hcmp", tmp_path / "d.csv"
        run(capsys, "gen", "--layers", "4,3,2", "--output", str(ntb))
        tensors = [t for t in read_ntb(ntb).tensors
                   if not (rename and t.name == "layer1.weight")]
        write_ntb(TensorBundle(tensors + [Tensor("layer01.weight", (2, 3), [0.0] * 6)]), ntb)
        run(capsys, "compress", "--input", str(ntb), "--output", str(hcmp))
        csv.write_text("x1,x2,x3,x4,label\n0,0,0,0,0\n")
        for model, flags in ((ntb, []), (hcmp, []), (hcmp, ["--pipeline"])):
            assert run(capsys, "infer", "--model", str(model), "--data", str(csv), *flags) == (
                1, "", "error: tensor 'layer01.weight' does not follow layer<i>.weight/bias "
                "naming\n")

    def test_bad_direction_in_overrides(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        overrides = tmp_path / "p.json"
        overrides.write_text(json.dumps({"default": {"direction": "spiral"}}))
        code, _, err = run(capsys, "compress", "--input", str(ntb),
                           "--output", str(tmp_path / "o.hcmp"),
                           "--per-layer", str(overrides))
        assert code == 1 and "direction" in err

    @pytest.mark.parametrize("text", [
        '{"default": ' + "[" * 5000 + "]" * 5000 + "}",
        "[" * 5000 + "]" * 5000,
    ], ids=["under-default", "at-the-top"])
    def test_deeply_nested_overrides_are_one_error_line(self, tmp_path, capsys, text):
        # The JSON reader recurses once per level and gave up with a
        # RecursionError traceback.
        ntb = tmp_path / "m.ntb"
        target = tmp_path / "o.hcmp"
        spec = tmp_path / "p.json"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        spec.write_text(text)
        assert run(capsys, "compress", "--input", str(ntb), "--output", str(target),
                   "--per-layer", str(spec)) == (
            1, "", f"error: --per-layer: {spec} nests deeper than the JSON reader's "
            "recursion limit\n")
        assert not target.exists()

    def test_oversized_gen_model_is_refused_before_drawing(self, tmp_path, capsys, monkeypatch):
        # 10^10 weights asked numpy for 37.3 GiB and failed with a traceback.
        monkeypatch.setattr(cli.np.random, "default_rng", None)  # nothing is drawn
        target = tmp_path / "m.ntb"
        assert run(capsys, "gen", "--layers", "100000,100000", "--output", str(target)) == (
            1, "", "error: --layers 100000,100000 makes 10000100000 weights; gen draws at "
            "most 134217728 (2^27, 512 MiB of float32)\n")
        assert not target.exists()

    @pytest.mark.parametrize("command", [["gen", "--layers", "4,2"], ["train-toy"]])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        # numpy's own refusal, "expected non-negative integer", named no flag.
        target = tmp_path / "m.ntb"
        assert run(capsys, *command, "--seed", "-1", "--output", str(target)) == (
            1, "", "error: seed must be >= 0, got -1\n")
        assert not target.exists()

    def test_box_side_below_the_floor_is_one_error_line(self, tmp_path, capsys):
        # At l = 1e-200 squared distances underflow, and pairs decoded up to
        # 9.9 times past their ring bound.
        ntb, target = tmp_path / "m.ntb", tmp_path / "o.hcmp"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        assert run(capsys, "compress", "--input", str(ntb), "--output", str(target),
                   "--l", "1e-200") == (
            1, "", "error: layer 'layer0.weight': box side 1e-200 is below the floor "
            "1e-150, where the lookup's squared distances underflow\n")
        assert not target.exists()


# Runs in a fresh interpreter, so the modules it finds loaded are the ones
# hypc itself imported.
_SCIPY_PROBE = textwrap.dedent("""
    import sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import hypc, hypc.cli
    assert not scipy_modules(), ("import", scipy_modules())
    for argv in (
        ["decompress", "--input", "m.hcmp", "--output", "back.ntb"],
        ["eval", "--original", "m.ntb", "--restored", "back.ntb"],
        ["infer", "--model", "m.hcmp", "--data", "d.csv", "--pipeline"],
    ):
        assert hypc.cli.main(argv) == 0
        assert not scipy_modules(), (argv[0], scipy_modules())
    assert hypc.cli.main(["compress", "--input", "m.ntb", "--output", "again.hcmp"]) == 0
    assert not scipy_modules(), ("compress", scipy_modules())
""")


class TestImports:
    def test_scipy_loads_only_to_encode(self, tmp_path, capsys):
        # No codec subcommand loads scipy, compress included; only perc does.
        ntb = tmp_path / "m.ntb"
        hcmp = tmp_path / "m.hcmp"
        run(capsys, "gen", "--layers", "4,3,2", "--seed", "0", "--output", str(ntb))
        run(capsys, "compress", "--input", str(ntb), "--output", str(hcmp))
        (tmp_path / "d.csv").write_text("x1,x2,x3,x4,label\n0.1,0.2,0.3,0.4,0\n"
                                        "0.4,0.3,0.2,0.1,1\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path,
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "again.hcmp").read_bytes() == hcmp.read_bytes()


    def test_cli_loads_no_secrets_or_hmac(self, tmp_path, capsys):
        # Temp-file names come from os.urandom: secrets would also load hmac
        # and _hashlib, about 6 ms of start-up per CLI process. (numpy.random
        # loads them, so gen, which draws weights, does too.)
        run(capsys, "gen", "--layers", "4,3", "--output", str(tmp_path / "m.ntb"))
        probe = textwrap.dedent("""
            import sys
            import hypc.cli
            assert not {"secrets", "hmac"} & set(sys.modules), "import"
            assert hypc.cli.main(["compress", "--input", "m.ntb", "--output", "m.hcmp"]) == 0
            assert hypc.cli.main(["decompress", "--input", "m.hcmp", "--output", "r.ntb"]) == 0
            loaded = {"secrets", "hmac"} & set(sys.modules)
            assert not loaded, loaded
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_reference_encoder_loads_no_hypc_or_scipy(self):
        # The reference encoder checks what hypc encodes, so it takes nothing
        # from hypc; hypc stays importable here, so an import would show.
        weights = [0.1, -0.2, 0.3, 0.05, 0.7]
        probe = textwrap.dedent(f"""
            import sys
            import reference_encoder
            enc = reference_encoder.encode({weights!r}, 0.1, 225, 3, 0)
            loaded = [m for m in sys.modules if m.split(".")[0] in ("hypc", "scipy")]
            assert not loaded, loaded
            print(enc.payload.hex())
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == encode_layer(weights, "w", (5,)).payload.hex()

    # Importing one module loads only what it needs: the package itself
    # imports nothing, so every name comes from the module that defines it.
    @pytest.mark.parametrize("module, hypc_modules", [
        ("hypc.codec", ["hypc", "hypc.codebook", "hypc.codec", "hypc.errors"]),
        ("hypc.percolation", ["hypc", "hypc.percolation"]),
    ])
    def test_module_loads_only_what_it_needs(self, module, hypc_modules):
        probe = textwrap.dedent(f"""
            import sys
            import {module}
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "hypc")
            assert loaded == {hypc_modules!r}, loaded
            assert "concurrent.futures" not in sys.modules
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_package_binds_no_public_name(self):
        probe = "import hypc; print(' '.join(sorted(vars(hypc))))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        names = result.stdout.split()
        assert "__doc__" in names
        assert [n for n in names if not (n.startswith("__") and n.endswith("__"))] == []


class TestSeedFallback:
    def test_env_seed_is_ignored(self, tmp_path, capsys, monkeypatch):
        # --seed alone picks the seed: HYPC_SEED, read before, is not.
        monkeypatch.setenv("HYPC_SEED", "9")
        a = tmp_path / "a.ntb"
        b = tmp_path / "b.ntb"
        code, out, _ = run(capsys, "gen", "--layers", "4,4", "--output", str(a))
        assert code == 0 and json.loads(out)["seed"] == 0
        monkeypatch.delenv("HYPC_SEED")
        run(capsys, "gen", "--layers", "4,4", "--seed", "0", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_to_zero_without_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HYPC_SEED", raising=False)
        code, out, _ = run(capsys, "gen", "--layers", "4,4",
                           "--output", str(tmp_path / "c.ntb"))
        assert code == 0 and json.loads(out)["seed"] == 0


# Every subcommand's option strings (-h aside). A new flag edits this table.
OPTIONS = {
    "compress": ["--direction", "--input", "--l", "--max-class", "--output", "--per-layer",
                 "--u"],
    "decompress": ["--input", "--output"],
    "inspect": ["--pretty"],
    "eval": ["--original", "--restored"],
    "gen": ["--layers", "--output", "--seed"],
    "train-toy": ["--dump-data", "--output", "--seed"],
    "infer": ["--data", "--model", "--pipeline"],
    "perc p0": [],
    "perc estimate": ["--height", "--probes", "--r", "--seed", "--trials", "--width"],
}


def test_parser_options_match_the_table():
    def leaves(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield prefix, sorted(s for a in parser._actions for s in a.option_strings
                                 if s not in ("-h", "--help"))
        for sub in subs:
            for name, child in sub.choices.items():
                yield from leaves(child, f"{prefix} {name}".strip())

    assert dict(leaves(build_parser(), "")) == OPTIONS


class TestDeterminism:
    def test_compress_is_deterministic(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "9,5", "--seed", "4", "--output", str(ntb))
        a = tmp_path / "a.hcmp"
        b = tmp_path / "b.hcmp"
        run(capsys, "compress", "--input", str(ntb), "--output", str(a))
        run(capsys, "compress", "--input", str(ntb), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_reference_model_bytes_are_pinned(self, reference_model):
        # Every encoder and decoder change so far has kept these bytes; the
        # digests pin what the fast encode arm writes for the reference model.
        ntb, hcmp, out = reference_model
        assert hashlib.sha256(ntb.read_bytes()).hexdigest() == (
            "88941b0311349a7c3133b18fa9ecc79707ff2a5b7a5f746c3ff7b1fb76fb6231")
        assert hashlib.sha256(hcmp.read_bytes()).hexdigest() == (
            "d40d8a5b267dc4008a0f27d35f5e8c0cacaaca723ebfa4b2f8b76195d5e95472")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "95eecefdff9beaa0aa16327ed31a83841f8ed92552087b54e0c66ad6597e57d9")

    @pytest.mark.parametrize("u, digest", [
        (225, "f607efc5b81f08271a7fb9eac836dd4baa216234de23c950188fad5a67408e1e"),
        (65536, "8fb119299a32a6fd3b09ce0e9f8be1ae017fb1cdc3e785fff2c39ff176a2f0b2"),
    ])
    def test_reference_model_paper_bytes_are_pinned(self, reference_model, tmp_path, u, digest):
        # What --direction paper writes, pinned while most of its lookups
        # still went to the row sweep; the stencil that now settles them must
        # pick the same indices.
        hcmp = tmp_path / "p.hcmp"
        assert main(["compress", "--input", str(reference_model[0]), "--output", str(hcmp),
                     "--direction", "paper", "--u", str(u)]) == 0
        assert hashlib.sha256(hcmp.read_bytes()).hexdigest() == digest

    def test_reference_model_eval_is_pinned(self, reference_model, capsys):
        # eval's JSON, text included: its means run over all 1.1 M weights in
        # numpy's pairwise summation order. error_stats forms the differences
        # block by block along numpy's own tree, which keeps that order.
        ntb, _, out = reference_model
        capsys.readouterr()
        code, text, _ = run(capsys, "eval", "--original", str(ntb), "--restored", str(out))
        assert code == 0
        assert text == json.dumps({"max_abs": 0.053445518016815186,
                                   "mean_abs": 0.016570853668941437,
                                   "rmse": 0.02005254369915634}) + "\n"

    def test_eval_peak_memory(self, reference_model, capsys):
        # Each file's 1.1 M weights are read once into one float32 array
        # (4.2 MiB each); the differences take one leaf of 2^16 values at a
        # time. Measured in process: 8.9 MiB, against 17.1 MiB when each file
        # was read whole, sliced and joined into a second array.
        ntb, _, out = reference_model
        tracemalloc.start()
        try:
            code = main(["eval", "--original", str(ntb), "--restored", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 10 * 2**20, peak

    @pytest.mark.parametrize("mode, u, m, side, share", [
        (DirectionMode.PAPER_EQ, 225, 3, 0.1, 0.02),
        (DirectionMode.PAPER_EQ, 4096, 3, 0.1, 0.02),
        (DirectionMode.PAPER_EQ, 65536, 3, 0.1, 0.02),
        # the four codec-sweep settings
        (DirectionMode.GRID_SHEAR, 225, 3, 0.1, 0.0),
        (DirectionMode.GRID_SHEAR, 361, 8, 0.01, 0.0),
        (DirectionMode.GRID_SHEAR, 4096, 3, 0.1, 0.0),
        (DirectionMode.GRID_SHEAR, 65536, 15, 0.1, 0.0),
    ])
    def test_reference_model_lookups_rarely_reach_the_sweep(
            self, reference_model, monkeypatch, mode, u, m, side, share):
        # Rounding and the stencil settle the reference model's lookups in
        # both modes; the row sweep is the fallback for ties at a certificate's
        # edge and float-collapsed codebooks. When PAPER_EQ queries past the
        # lattice's narrow strip skipped the stencil, 97-99.99% reached it.
        counts = collections.Counter()

        def counting(key, method):
            def counted(self, queries, *rest):
                counts[key] += len(queries)
                return method(self, queries, *rest)
            return counted

        monkeypatch.setattr(Codebook, "nearest_many", counting("lookups", Codebook.nearest_many))
        monkeypatch.setattr(_RowSweep, "sweep", counting("swept", _RowSweep.sweep))
        params = EncodeParams(side, u, m, mode)
        for t in read_ntb(reference_model[0]).tensors:
            encode_layer(t.data, t.name, t.shape, params)
        assert counts["lookups"] == 554_854
        assert counts["swept"] <= share * counts["lookups"], counts

    def test_gen_uniform_range(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "50,50", "--seed", "6", "--output", str(ntb))
        for t in read_ntb(ntb).tensors:
            assert t.data.min() >= -0.5 and t.data.max() <= 0.5
