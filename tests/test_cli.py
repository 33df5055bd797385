import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hypc.cli import main
from hypc.container import (
    CompressedModel,
    TensorBundle,
    read_hcmp,
    read_ntb,
    write_hcmp,
    write_ntb,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_bad_direction_in_overrides(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "4,2", "--seed", "0", "--output", str(ntb))
        overrides = tmp_path / "p.json"
        overrides.write_text(json.dumps({"default": {"direction": "spiral"}}))
        code, _, err = run(capsys, "compress", "--input", str(ntb),
                           "--output", str(tmp_path / "o.hcmp"),
                           "--per-layer", str(overrides))
        assert code == 1 and "direction" in err


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


    def test_reference_encode_loads_no_scipy(self):
        # The reference arm scans the points exhaustively.
        probe = textwrap.dedent("""
            import sys
            from hypc.codec import encode_layer
            encode_layer([0.1, -0.2, 0.3, 0.05, 0.7], "w", (5,), reference=True)
            loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            assert not loaded, loaded
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPC_SEED", "9")
        a = tmp_path / "a.ntb"
        b = tmp_path / "b.ntb"
        code, out, _ = run(capsys, "gen", "--layers", "4,4", "--output", str(a))
        assert code == 0 and json.loads(out)["seed"] == 9
        monkeypatch.delenv("HYPC_SEED")
        run(capsys, "gen", "--layers", "4,4", "--seed", "9", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_to_zero_without_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HYPC_SEED", raising=False)
        code, out, _ = run(capsys, "gen", "--layers", "4,4",
                           "--output", str(tmp_path / "c.ntb"))
        assert code == 0 and json.loads(out)["seed"] == 0


class TestDeterminism:
    def test_compress_is_deterministic(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "9,5", "--seed", "4", "--output", str(ntb))
        a = tmp_path / "a.hcmp"
        b = tmp_path / "b.hcmp"
        run(capsys, "compress", "--input", str(ntb), "--output", str(a))
        run(capsys, "compress", "--input", str(ntb), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_uniform_range(self, tmp_path, capsys):
        ntb = tmp_path / "m.ntb"
        run(capsys, "gen", "--layers", "50,50", "--seed", "6", "--output", str(ntb))
        for t in read_ntb(ntb).tensors:
            assert t.data.min() >= -0.5 and t.data.max() <= 0.5
