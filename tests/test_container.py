import ast
import hashlib
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypc.codebook import DirectionMode, direction_vector
from hypc.codec import EncodeParams, decode_layer, encode_layer, pack_bits, unpack_bits
from hypc.container import (
    CompressedModel,
    Tensor,
    TensorBundle,
    dump_hcmp,
    dump_ntb,
    load_hcmp,
    load_ntb,
    read_hcmp,
    read_ntb,
    write_hcmp,
    write_ntb,
)
from hypc.errors import FormatError

import hcmp_v1_spec

SRC = Path(__file__).resolve().parent.parent / "src"
V1_CORPUS = Path(__file__).parent / "data" / "hcmp_v1"
V1_HASHES = json.loads((V1_CORPUS / "SHA256.json").read_text())
# Files that load but hold a code that decodes to non-finite weights, with the
# SHA-256 of their bytes.
V1_REFUSED = {
    "zero_scale.hcmp": "dc570e0d8c1c2c8d02cc6bb02f68d6746713447cd980360c37419fec3d953fd5",
    "float32_range.hcmp": "b10fc8b75f67ac67d0db7681872c71fac7a7070bde9269db3b52dbf8457f59c1",
}


def random_bundle(rng, max_tensors=5, max_elems=40) -> TensorBundle:
    tensors = []
    for i in range(rng.integers(0, max_tensors + 1)):
        rank = int(rng.integers(0, 3))
        shape = tuple(int(d) for d in rng.integers(0, 5, size=rank))
        n = math.prod(shape)
        kind = rng.integers(0, 3)
        if kind == 0:
            data = np.full(n, 0.25, dtype=np.float32)  # constant
        else:
            data = (rng.random(n, dtype=np.float32) - np.float32(0.5))
        tensors.append(Tensor(f"t{i}", shape, data))
    return TensorBundle(tensors)


class TestNtb:
    def test_empty_bundle_is_eight_bytes(self):
        blob = dump_ntb(TensorBundle([]))
        assert blob == b"NTB1" + b"\x00\x00\x00\x00"
        assert len(blob) == 8

    def test_single_tensor_layout(self):
        blob = dump_ntb(TensorBundle([Tensor("w", (2,), np.array([1.0, 2.0]))]))
        # magic(4) count(4) namelen(2) name(1) rank(1) dim(8) dtype(1) payload(8)
        assert len(blob) == 29
        assert blob[:4] == b"NTB1"
        assert blob[-8:] == bytes.fromhex("0000803f00000040")

    def test_roundtrip_random_bundles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bundle = random_bundle(rng)
            blob = dump_ntb(bundle)
            back = load_ntb(blob)
            assert dump_ntb(back) == blob
            for a, b in zip(bundle.tensors, back.tensors):
                assert a.name == b.name and a.shape == b.shape
                assert a.data.tobytes() == b.data.tobytes()

    def test_file_bytes_equal_dump(self, tmp_path):
        bundle = TensorBundle([Tensor("w", (3,), np.arange(3, dtype=np.float32))])
        model = CompressedModel([encode_layer(bundle.tensors[0].data, "w", (3,))])
        write_ntb(bundle, tmp_path / "x.ntb")
        write_hcmp(model, tmp_path / "x.hcmp")
        assert read_ntb(tmp_path / "x.ntb").tensors[0].data.tolist() == [0.0, 1.0, 2.0]
        assert (tmp_path / "x.ntb").read_bytes() == dump_ntb(bundle)
        assert (tmp_path / "x.hcmp").read_bytes() == dump_hcmp(model)
        assert not list(tmp_path.glob("*.part"))

    def test_failed_replace_leaves_no_part_file(self, tmp_path):
        # The destination is a directory, so the final os.replace fails after
        # the bytes are written: the temporary file goes, the directory stays.
        dest = tmp_path / "m.ntb"
        dest.mkdir()
        (dest / "kept").write_bytes(b"x")
        bundle = TensorBundle([Tensor("w", (3,), np.arange(3, dtype=np.float32))])
        with pytest.raises(OSError):
            write_ntb(bundle, dest)
        assert not list(tmp_path.glob(".hypc-*.part"))
        assert [p.name for p in dest.iterdir()] == ["kept"]
        assert (dest / "kept").read_bytes() == b"x"

    @pytest.mark.parametrize("kind", ["ntb", "hcmp"])
    def test_write_syncs_file_then_renames_then_syncs_directory(self, tmp_path, monkeypatch,
                                                               kind):
        bundle = TensorBundle([Tensor("w", (3,), np.arange(3, dtype=np.float32))])
        model = CompressedModel([encode_layer(bundle.tensors[0].data, "w", (3,))])
        write, blob = {"ntb": (lambda p: write_ntb(bundle, p), dump_ntb(bundle)),
                       "hcmp": (lambda p: write_hcmp(model, p), dump_hcmp(model))}[kind]
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append(("dir sync",) if stat.S_ISDIR(st.st_mode) else ("file sync", st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("rename", os.path.dirname(src) == str(tmp_path)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write(tmp_path / f"m.{kind}")
        # The whole file is on disk before its name is, and the name after.
        assert events == [("file sync", len(blob)), ("rename", True), ("dir sync",)]
        assert (tmp_path / f"m.{kind}").read_bytes() == blob

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="offset 0"):
            load_ntb(b"XXXX\x00\x00\x00\x00")

    def test_truncation_names_offset(self):
        blob = dump_ntb(TensorBundle([Tensor("w", (2,), np.array([1.0, 2.0]))]))
        with pytest.raises(FormatError, match="offset"):
            load_ntb(blob[:-3])

    def test_trailing_garbage_rejected(self):
        blob = dump_ntb(TensorBundle([]))
        with pytest.raises(FormatError, match="trailing"):
            load_ntb(blob + b"\x00")

    def test_duplicate_names_rejected(self):
        blob = dump_ntb(TensorBundle([Tensor("w", (0,), np.zeros(0))]))
        # splice the single tensor record in twice and fix the count
        record = blob[8:]
        doubled = b"NTB1" + (2).to_bytes(4, "little") + record + record
        with pytest.raises(FormatError, match="duplicate"):
            load_ntb(doubled)

    def test_unknown_dtype_rejected(self):
        blob = bytearray(dump_ntb(TensorBundle([Tensor("w", (0,), np.zeros(0))])))
        blob[-1] = 7  # dtype tag is the last byte of an empty tensor record
        with pytest.raises(FormatError, match="dtype"):
            load_ntb(bytes(blob))


class TestNtbStreaming:
    def test_huge_declared_size_is_refused_before_allocating(self, tmp_path):
        # 21 bytes: one tensor, header only, declaring 2^40 elements (4 TiB).
        blob = (b"NTB1" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
                + struct.pack("<BQ", 1, 1 << 40) + b"\x00")
        assert len(blob) == 21
        path = tmp_path / "huge.ntb"
        path.write_bytes(blob)
        for load in (lambda: load_ntb(blob), lambda: read_ntb(path)):
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match="truncated, need 4398046511104 bytes"):
                    load()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16, peak

    def test_read_peak_memory(self, tmp_path):
        # 1.1 M weights (4.4 MB): read straight into one float32 array, with no
        # copy of the file; measured peak 4.24 MiB for a 4.23 MiB file,
        # against 10.7 MiB through the whole-file blob and its slices.
        rng = np.random.default_rng(12)
        path = tmp_path / "m.ntb"
        write_ntb(TensorBundle([Tensor("a", (650, 1300), rng.random(845_000, np.float32)),
                                Tensor("b", (264_707,), rng.random(264_707, np.float32))]),
                  path)
        tracemalloc.start()
        try:
            read_ntb(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + 2**18, peak

    def test_tensors_are_slices_of_one_flat_array(self, tmp_path):
        rng = np.random.default_rng(13)
        bundle = random_bundle(rng, max_tensors=6)
        path = tmp_path / "m.ntb"
        write_ntb(bundle, path)
        back = read_ntb(path)
        flat = back.flat()
        want = np.concatenate([t.data for t in bundle.tensors] or [np.zeros(0, np.float32)])
        assert flat.dtype == np.float32 and flat.tobytes() == want.tobytes()
        assert all(np.shares_memory(t.data, flat) for t in back.tensors if t.data.size)
        # A bundle of separate arrays is joined into a new one.
        assert bundle.flat().tobytes() == want.tobytes()
        assert not any(np.shares_memory(t.data, bundle.flat()) for t in bundle.tensors)

    def test_path_and_bytes_reads_agree(self, tmp_path):
        bundle = TensorBundle([Tensor("w", (2, 3), np.linspace(-1, 1, 6)),
                               Tensor("b", (2,), np.float32([0.5, -0.25]))])
        path = tmp_path / "m.ntb"
        write_ntb(bundle, path)
        blob = path.read_bytes()
        assert dump_ntb(read_ntb(path)) == dump_ntb(load_ntb(blob)) == blob
        path.write_bytes(blob[:-1])
        for load in (lambda: read_ntb(path), lambda: load_ntb(blob[:-1])):
            with pytest.raises(FormatError, match="truncated, need 8 bytes"):
                load()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_path_is_read_whole(self):
        # A pipe cannot seek, so its bytes are read first, as in `--input <(...)`.
        blob = dump_ntb(TensorBundle([Tensor("w", (3,), np.float32([1, 2, 3]))]))
        r, w = os.pipe()
        with os.fdopen(w, "wb") as f:
            f.write(blob)
        try:
            assert dump_ntb(read_ntb(f"/dev/fd/{r}")) == blob
        finally:
            os.close(r)


class TestHcmp:
    def encode_model(self, rng, lengths=(10, 7, 0, 1), params=EncodeParams()):
        layers = [
            encode_layer(rng.uniform(-0.6, 0.6, size=n), f"layer{i}", (n,), params)
            for i, n in enumerate(lengths)
        ]
        return CompressedModel(layers)

    def test_zero_layer_file_is_ten_bytes(self):
        blob = dump_hcmp(CompressedModel([]))
        assert len(blob) == 10
        assert blob == b"HCMP" + b"\x01\x00" + b"\x00\x00\x00\x00"

    def test_save_load_decode_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model = self.encode_model(rng)
        path = tmp_path / "m.hcmp"
        write_hcmp(model, path)
        back = read_hcmp(path)
        assert dump_hcmp(back) == path.read_bytes()
        for ours, theirs in zip(model.layers, back.layers):
            assert ours == theirs
            assert decode_layer(ours).tobytes() == decode_layer(theirs).tobytes()

    def test_roundtrip_random_models(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            lengths = tuple(int(n) for n in rng.integers(0, 30, size=rng.integers(0, 4)))
            params = EncodeParams(
                box_side=float(rng.uniform(0.02, 0.5)),
                num_points=int(rng.integers(1, 400)),
                max_category=int(rng.integers(0, 5)) if rng.random() < 0.8 else 0,
            )
            if params.max_category == 0:
                params = EncodeParams(box_side=10.0, num_points=params.num_points,
                                      max_category=0)
            model = self.encode_model(rng, lengths, params)
            blob = dump_hcmp(model)
            assert dump_hcmp(load_hcmp(blob)) == blob

    def test_version_mismatch_rejected(self):
        blob = bytearray(dump_hcmp(CompressedModel([])))
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            load_hcmp(bytes(blob))

    def test_truncation_rejected(self):
        rng = np.random.default_rng(3)
        blob = dump_hcmp(self.encode_model(rng))
        with pytest.raises(FormatError, match="offset"):
            load_hcmp(blob[:-1])

    def test_out_of_range_theta_detected_on_decode(self):
        # 256 points and 3 rings make the bound 1024 = 2**10, so any payload
        # bit pattern decodes; shrink the bound afterwards to force a bad theta
        rng = np.random.default_rng(4)
        enc = encode_layer(rng.uniform(-1, 1, 64), "w", (64,),
                           EncodeParams(num_points=256))
        assert enc.bit_width == 10
        blob = bytearray(dump_hcmp(CompressedModel([enc])))
        # patch max_category (u16) down to 0: bound becomes 256
        # header(10) name(2+1) shape(1+8) element_count(8) padded(1) box_side(8) u(4)
        offset = 10 + 3 + 9 + 9 + 8 + 4
        assert int.from_bytes(blob[offset:offset + 2], "little") == 3
        blob[offset:offset + 2] = (0).to_bytes(2, "little")
        model = load_hcmp(bytes(blob))
        with pytest.raises(FormatError, match="theta"):
            decode_layer(model.layers[0])

    def test_corrupted_byte_has_local_blast_radius(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(-1, 1, size=4000)
        enc = encode_layer(weights, "w", (4000,), EncodeParams(num_points=256))
        assert enc.config.theta_bound == 1024 and enc.bit_width == 10
        clean = decode_layer(enc)
        blob = bytearray(dump_hcmp(CompressedModel([enc])))
        payload_at = len(blob) - len(enc.payload)
        blob[payload_at + 100] ^= 0xFF
        corrupted = decode_layer(load_hcmp(bytes(blob)).layers[0])
        changed_groups = np.unique(
            np.nonzero(corrupted != clean)[0] // 2
        )
        assert 1 <= changed_groups.size <= math.ceil(8 / enc.bit_width) + 1

    def test_oversized_codebook_rejected_on_load(self):
        # a u32 codebook size of 2**31 would make decode allocate 16 GiB
        rng = np.random.default_rng(7)
        enc = encode_layer(rng.uniform(-1, 1, 64), "w", (64,), EncodeParams())
        blob = bytearray(dump_hcmp(CompressedModel([enc])))
        # header(10) name(2+1) shape(1+8) element_count(8) padded(1) box_side(8)
        offset = 10 + 3 + 9 + 9 + 8
        assert int.from_bytes(blob[offset:offset + 4], "little") == 225
        blob[offset:offset + 4] = (1 << 31).to_bytes(4, "little")
        with pytest.raises(FormatError, match="num_points"):
            load_hcmp(bytes(blob))

    @pytest.mark.parametrize("field, at", [("padded flag", 8), ("direction mode", 23)])
    def test_bad_tag_error_names_its_offset(self, field, at):
        enc = encode_layer(np.arange(4.0), "w", (4,))
        blob = bytearray(dump_hcmp(CompressedModel([enc])))
        # header(10) name(2+1) shape(1+8), then the fixed layer fields
        offset = 10 + 3 + 9 + at
        assert blob[offset] == 0
        blob[offset] = 7
        with pytest.raises(FormatError, match=f"bad {field} 7 at offset {offset}$"):
            load_hcmp(bytes(blob))

    def test_payload_length_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        enc = encode_layer(rng.uniform(-1, 1, 10), "w", (10,), EncodeParams())
        blob = bytearray(dump_hcmp(CompressedModel([enc])))
        # stored payload length disagrees with group_count * bit_width
        length_at = len(blob) - len(enc.payload) - 8
        stored = int.from_bytes(blob[length_at:length_at + 8], "little")
        assert stored == len(enc.payload)
        blob[length_at:length_at + 8] = (stored - 1).to_bytes(8, "little")
        with pytest.raises(FormatError):
            load_hcmp(bytes(blob))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_written_files_follow_umask(tmp_path, umask, mode):
    bundle = TensorBundle([Tensor("w", (4,), np.arange(4, dtype=np.float32))])
    model = CompressedModel([encode_layer(bundle.tensors[0].data, "w", (4,))])
    previous = os.umask(umask)
    try:
        write_ntb(bundle, tmp_path / "m.ntb")
        write_hcmp(model, tmp_path / "m.hcmp")
    finally:
        os.umask(previous)
    for name in ("m.ntb", "m.hcmp"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.hcmp", "m.ntb"]


class TestV1Corpus:
    """Files written by the v1 code before the layer-record refactor; never regenerated."""

    @pytest.mark.parametrize("name", sorted(V1_HASHES))
    def test_bytes_and_decoded_values_are_frozen(self, name):
        blob = (V1_CORPUS / name).read_bytes()
        model = load_hcmp(blob)
        assert dump_hcmp(model) == blob
        decoded = {
            layer.name: hashlib.sha256(decode_layer(layer).astype("<f8").tobytes()).hexdigest()
            for layer in model.layers
        }
        assert decoded == V1_HASHES[name]

    @pytest.mark.parametrize("name, finite_f64", [("zero_scale.hcmp", False),
                                                  ("float32_range.hcmp", True)])
    def test_refused_files_load_but_do_not_decode(self, name, finite_f64):
        # zero_scale: l = 1e-300, M = 65535 and max_radius = 1e308, so ring
        # 65535's shrink factor underflows to 0 and its code divides by zero.
        # float32_range: l = 1e300 at centroid (1e300, -1e300) decodes finite
        # in float64, but not in float32. Both biases decode.
        blob = (V1_CORPUS / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == V1_REFUSED[name]
        model = load_hcmp(blob)
        assert dump_hcmp(model) == blob
        weight, bias = model.layers
        code = weight.config.max_category * 225 + 7
        with np.errstate(all="raise", under="ignore"):
            for dtype in (np.float64, np.float32):
                assert np.isfinite(decode_layer(bias, dtype)).all()
                if dtype == np.float64 and finite_f64:
                    assert np.isfinite(decode_layer(weight, dtype)).all()
                    continue
                with pytest.raises(FormatError, match=rf"layer 'layer0\.weight': code {code} "):
                    decode_layer(weight, dtype)

    def test_corpus_covers_the_layer_fields(self):
        layers = [l for name in V1_HASHES for l in read_hcmp(V1_CORPUS / name).layers]
        assert {l.bit_width for l in layers} >= set(range(1, 21))
        assert {l.config.num_points for l in layers} >= {1, 4, 225, 361, 4096, 65536}
        assert {l.config.direction_mode for l in layers} == set(DirectionMode)
        assert {0, 3, 15} <= {l.config.max_category for l in layers}
        assert any(l.padded for l in layers)
        assert any(l.element_count == 0 for l in layers)

    def test_moved_file_holds_top_row_points(self):
        # Every index in moved.hcmp names a point that np.mod left a rounding
        # error below the box side, on the top edge instead of the bottom row.
        for layer in read_hcmp(V1_CORPUS / "moved.hcmp").layers:
            cfg = layer.config
            theta = unpack_bits(layer.payload, layer.bit_width, layer.group_count)
            rings, index = np.divmod(theta, cfg.num_points)
            y = (index * direction_vector(cfg.num_points, cfg.box_side,
                                          cfg.direction_mode)[1]) % cfg.box_side
            assert (y > cfg.box_side * (1 - 1e-9)).all(), layer.name
            assert set(rings.tolist()) == set(range(cfg.max_category + 1))

    def test_table_file_straddles_the_table_threshold(self):
        # table.hcmp holds layers with M >= 1 in both modes that decode through
        # the per-code table (groups >= theta_bound, one exactly at it) and
        # layers one pair short of it that decode code by code.
        layers = read_hcmp(V1_CORPUS / "table.hcmp").layers
        assert all(l.config.max_category >= 1 for l in layers)
        for mode in DirectionMode:
            sides = {l.group_count - l.config.theta_bound
                     for l in layers if l.config.direction_mode == mode}
            assert {-1, 0} <= sides and max(sides) > 0, mode


class TestSpecReader:
    """hypc's loader and unpack_bits against a reader written from the README."""

    def test_reader_imports_only_the_standard_library(self):
        tree = ast.parse(Path(hcmp_v1_spec.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "struct"}

    @pytest.mark.parametrize("name", sorted(V1_HASHES))
    def test_corpus_payloads_unpack_alike(self, name):
        blob = (V1_CORPUS / name).read_bytes()
        spec_layers = hcmp_v1_spec.read_layers(blob)
        layers = load_hcmp(blob).layers
        assert [s["name"] for s in spec_layers] == [l.name for l in layers]
        for spec, layer in zip(spec_layers, layers):
            assert spec["shape"] == layer.shape
            assert spec["element_count"] == layer.element_count
            assert spec["bit_width"] == layer.bit_width
            assert spec["num_points"] == layer.config.num_points
            assert spec["payload"] == layer.payload
            theta = unpack_bits(layer.payload, layer.bit_width, layer.group_count)
            assert theta.tolist() == spec["values"], layer.name

    @pytest.mark.parametrize("name", sorted(V1_HASHES))
    def test_corpus_weights_decode_alike(self, name):
        blob = (V1_CORPUS / name).read_bytes()
        for spec, layer in zip(hcmp_v1_spec.read_layers(blob), load_hcmp(blob).layers):
            weights = hcmp_v1_spec.decode_weights(spec)
            want = decode_layer(layer).astype("<f8").tobytes()
            assert struct.pack(f"<{len(weights)}d", *weights) == want, layer.name

    @pytest.mark.parametrize("width", range(1, 33))
    def test_random_widths_unpack_alike(self, width):
        rng = np.random.default_rng(width)
        for count in (1, 5, 8, 67):
            values = rng.integers(0, 1 << width, size=count)
            payload = pack_bits(values, width)
            spec = hcmp_v1_spec.unpack_values(payload, width, count)
            assert spec == values.tolist()
            assert unpack_bits(payload, width, count).tolist() == spec


def test_mutated_files_load_or_raise_format_error(tmp_path):
    # One process under a 2 GiB address-space cap runs 1,000 hypothesis
    # mutations of the v1 corpus and a small NTB (see mutate_loaders.py); a
    # warning there, such as a numpy overflow on a corrupt field, fails it.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-W", "error", str(Path(__file__).with_name("mutate_loaders.py")),
         "1000"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
