"""Bit-exact file formats: NTB (raw float32 tensors) and HCMP (compressed model).

All multi-byte integers are little-endian, so files written anywhere decode
identically everywhere. Writers go through a temp file and an atomic rename;
a failed write never leaves a partial output behind.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from dataclasses import dataclass, field

import numpy as np

from .codebook import CodebookConfig, DirectionMode
from .codec import EncodedLayer
from .errors import FormatError

NTB_MAGIC = b"NTB1"
HCMP_MAGIC = b"HCMP"
HCMP_VERSION = 1
DTYPE_F32 = 0

# Fixed part of an HCMP layer record, between its shape and its payload:
# element count, padded flag, box side, U, max category, direction mode,
# centroid x and y, max radius, pad value, bit width, payload length.
_HCMP_LAYER = struct.Struct("<QBdIHBddddBQ")
_PADDED_AT, _MODE_AT = 8, 23  # byte offsets of the two tags within it


@dataclass
class Tensor:
    """One named float32 tensor with its logical shape."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        if not self.name:
            raise ValueError("tensor name must be non-empty")
        self.shape = tuple(int(s) for s in self.shape)
        self.data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        if math.prod(self.shape) != self.data.size:
            raise ValueError(
                f"tensor {self.name!r}: shape {self.shape} does not hold "
                f"{self.data.size} elements"
            )
        if len(self.shape) > 255:
            raise ValueError(f"tensor {self.name!r}: rank {len(self.shape)} exceeds 255")


@dataclass
class TensorBundle:
    """Ordered collection of uniquely named tensors; the uncompressed exchange format."""

    tensors: list[Tensor] = field(default_factory=list)

    def __post_init__(self):
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            dupe = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"duplicate tensor name {dupe!r}")

    def get(self, name: str) -> Tensor:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def total_elements(self) -> int:
        return sum(t.data.size for t in self.tensors)


@dataclass
class CompressedModel:
    """Ordered, uniquely named encoded layers; decodable with no external data."""

    layers: list[EncodedLayer] = field(default_factory=list)
    version: int = HCMP_VERSION

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            dupe = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"duplicate layer name {dupe!r}")


class _Reader:
    """Cursor over a byte blob that reports the offset of any shortfall."""

    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"{self.label}: truncated, need {n} bytes at offset {self.pos}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def expect_end(self):
        if self.pos != len(self.blob):
            raise FormatError(
                f"{self.label}: {len(self.blob) - self.pos} trailing bytes at offset {self.pos}"
            )

    def name(self) -> str:
        length = self.unpack("<H")
        raw = self.take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.label}: bad UTF-8 name at offset {self.pos - length}") from exc


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if not 1 <= len(raw) <= 0xFFFF:
        raise ValueError(f"name {name!r} must encode to 1..65535 bytes")
    return struct.pack("<H", len(raw)) + raw


def _encode_shape(shape: tuple[int, ...]) -> bytes:
    return struct.pack("<B", len(shape)) + b"".join(struct.pack("<Q", d) for d in shape)


def _read_shape(r: _Reader) -> tuple[int, ...]:
    rank = r.unpack("<B")
    return tuple(r.unpack("<Q") for _ in range(rank))


def dump_ntb(bundle: TensorBundle) -> bytes:
    parts = [NTB_MAGIC, struct.pack("<I", len(bundle.tensors))]
    for t in bundle.tensors:
        parts.append(_encode_name(t.name))
        parts.append(_encode_shape(t.shape))
        parts.append(struct.pack("<B", DTYPE_F32))
        parts.append(t.data.astype("<f4", copy=False).tobytes())
    return b"".join(parts)


def load_ntb(blob: bytes) -> TensorBundle:
    r = _Reader(blob, "NTB")
    if r.take(4) != NTB_MAGIC:
        raise FormatError("NTB: bad magic at offset 0")
    count = r.unpack("<I")
    tensors = []
    for _ in range(count):
        name = r.name()
        shape = _read_shape(r)
        dtype = r.unpack("<B")
        if dtype != DTYPE_F32:
            raise FormatError(f"NTB: unknown dtype tag {dtype} at offset {r.pos - 1}")
        n = math.prod(shape)
        raw = r.take(4 * n)
        data = np.frombuffer(raw, dtype="<f4", count=n).astype(np.float32)
        try:
            tensors.append(Tensor(name, shape, data))
        except ValueError as exc:
            raise FormatError(f"NTB: {exc}") from exc
    r.expect_end()
    try:
        return TensorBundle(tensors)
    except ValueError as exc:
        raise FormatError(f"NTB: {exc}") from exc


def dump_hcmp(model: CompressedModel) -> bytes:
    if model.version != HCMP_VERSION:
        raise ValueError(f"can only write version {HCMP_VERSION}, got {model.version}")
    parts = [HCMP_MAGIC, struct.pack("<HI", model.version, len(model.layers))]
    for layer in model.layers:
        cfg = layer.config
        parts.append(_encode_name(layer.name))
        parts.append(_encode_shape(layer.shape))
        parts.append(_HCMP_LAYER.pack(
            layer.element_count, int(layer.padded), cfg.box_side, cfg.num_points,
            cfg.max_category, int(cfg.direction_mode), *cfg.centroid,
            cfg.max_radius, layer.pad_value, layer.bit_width, len(layer.payload),
        ))
        parts.append(layer.payload)
    return b"".join(parts)


def load_hcmp(blob: bytes) -> CompressedModel:
    r = _Reader(blob, "HCMP")
    if r.take(4) != HCMP_MAGIC:
        raise FormatError("HCMP: bad magic at offset 0")
    version = r.unpack("<H")
    if version != HCMP_VERSION:
        raise FormatError(f"HCMP: unsupported version {version}")
    count = r.unpack("<I")
    layers = []
    for _ in range(count):
        name = r.name()
        shape = _read_shape(r)
        fixed_at = r.pos
        (element_count, padded, box_side, num_points, max_category, mode_tag,
         cx, cy, max_radius, pad_value, bit_width, payload_len,
         ) = _HCMP_LAYER.unpack(r.take(_HCMP_LAYER.size))
        if padded not in (0, 1):
            raise FormatError(
                f"HCMP: bad padded flag {padded} at offset {fixed_at + _PADDED_AT}")
        if mode_tag not in (0, 1):
            raise FormatError(
                f"HCMP: bad direction mode {mode_tag} at offset {fixed_at + _MODE_AT}")
        payload = r.take(payload_len)
        try:
            config = CodebookConfig(box_side, num_points, max_category,
                                    DirectionMode(mode_tag), (cx, cy), max_radius)
            layer = EncodedLayer(name, shape, element_count, bool(padded),
                                 config, bit_width, payload, pad_value)
        except ValueError as exc:
            raise FormatError(f"HCMP: layer {name!r}: {exc}") from exc
        layers.append(layer)
    r.expect_end()
    try:
        return CompressedModel(layers, version)
    except ValueError as exc:
        raise FormatError(f"HCMP: {exc}") from exc


def _write_blob(blob: bytes, dest) -> None:
    if hasattr(dest, "write"):
        dest.write(blob)
        return
    path = os.fspath(dest)
    directory = os.path.dirname(os.path.abspath(path))
    # Created like open(path, "wb") would, so the umask sets the final mode.
    tmp = os.path.join(directory, f".hypc-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_blob(src) -> bytes:
    if hasattr(src, "read"):
        return src.read()
    with open(os.fspath(src), "rb") as f:
        return f.read()


def write_ntb(bundle: TensorBundle, dest) -> None:
    """Serialize a bundle to a path or binary file object."""
    _write_blob(dump_ntb(bundle), dest)


def read_ntb(src) -> TensorBundle:
    return load_ntb(_read_blob(src))


def write_hcmp(model: CompressedModel, dest) -> None:
    """Serialize a compressed model to a path or binary file object."""
    _write_blob(dump_hcmp(model), dest)


def read_hcmp(src) -> CompressedModel:
    return load_hcmp(_read_blob(src))
