"""Bit-exact file formats: NTB (raw float32 tensors) and HCMP (compressed model).

All multi-byte integers are little-endian, so files written anywhere decode
identically everywhere. Writers sync a temp file, then rename it atomically;
a failed write never leaves a partial output behind. Files are read and written
as streams: a regular file is never held whole in memory, and tensor data goes
straight between the file and its float32 array. ``write_*`` and ``read_*``
take paths; ``dump_*`` and ``load_*`` give and take the bytes in memory.
"""

from __future__ import annotations

import io
import itertools
import math
import os
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

    @property
    def total_elements(self) -> int:
        return sum(t.data.size for t in self.tensors)

    def flat(self) -> np.ndarray:
        """Every element in order as one float32 array; uncopied when the tensors
        are consecutive slices of one, as read_ntb makes them."""
        data = [t.data for t in self.tensors] or [np.zeros(0, np.float32)]
        base = data[0].base
        starts = itertools.accumulate((d.size for d in data), initial=0)
        if (isinstance(base, np.ndarray) and base.dtype == np.float32 and base.ndim == 1
                and all(d.base is base and d.ctypes.data == base.ctypes.data + 4 * at
                        for d, at in zip(data, starts))):
            return base[: self.total_elements]
        return np.concatenate(data)


@dataclass
class CompressedModel:
    """Ordered, uniquely named encoded layers; decodable with no external data."""

    layers: list[EncodedLayer] = field(default_factory=list)

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            dupe = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"duplicate layer name {dupe!r}")


class _Reader:
    """Cursor over a seekable binary stream that checks each read against the
    bytes left before it allocates, and reports the offset of any shortfall."""

    def __init__(self, stream, label: str):
        self.stream, self.label, self.pos = stream, label, 0
        self.size = stream.seek(0, io.SEEK_END)
        stream.seek(0)

    def need(self, n: int) -> None:
        if self.pos + n > self.size:
            raise FormatError(f"{self.label}: truncated, need {n} bytes at offset {self.pos}")

    def take(self, n: int) -> bytes:
        self.need(n)
        return self._advance(n, self.stream.read(n))

    def fill(self, out: np.ndarray) -> None:
        """Read out's bytes straight into it."""
        view = memoryview(out).cast("B")
        self.need(len(view))
        self._advance(len(view), view[: self.stream.readinto(view)])

    def _advance(self, n: int, got):
        if len(got) != n:  # the file shrank since it was opened
            raise FormatError(f"{self.label}: truncated at offset {self.pos}")
        self.pos += n
        return got

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def expect_end(self):
        if self.pos != self.size:
            raise FormatError(
                f"{self.label}: {self.size - self.pos} trailing bytes at offset {self.pos}"
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


def _ntb_parts(bundle: TensorBundle):
    yield NTB_MAGIC + struct.pack("<I", len(bundle.tensors))
    for t in bundle.tensors:
        yield _encode_name(t.name) + _encode_shape(t.shape) + struct.pack("<B", DTYPE_F32)
        yield memoryview(t.data.astype("<f4", copy=False))


def dump_ntb(bundle: TensorBundle) -> bytes:
    return b"".join(_ntb_parts(bundle))


def load_ntb(blob: bytes) -> TensorBundle:
    return _parse_ntb(io.BytesIO(blob))


def _parse_ntb(stream) -> TensorBundle:
    """The tensors are consecutive slices of one float32 array (TensorBundle.flat)."""
    r = _Reader(stream, "NTB")
    if r.take(4) != NTB_MAGIC:
        raise FormatError("NTB: bad magic at offset 0")
    count = r.unpack("<I")
    # Each tensor is read into the next slice of one float32 buffer, which the
    # bytes left bound; a declared size is checked against them before its read.
    buf = np.empty((r.size - r.pos) // 4, dtype="<f4")
    used = 0
    tensors = []
    for _ in range(count):
        name = r.name()
        shape = _read_shape(r)
        dtype = r.unpack("<B")
        if dtype != DTYPE_F32:
            raise FormatError(f"NTB: unknown dtype tag {dtype} at offset {r.pos - 1}")
        n = math.prod(shape)
        r.need(4 * n)
        data = buf[used : used + n]
        r.fill(data)
        used += n
        try:
            tensors.append(Tensor(name, shape, data))
        except ValueError as exc:
            raise FormatError(f"NTB: {exc}") from exc
    r.expect_end()
    try:
        return TensorBundle(tensors)
    except ValueError as exc:
        raise FormatError(f"NTB: {exc}") from exc


def _hcmp_parts(model: CompressedModel):
    yield HCMP_MAGIC + struct.pack("<HI", HCMP_VERSION, len(model.layers))
    for layer in model.layers:
        cfg = layer.config
        yield _encode_name(layer.name) + _encode_shape(layer.shape) + _HCMP_LAYER.pack(
            layer.element_count, int(layer.padded), cfg.box_side, cfg.num_points,
            cfg.max_category, int(cfg.direction_mode), *cfg.centroid,
            cfg.max_radius, layer.pad_value, layer.bit_width, len(layer.payload),
        )
        yield layer.payload


def dump_hcmp(model: CompressedModel) -> bytes:
    return b"".join(_hcmp_parts(model))


def load_hcmp(blob: bytes) -> CompressedModel:
    return _parse_hcmp(io.BytesIO(blob))


def _parse_hcmp(stream) -> CompressedModel:
    r = _Reader(stream, "HCMP")
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
        return CompressedModel(layers)
    except ValueError as exc:
        raise FormatError(f"HCMP: {exc}") from exc


def _write_parts(parts, path) -> None:
    """Write parts to a temp file, sync it, rename it to path, sync the directory."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    # Created like open(path, "wb") would, so the umask sets the final mode.
    tmp = os.path.join(directory, f".hypc-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read(path, parse):
    """parse the file at path as a stream; a pipe's bytes are read whole first."""
    with open(path, "rb") as f:
        return parse(f if f.seekable() else io.BytesIO(f.read()))


def write_ntb(bundle: TensorBundle, path) -> None:
    """Serialize a bundle to a path; dump_ntb gives the bytes in memory."""
    _write_parts(_ntb_parts(bundle), path)


def read_ntb(path) -> TensorBundle:
    return _read(path, _parse_ntb)


def write_hcmp(model: CompressedModel, path) -> None:
    """Serialize a compressed model to a path; dump_hcmp gives the bytes in memory."""
    _write_parts(_hcmp_parts(model), path)


def read_hcmp(path) -> CompressedModel:
    return _read(path, _parse_hcmp)
