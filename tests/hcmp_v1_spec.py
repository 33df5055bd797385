"""An HCMP version-1 reader written only from the README's "File formats" section.

It imports nothing from hypc, so the tests can hold hypc's loader and bit
unpacker against an independent reading of the format. Payloads are unpacked
one bit at a time: LSB-first within each byte, values laid down consecutively
with no per-value padding, the final byte zero-padded.
"""

from __future__ import annotations

import struct

_LAYER_FIELDS = struct.Struct("<QBdIHBddddBQ")


def unpack_values(payload: bytes, bit_width: int, count: int) -> list[int]:
    """The first ``count`` bit_width-bit values of ``payload``, LSB-first."""
    values = []
    for start in range(0, count * bit_width, bit_width):
        value = 0
        for k in range(bit_width):
            bit = start + k
            value |= ((payload[bit >> 3] >> (bit & 7)) & 1) << k
        values.append(value)
    return values


def read_layers(blob: bytes) -> list[dict]:
    """Every layer record of an HCMP v1 file, with its payload unpacked."""
    if blob[:4] != b"HCMP":
        raise ValueError("not an HCMP file")
    version, layer_count = struct.unpack_from("<HI", blob, 4)
    if version != 1:
        raise ValueError(f"version {version} is not 1")
    pos = 10
    layers = []
    for _ in range(layer_count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        rank = blob[pos]
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 1)
        pos += 1 + 8 * rank
        (count, padded, box_side, num_points, rings, direction,
         cx, cy, farthest, pad_value, bit_width, payload_len) = _LAYER_FIELDS.unpack_from(blob, pos)
        pos += _LAYER_FIELDS.size
        payload = blob[pos:pos + payload_len]
        pos += payload_len
        # Consecutive weights form one stored pair; an odd tail is padded.
        pairs = (count + 1) // 2
        if payload_len != (pairs * bit_width + 7) // 8:
            raise ValueError(f"layer {name!r}: payload of {payload_len} bytes")
        layers.append({
            "name": name, "shape": dims, "element_count": count,
            "padded": bool(padded), "box_side": box_side, "num_points": num_points,
            "max_category": rings, "direction_mode": direction, "centroid": (cx, cy),
            "max_radius": farthest, "pad_value": pad_value, "bit_width": bit_width,
            "payload": payload, "values": unpack_values(payload, bit_width, pairs),
        })
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes")
    return layers
