"""An HCMP version-1 reader written only from the README's "File formats" section.

It imports nothing from hypc, so the tests can hold hypc's loader, bit
unpacker and decoder against an independent reading of the format. Payloads
are unpacked one bit at a time: LSB-first within each byte, values laid down
consecutively with no per-value padding, the final byte zero-padded. Weights
are decoded one float operation at a time, by the README's numbered steps.
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


def _isqrt(n: int) -> int:
    root = int(n ** 0.5)
    while root * root > n:
        root -= 1
    while (root + 1) * (root + 1) <= n:
        root += 1
    return root


def decode_weights(layer: dict) -> list[float]:
    """A layer record's weights as floats, by the README's decoding steps 1-6."""
    side, count, rings = layer["box_side"], layer["num_points"], layer["max_category"]
    root = _isqrt(count)
    if layer["direction_mode"] == 0:
        direction = (side / count, side / root)
    else:
        direction = (side / (count * root), side / root)
    half = side / 2
    weights = []
    for value in layer["values"]:
        ring, index = divmod(value, count)
        scale = 1.0 if rings == 0 else half / (half + layer["max_radius"] / rings * ring)
        for step, center in zip(direction, layer["centroid"]):
            coord = (index * step) % side
            if coord >= side:
                coord = 0.0
            coord += center - half
            weights.append((coord - center) / scale + center)
    return weights[:layer["element_count"]]
