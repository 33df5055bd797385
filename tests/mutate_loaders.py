"""Mutation check for the NTB and HCMP loaders, run as its own process.

Every input made by changing, cutting and inserting bytes in a corpus file
must load or raise FormatError, and every layer of a loaded HCMP file must
decode to finite weights, in float64 and in float32, or raise FormatError. Each
mutated NTB is loaded from bytes and also written to a temporary file and read
from its path; the two must agree. The process caps its address space at 2 GiB
before the first input, so a size read from a corrupt header that slips past
the loaders fails here as MemoryError instead of exhausting the machine.

Usage: PYTHONPATH=src python tests/mutate_loaders.py [EXAMPLES]
Exits 0 when every input passes; hypothesis prints the failing input otherwise.
"""

import resource
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypc.codec import decode_layer
from hypc.container import Tensor, TensorBundle, dump_ntb, load_hcmp, load_ntb, read_ntb
from hypc.errors import FormatError

CORPUS = Path(__file__).parent / "data" / "hcmp_v1"
SEEDS = [("hcmp", p.read_bytes()) for p in sorted(CORPUS.glob("*.hcmp"))]
SEEDS.append(("ntb", dump_ntb(TensorBundle([
    Tensor("layer0.weight", (3, 2), np.linspace(-0.5, 0.5, 6, dtype=np.float32)),
    Tensor("layer0.bias", (3,), np.float32([0.25, 0.0, -0.125])),
    Tensor("scale", (), np.float32([2.0])),
    Tensor("empty", (0, 4), np.zeros(0, np.float32)),
]))))


def mutate(blob: bytes, data) -> bytes:
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        op = data.draw(st.sampled_from(["change", "cut", "insert"]))
        pos = data.draw(st.integers(0, len(out)))
        if op == "change" and pos < len(out):
            out[pos] ^= data.draw(st.integers(1, 255))
        elif op == "cut":
            del out[pos:]
        elif op == "insert":
            out[pos:pos] = data.draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


def ntb_outcome(load):
    """dump_ntb of what load() returns, or the FormatError it raises."""
    try:
        return dump_ntb(load())
    except FormatError as exc:
        return str(exc)


def check(examples: int, scratch: Path) -> None:
    path = scratch / "mutated.ntb"

    @settings(max_examples=examples, deadline=None, database=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(st.sampled_from(SEEDS), st.data())
    def loads_or_raises_format_error(seed, data):
        kind, blob = seed
        blob = mutate(blob, data)
        if kind == "ntb":
            path.write_bytes(blob)
            assert ntb_outcome(lambda: load_ntb(blob)) == ntb_outcome(lambda: read_ntb(path))
            return
        try:
            model = load_hcmp(blob)
        except FormatError:
            return
        for layer in model.layers:
            for dtype in (np.float64, np.float32):
                try:
                    weights = decode_layer(layer, dtype)
                except FormatError:
                    continue
                assert np.isfinite(weights).all(), (layer.name, dtype)

    loads_or_raises_format_error()


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    with tempfile.TemporaryDirectory() as scratch:
        check(int(sys.argv[1]) if len(sys.argv) > 1 else 1000, Path(scratch))
