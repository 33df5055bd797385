"""Command-line front end: compress, decompress, inspect, eval, gen, train-toy,
infer, and perc subcommands. Each prints one JSON document on stdout;
``inspect --pretty`` prints its per-layer table instead. Errors exit nonzero
with one line on stderr; output files are written atomically."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import compression_ratio, error_stats
from .codebook import DirectionMode
from .codec import EncodeParams, decode_layer, encode_layer
from .container import (
    CompressedModel,
    HCMP_MAGIC,
    NTB_MAGIC,
    Tensor,
    TensorBundle,
    read_hcmp,
    read_ntb,
    write_hcmp,
    write_ntb,
)
from .errors import DataError, HypcError
from .inference import (
    MlpLayer,
    MlpNetwork,
    bundle_to_network,
    eval_accuracy,
    input_dim,
    load_dataset_csv,
    make_toy_dataset,
    model_to_network,
    network_to_bundle,
    save_dataset_csv,
    train_toy,
)
from .percolation import estimate_threshold, solve_p0

_DIRECTIONS = {"grid": DirectionMode.GRID_SHEAR, "paper": DirectionMode.PAPER_EQ}
# Largest model gen draws, checked before drawing: a model is held in memory
# whole, so a larger one could ask for more memory than the host has.
MAX_GEN_WEIGHTS = 1 << 27


def _format_table(headers: list[str], rows: list[list]) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _json_object(value, what: str, keys) -> dict:
    """value as a dict whose keys all come from keys, else DataError."""
    if not isinstance(value, dict):
        raise DataError(f"--per-layer: {what} must be a JSON object, "
                        f"got {type(value).__name__}")
    unknown = [k for k in value if k not in keys]
    if unknown:
        raise DataError(f"--per-layer: {what}: unknown key {unknown[0]!r} "
                        f"(expected one of {', '.join(keys)})")
    return value


def _params_from_spec(spec, base: EncodeParams, what: str) -> EncodeParams:
    """Nothing is coerced: u and max_class must be JSON integers, l a JSON
    number, and booleans are neither."""
    spec = _json_object(spec, what, ("l", "u", "max_class", "direction"))
    for key, kind in (("u", "integer"), ("max_class", "integer"), ("l", "number")):
        value = spec.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float) if key == "l" else int):
            raise DataError(f"--per-layer: {what}: {key!r} must be a JSON {kind}, got {value!r}")
    direction = spec.get("direction")
    if direction is not None and (not isinstance(direction, str)
                                  or direction not in _DIRECTIONS):
        raise DataError(f"--per-layer: {what}: 'direction' must be grid or paper, got {direction!r}")
    try:
        return EncodeParams(
            box_side=float(spec.get("l", base.box_side)),
            num_points=spec.get("u", base.num_points),
            max_category=spec.get("max_class", base.max_category),
            direction_mode=_DIRECTIONS[direction] if direction else base.direction_mode,
        )
    except OverflowError as exc:
        raise DataError(f"--per-layer: {what}: 'l': {exc}") from None


def _cmd_compress(args) -> int:
    bundle = read_ntb(args.input)
    base = EncodeParams(
        box_side=args.l,
        num_points=args.u,
        max_category=args.max_class,
        direction_mode=_DIRECTIONS[args.direction],
    )
    overrides: dict = {}
    if args.per_layer:
        with open(args.per_layer, "r", encoding="utf-8") as f:
            try:
                overrides = json.load(f)
            except RecursionError:
                raise DataError(f"--per-layer: {args.per_layer} nests deeper than the "
                                "JSON reader's recursion limit") from None
        overrides = _json_object(overrides, "the file", ("default", "layers"))
    base = _params_from_spec(overrides.get("default", {}), base, "default")
    layer_specs = _json_object(overrides.get("layers", {}), "layers",
                               [t.name for t in bundle.tensors])
    layers = [
        encode_layer(t.data, t.name, t.shape,
                     _params_from_spec(layer_specs.get(t.name, {}), base,
                                       f"layers[{t.name!r}]"))
        for t in bundle.tensors
    ]
    write_hcmp(CompressedModel(layers), args.output)
    in_bytes = os.path.getsize(args.input)
    out_bytes = os.path.getsize(args.output)
    payload = {
        "layers": len(layers),
        "input_bytes": in_bytes,
        "output_bytes": out_bytes,
        "ratio": compression_ratio(in_bytes, out_bytes),
    }
    print(json.dumps(payload))
    return 0


def _cmd_decompress(args) -> int:
    model = read_hcmp(args.input)
    tensors = [
        Tensor(l.name, l.shape, decode_layer(l, np.float32))
        for l in model.layers
    ]
    write_ntb(TensorBundle(tensors), args.output)
    print(json.dumps({"layers": len(tensors), "output_bytes": os.path.getsize(args.output)}))
    return 0


def _cmd_inspect(args) -> int:
    fields = ["name", "shape", "u", "max_class", "l", "bit_width", "payload_bytes"]
    rows = [[l.name, list(l.shape), l.config.num_points, l.config.max_category,
             l.config.box_side, l.bit_width, len(l.payload)] for l in read_hcmp(args.path).layers]
    if args.pretty:
        print(_format_table(fields, [[name, "x".join(map(str, shape)) or "scalar", *rest]
                                     for name, shape, *rest in rows]))
    else:
        print(json.dumps([dict(zip(fields, row)) for row in rows]))
    return 0


def _cmd_eval(args) -> int:
    paths = (args.original, args.restored)
    original, restored = bundles = [read_ntb(path) for path in paths]  # one array each
    if [t.name for t in original.tensors] != [t.name for t in restored.tensors]:
        raise DataError("bundles do not contain the same tensors in the same order")
    for a, b in zip(original.tensors, restored.tensors):
        if a.shape != b.shape:
            raise DataError(f"tensor {a.name!r} has shape {a.shape} in {paths[0]} "
                            f"but {b.shape} in {paths[1]}")
    with np.errstate(invalid="ignore"):  # inf - inf; reported below
        stats = error_stats(original.flat(), restored.flat())
    # float32 differences cannot overflow: only a NaN or inf weight makes
    # max_abs non-finite, so finite files pay for no extra pass.
    if not math.isfinite(stats["max_abs"]):
        for path, bundle in zip(paths, bundles):
            for t in bundle.tensors:
                bad = np.flatnonzero(~np.isfinite(t.data))
                if bad.size:
                    raise DataError(f"{path}: tensor {t.name!r} element {bad[0]} "
                                    f"is not finite: {t.data[bad[0]]}")
    print(json.dumps(stats))
    return 0


def _seed(args) -> int:
    """--seed, refused below 0 in the words perc estimate uses."""
    if args.seed < 0:
        raise DataError(f"seed must be >= 0, got {args.seed}")
    return args.seed


def _cmd_gen(args) -> int:
    dims = [int(d) for d in args.layers.split(",") if d]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DataError("--layers needs at least two positive dims, e.g. 4,32,2")
    weights = sum(inp * out + out for inp, out in zip(dims, dims[1:]))
    if weights > MAX_GEN_WEIGHTS:
        raise DataError(f"--layers {args.layers} makes {weights} weights; gen draws at most "
                        f"{MAX_GEN_WEIGHTS} (2^27, 512 MiB of float32)")
    rng = np.random.default_rng(_seed(args))
    layers = []
    for inp, out in zip(dims, dims[1:]):  # each layer draws its weight, then its bias
        weight = rng.random((out, inp), dtype=np.float32) - np.float32(0.5)
        layers.append(MlpLayer(weight, rng.random(out, dtype=np.float32) - np.float32(0.5)))
    bundle = network_to_bundle(MlpNetwork(layers))
    write_ntb(bundle, args.output)
    print(json.dumps({"seed": args.seed, "layers": len(dims) - 1,
                      "weights": bundle.total_elements,
                      "output_bytes": os.path.getsize(args.output)}))
    return 0


def _cmd_train_toy(args) -> int:
    net = train_toy(_seed(args))
    write_ntb(network_to_bundle(net), args.output)
    ds = make_toy_dataset(args.seed)
    if args.dump_data:
        save_dataset_csv(args.dump_data, ds.test_x, ds.test_y)
    acc = eval_accuracy(net, ds.test_x, ds.test_y)
    print(json.dumps({"seed": args.seed, "test_accuracy": acc,
                      "output_bytes": os.path.getsize(args.output)}))
    return 0


def _cmd_infer(args) -> int:
    with open(args.model, "rb") as f:
        magic = f.read(4)
    x, labels = load_dataset_csv(args.data)
    if magic == NTB_MAGIC:
        if args.pipeline:
            raise DataError("--pipeline needs a compressed (.hcmp) model")
        model = bundle_to_network(read_ntb(args.model))
    elif magic == HCMP_MAGIC:
        # eval_accuracy runs a CompressedModel through the pipelined forward pass
        model = read_hcmp(args.model)
        if not args.pipeline:
            model = model_to_network(model)
    else:
        raise DataError(f"{args.model}: neither an NTB nor an HCMP file")
    if x.shape[1] != (width := input_dim(model)):
        raise DataError(f"batch must be (n, {width}), got {x.shape}: {args.data} has "
                        f"{x.shape[1]} feature columns, {args.model} takes {width}")
    acc = eval_accuracy(model, x, labels)
    print(json.dumps({"accuracy": acc}))
    return 0


def _cmd_perc(args) -> int:
    if args.perc_cmd == "p0":
        print(json.dumps(solve_p0()))
        return 0
    est = estimate_threshold(args.r, args.height, args.width, args.trials,
                             probes=args.probes, seed=args.seed)
    print(json.dumps(est.to_json_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypc",
        description="Trajectory-codebook weight compression toolkit",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compress", help="NTB -> HCMP")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--l", type=float, default=0.1, help="box side length")
    p.add_argument("--u", type=int, default=225, help="codebook points per layer")
    p.add_argument("--max-class", type=int, default=3, dest="max_class",
                   help="number of scaling rings")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="grid")
    p.add_argument("--per-layer", dest="per_layer",
                   help="JSON file with default/per-layer parameter overrides")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="HCMP -> NTB")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("inspect", help="per-layer table of an HCMP file")
    p.add_argument("path")
    p.add_argument("--pretty", action="store_true",
                   help="a human-readable table instead of JSON")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("eval", help="error stats between two NTB files")
    p.add_argument("--original", required=True)
    p.add_argument("--restored", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen", help="seeded random MLP weights -> NTB")
    p.add_argument("--layers", required=True, help="comma-separated dims, e.g. 4,32,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train-toy", help="train the toy classifier -> NTB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--dump-data", dest="dump_data",
                   help="also write the test split as CSV")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("infer", help="accuracy of a model on a labeled CSV")
    p.add_argument("--model", required=True, help="NTB or HCMP file")
    p.add_argument("--data", required=True, help="CSV with x1..xd,label header")
    p.add_argument("--pipeline", action="store_true",
                   help="overlap decode and compute (HCMP only)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("perc", help="percolation experiments")
    perc_sub = p.add_subparsers(dest="perc_cmd", required=True)
    q = perc_sub.add_parser("p0", help="root of 2p + p^2 - p^4 = 1")
    q.set_defaults(func=_cmd_perc)
    q = perc_sub.add_parser("estimate", help="Monte-Carlo threshold estimate")
    q.add_argument("--r", type=int, required=True, help="kernel size")
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--width", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--probes", type=int, default=12)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_perc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`| head`): stop without a message, and
        # point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (HypcError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
