"""Span recorder for traced runs: wraps hypc's public functions from outside.

Each wrapped call records (name, tag, start, end, parent, thread). The wrapper
replaces the function at every binding a hypc module holds (its home module
and every module that imported it by name), so calls one layer makes into
another pass through it. Spans stay in memory until dump().
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import tracemalloc

# (module, attribute) of each traced function; "Class.method" for methods.
TARGETS = (
    ("hypc.codebook", "build_codebook"),
    ("hypc.codebook", "cached_codebook"),
    ("hypc.codebook", "Codebook.nearest_many"),
    ("hypc.codec", "group_pairs"),
    ("hypc.codec", "encode_layer"),
    ("hypc.codec", "decode_layer"),
    ("hypc.codec", "pack_bits"),
    ("hypc.codec", "unpack_bits"),
    ("hypc.container", "read_ntb"),
    ("hypc.container", "write_ntb"),
    ("hypc.container", "read_hcmp"),
    ("hypc.container", "write_hcmp"),
    ("hypc.inference", "pipelined_forward"),
    ("hypc.inference", "model_to_network"),
    ("hypc.inference", "mlp_forward"),
    ("hypc.analysis", "error_stats"),
    ("hypc.percolation", "estimate_threshold"),
    ("hypc.percolation", "percolation_trial"),
)

# Functions whose peak traced memory is recorded when memory mode is on.
MEMORY_TARGETS = {"codec.pack_bits", "codec.unpack_bits"}


def _tag(name: str, args, kwargs) -> str:
    """A short label telling calls of one function apart (cache calls get
    "hit" or "miss" instead)."""
    if name == "codec.encode_layer":
        params = args[3] if len(args) > 3 else kwargs.get("params")
        return f"{args[1]}:{params.num_points if params else 225}"
    if name == "codec.decode_layer":
        return f"{args[0].name}:{args[0].config.num_points}"
    if name == "codebook.Codebook.nearest_many":
        return str(len(args[1]))
    if name == "percolation.percolation_trial":
        return str(args[0].kernel)
    if name == "percolation.estimate_threshold":
        return str(args[0])
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.memory_mode = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        """Record the enclosed block as one span."""
        index, start = self._open(name)
        try:
            yield
        finally:
            self._close(index, start, tag)

    def _open(self, name: str) -> tuple[int, float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append({"name": name, "tag": "", "start": 0.0, "end": 0.0,
                               "parent": parent, "thread": threading.get_ident()})
        stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, start: float, tag: str, extra=None) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        record = self.spans[index]
        record.update(start=start, end=end, tag=tag)
        if extra:
            record.update(extra)

    def _wrap(self, name: str, func):
        tracer = self
        hit_counter = getattr(func, "cache_info", None)

        def wrapper(*args, **kwargs):
            index, start = tracer._open(name)
            extra = None
            hits = hit_counter().hits if hit_counter else 0
            measure = tracer.memory_mode and name in MEMORY_TARGETS
            if measure:
                tracemalloc.start()
            try:
                result = func(*args, **kwargs)
            finally:
                if measure:
                    extra = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
                if hit_counter:
                    tag = "hit" if hit_counter().hits > hits else "miss"
                else:
                    tag = _tag(name, args, kwargs)
                tracer._close(index, start, tag, extra)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every target at every hypc binding of it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hypc" or n.startswith("hypc."))]
        for module_name, attr in TARGETS:
            home = sys.modules[module_name]
            span_name = module_name.split(".", 1)[1] + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span_name, original), original)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped, original)

    def _patch(self, owner, key, wrapped, original) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children share their parent's thread and run one after another, so the
    part they cover is the sum of their durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
