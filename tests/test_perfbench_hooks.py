"""The functions that perfbench/spans.py wraps in a traced run still exist in hypc.

A rename breaks only ``perfbench/run.py --trace 1``, which no other test runs,
so the targets are read from spans.py itself and resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr", spans.TARGETS,
                         ids=[f"{m}.{a}" for m, a in spans.TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:  # "Class.method": install() reads the method from the class dict
        cls_name, attr = attr.split(".")
        owner = vars(getattr(owner, cls_name))
        assert callable(owner[attr])
    else:
        assert callable(getattr(owner, attr))


def test_cached_codebook_reports_cache_hits():
    # cache_hit_ratio counts the hits of the wrapped lru_cache.
    from hypc.codebook import cached_codebook

    assert callable(cached_codebook.cache_info)


def test_install_and_uninstall_restore_every_binding():
    import hypc.cli  # noqa: F401  (binds the targets in every hypc module)
    from hypc import codebook, codec

    before = (codec.build_codebook, codec.cached_codebook, codebook.Codebook.nearest_many)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert codec.build_codebook is not before[0]
        assert codec.build_codebook.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    assert (codec.build_codebook, codec.cached_codebook,
            codebook.Codebook.nearest_many) == before
