"""The benchmark's tracer wraps library functions by name
(``perfbench/tracer.py``, ``TARGETS``); every one of them must still exist,
or a traced benchmark run stops with a KeyError."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "module, path", [t[1:3] for t in tracer.TARGETS], ids=[t[0] for t in tracer.TARGETS]
)
def test_traced_target_resolves(module, path):
    _, _, original = tracer._resolve(module, path)
    assert callable(original)
