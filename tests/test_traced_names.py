"""Every function and method the benchmark's tracer wraps exists in llgvm.

A traced name that no longer resolves is only listed in ``Tracer.unbound``,
and its per-layer metric then reads 0, so a rename must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span, module, attr", tracer.FUNCTIONS, ids=lambda v: str(v))
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{span}: {module}.{attr}"


@pytest.mark.parametrize("span, module, cls, attr", tracer.METHODS, ids=lambda v: str(v))
def test_traced_method_resolves(span, module, cls, attr):
    owner = getattr(importlib.import_module(module), cls, None)
    assert callable(getattr(owner, attr, None)), f"{span}: {module}.{cls}.{attr}"
