"""The names the benchmark's tracer wraps must exist: a renamed or deleted
function fails here, in one line, rather than inside a traced demo op."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [w[:2] for w in _spans().WRAPPED])
def test_every_wrapped_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), (
        f"perfbench/spans.py wraps {module_name}.{attr}, which is gone"
    )
