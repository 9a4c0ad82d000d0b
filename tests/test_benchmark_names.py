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


DEMO = SPANS.parents[1] / "demo"

# The wrapped names the demo's `synth` and `run` never call: `run` computes
# its amenity stage in a forked child, whose calls the tracer does not see,
# and rasterization goes through `rasterize_footprints`. Their per-layer
# metrics read 0; a name that joins them fails here.
UNCALLED = {
    ("popvol.cli", "parse_osm"),
    ("popvol.cli", "load_rules"),
    ("popvol.cli", "filter_amenities"),
    ("popvol.cli", "count_within_radius"),
    ("popvol.footprints", "rasterize_polygon"),
    ("popvol.synth", "rasterize_polygon"),
}


def test_demo_calls_every_wrapped_name_but_the_known_ones(tmp_path):
    spans = _spans()
    for name in ("scene.json", "config.json", "ground_truth.csv", "site.osm", "rules.json"):
        (tmp_path / name).write_bytes((DEMO / name).read_bytes())
    out = tmp_path / "out"
    called = set()

    def recorder(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)
        return wrapper

    with spans.traced(spans.Tracer(0)) as main:
        # over the tracer's wrappers, which `traced` restores on exit
        for module_name, attr, _, _ in spans.WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, recorder((module_name, attr), getattr(module, attr)))
        assert main(["synth", "--scene", str(tmp_path / "scene.json"),
                     "--out-dsm", str(out / "dsm.asc"),
                     "--out-footprints", str(out / "footprints.geojson")]) == 0
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    assert {w[:2] for w in spans.WRAPPED} - called == UNCALLED
