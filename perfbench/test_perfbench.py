"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench`` from
the root of the checkout."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from popvol import cli  # noqa: E402
from popvol.synth import load_scene  # noqa: E402

DEMO = ROOT / "demo"


def _files(site: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(site.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_and_loadable(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for site, seed in ((a, 11), (b, 11), (c, 12)):
        site.mkdir()
        gen.write_inputs(workload, seed, site, DEMO)
    assert _files(a) == _files(b)
    assert _files(a)["scene.json"] != _files(c)["scene.json"]
    scene = load_scene((a / "scene.json").read_text())
    assert scene.seed == 11


def test_ground_truth_units_are_exact_sums():
    scene = gen.lattice_scene(3, 500, 50, (5, 8), (4.0, 24.0), tuple(gen.UNIT_AREAS))
    assert len(scene["prisms"]) == 2500
    rows = dict(line.split(",") for line in gen.ground_truth_csv(scene).splitlines()[1:])
    total = sum(gen.true_units(p["height_m"], p["units_per_floor"]) for p in scene["prisms"])
    assert sum(int(v) for v in rows.values()) == total


def test_osm_extract_size():
    text = gen.osm_xml(5)
    assert text.count("<node ") == 60_000
    assert text.count("<way ") == 6_000


def _op(site: Path, main=cli.main) -> dict[str, int]:
    ck = run.Checkout(ROOT, site)
    rcs = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (ck.synth_argv(), ck.run_argv()):
            rcs[argv[0]] = main(argv)
    return rcs


@pytest.fixture(scope="module")
def demo_op(tmp_path_factory):
    """The demo site at its recorded seed, run once in-process."""
    site = tmp_path_factory.mktemp("bench") / "demo_site"
    site.mkdir()
    scene = gen.write_inputs("demo_site", 7, site, DEMO)
    rcs = _op(site)
    return site, scene, rcs, check.expected_amenities(site)


def test_demo_op_passes_against_recorded_digests(demo_op):
    site, scene, rcs, amenities = demo_op
    assert amenities == {"hospital": 2, "school": 1}
    assert check.check_op(site / "out", rcs, scene, amenities, check.demo_digests(7)) == []


def _corrupt(path: Path, edit) -> bytes:
    original = path.read_bytes()
    path.write_bytes(edit(original))
    return original


@pytest.mark.parametrize("name,edit,reference,expect", [
    ("estimates.csv", lambda b: b[:-2] + bytes([b[-2] ^ 1]) + b[-1:], True, "estimates.csv differs"),
    ("heights.csv", lambda b: b.replace(b",19.932,", b",20.232,"), False, "A1: height 20.232"),
    ("amenities_summary.csv", lambda b: b.replace(b"school,1", b"school,2"), False, "amenity counts"),
])
def test_checker_flags_corrupted_output(demo_op, name, edit, reference, expect):
    site, scene, rcs, amenities = demo_op
    ref = check.digests(site / "out") if reference else None
    original = _corrupt(site / "out" / name, edit)
    try:
        problems = check.check_op(site / "out", rcs, scene, amenities, ref)
    finally:
        (site / "out" / name).write_bytes(original)
    assert any(expect in p for p in problems), problems


def test_checker_flags_exit_status_and_missing_output(demo_op):
    site, scene, _, amenities = demo_op
    summary = site / "out" / "summary.json"
    original = summary.read_bytes()
    summary.unlink()
    try:
        problems = check.check_op(site / "out", {"run": 2}, scene, amenities, None)
    finally:
        summary.write_bytes(original)
    assert problems == ["run exited 2", "missing outputs: summary.json"]


def test_traced_op_matches_untraced_and_accounts_for_its_time(demo_op, tmp_path):
    site, _, _, _ = demo_op
    expected = check.digests(site / "out")
    traced_site = tmp_path / "demo_site"
    traced_site.mkdir()
    gen.write_inputs("demo_site", 7, traced_site, DEMO)
    tracer = spans.Tracer(op=0)
    with spans.traced(tracer) as main:
        rcs = _op(traced_site, main)
    assert rcs == {"synth": 0, "run": 0}
    assert check.digests(traced_site / "out") == expected
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main_self", "cli.main_self"]
    wall = sum(s["end"] - s["start"] for s in roots)
    assert sum(tracer.self_times().values()) == pytest.approx(wall, rel=1e-9)
    c = tracer.counts
    assert c["grid.write_calls"] == 3
    assert c["synth.prisms"] == 6 and c["footprints.zonal_ok"] == 6
    assert cli.read_ascii_grid.__name__ == "read_ascii_grid"
    assert not hasattr(cli.read_ascii_grid, "__wrapped__")


def test_import_breakdown():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        70 |         70 | encodings",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.ndimage",
        "import time:        40 |         90 |     scipy",
        "import time:        10 |        400 |   popvol",
        "import time:         5 |        405 | popvol.cli",
    ])
    got = run.import_breakdown(text)
    assert got == pytest.approx({
        "cli.import_s": 405e-6,
        "cli.import.numpy_s": 300e-6,
        "cli.import.scipy_s": 90e-6,
        "cli.import.popvol_s": 15e-6,
    })


def test_summarize_reports_percentile_only_with_ten_samples_beyond():
    assert run.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "max": 3.0}
    got = run.summarize([float(i) for i in range(1, 41)])
    assert got["n"] == 40 and got["p75"] == 30.0


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.MEASURED)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    names = {f"{n}_s" for n in spans.SPAN_NAMES} | set(spans.METRIC_UNITS) | set(run.PROCESS_METRICS)
    assert {m["name"] for m in doc["per_layer"]} == names
