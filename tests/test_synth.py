import json

import numpy as np
import pytest

from popvol import (
    Footprint,
    GridGeoref,
    SceneError,
    SyntheticScene,
    TerrainModel,
    rasterize_polygon,
    synthesize_dsm,
)
from popvol.synth import (
    _LCG_BLOCK,
    LCG_INC,
    LCG_MOD,
    LCG_MULT,
    lcg_noise,
    load_scene,
    rectangle_ring,
)


def _scene(prisms=(), noise=0.0, seed=0, terrain=TerrainModel(50.0), size=(60, 50)):
    return SyntheticScene(
        georef=GridGeoref(size[0], size[1], 0.0, 0.0, 1.0),
        terrain=terrain,
        prisms=list(prisms),
        noise_amplitude_m=noise,
        seed=seed,
    )


def test_prism_indicator_exact_without_noise():
    fp = Footprint("P", "T", rectangle_ring(10, 10, 30, 30))
    scene = _scene([(fp, 19.8)])
    result = synthesize_dsm(scene)
    cells = rasterize_polygon(fp, scene.georef)
    diff = result.dsm.data - result.truth_dtm.data
    # the surface is bit-identical to terrain + indicator * height
    expected = result.truth_dtm.data.copy()
    for r, c in cells:
        expected[r, c] = expected[r, c] + 19.8
    assert np.array_equal(result.dsm.data, expected)
    for r in range(scene.georef.nrows):
        for c in range(scene.georef.ncols):
            if (r, c) in cells:
                assert diff[r, c] == pytest.approx(19.8, abs=1e-9)
            else:
                assert diff[r, c] == 0.0
    assert result.true_heights == {"P": 19.8}


def test_same_seed_bit_identical():
    fp = Footprint("P", "T", rectangle_ring(5, 5, 20, 15))
    a = synthesize_dsm(_scene([(fp, 8.0)], noise=0.2, seed=77))
    b = synthesize_dsm(_scene([(fp, 8.0)], noise=0.2, seed=77))
    assert a.dsm == b.dsm


def test_different_seeds_differ():
    a = synthesize_dsm(_scene(noise=0.2, seed=1))
    b = synthesize_dsm(_scene(noise=0.2, seed=2))
    assert not np.array_equal(a.dsm.data, b.dsm.data)


def test_overlapping_prisms_rejected():
    a = Footprint("A", "T", rectangle_ring(10, 10, 20, 20))
    b = Footprint("B", "T", rectangle_ring(20, 20, 20, 20))
    with pytest.raises(SceneError, match="overlap"):
        synthesize_dsm(_scene([(a, 5.0), (b, 7.0)]))


def test_nested_prisms_innermost_wins():
    outer = Footprint("outer", "T", rectangle_ring(10, 10, 30, 30))
    inner = Footprint("inner", "T", rectangle_ring(20, 20, 10, 10))
    result = synthesize_dsm(_scene([(outer, 5.0), (inner, 12.0)]))
    inner_cells = rasterize_polygon(inner, result.dsm.georef)
    outer_cells = rasterize_polygon(outer, result.dsm.georef)
    r, c = next(iter(inner_cells))
    assert result.dsm.data[r, c] == 50.0 + 12.0
    ring_cell = next(iter(outer_cells - inner_cells))
    assert result.dsm.data[ring_cell] == 50.0 + 5.0


def test_ramp_terrain_values():
    scene = _scene(terrain=TerrainModel(100.0, grad_x=0.05, grad_y=-0.02), size=(4, 3))
    result = synthesize_dsm(scene)
    ref = scene.georef
    for r in range(ref.nrows):
        for c in range(ref.ncols):
            x, y = ref.cell_center(r, c)
            expected = 100.0 + 0.05 * x + (-0.02) * y
            assert result.dsm.data[r, c] == pytest.approx(expected, abs=1e-12)


def test_lcg_reference_sequence():
    # first values of the documented 64-bit LCG for seed 42
    state = 42
    expected = []
    for _ in range(4):
        state = (state * LCG_MULT + LCG_INC) % LCG_MOD
        expected.append(2.0 * (state / LCG_MOD) - 1.0)
    noise = lcg_noise(42, 4, 1.0)
    assert noise.tolist() == expected
    assert lcg_noise(42, 4, 0.25).tolist() == [0.25 * v for v in expected]


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 12345])
@pytest.mark.parametrize(
    "count", [0, 1, _LCG_BLOCK - 1, _LCG_BLOCK, _LCG_BLOCK + 1, 10_007]
)
def test_lcg_noise_matches_recurrence(seed, count):
    state = seed % LCG_MOD
    expected = []
    for _ in range(count):
        state = (state * LCG_MULT + LCG_INC) % LCG_MOD
        expected.append((2.0 * (state / LCG_MOD) - 1.0) * 0.37)
    noise = lcg_noise(seed, count, 0.37)
    assert noise.dtype == np.float64
    assert noise.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_noise_within_amplitude():
    noise = lcg_noise(3, 10_000, 0.1)
    assert np.abs(noise).max() <= 0.1


def test_load_scene_json():
    doc = {
        "georef": {"ncols": 40, "nrows": 30, "xll": 10.0, "yll": 20.0, "cellsize": 1.0},
        "terrain": {"origin_elev": 55.0, "grad_x": 0.01, "grad_y": 0.0},
        "prisms": [
            {
                "id": "B1",
                "type_label": "TypeA",
                "ring": [[15, 25], [25, 25], [25, 35], [15, 35]],
                "height_m": 9.5,
                "unit_area_m2": 85.0,
                "units_per_floor": 4,
            }
        ],
        "noise_amplitude_m": 0.05,
        "seed": 11,
    }
    scene = load_scene(json.dumps(doc))
    assert scene.georef == GridGeoref(40, 30, 10.0, 20.0, 1.0)
    assert scene.terrain == TerrainModel(55.0, 0.01, 0.0)
    fp, height = scene.prisms[0]
    assert (fp.id, fp.type_label, height) == ("B1", "TypeA", 9.5)
    assert fp.unit_area_m2 == 85.0
    assert fp.units_per_floor_override == 4
    assert scene.seed == 11


def test_load_scene_errors():
    with pytest.raises(SceneError):
        load_scene("{not json")
    with pytest.raises(SceneError):
        load_scene(json.dumps({"georef": {"ncols": 4}}))


def test_negative_height_rejected():
    fp = Footprint("P", "T", rectangle_ring(5, 5, 10, 10))
    with pytest.raises(SceneError):
        _scene([(fp, -1.0)])
