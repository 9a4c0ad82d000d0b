"""Synthetic surface-model scenes with exact ground truth.

A scene is flat or planar-ramp terrain plus rectangular-footprint prisms of
known height, with optional uniform noise. The noise generator is a fixed
64-bit linear congruential generator (Knuth MMIX constants) so identical
seeds produce bit-identical grids on every platform. It is evaluated in
blocks with a jump-ahead on uint64 (Brown 1994, "Random number generation
with arbitrary strides"), which gives the same bits as stepping the
recurrence one state at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SceneError
from .footprints import Footprint, rasterize_polygon
from .grid import Grid, GridGeoref

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MOD = 1 << 64
# States per lcg_noise jump-ahead step.
_LCG_BLOCK = 4096


@dataclass(frozen=True)
class TerrainModel:
    """Planar terrain: elevation at (x, y) = origin_elev
    + grad_x * (x - xll) + grad_y * (y - yll)."""

    origin_elev: float = 0.0
    grad_x: float = 0.0
    grad_y: float = 0.0


@dataclass
class SyntheticScene:
    georef: GridGeoref
    terrain: TerrainModel = TerrainModel()
    prisms: list[tuple[Footprint, float]] = field(default_factory=list)
    noise_amplitude_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_amplitude_m < 0:
            raise SceneError("noise_amplitude_m must be >= 0")
        for fp, height in self.prisms:
            if height < 0:
                raise SceneError(f"prism {fp.id!r}: height must be >= 0")


@dataclass
class SynthResult:
    dsm: Grid
    truth_dtm: Grid
    true_heights: dict[str, float]


def _lcg_states(seed: int, count: int) -> list[int]:
    """The first ``count`` states after ``seed``, by the exact recurrence."""
    states = []
    state = seed % LCG_MOD
    for _ in range(count):
        state = (state * LCG_MULT + LCG_INC) % LCG_MOD
        states.append(state)
    return states


def lcg_noise(seed: int, count: int, amplitude: float) -> np.ndarray:
    """Deterministic uniform noise in [-amplitude, +amplitude].

    Draw i is ``(2 * (s_i / 2**64) - 1) * amplitude`` for the i-th state
    ``s_i`` of the LCG after ``seed``. The first block of states comes from
    the recurrence itself; each later block jumps ``_LCG_BLOCK`` steps ahead
    of the one before with a single wrapping uint64 multiply-add
    (``s_{i+k} = a^k s_i + c_k mod 2**64``). Converting a state to float64
    and dividing by a power of two rounds exactly as ``s_i / 2**64`` on
    Python ints, so the draws are bit-identical to the plain recurrence.
    """
    out = np.empty(count, dtype=np.float64)
    block = np.array(_lcg_states(seed, min(count, _LCG_BLOCK)), dtype=np.uint64)
    jump_mult = np.uint64(pow(LCG_MULT, _LCG_BLOCK, LCG_MOD))
    # c_k is the k-th state after seed 0.
    jump_inc = np.uint64(_lcg_states(0, _LCG_BLOCK)[-1])
    for start in range(0, count, _LCG_BLOCK):
        if start:
            block = block * jump_mult + jump_inc
        seg = out[start:start + _LCG_BLOCK]
        np.divide(block[:len(seg)], float(LCG_MOD), out=seg)
    out *= 2.0
    out -= 1.0
    out *= amplitude
    return out


def load_scene(text: str) -> SyntheticScene:
    """Scene JSON: {georef, terrain, prisms: [{id, ring, height_m, ...}],
    noise_amplitude_m, seed}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"invalid scene JSON: {e}") from None
    try:
        g = doc["georef"]
        georef = GridGeoref(
            int(g["ncols"]), int(g["nrows"]),
            float(g["xll"]), float(g["yll"]), float(g["cellsize"]),
        )
        t = doc.get("terrain", {})
        terrain = TerrainModel(
            float(t.get("origin_elev", 0.0)),
            float(t.get("grad_x", 0.0)),
            float(t.get("grad_y", 0.0)),
        )
        prisms = []
        for p in doc.get("prisms", []):
            fp = Footprint(
                id=str(p["id"]),
                type_label=str(p.get("type_label", "building")),
                ring=[(q[0], q[1]) for q in p["ring"]],
                unit_area_m2=float(p["unit_area_m2"]) if "unit_area_m2" in p else None,
                units_per_floor_override=(
                    int(p["units_per_floor"]) if "units_per_floor" in p else None
                ),
            )
            prisms.append((fp, float(p["height_m"])))
        return SyntheticScene(
            georef=georef,
            terrain=terrain,
            prisms=prisms,
            noise_amplitude_m=float(doc.get("noise_amplitude_m", 0.0)),
            seed=int(doc.get("seed", 0)),
        )
    except (LookupError, TypeError, ValueError) as e:
        raise SceneError(f"invalid scene definition: {e}") from None


def synthesize_dsm(scene: SyntheticScene) -> SynthResult:
    """Build the surface model, the exact bare-earth grid, and true heights.

    Prisms sit on the terrain (cell value = terrain + prism height + noise).
    Nested prisms are allowed, innermost winning; partially overlapping
    prisms are rejected.

    Prisms are painted largest cell count first (stable in input order) onto
    a label raster that holds, per cell, the index of the last prism painted
    there. Every prism painted before the current one has at least as many
    cells, so while the painted prisms are pairwise nested or disjoint each
    label is the innermost prism over its cell. The current prism is then
    nested in or disjoint from all of them exactly when its cells carry one
    label, which makes the check O(cells) instead of O(prisms^2).
    """
    ref = scene.georef
    xs = ref.col_centers()
    ys = ref.row_centers()
    gx, gy = np.meshgrid(xs, ys)
    terrain = (
        scene.terrain.origin_elev
        + scene.terrain.grad_x * (gx - ref.xll)
        + scene.terrain.grad_y * (gy - ref.yll)
    )
    dsm_data = _paint_prisms(scene, terrain)

    if scene.noise_amplitude_m > 0:
        noise = lcg_noise(scene.seed, ref.nrows * ref.ncols, scene.noise_amplitude_m)
        dsm_data = dsm_data + noise.reshape(ref.nrows, ref.ncols)

    return SynthResult(
        dsm=Grid(ref, dsm_data),
        truth_dtm=Grid(ref, terrain),
        true_heights={fp.id: h for fp, h in scene.prisms},
    )


def _paint_prisms(scene: SyntheticScene, terrain: np.ndarray) -> np.ndarray:
    """``terrain`` with every prism's cells raised by its height.

    Raises SceneError naming, in input order, a pair of prisms whose cell
    sets partially overlap. The label raster lives only inside this call.
    """
    cells = [tuple(rasterize_polygon(fp, scene.georef).T) for fp, _ in scene.prisms]

    labels = np.full(terrain.shape, -1, dtype=np.int32)
    dsm_data = terrain.copy()
    for i in sorted(range(len(cells)), key=lambda k: -len(cells[k][0])):
        idx = cells[i]
        under = labels[idx]
        if (under != under[0]).any():
            # some label under prism i lies in a prism that does not contain it
            j = next(
                j for j in np.unique(under).tolist()
                if j >= 0 and not _contains(cells[j], idx, terrain.shape)
            )
            a, b = sorted((i, j))
            raise SceneError(
                f"prisms {scene.prisms[a][0].id!r} and {scene.prisms[b][0].id!r} overlap"
            )
        labels[idx] = i
        dsm_data[idx] = terrain[idx] + scene.prisms[i][1]
    return dsm_data


def _contains(outer, inner, shape) -> bool:
    """Whether the ``(rows, cols)`` cells ``inner`` all lie in ``outer``."""
    return bool(np.isin(np.ravel_multi_index(inner, shape),
                        np.ravel_multi_index(outer, shape)).all())


def rectangle_ring(x0: float, y0: float, width: float, depth: float) -> list[tuple[float, float]]:
    """Axis-aligned rectangle, counter-clockwise from the southwest corner."""
    return [(x0, y0), (x0 + width, y0), (x0 + width, y0 + depth), (x0, y0 + depth)]
