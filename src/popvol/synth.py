"""Synthetic surface-model scenes with exact ground truth.

A scene is flat or planar-ramp terrain plus rectangular-footprint prisms of
known height, with optional uniform noise. The noise generator is a fixed
64-bit linear congruential generator (Knuth MMIX constants) so identical
seeds produce bit-identical grids on every platform. It is evaluated by
doubling, each pass jumping the states so far ahead by their own count on
uint64 (Brown 1994, "Random number generation with arbitrary strides"),
which gives the same bits as stepping the recurrence one state at a time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySelectionError, SceneError, json_document, json_number
from .footprints import Footprint, footprint_record, span_table, text_property
from .footprints import rasterize_polygon  # unused here; perfbench/spans.py wraps this name
from .grid import Grid, GridGeoref

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MOD = 1 << 64


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


def lcg_noise(seed: int, count: int, amplitude: float) -> np.ndarray:
    """Deterministic uniform noise in [-amplitude, +amplitude].

    Draw i is ``(2 * (s_i / 2**64) - 1) * amplitude`` for the i-th state
    ``s_i`` of the LCG after ``seed``. State 0 comes from the recurrence;
    then for k = 1, 2, 4, ... states k to 2k - 1 come from states 0 to k - 1
    by one wrapping uint64 multiply-add (``s_{i+k} = a^k s_i + c_k mod
    2**64``, with ``c_k`` the k-th state after seed 0). Converting a state to
    float64 and dividing it by 2**63 rounds exactly as ``2 * (s_i / 2**64)``
    on Python ints, so the draws are bit-identical to the plain recurrence.
    """
    out = np.empty(count, dtype=np.float64)
    states = out.view(np.uint64)
    states[:1] = (seed * LCG_MULT + LCG_INC) % LCG_MOD
    mult, inc, k = LCG_MULT, LCG_INC, 1
    while k < count:
        jumped = states[k:2 * k]
        np.multiply(states[:len(jumped)], np.uint64(mult), out=jumped)
        jumped += np.uint64(inc)
        mult, inc, k = mult * mult % LCG_MOD, (mult * inc + inc) % LCG_MOD, 2 * k
    np.divide(states, float(LCG_MOD // 2), out=out)
    out -= 1.0
    out *= amplitude
    return out


def load_scene(text: str) -> SyntheticScene:
    """Scene JSON: {georef, terrain, prisms: [{id, ring, height_m, ...}],
    noise_amplitude_m, seed}."""
    doc = json_document(text, SceneError, "scene JSON")
    try:
        g = doc["georef"]
        georef = GridGeoref(
            *(_number(g, k, "scene georef", whole=True) for k in ("ncols", "nrows")),
            *(_number(g, k, "scene georef") for k in ("xll", "yll", "cellsize")),
        )
        t = {"origin_elev": 0.0, "grad_x": 0.0, "grad_y": 0.0, **doc.get("terrain", {})}
        terrain = TerrainModel(
            *(_number(t, k, "scene terrain") for k in ("origin_elev", "grad_x", "grad_y"))
        )
        prisms, seen = [], set()
        for k, p in enumerate(doc.get("prisms", [])):
            pid = text_property(p["id"], "id", f"prism #{k}")
            if pid in seen:
                raise SceneError(f"duplicate prism id {pid!r}")
            seen.add(pid)
            fp = footprint_record(pid, p, p["ring"], f"prism {pid!r}", "building")
            prisms.append((fp, _number(p, "height_m", f"prism {pid!r}:")))
        top = {"noise_amplitude_m": 0.0, "seed": 0, **doc}
        return SyntheticScene(
            georef=georef,
            terrain=terrain,
            prisms=prisms,
            noise_amplitude_m=_number(top, "noise_amplitude_m", "scene"),
            seed=_number(top, "seed", "scene", whole=True),
        )
    except (LookupError, TypeError) as e:
        raise SceneError(f"invalid scene definition: {e}") from None


def _number(obj: dict, key: str, where: str, whole: bool = False):
    """``obj[key]`` as a scene number (``json_number``)."""
    return json_number(obj[key], f"{where} {key!r}", SceneError, whole)


def synthesize_dsm(scene: SyntheticScene) -> SynthResult:
    """Build the surface model and the exact bare-earth grid.

    Prisms sit on the terrain (cell value = terrain + prism height + noise).
    Nested prisms are allowed, innermost winning; partially overlapping
    prisms are rejected, and so is a grid larger than physical memory,
    before anything is allocated.

    Prisms are painted largest cell count first (stable in input order).
    Every prism painted before the current one has at least as many cells, so
    while the painted prisms are pairwise nested or disjoint the last one
    painted over a cell is the innermost there, and the current prism is
    nested in or disjoint from all of them exactly when every cell under it
    carries the same last-painted label. All prisms are checked at once: the
    (cell, prism) entries are sorted by (cell, paint order), each entry's
    predecessor in its cell is the label it finds, a prism fails when the
    minimum and maximum of its labels differ, and each cell's last entry
    gives its height. That is O(cells log cells) instead of O(prisms^2).
    """
    ref = scene.georef
    layer = 8 * ref.nrows * ref.ncols  # bytes of one float64 grid
    if hasattr(os, "sysconf") and layer > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise SceneError(
            f"scene grid of {ref.nrows}x{ref.ncols} cells takes {layer / 2**30:.1f} GiB "
            "per layer, more than physical memory"
        )
    # an overflow would give inf, or NaN from inf - inf, which reads as nodata
    try:
        with np.errstate(over="raise", invalid="raise"):
            terrain = (
                scene.terrain.origin_elev
                + scene.terrain.grad_x * (ref.col_centers() - ref.xll)
                + scene.terrain.grad_y * (ref.row_centers()[:, None] - ref.yll)
            )
            dsm_data = _paint_prisms(scene, terrain)
            if scene.noise_amplitude_m > 0:
                noise = lcg_noise(scene.seed, ref.nrows * ref.ncols, scene.noise_amplitude_m)
                dsm_data += noise.reshape(ref.nrows, ref.ncols)
    except FloatingPointError as e:
        raise SceneError(f"scene values overflow the float range ({e})") from None
    return SynthResult(dsm=Grid(ref, dsm_data), truth_dtm=Grid(ref, terrain))


def _paint_prisms(scene: SyntheticScene, terrain: np.ndarray) -> np.ndarray:
    """A copy of ``terrain`` with every prism's cells raised by its height.

    Raises EmptySelectionError for the first prism, in input order, that
    selects no cell, and SceneError naming the pair of the first prism, in
    paint order, that partially overlaps a prism painted before it.
    """
    footprints = [fp for fp, _ in scene.prisms]
    n = len(footprints)
    fp, row, c0, width = span_table(footprints, scene.georef)
    # every (cell, prism) entry, grouped by prism in input order
    prism = np.repeat(fp, width)
    ends = np.cumsum(width)
    cell = np.repeat(row * terrain.shape[1] + c0 - (ends - width), width) + np.arange(len(prism))
    count = np.bincount(prism, minlength=n)
    if not count.all():
        raise EmptySelectionError(footprints[int(np.argmin(count))].id)
    if not n:
        return terrain.copy()

    rank = np.empty(n, np.intp)
    rank[np.argsort(-count, kind="stable")] = np.arange(n)
    # sorted by (cell, paint order); keys are unique, as no prism repeats a cell
    order = np.argsort(cell * n + rank[prism])
    by_cell, painted = cell[order], prism[order]
    first = np.ones(len(order), bool)  # an entry is its cell's first
    first[1:] = by_cell[1:] != by_cell[:-1]
    # the label each entry finds under its prism when that prism is painted
    under = np.empty_like(prism)
    under[order] = np.where(first, -1, np.roll(painted, 1))
    starts = np.concatenate(([0], np.cumsum(count)))
    bad = np.flatnonzero(
        np.minimum.reduceat(under, starts[:-1]) != np.maximum.reduceat(under, starts[:-1])
    )
    if len(bad):
        i = int(bad[np.argmin(rank[bad])])
        inner = slice(starts[i], starts[i + 1])
        # some label under prism i lies in a prism that does not contain it
        j = next(
            j for j in np.unique(under[inner]).tolist()
            if j >= 0 and not np.isin(cell[inner], cell[starts[j]:starts[j + 1]]).all()
        )
        a, b = sorted((i, j))
        raise SceneError(
            f"prisms {scene.prisms[a][0].id!r} and {scene.prisms[b][0].id!r} overlap"
        )

    # each cell takes the height of the last prism painted over it
    last = np.append(first[1:], True)
    top = by_cell[last]
    heights = np.array([h for _, h in scene.prisms], np.float64)
    dsm_data = terrain.copy()
    dsm_data.reshape(-1)[top] = terrain.reshape(-1)[top] + heights[painted[last]]
    return dsm_data
