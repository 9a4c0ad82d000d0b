"""Flat-roofed block model: footprint extrusion and Wavefront OBJ export.

Each building becomes a prism: bottom face at its base elevation, top face at
base + height, one quad per ring edge. Faces are wound so outward normals are
consistent (bottom clockwise seen from above, top counter-clockwise).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from ._shortest import format_cells
from .errors import PipelineError
from .footprints import Footprint

logger = logging.getLogger(__name__)


@dataclass
class Mesh:
    """Indexed face set. Face indices are 1-based; groups assign consecutive
    face runs to building ids for OBJ object groups."""

    vertices: list[tuple[float, float, float]] = field(default_factory=list)
    faces: list[list[int]] = field(default_factory=list)
    groups: list[tuple[str, int]] = field(default_factory=list)  # (id, face count)


def extrude(buildings: Iterable[tuple[Footprint, float]], base_elevation_m: float = 0.0) -> Mesh:
    """Extrude footprints to their heights above a constant base.

    Zero-height buildings are skipped with a warning; negative or non-finite
    heights, a non-finite base and a roof elevation (base + height) that
    overflows are rejected.
    """
    mesh = Mesh()
    base = float(base_elevation_m)
    for fp, height in buildings:
        if not math.isfinite(height):
            raise PipelineError(f"building {fp.id!r}: extrusion height {height} is not finite")
        if height < 0:
            raise PipelineError(f"building {fp.id!r}: negative extrusion height {height}")
        if height == 0:
            logger.warning("building %r has zero height, skipped", fp.id)
            continue
        if not math.isfinite(base):
            raise PipelineError(f"building {fp.id!r}: base elevation {base} is not finite")
        roof = base + height
        if not math.isfinite(roof):
            raise PipelineError(
                f"building {fp.id!r}: roof elevation {base} + {height} is not finite"
            )

        ring = fp.ring  # counter-clockwise after normalization
        n = len(ring)
        start = len(mesh.vertices)
        mesh.vertices.extend((x, y, base) for x, y in ring)
        mesh.vertices.extend((x, y, roof) for x, y in ring)

        bottom = [start + i + 1 for i in range(n)]
        top = [start + n + i + 1 for i in range(n)]
        faces = [list(reversed(bottom)), list(top)]
        for i in range(n):
            j = (i + 1) % n
            faces.append([bottom[i], bottom[j], top[j], top[i]])
        mesh.faces.extend(faces)
        mesh.groups.append((fp.id, len(faces)))
    return mesh


def write_obj(mesh: Mesh) -> str:
    """Serialize to OBJ: all `v` lines, then per-building `o` + `f` lines.

    Coordinates are printed as grid cells are (``grid.format_value``), all
    vertices in one ``format_cells`` call; face indices are printed by one
    ``%d`` format over all of them."""
    lines = []
    if mesh.vertices:
        coords = np.fromiter(chain.from_iterable(mesh.vertices), np.float64)
        text = format_cells(coords.reshape(-1, 3), "nan")
        lines.extend("v " + line for line in text.splitlines())
    face_lines = []
    if mesh.faces:
        face_text = "\n".join(["f" + " %d" * len(face) for face in mesh.faces])
        face_lines = (face_text % tuple(chain.from_iterable(mesh.faces))).split("\n")
    face_idx = 0
    for name, count in mesh.groups:
        lines.append(f"o {name}")
        lines.extend(face_lines[face_idx : face_idx + count])
        face_idx += count
    # faces not covered by any group (hand-built meshes)
    lines.extend(face_lines[face_idx:])
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
