"""Flat-roofed block model: footprint extrusion and Wavefront OBJ export.

Each building becomes a prism: bottom face at its base elevation, top face at
base + height, one quad per ring edge. Faces are wound so outward normals are
consistent (bottom clockwise seen from above, top counter-clockwise).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import PipelineError
from .footprints import Footprint
from .grid import format_value

logger = logging.getLogger(__name__)


@dataclass
class Mesh:
    """Indexed face set. Face indices are 1-based; groups assign consecutive
    face runs to building ids for OBJ object groups."""

    vertices: list[tuple[float, float, float]] = field(default_factory=list)
    faces: list[list[int]] = field(default_factory=list)
    groups: list[tuple[str, int]] = field(default_factory=list)  # (id, face count)


def extrude(
    buildings: Iterable[tuple[Footprint, float]],
    base_elevation_m: Union[float, Mapping[str, float]] = 0.0,
) -> Mesh:
    """Extrude footprints to their heights above a constant or per-building base.

    Zero-height buildings are skipped with a warning; negative or non-finite
    heights and non-finite bases are rejected.
    """
    mesh = Mesh()
    for fp, height in buildings:
        if not math.isfinite(height):
            raise PipelineError(f"building {fp.id!r}: extrusion height {height} is not finite")
        if height < 0:
            raise PipelineError(f"building {fp.id!r}: negative extrusion height {height}")
        if height == 0:
            logger.warning("building %r has zero height, skipped", fp.id)
            continue
        if isinstance(base_elevation_m, Mapping):
            base = float(base_elevation_m.get(fp.id, 0.0))
        else:
            base = float(base_elevation_m)
        if not math.isfinite(base):
            raise PipelineError(f"building {fp.id!r}: base elevation {base} is not finite")

        ring = fp.ring  # counter-clockwise after normalization
        n = len(ring)
        start = len(mesh.vertices)
        mesh.vertices.extend((x, y, base) for x, y in ring)
        mesh.vertices.extend((x, y, base + height) for x, y in ring)

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
    """Serialize to OBJ: all `v` lines, then per-building `o` + `f` lines."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {format_value(x)} {format_value(y)} {format_value(z)}")
    face_idx = 0
    for name, count in mesh.groups:
        lines.append(f"o {name}")
        for face in mesh.faces[face_idx : face_idx + count]:
            lines.append("f " + " ".join(str(i) for i in face))
        face_idx += count
    # faces not covered by any group (hand-built meshes)
    for face in mesh.faces[face_idx:]:
        lines.append("f " + " ".join(str(i) for i in face))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
