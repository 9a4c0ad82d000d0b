import random

import numpy as np
import pytest

from popvol import Footprint, PipelineError, extrude, write_obj

from conftest import rectangle_ring


def unit_square(fid="B1"):
    return Footprint(fid, "T", rectangle_ring(0, 0, 1, 1))


def mesh_volume(mesh) -> float:
    """Signed-tetrahedron volume; positive for outward-oriented closed meshes."""
    total = 0.0
    verts = [np.asarray(v, dtype=float) for v in mesh.vertices]
    for face in mesh.faces:
        pts = [verts[i - 1] for i in face]
        for k in range(1, len(pts) - 1):
            total += np.dot(pts[0], np.cross(pts[k], pts[k + 1])) / 6.0
    return total


def parse_obj(text: str):
    """Minimal OBJ reader used only to check what was written."""
    vertices, faces, objects = [], [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append(tuple(float(p) for p in parts[1:]))
        elif parts[0] == "f":
            faces.append([int(p) for p in parts[1:]])
        elif parts[0] == "o":
            objects.append(parts[1])
    return vertices, faces, objects


def test_unit_cube_counts():
    mesh = extrude([(unit_square(), 1.0)])
    assert len(mesh.vertices) == 8
    assert len(mesh.faces) == 6
    assert all(len(f) == 4 for f in mesh.faces)
    assert mesh.groups == [("B1", 6)]


def test_unit_cube_volume_positive_one():
    mesh = extrude([(unit_square(), 1.0)])
    assert mesh_volume(mesh) == pytest.approx(1.0, rel=1e-9)


def test_counts_general_ring():
    pentagon = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]
    mesh = extrude([(Footprint("P", "T", pentagon), 7.0)])
    assert len(mesh.vertices) == 10
    assert len(mesh.faces) == 7  # top + bottom + 5 side quads


def test_zero_height_skipped_with_warning(caplog):
    with caplog.at_level("WARNING"):
        mesh = extrude([(unit_square("B0"), 0.0), (unit_square("B1"), 2.0)])
    assert [g[0] for g in mesh.groups] == ["B1"]
    assert "B0" in caplog.text


def test_negative_height_rejected():
    with pytest.raises(PipelineError, match="negative"):
        extrude([(unit_square(), -1.0)])


@pytest.mark.parametrize("base", [float("inf"), float("nan"), float("-inf")])
def test_non_finite_base_rejected(base):
    message = r"^building 'B1': base elevation -?(inf|nan) is not finite$"
    with pytest.raises(PipelineError, match=message):
        extrude([(unit_square(), 1.0)], base_elevation_m=base)


def test_bounding_box_matches_dimensions():
    fp = Footprint("T1-01", "Type1", rectangle_ring(100.0, 200.0, 30.0, 30.5))
    mesh = extrude([(fp, 19.8)], base_elevation_m=50.0)
    arr = np.array(mesh.vertices)
    spans = arr.max(axis=0) - arr.min(axis=0)
    assert spans == pytest.approx([30.0, 30.5, 19.8])
    assert arr[:, 2].min() == 50.0


def test_write_obj_unit_cube_line_counts():
    text = write_obj(extrude([(unit_square(), 1.0)]))
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 8
    assert sum(1 for l in lines if l.startswith("f ")) == 6
    assert sum(1 for l in lines if l.startswith("o ")) == 1


def test_write_obj_empty_mesh():
    from popvol.mesh import Mesh

    assert write_obj(Mesh()) == ""


def test_write_obj_reparse_counts():
    buildings = [
        (unit_square("A"), 2.0),
        (Footprint("B", "T", [(10, 10), (14, 10), (15, 13), (11, 15)]), 6.5),
    ]
    mesh = extrude(buildings)
    vertices, faces, objects = parse_obj(write_obj(mesh))
    assert len(vertices) == len(mesh.vertices)
    assert len(faces) == len(mesh.faces)
    assert objects == ["A", "B"]
    assert faces == mesh.faces


def test_prism_volume_matches_area_times_height():
    rng = random.Random(8)
    for i in range(20):
        w = rng.uniform(3, 40)
        d = rng.uniform(3, 40)
        h = rng.uniform(1, 25)
        fp = Footprint(f"R{i}", "T", rectangle_ring(rng.uniform(-50, 50), rng.uniform(-50, 50), w, d))
        mesh = extrude([(fp, h)], base_elevation_m=rng.uniform(-5, 5))
        assert mesh_volume(mesh) == pytest.approx(w * d * h, rel=1e-6)


def test_vertex_and_face_count_invariant():
    rings = [
        rectangle_ring(0, 0, 5, 5),
        [(20, 20), (26, 21), (28, 26), (23, 29), (19, 25)],
        [(40, 0), (46, 0), (49, 4), (46, 8), (40, 8), (38, 4)],
    ]
    buildings = [(Footprint(f"B{i}", "T", r), 3.0 + i) for i, r in enumerate(rings)]
    mesh = extrude(buildings)
    ring_sizes = [len(fp.ring) for fp, _ in buildings]
    assert len(mesh.vertices) == 2 * sum(ring_sizes)
    assert len(mesh.faces) == sum(n + 2 for n in ring_sizes)
