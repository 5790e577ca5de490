import math

import numpy as np
import pytest

from kornlab.errors import MeshValidationError
from kornlab.mesh import (
    TriMesh, annulus, band_prolongation, disk, disk_prolongation, load_mesh, radial_band,
    unit_square,
)

from helpers import save_mesh


def _affine_dofs(vertices, M, b):
    # full dof blocks (2V, k) of the affine fields x -> M[..., j] x + b[:, j]
    values = np.einsum("cdj,vd->vcj", M, vertices) + b[None]
    return values.reshape(2 * len(vertices), -1)


# ---------------------------------------------------------------------------
# Loop oracles: the cell-by-cell generators the array code must reproduce.
# ---------------------------------------------------------------------------

def loop_unit_square(m):
    xs = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return i * (m + 1) + j

    tris = []
    for i in range(m):
        for j in range(m):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return vertices, np.array(tris)


def loop_radial_band(inner_fn, outer_fn, angular, radial, center):
    theta = 2.0 * math.pi * np.arange(angular) / angular
    r_in, r_out = inner_fn(theta), outer_fn(theta)
    verts = []
    for j in range(radial + 1):
        s = j / radial
        r = (1.0 - s) * r_in + s * r_out
        verts.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    vertices = np.concatenate(verts) + np.asarray(center)[None, :]

    def vid(i, j):
        return j * angular + (i % angular)

    tris = []
    for j in range(radial):
        for i in range(angular):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return vertices, np.array(tris)


def loop_subdivide(vertices, triangles):
    edge_ids = {}
    verts = [tuple(p) for p in vertices]

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            verts.append(tuple(0.5 * (vertices[a] + vertices[b])))
            edge_ids[key] = len(verts) - 1
        return edge_ids[key]

    new_tris = []
    for a, b, c in triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_tris.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
    return np.array(verts), np.array(new_tris)


def loop_boundary_edges(triangles):
    """Directed edges (all ab, then bc, then ca) of edges owned once."""
    directed = [(t[k], t[(k + 1) % 3]) for k in range(3) for t in triangles.tolist()]
    count = {}
    for a, b in directed:
        count[(min(a, b), max(a, b))] = count.get((min(a, b), max(a, b)), 0) + 1
    return np.array([e for e in directed if count[(min(e), max(e))] == 1])


def loop_disk(level):
    angles = np.arange(6) * (math.pi / 3.0)
    vertices = np.concatenate(
        [np.zeros((1, 2)), np.stack([np.cos(angles), np.sin(angles)], axis=1)]
    )
    triangles = np.array([[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)])
    for _ in range(level):
        vertices, triangles = loop_subdivide(vertices, triangles)
        r = np.linalg.norm(vertices, axis=1)
        on_boundary = np.zeros(len(vertices), dtype=bool)
        on_boundary[loop_boundary_edges(triangles).ravel()] = True
        scale = np.where(on_boundary & (r > 0.0), 1.0 / np.where(r == 0.0, 1.0, r), 1.0)
        vertices = vertices * scale[:, None]
    return vertices, triangles


def assert_mesh_equals(mesh, vertices, triangles):
    """Bitwise equality with a loop-built mesh (stored counterclockwise)."""
    ref = TriMesh(vertices, triangles)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(mesh.boundary_edges, loop_boundary_edges(ref.triangles))
    assert np.array_equal(mesh.boundary_normals, ref.boundary_normals)


class TestGeneratorsMatchLoops:
    @pytest.mark.parametrize("cells", [1, 2, 5, 16])
    def test_unit_square(self, cells):
        assert_mesh_equals(unit_square(cells), *loop_unit_square(cells))

    @pytest.mark.parametrize("angular", [3, 16])
    @pytest.mark.parametrize("radial", [1, 3])
    def test_radial_band(self, angular, radial):
        inner = lambda t: 0.5 + 0.1 * np.cos(t)
        outer = lambda t: 1.0 + 0.05 * np.sin(2 * t)
        mesh = radial_band(lambda t: (inner(t), outer(t)), angular=angular, radial=radial)
        mesh = TriMesh(mesh.vertices + (0.3, -0.2), mesh.triangles)
        assert_mesh_equals(mesh, *loop_radial_band(inner, outer, angular, radial, (0.3, -0.2)))

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_disk(self, level):
        assert_mesh_equals(disk(level), *loop_disk(level))

    def test_clockwise_input_is_stored_counterclockwise(self):
        mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 2, 1]])
        assert mesh.triangles.tolist() == [[0, 1, 2]]
        assert mesh.areas()[0] == 0.5


class TestSquare:
    def test_level_zero_counts(self):
        m = unit_square(1)
        m.validate()
        assert len(m.triangles) == 2
        assert len(m.boundary_edges) == 4
        assert len(m.boundary_loops()) == 1

    def test_refined_counts_and_area(self):
        m = unit_square(4)
        m.validate()
        assert len(m.triangles) == 32
        assert m.areas().sum() == pytest.approx(1.0, abs=1e-15)


class TestDisk:
    def test_boundary_on_circle_and_radial_normals(self):
        center = np.array([3.0, -1.0])
        m = disk(3)
        m = TriMesh(m.vertices + center, m.triangles)
        m.validate()
        bv = m.boundary_vertices()
        radii = np.linalg.norm(m.vertices[bv] - center, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12
        mids = 0.5 * (m.vertices[m.boundary_edges[:, 0]] + m.vertices[m.boundary_edges[:, 1]])
        radial = mids - center
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        assert np.abs(m.boundary_normals - radial).max() < 1e-12

    def test_area_converges_to_circle(self):
        areas = [disk(level).areas().sum() for level in (1, 2, 3, 4)]
        errors = [abs(a - np.pi) for a in areas]
        assert errors[-1] < errors[0] / 10

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_prolongation_of_affine_field_is_exact_off_projected_midpoints(self, level):
        rng = np.random.default_rng(level)
        M, b = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 3))
        coarse, fine = (TriMesh(m.vertices + (0.3, -0.2), m.triangles)
                        for m in (disk(level), disk(level + 1)))
        got = disk_prolongation(_affine_dofs(coarse.vertices, M, b), coarse)
        err = np.abs(got - _affine_dofs(fine.vertices, M, b)).reshape(-1, 2, 3).max(axis=(1, 2))
        projected = np.zeros(len(fine.vertices), dtype=bool)
        projected[fine.boundary_vertices()] = True
        projected[:len(coarse.vertices)] = False  # coarse boundary vertices stay put
        assert err[~projected].max() <= 1e-14
        assert err[projected].min() > 1e-6  # moved onto the circle
        one = disk_prolongation(_affine_dofs(coarse.vertices, M, b)[:, 0], coarse)
        assert one.shape == (2 * len(fine.vertices),)
        np.testing.assert_array_equal(one, got[:, 0])


class TestAnnulus:
    def test_two_loops_opposite_orientation(self):
        m = annulus(0.5, 1.0, angular=48, radial=3)
        m.validate()
        loops = m.boundary_loops()
        assert len(loops) == 2
        signs = []
        for loop in loops:
            pts = m.vertices[loop]
            signs.append(
                np.sign(
                    0.5
                    * np.sum(
                        pts[:, 0] * np.roll(pts[:, 1], -1)
                        - pts[:, 1] * np.roll(pts[:, 0], -1)
                    )
                )
            )
        assert sorted(signs) == [-1.0, 1.0]

    def test_rejects_inverted_radii(self):
        with pytest.raises(MeshValidationError):
            annulus(1.0, 0.5)

    @pytest.mark.parametrize("angular,radial", [(16, 2), (32, 3), (64, 4)])
    def test_prolongation_of_radially_affine_field_is_exact(self, angular, radial):
        # the radius is affine in the layer index and constant in the angle,
        # so index-space interpolation reproduces fields affine in the radius
        coarse = annulus(0.5, 1.0, angular=angular, radial=radial)
        fine = annulus(0.5, 1.0, angular=2 * angular, radial=radial + 1)
        rng = np.random.default_rng(angular)
        a, b = rng.standard_normal((2, 2, 3))

        def dofs(mesh):
            r = np.linalg.norm(mesh.vertices, axis=1)
            return (r[:, None, None] * a + b).reshape(2 * len(r), -1)

        got = band_prolongation(dofs(coarse), angular, radial)
        np.testing.assert_allclose(got, dofs(fine), rtol=0, atol=1e-14)
        one = band_prolongation(dofs(coarse)[:, 1], angular, radial)
        np.testing.assert_array_equal(one, got[:, 1])


class TestValidation:
    def test_degenerate_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        mesh = TriMesh.__new__(TriMesh)
        mesh.vertices = verts
        mesh.triangles = np.array([[0, 1, 2]])
        with pytest.raises(MeshValidationError, match="area"):
            mesh.validate()

    def test_nonconforming_edge(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        mesh = unit_square(1)
        mesh.vertices = verts
        mesh.triangles = tris
        with pytest.raises(MeshValidationError, match="conforming|two triangles"):
            mesh.validate()

    def test_index_out_of_range(self):
        mesh = unit_square(1)
        mesh.triangles = np.array([[0, 1, 9]])
        with pytest.raises(MeshValidationError, match="range"):
            mesh.validate()


    def test_flipped_normal_points_inward(self):
        mesh = disk(2)
        mesh.boundary_normals[5] *= -1.0
        with pytest.raises(MeshValidationError, match="points into the domain"):
            mesh.validate()

    def test_stored_boundary_must_match_triangles(self):
        mesh = unit_square(2)
        mesh.boundary_edges = mesh.boundary_edges[::-1]
        with pytest.raises(MeshValidationError, match="do not match"):
            mesh.validate()

    def test_bow_tie_names_the_shared_vertex(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [3.0, 1.0], [2.0, 2.0]])
        TriMesh(verts, np.array([[0, 1, 2], [1, 3, 2], [2, 3, 4]])).validate()
        bow_tie = TriMesh(verts, np.array([[0, 1, 2], [2, 3, 4]]))
        with pytest.raises(MeshValidationError, match="non-manifold boundary vertex 2"):
            bow_tie.validate()

    @pytest.mark.parametrize("triangles, message", [
        ([[0, 1]], "index triples"),
        ([], "no triangles"),
        ([[0, 1, 2.5]], "integers"),
        ([[0, 1, 3]], "range"),
    ])
    def test_malformed_triangles_rejected_at_construction(self, triangles, message):
        with pytest.raises(MeshValidationError, match=message):
            TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], triangles)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        m = annulus(0.7, 1.0, angular=24, radial=2)
        path = tmp_path / "mesh.json"
        save_mesh(m, path)
        back = load_mesh(path)
        np.testing.assert_allclose(back.vertices, m.vertices)
        np.testing.assert_array_equal(back.triangles, m.triangles)
        np.testing.assert_allclose(back.boundary_normals, m.boundary_normals)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MeshValidationError, match="JSON"):
            load_mesh(path)

    def test_rejects_repeated_key(self, tmp_path):
        # json alone keeps the last value of a repeated key
        path = tmp_path / "twice.json"
        path.write_text('{"vertices": [[0,0],[1,0],[0,1]], "vertices": [[0,0],[2,0],[0,2]], '
                        '"triangles": [[0,1,2]]}')
        with pytest.raises(ValueError, match="repeated key 'vertices'"):
            load_mesh(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"vertices": [[0,0],[1,0],[0,1]]}')
        with pytest.raises(MeshValidationError, match="triangles"):
            load_mesh(path)

    def test_rejects_degenerate_content(self, tmp_path):
        path = tmp_path / "degen.json"
        path.write_text(
            '{"vertices": [[0,0],[1,0],[2,0]], "triangles": [[0,1,2]]}'
        )
        with pytest.raises(MeshValidationError, match="area"):
            load_mesh(path)
