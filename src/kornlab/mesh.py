"""Conforming 2D triangle meshes with oriented boundary data.

Triangles are stored counterclockwise; the boundary consists of the edges
owned by exactly one triangle, traversed with the interior on the left, so
the outward normal of a directed boundary edge (a, b) is the right-hand
rotation of b - a.  This orients inner loops of multiply connected domains
(annuli, shells) correctly without any convexity assumption.

The structured generators (square, radial bands) number their vertices on a
grid and split all cells along the same diagonal at once (``_split_quads``).
All edge topology comes from one edge table (``_edge_table``: directed
edges, the undirected edge of each and how many triangles share it), read
by the boundary extraction, by validation, by the disk's boundary
projection and by the quadrature.

Next to the disk and band generators sit their prolongations, which carry
a dof block to the next level of the sweep: the disk's in the edge order
of its own subdivision, the band's in (angle, layer) index space.

``evaluate_field_ratio`` integrates analytic fields over a mesh with pure
numpy quadrature, so that the shell experiment loads no scipy; it
evaluates a field once per edge midpoint.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InfiniteQuotient, MeshValidationError, unique_keys


@dataclass
class TriMesh:
    vertices: np.ndarray          # (V, 2) float
    triangles: np.ndarray         # (T, 3) int, counterclockwise
    # Populated by __post_init__:
    boundary_edges: np.ndarray = field(init=False)    # (E, 2) directed vertex pairs
    boundary_normals: np.ndarray = field(init=False)  # (E, 2) outward unit normals
    # the quadrature's data, made on its first request (``_midpoint_rule``)
    _rule: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = _as_array(self.vertices, "vertices must be an array of 2D points", float)
        self.triangles = _as_array(self.triangles, "triangles must be index triples")
        self._check_indices()
        self.triangles = self.triangles.astype(np.int64, copy=False)
        flip = self.areas() < 0.0  # store counterclockwise
        if flip.any():  # in a copy: the caller's array may be shared
            self.triangles = self.triangles.copy()
            self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]
        directed, edge, counts = _edge_table(self.triangles, len(self.vertices))
        self.boundary_edges = directed[counts[edge] == 1]
        self.boundary_normals = _normals(self.vertices, self.boundary_edges)

    # -- construction helpers ------------------------------------------------

    def _check_indices(self):
        """Shape, integer and range checks; everything else may index."""
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshValidationError("vertices must be an array of 2D points")
        if t.size == 0:
            raise MeshValidationError("mesh has no triangles")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshValidationError("triangles must be index triples")
        if not np.issubdtype(t.dtype, np.integer):
            raise MeshValidationError("triangle indices must be integers")
        if t.min() < 0 or t.max() >= len(v):
            raise MeshValidationError("triangle indices out of vertex range")

    def _midpoint_rule(self):
        """Triangle areas, the distinct edges' end vertices (E, 2) and the
        edge of each midpoint slot (ab, bc, ca of all triangles, as in
        ``_edge_table``), kept while the vertex and triangle arrays stay."""
        rule = self._rule
        if rule is None or rule[0] is not self.vertices or rule[1] is not self.triangles:
            directed, edge, counts = _edge_table(self.triangles, len(self.vertices))
            ends = np.empty((len(counts), 2), dtype=np.int64)
            ends[edge] = directed
            rule = self._rule = (self.vertices, self.triangles, np.abs(self.areas()), ends, edge)
        return rule[2:]

    # -- derived quantities ---------------------------------------------------

    def areas(self) -> np.ndarray:
        p0, p1, p2 = np.take(self.vertices, self.triangles.T, axis=0)
        return 0.5 * (
            (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
        )

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def boundary_loops(self) -> list[np.ndarray]:
        """Boundary decomposed into closed vertex loops (traversal order)."""
        nxt = {int(a): int(b) for a, b in self.boundary_edges}
        seen: set[int] = set()
        loops = []
        for start in sorted(nxt):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            cur = nxt[start]
            while cur != start:
                loop.append(cur)
                if cur in seen or cur not in nxt:
                    raise MeshValidationError("boundary edges do not form closed loops")
                seen.add(cur)
                cur = nxt[cur]
            loops.append(np.array(loop, dtype=np.int64))
        return loops

    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.linalg.norm(d, axis=1)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Raise MeshValidationError naming the first violated invariant."""
        self._check_indices()
        v, t = self.vertices, self.triangles
        if not np.all(np.isfinite(v)):
            raise MeshValidationError("vertex coordinates must be finite")
        if np.any(self.areas() <= 0.0):
            raise MeshValidationError("degenerate triangle with non-positive area")
        corners = np.sort(t, axis=1)  # a repeated triangle passes the edge counts below
        order = np.lexsort(corners.T)  # stable: copies keep their index order
        same = np.flatnonzero((np.diff(corners[order], axis=0) == 0).all(axis=1))
        if same.size:
            raise MeshValidationError("repeated triangle: triangles {} and {} have the same "
                                      "vertices".format(*order[same[0]:same[0] + 2]))

        # edge table of the current triangles, which may have been replaced
        directed, edge, counts = _edge_table(t, len(v))
        shared = counts[edge]
        if np.any(shared > 2):
            raise MeshValidationError("non-conforming mesh: edge shared by more than two triangles")
        on_boundary = shared == 1
        starts = np.bincount(directed[on_boundary, 0], minlength=len(v))
        if np.any(starts > 1):
            raise MeshValidationError(f"non-manifold boundary vertex {np.argmax(starts > 1)}")
        if not np.array_equal(self.boundary_edges, directed[on_boundary]):
            raise MeshValidationError("stored boundary edges do not match the triangles")

        self.boundary_loops()  # raises when loops are not closed

        norms = np.linalg.norm(self.boundary_normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise MeshValidationError("boundary normals are not unit length")

        # Outward check: the normal of each boundary edge must point away
        # from the centroid of the one triangle that owns it.
        owner = np.flatnonzero(on_boundary) % len(t)
        centroids = v[t[owner]].mean(axis=1)
        mids = 0.5 * (v[self.boundary_edges[:, 0]] + v[self.boundary_edges[:, 1]])
        if np.any(np.einsum("ij,ij->i", self.boundary_normals, mids - centroids) <= 0.0):
            raise MeshValidationError("boundary normal points into the domain")


def _as_array(data, message: str, dtype=None) -> np.ndarray:
    try:
        return np.asarray(data, dtype=dtype)
    except (TypeError, ValueError):  # ragged or non-numeric input
        raise MeshValidationError(message) from None


def _edge_table(triangles: np.ndarray, nverts: int):
    """Directed edges ab, bc, ca of all triangles (row k belongs to triangle
    k % T), the index of each row's undirected edge among the distinct
    edges, and per distinct edge the number of triangles sharing it."""
    t = np.asarray(triangles, dtype=np.int64)
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    key = directed.min(axis=1) * (nverts + 1) + directed.max(axis=1)
    _, edge, counts = np.unique(key, return_inverse=True, return_counts=True)
    return directed, edge, counts


def _normals(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Right-hand unit normals of directed edges (outward on the boundary)."""
    d = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    lengths = np.linalg.norm(d, axis=1)
    lengths = np.where(lengths == 0.0, 1.0, lengths)
    return np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def _split_quads(ids: np.ndarray) -> np.ndarray:
    """Two triangles per cell of a vertex-id grid, cut along the
    ids[i, j]-ids[i+1, j+1] diagonal: shape (rows, cols, 2, 3), row-major."""
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[:-1, 1:], ids[1:, 1:]
    return np.stack([a, b, d, a, d, c], axis=-1).reshape(*a.shape, 2, 3)


def unit_square(cells: int) -> TriMesh:
    """Structured unit-square mesh with ``cells`` x ``cells`` squares, split
    along the same diagonal so successive doublings are nested."""
    if cells < 1:
        raise MeshValidationError("square mesh needs at least one cell per side")
    m = cells
    xs = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)
    ids = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    return TriMesh(vertices, _split_quads(ids).reshape(-1, 3))


def disk(level: int) -> TriMesh:
    """Polygonal unit disk about the origin: hexagonal fan subdivided
    ``level`` times, boundary midpoints projected back to the circle after
    each subdivision."""
    if level < 0:
        raise MeshValidationError("disk level must be nonnegative")
    angles = np.arange(6) * (math.pi / 3.0)
    vertices = np.concatenate(
        [np.zeros((1, 2)), np.stack([np.cos(angles), np.sin(angles)], axis=1)]
    )
    triangles = np.array([[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)])
    for _ in range(level):
        vertices, triangles = _subdivide(vertices, triangles)
        directed, edge, counts = _edge_table(triangles, len(vertices))
        bnd = np.unique(directed[counts[edge] == 1])
        vertices[bnd] *= (1.0 / np.linalg.norm(vertices[bnd], axis=1))[:, None]
    return TriMesh(vertices, triangles)


def _midpoint_edges(triangles: np.ndarray, nverts: int):
    """The edges of a mesh in the order they first appear (ab, bc, ca per
    triangle): their end vertices (E, 2), and the position of each
    triangle's ab, bc, ca edge in that order (T, 3)."""
    edges = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = edges.min(axis=1) * nverts + edges.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return edges[np.sort(first)], np.argsort(np.argsort(first))[inverse].reshape(-1, 3)


def _subdivide(vertices: np.ndarray, triangles: np.ndarray):
    """Uniform 1-to-4 midpoint subdivision; midpoints are numbered after the
    vertices, in the order their edges first appear (``_midpoint_edges``)."""
    ends, position = _midpoint_edges(triangles, len(vertices))
    ab, bc, ca = (len(vertices) + position).T
    a, b, c = triangles.T
    vertices = np.concatenate([vertices, 0.5 * (vertices[ends[:, 0]] + vertices[ends[:, 1]])])
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return vertices, new_tris.reshape(-1, 3)


def disk_prolongation(coarse: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Prolong a full dof vector or (2V, k) block from the disk mesh ``mesh``
    to the disk one level finer: each coarse vertex keeps its id and value,
    and each midpoint takes the average of its edge's two ends.  That is the
    P1 interpolant, except at boundary midpoints, which the finer mesh moves
    onto the circle."""
    ends, _ = _midpoint_edges(mesh.triangles, len(mesh.vertices))
    old = coarse.reshape(len(mesh.vertices), 2, -1)
    new = np.concatenate([old, 0.5 * (old[ends[:, 0]] + old[ends[:, 1]])])
    return new.reshape(-1, *coarse.shape[1:])


def annulus(
    r_inner: float,
    r_outer: float,
    angular: int = 64,
    radial: int = 4,
) -> TriMesh:
    """Plain circular annulus (constant radii) around the origin."""
    return radial_band(
        lambda theta: (np.full_like(theta, r_inner), np.full_like(theta, r_outer)),
        angular=angular,
        radial=radial,
    )


def radial_band(radii, angular: int = 64, radial: int = 4, like: TriMesh | None = None) -> TriMesh:
    """Structured mesh between two star-shaped radius profiles about the
    origin; ``radii(theta)`` gives the (inner, outer) radii at the angles
    ``theta``.

    ``like``, a band this function returned, lends the result its
    triangles, boundary edges and quadrature edges when it has the same
    angular and radial counts and every triangle stays counterclockwise on
    the new vertices; otherwise it is ignored.  Either way the result
    equals the band built without it, bit for bit.
    """
    if angular < 3 or radial < 1:
        raise MeshValidationError("band mesh needs angular >= 3 and radial >= 1")
    theta = 2.0 * math.pi * np.arange(angular) / angular
    r_in, r_out = (np.asarray(r, dtype=float) for r in radii(theta))
    if np.any(r_in <= 0.0) or np.any(r_out - r_in <= 0.0):
        raise MeshValidationError("band radii must satisfy 0 < inner < outer")
    s = (np.arange(radial + 1) / radial)[:, None]
    r = (1.0 - s) * r_in + s * r_out
    vertices = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1).reshape(-1, 2)
    # a band's vertex and triangle counts fix its angular and radial counts
    if like is not None and (len(like.vertices), len(like.triangles)) == (
            len(vertices), 2 * angular * radial):
        mesh = _moved(like, vertices)
        if mesh is not None:
            return mesh
    # Layer j holds ids j*angular ... j*angular + angular - 1; the first id
    # column appended again closes the angle.  Cells go layer by layer, inner
    # triangle first, both counterclockwise, so TriMesh reverses none.
    ids = np.arange((radial + 1) * angular).reshape(radial + 1, angular)
    ids = np.concatenate([ids, ids[:, :1]], axis=1)
    tris = _split_quads(ids)[:, :, ::-1].reshape(-1, 3)
    return TriMesh(vertices, tris)


def _moved(like: TriMesh, vertices: np.ndarray) -> TriMesh | None:
    """``like`` on new vertices, sharing its topology, or None unless every
    triangle keeps a positive area; then ``TriMesh`` would store ``like``'s
    orientations, since reversing a triangle negates its area bit for bit."""
    mesh = copy.copy(like)
    mesh.vertices = vertices
    areas = mesh.areas()
    if not np.all(areas > 0.0):
        return None
    mesh.boundary_normals = _normals(vertices, like.boundary_edges)
    _, ends, edge = like._midpoint_rule()
    mesh._rule = (vertices, like.triangles, areas, ends, edge)
    return mesh


def band_prolongation(coarse: np.ndarray, angular: int, radial: int) -> np.ndarray:
    """Prolong a full dof vector or (2V, k) block from the ``radial_band``
    mesh with ``angular`` angles and ``radial`` layers to the one with
    2 * angular angles and radial + 1 layers: linear interpolation in
    (angle, layer) index space, periodic in the angle."""
    old = coarse.reshape(radial + 1, angular, 2, -1)
    wide = np.empty((radial + 1, 2 * angular) + old.shape[2:])
    wide[:, 0::2] = old
    wide[:, 1::2] = 0.5 * (old + np.roll(old, -1, axis=1))
    # fine layer j sits at coarse layer index j * radial / (radial + 1)
    pos = np.arange(radial + 2) * radial / (radial + 1)
    below = np.minimum(pos.astype(np.int64), radial - 1)
    w = (pos - below)[:, None, None, None]
    new = (1.0 - w) * wide[below] + w * wide[below + 1]
    return new.reshape(-1, *coarse.shape[1:])


# ---------------------------------------------------------------------------
# Quadrature evaluation of analytic fields.
# ---------------------------------------------------------------------------

def evaluate_field_ratio(mesh: TriMesh, u_fn, grad_fn) -> dict:
    """Quadrature norms of an analytic field over the mesh.

    ``u_fn`` maps (N, 2) points to (N, 2) values; ``grad_fn`` to (N, 2, 2)
    gradients.  Uses the three-midpoint rule (exact for quadratics).  Returns
    grad_norm, symgrad_norm, korn_quotient and the tangency residual
    max |u . n| over boundary-edge midpoints.  Raises
    :class:`InfiniteQuotient` when the symmetric gradient vanishes.
    """
    v = mesh.vertices
    areas, ends, edge = mesh._midpoint_rule()
    w = np.repeat(areas[None, :] / 3.0, 3, axis=0).ravel()
    # One gradient per edge: a slot's midpoint 0.5 (a + b) is its edge's
    # 0.5 (b + a) bit for bit, so the values squared per edge and gathered
    # to the slots are the per-slot ones, summed in the same order.
    # (np.take gathers rows faster than fancy indexing does)
    mids = 0.5 * (np.take(v, ends[:, 0], axis=0) + np.take(v, ends[:, 1], axis=0))
    G = np.asarray(grad_fn(mids), dtype=float)
    del mids
    grad_sq = float(np.einsum("q,qij->", w, np.take(np.square(G), edge, axis=0)))
    D = G + np.swapaxes(G, 1, 2)  # 0.5 (G + G^T), halved and squared in its own buffer
    del G
    D *= 0.5
    sym_sq = float(np.einsum("q,qij->", w, np.take(np.square(D, out=D), edge, axis=0)))

    bmids = 0.5 * (v[mesh.boundary_edges[:, 0]] + v[mesh.boundary_edges[:, 1]])
    ub = np.asarray(u_fn(bmids), dtype=float)
    tangency = float(np.abs(np.einsum("ei,ei->e", ub, mesh.boundary_normals)).max())

    grad_norm = math.sqrt(grad_sq)
    sym_norm = math.sqrt(sym_sq)
    if sym_norm <= 1e-12 * max(grad_norm, 1e-300):
        raise InfiniteQuotient(
            "symmetric gradient vanishes (rigid motion); the quotient is infinite"
        )
    return {
        "grad_norm": grad_norm,
        "symgrad_norm": sym_norm,
        "korn_quotient": grad_norm / sym_norm,
        "tangency_residual": tangency,
    }


# ---------------------------------------------------------------------------
# JSON mesh files: {vertices, triangles}; boundary edges and normals are
# recomputed.
# ---------------------------------------------------------------------------

def load_mesh(path) -> TriMesh:
    try:
        payload = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise MeshValidationError(f"mesh file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MeshValidationError("mesh file must hold a JSON object")
    for key in ("vertices", "triangles"):
        if key not in payload:
            raise MeshValidationError(f"mesh file misses required key {key!r}")
    mesh = TriMesh(payload["vertices"], payload["triangles"])
    mesh.validate()
    return mesh
