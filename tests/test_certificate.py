"""Certificate oracle: every reported kappa^2 is the Rayleigh quotient of the
admissible maximizer returned with it.

The quotient is recomputed per triangle from the maximizer's vertex values,
with no kornlab code: grad u comes from the triangle's edge vectors, and on
rotational slip pencils the gradient energy loses the curl term,

    (int |grad u|^2 - (int curl u)^2 / (2 |Omega|)) / int |e(u)|^2.

Admissibility is checked against the constraint definition: u = 0 at the
pinned vertices, u . n = 0 with the stored normals at the slip vertices, and
the constrained vertices are the boundary ones.  Every stock sweep runs, so
the dense, seed, shifted and symgrad paths are covered, as are rotational
pencils with and without a deflated rotation; mesh files and maximizers
read back from ``--store-maximizer`` reports run through the CLI.
"""

import json

import numpy as np
import pytest

from kornlab import kornfem as kf
from kornlab.cli import main
from kornlab.mesh import load_mesh

from helpers import save_mesh

#: Relative bound on |quotient - kappa^2| and on the constraint residual
#: (relative to max |u|); measured at most 6.3e-14 and 1.2e-16 on the stock
#: sweeps (shell levels 3 and 2), at one BLAS thread and at two.
CERTIFICATE_TOL = 1e-12

STOCK_SWEEPS = {
    ("square", "dirichlet"): range(1, 7),
    ("square", "tangential"): range(1, 8),
    ("disk", "tangential"): range(1, 6),
    ("annulus", "tangential"): range(1, 5),
    ("shell", "tangential"): range(0, 4),
    ("disk", "dirichlet"): range(1, 4),
}


def _quotient(vertices, triangles, u, curl_term):
    p = vertices[triangles]                       # (T, 3, 2) corners
    U = u.reshape(-1, 2)[triangles]               # (T, 3, 2) corner values
    edges = p[:, 1:] - p[:, :1]                   # rows p1 - p0 and p2 - p0
    # edges @ G = U_i - U_0 with G[a, c] = d_a u_c; grad[c, a] = d_a u_c
    grad = np.linalg.solve(edges, U[:, 1:] - U[:, :1]).transpose(0, 2, 1)
    area = 0.5 * np.abs(np.linalg.det(edges))
    sym = 0.5 * (grad + grad.transpose(0, 2, 1))
    grad_sq = area @ (grad**2).sum(axis=(1, 2))
    if curl_term:
        grad_sq -= (area @ (grad[:, 1, 0] - grad[:, 0, 1]))**2 / (2.0 * area.sum())
    return grad_sq / (area @ (sym**2).sum(axis=(1, 2)))


def _boundary_vertices(triangles):
    # the vertices of the edges that exactly one triangle owns
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, counts = np.unique(pairs, axis=0, return_counts=True)
    return np.unique(edges[counts == 1])


def _admissibility(mesh, bc, u):
    constraints = (kf.tangential_constraints(mesh) if bc == "tangential"
                   else kf.dirichlet_constraints(mesh))
    assert np.array_equal(constraints.vertices, _boundary_vertices(mesh.triangles))
    if bc == "dirichlet":
        assert not constraints.slip.any()
    U = u.reshape(-1, 2)
    pinned = U[constraints.vertices[~constraints.slip]]
    slip = U[constraints.vertices[constraints.slip]]
    residual = max(np.abs(pinned).max(initial=0.0),
                   np.abs(np.einsum("vi,vi->v", slip, constraints.normals)).max(initial=0.0))
    return residual / np.abs(U).max()


def _check(mesh, bc, kappa_sq, u, rotational):
    curl_term = bc == "tangential" and rotational
    rho = _quotient(mesh.vertices, mesh.triangles, np.asarray(u, dtype=float), curl_term)
    assert abs(rho - kappa_sq) <= CERTIFICATE_TOL * kappa_sq
    assert _admissibility(mesh, bc, np.asarray(u, dtype=float)) <= CERTIFICATE_TOL


@pytest.fixture(scope="module")
def stock_sweeps():
    return {key: kf.korn_sweep(key[0], list(levels), bc=key[1])
            for key, levels in STOCK_SWEEPS.items()}


@pytest.mark.parametrize("domain,bc", list(STOCK_SWEEPS), ids=str)
def test_stock_sweep_maximizers_certify_kappa_sq(stock_sweeps, domain, bc):
    for level, est in zip(STOCK_SWEEPS[(domain, bc)], stock_sweeps[(domain, bc)]):
        _check(kf.builtin_domain(domain, level), bc, est.kappa_sq, est.maximizer,
               est.l_omega.kind == "rotational")


def test_stock_sweeps_cover_every_solver_path(stock_sweeps):
    paths = {(est.solver, bc, est.l_omega.kind == "rotational", est.deflated_rotation)
             for (_, bc), estimates in stock_sweeps.items() for est in estimates}
    assert {solver for solver, *_ in paths} == {"dense", "seed", "shifted", "symgrad"}
    rotational_slip = {(solver, deflated) for solver, bc, rotational, deflated in paths
                       if bc == "tangential" and rotational}
    # the curl term with the rotation deflated, and with it pinned (disk level 1)
    assert {("dense", False), ("dense", True), ("symgrad", True)} <= rotational_slip
    assert ("shifted", "dirichlet", True, False) in paths  # the Dirichlet disk


@pytest.mark.parametrize("source,bc", [
    (("disk", 2), "tangential"), (("annulus", 2), "tangential"), (("disk", 3), "dirichlet"),
    (("square", 4), "tangential"), (("square", 4), "dirichlet"),
], ids=["disk2-dense", "annulus2-symgrad", "dirichlet-disk3", "square4", "dirichlet-square4"])
def test_mesh_file_maximizer_read_back_certifies_kappa_sq(tmp_path, source, bc):
    path, report = tmp_path / "mesh.json", tmp_path / "report.json"
    save_mesh(kf.builtin_domain(*source), path)
    assert main(["korn", "--mesh-file", str(path), "--bc", bc, "--store-maximizer",
                 "--report", str(report)]) == 0
    (level,) = json.loads(report.read_text())["result"]["levels"]
    _check(load_mesh(path), bc, level["kappa_sq"], level["maximizer"],
           level["l_omega"]["kind"] == "rotational")


@pytest.mark.parametrize("domain,refine,bc", [
    ("disk", 3, "tangential"), ("square", 3, "dirichlet"), ("square", 4, "tangential"),
    ("shell", 0, "tangential"),
])
def test_sweep_report_maximizers_certify_kappa_sq(tmp_path, domain, refine, bc):
    report = tmp_path / "report.json"
    assert main(["korn", "--domain", domain, "--refine", str(refine), "--bc", bc,
                 "--store-maximizer", "--report", str(report)]) == 0
    levels = json.loads(report.read_text())["result"]["levels"]
    assert len(levels) == refine + 1
    for number, level in enumerate(levels, start=1):  # the CLI sweeps from level 1
        _check(kf.builtin_domain(domain, number), bc, level["kappa_sq"], level["maximizer"],
               level["l_omega"]["kind"] == "rotational")
