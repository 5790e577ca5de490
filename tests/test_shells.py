import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kornlab
from kornlab import kornfem as kf
from kornlab import mesh as mesh_module
from kornlab.errors import InfiniteQuotient, MeshValidationError
from kornlab.mesh import evaluate_field_ratio, radial_band
from kornlab.shells import BlowupTable, ShellSpec, blowup_experiment, shell_field, shell_mesh


class TestShellSpec:
    def test_default_profile_in_range(self):
        spec = ShellSpec()
        theta = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        g = spec.profile(theta)
        assert g.min() > 0.0 and g.max() < 1.0 / 3.0

    def test_rejects_thickness_out_of_range(self):
        with pytest.raises(MeshValidationError):
            ShellSpec(h=0.6)
        with pytest.raises(MeshValidationError):
            ShellSpec(h=0.0)

    def test_rejects_profile_leaving_range(self):
        with pytest.raises(MeshValidationError):
            ShellSpec(cos_coeffs={0: 0.2, 3: 0.25})
        # g = 0.2 - 0.15 cos(4096 theta) spans [0.05, 0.35], but each of
        # 4096 equispaced check samples saw g = 0.05
        with pytest.raises(MeshValidationError, match=r"range \[0.05, 0.35\] leaves"):
            ShellSpec(cos_coeffs={0: 0.2, 4096: -0.15}, angular_resolution=8192)
        with pytest.raises(MeshValidationError, match="wavenumber 4096 exceeds half the "
                                                      "angular resolution 8190"):
            ShellSpec(cos_coeffs={0: 0.2, 4096: -0.15}, angular_resolution=8190)
        ShellSpec(cos_coeffs={0: 0.2, 4096: 0.0}, angular_resolution=64)  # a zero term is no wave

    def test_rejects_nan_profile(self):
        # a NaN profile fails every comparison, so the range check alone passed it
        with pytest.raises(MeshValidationError, match="leaves"):
            ShellSpec(cos_coeffs={0: 0.2, 3: math.nan})

    def test_constant_radii_example(self):
        # g = 0.2, h = 0.1: inner radius 1 + h g - h = 0.92, outer 1.02
        spec = ShellSpec(cos_coeffs={0: 0.2}, h=0.1)
        inner, outer = spec.radii(np.array([0.0, 2.0]))
        np.testing.assert_allclose(inner, 0.92, atol=1e-15)
        np.testing.assert_allclose(outer, 1.02, atol=1e-15)

    def test_derivatives_match_finite_differences(self):
        spec = ShellSpec(cos_coeffs={0: 0.2, 3: 0.05}, sin_coeffs={2: 0.03})
        theta = np.linspace(0, 2 * math.pi, 17)
        eps = 1e-6
        fd1 = (spec.profile(theta + eps) - spec.profile(theta - eps)) / (2 * eps)
        fd2 = (spec.profile(theta + eps) - 2 * spec.profile(theta) + spec.profile(theta - eps)) / eps**2
        np.testing.assert_allclose(spec.profile(theta, 1), fd1, atol=1e-7)
        np.testing.assert_allclose(spec.profile(theta, 2), fd2, atol=1e-3)


    def test_profile_orders_match_the_term_loops_bitwise(self):
        # the per-order loops that profile(theta, order) replaced
        spec = ShellSpec(cos_coeffs={0: 0.2, 3: 0.05, 5: -0.01}, sin_coeffs={2: 0.03, 4: 0.007})
        theta = np.linspace(0, 2 * math.pi, 1001)
        d0, d1, d2 = (np.zeros_like(theta) for _ in range(3))
        for k, c in spec.cos_coeffs.items():
            d0 += c * np.cos(k * theta)
            d1 -= c * k * np.sin(k * theta)
            d2 -= c * k * k * np.cos(k * theta)
        for k, c in spec.sin_coeffs.items():
            d0 += c * np.sin(k * theta)
            d1 += c * k * np.cos(k * theta)
            d2 -= c * k * k * np.sin(k * theta)
        for order, expected in enumerate((d0, d1, d2)):
            np.testing.assert_array_equal(spec.profile(theta, order), expected)


class TestShellMesh:
    def test_valid_with_two_loops(self):
        mesh = shell_mesh(ShellSpec(h=0.1, angular_resolution=128, radial_layers=3))
        mesh.validate()
        assert len(mesh.boundary_loops()) == 2

    def test_vertices_between_profiles(self):
        spec = ShellSpec(h=0.08, angular_resolution=64, radial_layers=2)
        mesh = shell_mesh(spec)
        r = np.linalg.norm(mesh.vertices, axis=1)
        theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
        inner, outer = spec.radii(theta)
        assert np.all(r >= inner - 1e-12) and np.all(r <= outer + 1e-12)


def _assert_same_mesh(mesh, fresh):
    for name in ("vertices", "triangles", "boundary_edges", "boundary_normals", "edge_ends",
                 "slot_edges"):
        a, b = getattr(mesh, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestReusedTopology:
    """A shell row built on the previous row's topology (``like``) equals
    the mesh built from scratch, bit for bit, or is built from scratch."""

    def test_rows_at_the_stock_thicknesses_equal_fresh_meshes(self):
        like = None
        for h in (0.1, 0.05, 0.025, 0.0125):
            spec_h = replace(ShellSpec(), h=h)
            mesh = shell_mesh(spec_h, like=like)
            if like is not None:
                assert mesh.triangles is like.triangles  # reused
            _assert_same_mesh(mesh, shell_mesh(spec_h))
            like = mesh

    def test_four_rows_make_one_edge_table(self, monkeypatch):
        # the first row's mesh keeps the quadrature's edge index from the
        # table that finds its boundary, and the later rows share it
        calls, edge_table = [], mesh_module._edge_table
        monkeypatch.setattr(mesh_module, "_edge_table",
                            lambda *a: calls.append(a[1]) or edge_table(*a))
        blowup_experiment(ShellSpec(), [0.1, 0.05, 0.025, 0.0125])
        assert len(calls) == 1

    @pytest.mark.parametrize("angular, radial", [(1024, 4), (2048, 3)])
    def test_another_resolution_is_built_from_scratch(self, angular, radial):
        like = shell_mesh(ShellSpec(h=0.1))
        spec = ShellSpec(h=0.05, angular_resolution=angular, radial_layers=radial)
        mesh = shell_mesh(spec, like=like)
        assert mesh.triangles is not like.triangles
        _assert_same_mesh(mesh, shell_mesh(spec))

    def test_radii_that_flip_a_triangle_are_built_from_scratch(self):
        like = radial_band(lambda t: (np.full_like(t, 0.5), np.full_like(t, 1.0)),
                           angular=16, radial=4)
        # outer = inner (1 + eps): the layers' rounding turns some triangles over
        inner = 1.45 * (1.0 + 1e-15 * np.random.default_rng(0).standard_normal(16))
        radii = lambda t: (inner, inner * (1.0 + 2.0**-52))
        fresh = radial_band(radii, angular=16, radial=4)
        p0, p1, p2 = fresh.vertices[like.triangles.T]
        areas = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                       - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
        assert np.any(areas < 0.0)  # in like's orientation
        mesh = radial_band(radii, angular=16, radial=4, like=like)
        assert mesh.triangles is not like.triangles
        _assert_same_mesh(mesh, fresh)


class TestShellField:
    def test_constant_profile_gives_rigid_rotation(self):
        spec = ShellSpec(cos_coeffs={0: 0.2}, h=0.1, angular_resolution=128, radial_layers=2)
        u_fn, grad_fn = shell_field(spec)
        pts = shell_mesh(spec).vertices
        np.testing.assert_allclose(
            u_fn(pts), np.stack([-pts[:, 1], pts[:, 0]], axis=1), atol=1e-14
        )
        G = grad_fn(pts)
        D = 0.5 * (G + np.swapaxes(G, 1, 2))
        assert np.abs(D).max() < 1e-14

    def test_gradient_matches_central_differences(self):
        spec = ShellSpec(h=0.07)
        u_fn, grad_fn = shell_field(spec)
        rng = np.random.default_rng(4)
        theta = rng.uniform(0, 2 * math.pi, 64)
        radius = 1.0 + spec.h * spec.profile(theta) - 0.5 * spec.h
        pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        G = grad_fn(pts)
        eps = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            fd = (u_fn(pts + step) - u_fn(pts - step)) / (2 * eps)
            assert np.abs(G[:, :, j] - fd).max() <= 1e-6 * max(1.0, np.abs(G).max())

    def test_tangency_residual_small_and_decreasing_in_h(self):
        residuals = []
        for h in (0.1, 0.05):
            spec = ShellSpec(h=h, angular_resolution=256, radial_layers=2)
            mesh = shell_mesh(spec)
            u_fn, grad_fn = shell_field(spec)
            res = evaluate_field_ratio(mesh, u_fn, grad_fn)
            residuals.append(res["tangency_residual"])
        assert residuals[0] < 1e-3
        assert residuals[1] < residuals[0]

    def test_rejects_origin(self):
        u_fn, _ = shell_field(ShellSpec())
        with pytest.raises(ValueError):
            u_fn(np.zeros((1, 2)))


@pytest.fixture(scope="module")
def table() -> BlowupTable:
    spec = ShellSpec(angular_resolution=512, radial_layers=3)
    return blowup_experiment(spec, [0.1, 0.05, 0.025, 0.0125])


class TestBlowup:

    def test_slope_near_minus_one(self, table):
        assert table.slope == pytest.approx(-1.0, abs=0.15)

    def test_ratio_monotone_as_h_decreases(self, table):
        ratios = [row.ratio for row in table.rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_scaling_of_both_norms(self, table):
        grad_scaled = [row.grad_norm / math.sqrt(row.h) for row in table.rows]
        sym_scaled = [row.symgrad_norm / row.h**1.5 for row in table.rows]
        assert max(grad_scaled) <= 1.2 * min(grad_scaled)
        assert max(sym_scaled) <= 1.25 * min(sym_scaled)

    def test_constant_profile_raises(self):
        with pytest.raises(InfiniteQuotient):
            blowup_experiment(ShellSpec(cos_coeffs={0: 0.2}), [0.1, 0.05])

    def test_single_row_has_no_slope(self):
        spec = ShellSpec(angular_resolution=128, radial_layers=2)
        table = blowup_experiment(spec, [0.1])
        assert table.slope is None
        assert len(table.rows) == 1

    def test_rejects_nondecreasing_thickness_list(self):
        spec = ShellSpec(angular_resolution=128, radial_layers=2)
        with pytest.raises(ValueError, match="decreasing"):
            blowup_experiment(spec, [0.05, 0.1])


def test_korn_estimate_dominates_explicit_field():
    # the explicit field is admissible, so the FEM maximum must certify at
    # least its quotient
    spec = ShellSpec(h=0.1, angular_resolution=192, radial_layers=3)
    mesh = shell_mesh(spec)
    u_fn, grad_fn = shell_field(spec)
    res = evaluate_field_ratio(mesh, u_fn, grad_fn)
    full = np.zeros(2 * len(mesh.vertices))
    uv = u_fn(mesh.vertices)
    full[0::2] = uv[:, 0]
    full[1::2] = uv[:, 1]
    est = kf.korn_constant(mesh, bc="tangential", seed=full[:, None])
    assert est.kappa_sq >= res["korn_quotient"] ** 2 * 0.98


def test_import_loads_no_scipy():
    # the shell experiment is numpy quadrature; scipy.sparse alone costs
    # about 0.4 s of start-up
    src = str(Path(kornlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kornlab.shells; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Bit-for-bit oracles: the shell quadrature as it was written with (N, 2, 2)
# temporaries, which the lean code must reproduce exactly.
# ---------------------------------------------------------------------------

#: The profiles ``perfbench.workloads.shell_coeffs`` draws for the
#: korn-slip-geometry seeds 1-4, in the key order of its coefficient files.
SEEDED_PROFILES = [
    ({0: 0.16767211026193887, 2: 0.0975096618156631}, {3: -0.05158543894859189}),
    ({0: 0.17649856984126147, 4: 0.09674529760198278}, {2: -0.04440598954088187}),
    ({0: 0.12407290919853806, 4: 0.06896932213908284}, {3: -0.04269629613960141}),
    ({0: 0.13361443142285317, 2: 0.07934279866212449}, {4: -0.04091018961844338}),
]


def _oracle_profile(spec, theta, order):
    # every term, the k = 0 ones of the derivatives included
    g = np.zeros_like(theta)
    for coeffs, start in ((spec.cos_coeffs, 0), (spec.sin_coeffs, 3)):
        for k, c in coeffs.items():
            scale = c
            for _ in range(order):
                scale = scale * k
            phase = (start + order) % 4
            fn = np.cos if phase in (0, 2) else np.sin
            if phase in (1, 2):
                g -= scale * fn(k * theta)
            else:
                g += scale * fn(k * theta)
    return g


def _oracle_grad(spec, pts):
    r = np.linalg.norm(pts, axis=1)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    rhat = pts / r[:, None]
    that = np.stack([-rhat[:, 1], rhat[:, 0]], axis=1)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    g1 = _oracle_profile(spec, theta, 1)
    g2 = _oracle_profile(spec, theta, 2)
    out = np.broadcast_to(J, (len(pts), 2, 2)).copy()
    out += (spec.h * g2 / r)[:, None, None] * np.einsum("ni,nj->nij", rhat, that)
    out += (spec.h * g1 / r)[:, None, None] * np.einsum("ni,nj->nij", that, that)
    return out


def _oracle_row(spec):
    mesh = shell_mesh(spec)
    v, t = mesh.vertices, mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    mids = np.stack([0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p2 + p0)])
    w = np.repeat(np.abs(mesh.areas())[None, :] / 3.0, 3, axis=0).ravel()
    G = _oracle_grad(spec, mids.reshape(-1, 2))
    grad_norm = math.sqrt(float(np.einsum("q,qij->", w, G**2)))
    D = 0.5 * (G + np.swapaxes(G, 1, 2))
    sym_norm = math.sqrt(float(np.einsum("q,qij->", w, D**2)))
    bmids = 0.5 * (v[mesh.boundary_edges[:, 0]] + v[mesh.boundary_edges[:, 1]])
    r = np.linalg.norm(bmids, axis=1)
    theta = np.arctan2(bmids[:, 1], bmids[:, 0])
    perp = np.stack([-bmids[:, 1], bmids[:, 0]], axis=1)
    ub = perp + spec.h * _oracle_profile(spec, theta, 1)[:, None] * bmids / r[:, None]
    tangency = float(np.abs(np.einsum("ei,ei->e", ub, mesh.boundary_normals)).max())
    return grad_norm, sym_norm, grad_norm / sym_norm, tangency


PROFILES = [({0: 0.2, 3: 0.05}, {}), *SEEDED_PROFILES]
PROFILE_IDS = ["stock", "seed1", "seed2", "seed3", "seed4"]


@pytest.mark.parametrize("cos_coeffs, sin_coeffs", PROFILES, ids=PROFILE_IDS)
def test_grad_fn_matches_the_outer_product_oracle_bitwise(cos_coeffs, sin_coeffs):
    spec = ShellSpec(cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs, h=0.05)
    rng = np.random.default_rng(17)
    theta = rng.uniform(0.0, 2.0 * math.pi, 4096)
    radius = rng.uniform(0.5, 1.5, 4096)
    pts = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    assert np.all(shell_field(spec)[1](pts) == _oracle_grad(spec, pts))
    for order in range(3):
        assert np.all(spec.profile(theta, order) == _oracle_profile(spec, theta, order))


@pytest.mark.parametrize("angular", [2048, 8192])
@pytest.mark.parametrize("cos_coeffs, sin_coeffs", PROFILES, ids=PROFILE_IDS)
def test_blowup_rows_match_the_quadrature_oracle_bitwise(cos_coeffs, sin_coeffs, angular):
    spec = ShellSpec(cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs, angular_resolution=angular)
    h_list = [0.1, 0.05, 0.025, 0.0125]
    table = blowup_experiment(spec, h_list)
    for h, row in zip(h_list, table.rows):
        spec_h = ShellSpec(cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs, h=h,
                           angular_resolution=angular)
        expected = _oracle_row(spec_h)
        assert (row.grad_norm, row.symgrad_norm, row.ratio, row.tangency_residual) == expected
