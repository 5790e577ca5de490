import dataclasses
import json
import math

import numpy as np
import pytest

from kornlab import gridfield, mat2
from kornlab import rigidity as rg
from kornlab.errors import CurlResidualTooLarge, ZeroDistance
from kornlab.gridfield import (
    MatrixField2,
    PeriodicGrid,
    ScalarField,
    VectorField2,
    from_half_spectrum,
    half_spectrum,
)


@pytest.fixture(scope="module")
def grid():
    return PeriodicGrid(128, 20.0)


def stage_gradient(alpha, r0):
    """G from the synthesis's public stages, with its half spectrum and mean."""
    f = rg.build_f(alpha)
    G = rg.assemble_gradient(f, rg.solve_g(f), r0)[0]
    return G, half_spectrum(G.values), G.values.mean(axis=(-2, -1))


def anticonf_split_norms(G):
    v = G.values
    c_a, c_b, a_a, a_b = mat2.split_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
    area = G.grid.cell_area
    conf = 2.0 * area * float((c_a**2 + c_b**2).sum())
    anti = 2.0 * area * float((a_a**2 + a_b**2).sum())
    return conf, anti


class TestBuildF:
    def test_zero_angle(self, grid):
        f = rg.build_f(ScalarField(grid, np.zeros((grid.n, grid.n))))
        assert f.norm_l2() == 0.0

    def test_pi_spike(self, grid):
        values = np.zeros((grid.n, grid.n))
        values[10, 7] = math.pi
        f = rg.build_f(ScalarField(grid, values))
        np.testing.assert_allclose(f.values[:, 10, 7], [0.0, -2.0], atol=1e-15)

    def test_small_amplitude_taylor_expansion(self, grid):
        alpha = rg.gaussian_bump(grid, amplitude=1e-3)
        f = rg.build_f(alpha)
        a = alpha.values
        assert np.abs(f.values[0] - a).max() <= 1e-6 * np.abs(a).max()
        assert np.abs(f.values[1] + 0.5 * a**2).max() <= 1e-6 * np.abs(a).max()

    def test_norm_bound_by_alpha(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=2.5)
        f = rg.build_f(alpha)
        assert f.norm_l2() <= alpha.norm_l2() * (1.0 + 1e-14)


class TestSolveG:
    def test_zero(self, grid):
        f = VectorField2(grid, np.zeros((2, grid.n, grid.n)))
        assert rg.solve_g(f).norm_l2() == 0.0

    def test_per_frequency_linear_solve_oracle(self):
        # Independent oracle: at each frequency solve the 2x2 system
        #   curl g = div f:  (-ky, kx) . ghat = (kx, ky) . fhat
        #   div g = curl f:  ( kx, ky) . ghat = (-ky, kx) . fhat
        # directly and compare (away from the unpaired Nyquist lines, where
        # the derivative convention zeroes the wavenumber).
        gs = PeriodicGrid(16, 5.0)
        rng = np.random.default_rng(3)
        f = VectorField2(gs, rng.standard_normal((2, gs.n, gs.n)))
        ghat = np.fft.fft2(rg.solve_g(f).values, axes=(-2, -1))
        fhat = np.fft.fft2(f.values, axes=(-2, -1))
        k1d = 2.0 * math.pi * np.fft.fftfreq(gs.n, d=gs.spacing)
        nyq = gs.n // 2
        worst = 0.0
        for i in range(gs.n):
            for j in range(gs.n):
                if i == nyq or j == nyq or (i == 0 and j == 0):
                    continue
                kx, ky = k1d[i], k1d[j]
                M = np.array([[-ky, kx], [kx, ky]])
                rhs = np.array(
                    [
                        kx * fhat[0, i, j] + ky * fhat[1, i, j],
                        -ky * fhat[0, i, j] + kx * fhat[1, i, j],
                    ]
                )
                sol = np.linalg.solve(M, rhs)
                worst = max(worst, float(np.abs(sol - ghat[:, i, j]).max()))
        assert worst < 1e-12 * max(1.0, float(np.abs(fhat).max()))

    def test_matches_full_plane_multiplier(self):
        # Oracle on the full fft2 plane, Nyquist lines and blind modes
        # included: reflection off the lines, the component swap on the
        # Nyquist column, the sign-adjusted swap on the Nyquist row (corners
        # included) and the x-axis limit at k = 0.
        gs = PeriodicGrid(16, 5.0)
        rng = np.random.default_rng(4)
        f = VectorField2(gs, rng.standard_normal((2, gs.n, gs.n)))
        fhat = np.fft.fft2(f.values, axes=(-2, -1))
        k1d = 2.0 * math.pi * np.fft.fftfreq(gs.n, d=gs.spacing)
        kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
        k2 = kx**2 + ky**2
        k2safe = np.where(k2 == 0.0, 1.0, k2)
        c1 = np.where(k2 == 0.0, 1.0, (kx**2 - ky**2) / k2safe)
        c2 = 2.0 * kx * ky / k2safe
        nyq = gs.n // 2
        c1[:, nyq], c2[:, nyq] = 1.0, 0.0
        c1[nyq, :], c2[nyq, :] = -1.0, 0.0
        ghat = np.stack([-c2 * fhat[0] + c1 * fhat[1], c1 * fhat[0] + c2 * fhat[1]])
        expected = np.fft.ifft2(ghat, axes=(-2, -1)).real
        assert np.abs(rg.solve_g(f).values - expected).max() < 1e-12 * np.abs(expected).max()

    def test_single_mode_parallel_to_frequency(self):
        # fhat parallel to the frequency: ghat = <khat, fhat> khat_perp.
        gs = PeriodicGrid(32, 8.0)
        k = 2.0 * math.pi / gs.length
        kvec = np.array([2.0 * k, 1.0 * k])
        khat = kvec / np.linalg.norm(kvec)
        f = VectorField2.from_function(
            gs,
            lambda x, y: (
                khat[0] * np.cos(kvec[0] * x + kvec[1] * y),
                khat[1] * np.cos(kvec[0] * x + kvec[1] * y),
            ),
        )
        g = rg.solve_g(f)
        perp = np.array([-khat[1], khat[0]])
        expected = VectorField2.from_function(
            gs,
            lambda x, y: (
                perp[0] * np.cos(kvec[0] * x + kvec[1] * y),
                perp[1] * np.cos(kvec[0] * x + kvec[1] * y),
            ),
        )
        assert np.abs(g.values - expected.values).max() < 1e-12

    def test_system_identities_for_arbitrary_field(self, grid):
        rng = np.random.default_rng(9)
        f = VectorField2(grid, rng.standard_normal((2, grid.n, grid.n)))
        g = rg.solve_g(f)
        scale = max(f.grad().norm_l2(), 1.0)
        assert np.abs(g.curl().values - f.div().values).max() < 1e-12 * scale
        assert np.abs(g.div().values - f.curl().values).max() < 1e-12 * scale

    def test_plancherel_isometry(self, grid):
        rng = np.random.default_rng(10)
        f = VectorField2(grid, rng.standard_normal((2, grid.n, grid.n)))
        g = rg.solve_g(f)
        assert abs(g.norm_l2() - f.norm_l2()) < 1e-10 * f.norm_l2()


class TestAssembleGradient:
    def test_trivial_inputs_give_identity(self, grid):
        alpha = ScalarField(grid, np.zeros((grid.n, grid.n)))
        g = VectorField2(grid, np.zeros((2, grid.n, grid.n)))
        G = rg.assemble_gradient(rg.build_f(alpha), g, mat2.Rotation(0.0))[0]
        assert np.abs(G.values - np.eye(2)[:, :, None, None]).max() == 0.0

    def test_synthesized_pair_is_curl_free(self):
        gr = PeriodicGrid(256, 20.0)
        alpha = rg.dipole_bump(gr, amplitude=0.8)
        f = rg.build_f(alpha)
        G = rg.assemble_gradient(f, rg.solve_g(f), mat2.Rotation(0.6))[0]
        assert G.row_curl_residual() <= 1e-8

    def test_pointwise_distance_equals_anticonformal_norm(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=0.9)
        f = rg.build_f(alpha)
        G = rg.assemble_gradient(f, rg.solve_g(f), mat2.Rotation(1.1))[0]
        v = G.values
        dist = mat2.dist_so2_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
        _, _, a_a, a_b = mat2.split_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
        anti = np.sqrt(2.0 * (a_a**2 + a_b**2))
        assert np.abs(dist - anti).max() < 1e-12

    def test_conformal_part_is_rotation_pointwise(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=1.0)
        f = rg.build_f(alpha)
        G = rg.assemble_gradient(f, rg.solve_g(f), mat2.Rotation(2.0))[0]
        v = G.values
        c_a, c_b, _, _ = mat2.split_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
        radius = np.sqrt(c_a**2 + c_b**2)  # rotations sit at radius 1
        assert np.abs(radius - 1.0).max() < 1e-10

    def test_inconsistent_pair_raises(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=1.0)
        g = VectorField2(grid, np.stack([rg.gaussian_bump(grid).values,
                                         np.zeros((grid.n, grid.n))]))
        # the gradient sweep makes no curl check; the certificate makes it
        G, sums = rg.assemble_gradient(rg.build_f(alpha), g, mat2.Rotation(0.0))
        with pytest.raises(CurlResidualTooLarge):
            rg.rigidity_ratio(G, sums=sums)


class TestRigidityRatio:
    def test_constant_rotation_is_degenerate(self, grid):
        rotation = mat2.Rotation(0.7).as_array()
        G = MatrixField2(grid, np.tile(rotation[:, :, None, None], (grid.n, grid.n)))
        with pytest.raises(ZeroDistance):
            rg.rigidity_ratio(G)

    def test_optimal_rotation_matches_bruteforce_scan(self, grid):
        alpha = rg.gaussian_bump(grid, amplitude=0.6, center=(1.0, -0.5))
        f = rg.build_f(alpha)
        G = rg.assemble_gradient(f, rg.solve_g(f), mat2.Rotation(0.9))[0]
        report = rg.rigidity_ratio(G)
        thetas = np.linspace(0.0, 2.0 * math.pi, 10001)
        vals = []
        for t in thetas:
            R = mat2.Rotation(t).as_array()
            vals.append(((G.values - R[:, :, None, None]) ** 2).sum())
        best = thetas[int(np.argmin(vals))]
        for width in (1e-3, 1e-6):
            local = np.linspace(best - width, best + width, 2001)
            vals = []
            for t in local:
                R = mat2.Rotation(t % (2 * math.pi)).as_array()
                vals.append(((G.values - R[:, :, None, None]) ** 2).sum())
            best = local[int(np.argmin(vals))]
        assert mat2.angle_distance(report.optimal_theta, best % (2 * math.pi)) < 1e-8

    def test_upper_bound_for_random_normalized_gradients(self, grid):
        # Far-field-normalized gradient fields R0 + grad(compact): the
        # certified quotient never exceeds one (the rigidity upper bound).
        rng = np.random.default_rng(12)
        for trial in range(5):
            vals = np.zeros((2, grid.n, grid.n))
            for c in range(2):
                for _ in range(3):
                    cx, cy = rng.uniform(-3, 3, 2)
                    w = rng.uniform(0.8, 1.4)
                    vals[c] += rng.uniform(-0.5, 0.5) * np.exp(
                        -((grid.x - cx) ** 2 + (grid.y - cy) ** 2) / (2 * w**2)
                    )
            P = VectorField2(grid, vals).grad()
            R0 = mat2.Rotation(rng.uniform(0, 2 * math.pi)).as_array()
            G = MatrixField2(grid, P.values + R0[:, :, None, None])
            report = rg.rigidity_ratio(G)
            assert report.ratio <= 1.0 + 1e-3

    def test_non_gradient_raises(self, grid):
        values = np.zeros((2, 2, grid.n, grid.n))
        values[0, 1] = rg.gaussian_bump(grid).values
        with pytest.raises(CurlResidualTooLarge):
            rg.rigidity_ratio(MatrixField2(grid, values))


class TestSynthesizeExtremal:
    def test_zero_angle_flags_zero_distance(self, grid):
        alpha = ScalarField(grid, np.zeros((grid.n, grid.n)))
        with pytest.raises(ZeroDistance):
            rg.synthesize_extremal(alpha, mat2.Rotation(0.4))

    @pytest.mark.parametrize("theta0", [0.0, math.pi / 3])
    def test_equality_case(self, theta0):
        gr = PeriodicGrid(512, 20.0)
        alpha = rg.dipole_bump(gr, amplitude=1.0)
        report = rg.synthesize_extremal(alpha, mat2.Rotation(theta0))
        assert abs(report.ratio - 1.0) <= 1e-3
        assert abs(report.ratio_at_theta0 - 1.0) <= 1e-3
        assert abs(report.g_norm / report.f_norm - 1.0) <= 1e-10
        assert report.curl_residual <= 1e-8
        assert mat2.angle_distance(report.optimal_theta, theta0) <= 1e-6
        # the potential of the stages' gradient reproduces it
        G, _, affine = stage_gradient(alpha, mat2.Rotation(theta0))
        rebuilt = rg.potential_from_gradient(G).grad().values + affine[:, :, None, None]
        assert np.abs(rebuilt - G.values).max() < 1e-9

    def test_split_norm_equality_for_centered_gradient(self, grid):
        # integral |(grad v)^c|^2 equals integral |(grad v)^a|^2 for
        # v = u - R0 x: the null-Lagrangian mechanism behind the ratio.
        alpha = rg.dipole_bump(grid, amplitude=1.0)
        theta0 = 0.7
        G, _, affine = stage_gradient(alpha, mat2.Rotation(theta0))
        P = rg.potential_from_gradient(G).grad()
        R0 = mat2.Rotation(theta0).as_array()
        V = MatrixField2(grid, P.values + (affine - R0)[:, :, None, None])
        conf, anti = anticonf_split_norms(V)
        assert abs(conf - anti) <= 1e-6 * V.norm_l2() ** 2

    def test_far_field_metadata_close_to_rotation(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=0.5)
        G, _, affine = stage_gradient(alpha, mat2.Rotation(1.3))
        R0 = mat2.Rotation(1.3).as_array()
        # means of compactly supported perturbations are O(1/L^2)
        assert np.abs(affine - R0).max() < 5e-2
        assert np.abs(rg.potential_from_gradient(G).mean()).max() < 1e-13

    def test_rotation_equivariance(self, grid):
        alpha = rg.dipole_bump(grid, amplitude=0.8)
        rep0 = rg.synthesize_extremal(alpha, mat2.Rotation(0.0))
        rep1 = rg.synthesize_extremal(alpha, mat2.Rotation(1.234))
        assert abs(rep0.rhs - rep1.rhs) < 1e-10 * rep0.rhs
        assert abs(rep0.lhs - rep1.lhs) < 1e-10 * rep0.lhs
        shift = mat2.angle_distance(rep1.optimal_theta - rep0.optimal_theta, 1.234)
        assert shift < 1e-9

    def test_support_violation_rejected(self, grid):
        alpha = rg.gaussian_bump(grid, center=(9.0, 0.0))
        with pytest.raises(ValueError):
            rg.synthesize_extremal(alpha, mat2.Rotation(0.0))


class TestOnePassPipeline:
    def test_n64_synthesis_transforms_eight_planes_and_checks_once(self, monkeypatch):
        import numpy.fft
        import scipy.fft

        calls = []

        def counted(name, fn):
            def wrapper(x, *args, **kwargs):
                x = np.asarray(x)
                calls.append((name, x.size // (x.shape[-2] * x.shape[-1])))
                return fn(x, *args, **kwargs)
            return wrapper

        for module in (numpy.fft, scipy.fft):
            for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                         "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        checks = []
        check = MatrixField2.row_curl_residual

        def counted_check(self, *args, **kwargs):
            checks.append(1)
            return check(self, *args, **kwargs)

        monkeypatch.setattr(MatrixField2, "row_curl_residual", counted_check)
        rg.synthesize_extremal(rg.dipole_bump(PeriodicGrid(64, 20.0)), mat2.Rotation(0.5))
        # f-hat, g, G-hat: every call transforms the two grid axes
        assert calls == [("rfft2", 2), ("irfft2", 2), ("rfft2", 4)]
        assert sum(planes for _, planes in calls) == 8
        assert len(checks) == 1

    def test_synthesis_runs_through_the_public_stages_once_each(self, monkeypatch):
        # the synthesis looks its stages up by module-global name, so a
        # wrapper set on the module (as a tracer sets one) sees every call
        calls = []

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((rg, "assemble_gradient"), (rg, "rigidity_ratio"),
                            (MatrixField2, "row_curl_residual")):
            counted(owner, name)
        rg.synthesize_extremal(rg.dipole_bump(PeriodicGrid(64, 20.0)), mat2.Rotation(0.5))
        assert sorted(calls) == ["assemble_gradient", "rigidity_ratio", "row_curl_residual"]

    def test_no_buffer_is_read_before_it_is_written(self, monkeypatch):
        # np.empty returns whatever the allocator held; NaN there makes a
        # read before the write (a finiteness check of G before the sweep
        # fills it) fail instead of passing on finite leftovers
        grid, r0 = PeriodicGrid(64, 20.0), mat2.Rotation(0.5)
        clean = rg.synthesize_extremal(rg.dipole_bump(grid), r0)
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if np.issubdtype(out.dtype, np.inexact):
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        assert rg.synthesize_extremal(rg.dipole_bump(grid), r0) == clean

    def test_inconsistent_g_is_caught_by_the_single_check(self, grid, monkeypatch):
        alpha = rg.dipole_bump(grid, amplitude=1.0)
        bogus = VectorField2(grid, np.stack([rg.gaussian_bump(grid).values,
                                             np.zeros((grid.n, grid.n))]))
        monkeypatch.setattr(rg, "solve_g", lambda f: bogus)
        with pytest.raises(CurlResidualTooLarge):
            rg.synthesize_extremal(alpha, mat2.Rotation(0.0))


# ---------------------------------------------------------------------------
# In-place synthesis: the out-of-place stage bodies it replaced serve as the
# oracle, and tracemalloc bounds the planes it holds at once.
# ---------------------------------------------------------------------------

def _oracle_build_f(alpha):
    return np.stack([np.sin(alpha.values), np.cos(alpha.values) - 1.0])


def _oracle_solve_g(grid, f):
    fhat = half_spectrum(f)
    c1 = np.where(grid.dk2 == 0.0, 1.0, (grid.dkx**2 - grid.dky**2) * grid.inv_dk2)
    c2 = 2.0 * grid.dkx * grid.dky * grid.inv_dk2
    c1[grid.n // 2, :] = -1.0
    ghat = np.stack([-c2 * fhat[0] + c1 * fhat[1], c1 * fhat[0] + c2 * fhat[1]])
    return from_half_spectrum(ghat)


def _oracle_gradient(f, g, r0):
    sa, cm1 = f
    a, b = g
    ca = cm1 + 1.0
    base = ((ca + a, b - sa), (sa + b, ca - a))
    r = r0.as_array()
    G = np.empty((2, 2) + a.shape)
    for i in range(2):
        for j in range(2):
            np.multiply(r[i, 0], base[0][j], out=G[i, j])
            G[i, j] += r[i, 1] * base[1][j]
    return G


def _oracle_row_curl_residual(grid, ghat):
    curl = grid.dkx * ghat[:, 1] - grid.dky * ghat[:, 0]
    curls = grid.plancherel(curl.real**2 + curl.imag**2)
    grads = grid.plancherel(grid.dk2 * (ghat.real**2 + ghat.imag**2)).sum(axis=1)
    return float(np.sqrt(curls).max() / max(np.sqrt(grads).sum(), 1e-300))


def _oracle_dist_so2_arrays(m11, m12, m21, m22):
    c_a, c_b, a_a, a_b = mat2.split_arrays(m11, m12, m21, m22)
    r_c = np.sqrt(c_a**2 + c_b**2)
    return np.sqrt(2.0 * (r_c - 1.0) ** 2 + 2.0 * (a_a**2 + a_b**2))


def _oracle_lhs_at(grid, G, theta):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    diff = G - R[:, :, None, None]
    return float(grid.cell_area * (diff**2).sum())


def _oracle_certificate(grid, G, ghat):
    rhs = float(grid.cell_area
                * (_oracle_dist_so2_arrays(G[0, 0], G[0, 1], G[1, 0], G[1, 1]) ** 2).sum())
    theta = mat2.closest_rotation(G.mean(axis=(-2, -1))).theta
    lhs = _oracle_lhs_at(grid, G, theta)
    return {"curl_residual": _oracle_row_curl_residual(grid, ghat), "optimal_theta": theta,
            "lhs": lhs, "rhs": rhs, "ratio": lhs / (2.0 * rhs)}


def _assert_report_matches(report, expected):
    for key, want in expected.items():
        got = getattr(report, key)
        if key in ("lhs", "ratio", "lhs_at_theta0", "ratio_at_theta0"):
            # summed entry by entry instead of over all four planes at once
            assert abs(got - want) <= 4 * np.spacing(abs(want)), key
        else:
            assert got == want, key


class TestInPlaceSynthesisOracle:
    @pytest.mark.parametrize("n, profile, r0", [
        (64, lambda gr: rg.gaussian_bump(gr, amplitude=0.9, center=(0.5, -0.3)), 0.3),
        (256, rg.dipole_bump, 1.0472),
    ], ids=["gaussian-n64", "dipole-n256"])
    def test_synthesis_matches_out_of_place_stages(self, n, profile, r0):
        grid = PeriodicGrid(n, 20.0)
        alpha = profile(grid)
        rot = mat2.Rotation(r0)
        report = rg.synthesize_extremal(alpha, rot)

        f = _oracle_build_f(alpha)
        g = _oracle_solve_g(grid, f)
        G = _oracle_gradient(f, g, rot)
        ghat = half_spectrum(G)
        expected = _oracle_certificate(grid, G, ghat)
        expected["alpha_norm"] = alpha.norm_l2()
        expected["f_norm"] = VectorField2(grid, f).norm_l2()
        expected["g_norm"] = VectorField2(grid, g).norm_l2()
        expected["lhs_at_theta0"] = _oracle_lhs_at(grid, G, rot.theta)
        expected["ratio_at_theta0"] = expected["lhs_at_theta0"] / (2.0 * expected["rhs"])
        _assert_report_matches(report, expected)
        stage_G, stage_ghat, _ = stage_gradient(alpha, rot)
        assert np.array_equal(stage_G.values, G)
        assert np.array_equal(stage_ghat, ghat)

    def test_random_gradient_with_nyquist_content(self):
        # the spectral gradient of white noise carries content on the
        # Nyquist lines of the direction not differentiated
        grid = PeriodicGrid(64, 20.0)
        rng = np.random.default_rng(17)
        P = VectorField2(grid, rng.standard_normal((2, grid.n, grid.n))).grad()
        values = P.values + mat2.Rotation(0.8).as_array()[:, :, None, None]
        assert np.abs(half_spectrum(values)[:, :, grid.n // 2, 1:]).max() > 1.0
        G = MatrixField2(grid, values)
        _assert_report_matches(rg.rigidity_ratio(G),
                               _oracle_certificate(grid, values, half_spectrum(values)))
        v = values
        assert np.array_equal(mat2.dist_so2_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1]),
                              _oracle_dist_so2_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1]))
        f, g = rng.standard_normal((2, 2, grid.n, grid.n))
        rot = mat2.Rotation(2.5)
        assert np.array_equal(
            rg.assemble_gradient(VectorField2(grid, f), VectorField2(grid, g), rot)[0].values,
            _oracle_gradient(f, g, rot))


class TestStripSweeps:
    """Row-strip sweeps combine per-strip sums in a binary tree, which must
    give numpy's whole-plane sums bit for bit whatever the strip count."""

    @pytest.mark.parametrize("n, profile, r0, budget", [
        (64, lambda gr: rg.gaussian_bump(gr, amplitude=0.9, center=(0.5, -0.3)), 0.3, 512),
        (256, rg.dipole_bump, 1.0472, 8192),
    ], ids=["gaussian-n64", "dipole-n256"])
    def test_many_strips_match_one_strip_and_the_oracle(self, monkeypatch, n, profile,
                                                        r0, budget):
        grid, rot = PeriodicGrid(n, 20.0), mat2.Rotation(r0)
        assert len(gridfield.row_strips(n)) == 1
        alpha = profile(grid)
        report = rg.synthesize_extremal(alpha, rot)
        stages = stage_gradient(alpha, rot)
        mass = gridfield.support_margin_mass(alpha)

        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", budget)
        assert len(gridfield.row_strips(n)) >= 8
        strip_alpha = profile(grid)
        strip_report = rg.synthesize_extremal(strip_alpha, rot)
        strip_G, strip_ghat, strip_affine = stage_gradient(strip_alpha, rot)
        assert np.array_equal(strip_alpha.values, alpha.values)
        assert gridfield.support_margin_mass(strip_alpha) == mass
        assert strip_report == report
        assert np.array_equal(strip_G.values, stages[0].values)
        assert np.array_equal(strip_ghat, stages[1])
        assert np.array_equal(strip_affine, stages[2])

        f = _oracle_build_f(alpha)
        g = _oracle_solve_g(grid, f)
        G = _oracle_gradient(f, g, rot)
        ghat = half_spectrum(G)
        expected = _oracle_certificate(grid, G, ghat)
        expected["alpha_norm"] = math.sqrt(grid.cell_area * float((alpha.values**2).sum()))
        expected["f_norm"] = math.sqrt(grid.cell_area * float((f**2).sum()))
        expected["g_norm"] = math.sqrt(grid.cell_area * float((g**2).sum()))
        expected["lhs_at_theta0"] = _oracle_lhs_at(grid, G, rot.theta)
        expected["ratio_at_theta0"] = expected["lhs_at_theta0"] / (2.0 * expected["rhs"])
        _assert_report_matches(strip_report, expected)
        assert np.array_equal(strip_ghat, ghat)
        assert np.array_equal(strip_affine, G.mean(axis=(-2, -1)))
        assert np.array_equal(rg.assemble_gradient(VectorField2(grid, f), VectorField2(grid, g),
                                                   rot)[0].values, G)


class TestStripThreads:
    """The strip sweeps run on ``KORNLAB_THREADS`` threads; every sum is
    still combined in row order, so no number depends on the thread count."""

    @pytest.mark.parametrize("n, profile, r0, budget", [
        (64, lambda gr: rg.gaussian_bump(gr, amplitude=0.9, center=(0.5, -0.3)), 0.3, 512),
        (256, rg.dipole_bump, 1.0472, 8192),
    ], ids=["gaussian-n64", "dipole-n256"])
    def test_thread_count_changes_no_bit(self, monkeypatch, n, profile, r0, budget):
        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", budget)
        assert len(gridfield.row_strips(n)) >= 8
        grid, rot = PeriodicGrid(n, 20.0), mat2.Rotation(r0)
        values = np.random.default_rng(23).standard_normal((2, 2, n, n))
        runs = {}
        for threads in ("1", "2", "3"):  # 3 threads take uneven shares
            monkeypatch.setenv("KORNLAB_THREADS", threads)
            report = rg.synthesize_extremal(profile(grid), rot)
            _, ghat, affine = stage_gradient(profile(grid), rot)
            G = MatrixField2(grid, values)
            runs[threads] = (
                json.dumps(dataclasses.asdict(report)), ghat.tobytes(), affine.tobytes(),
                np.array([gridfield.support_margin_mass(G), G.norm_l2(),
                          G.row_curl_residual()]).tobytes(),
            )
        assert runs["2"] == runs["1"]
        assert runs["3"] == runs["1"]

    def test_non_finite_sample_in_the_last_strip_raises_under_two_workers(self,
                                                                         monkeypatch):
        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", 512)
        monkeypatch.setenv("KORNLAB_THREADS", "2")
        grid = PeriodicGrid(64, 20.0)
        assert len(gridfield.row_strips(grid.n)) == 8
        values = np.zeros((2, 2, grid.n, grid.n))
        values[1, 0, -1, 5] = np.inf
        with pytest.raises(ValueError, match="^field contains non-finite samples$"):
            MatrixField2(grid, values)


def test_dipole_synthesis_holds_at_most_14_planes():
    import tracemalloc

    n, r0 = 1024, mat2.Rotation(1.0472)
    rg.synthesize_extremal(rg.dipole_bump(PeriodicGrid(64, 20.0)), r0)  # imports, caches
    tracemalloc.start()
    try:
        grid = PeriodicGrid(n, 20.0)
        rg.synthesize_extremal(rg.dipole_bump(grid), r0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 * n * n * 8, f"peak {peak / (n * n * 8):.2f} planes"
