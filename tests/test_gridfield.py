import json
import math

import numpy as np
import pytest

from kornlab import gridfield
from kornlab.errors import CurlResidualTooLarge
from kornlab.gridfield import (
    MatrixField2,
    PeriodicGrid,
    ScalarField,
    VectorField2,
    assert_compact_support,
    det_integral,
    fft_workers,
    from_half_spectrum,
    half_spectrum,
    helmholtz,
    load_field,
    potential_from_gradient,
    save_field,
    scaling_sequence,
    support_margin_mass,
)


@pytest.fixture(scope="module")
def grid():
    return PeriodicGrid(128, 20.0)


def bump(cx, cy, w=1.0):
    return lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w**2))


def bump_field(grid, seed=0, count=3):
    rng = np.random.default_rng(seed)
    vals = np.zeros((2, grid.n, grid.n))
    for c in range(2):
        for _ in range(count):
            cx, cy = rng.uniform(-3, 3, 2)
            w = rng.uniform(0.9, 1.5)
            vals[c] += rng.uniform(-1, 1) * bump(cx, cy, w)(grid.x, grid.y)
    return VectorField2(grid, vals)


class TestGridValidation:
    def test_grid_holds_axes_not_planes(self):
        grid = PeriodicGrid(1024, 20.0)
        arrays = {k: v for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
        assert {"x", "y", "dkx", "dky", "dk2", "inv_dk2"} <= set(arrays)
        assert all(a.size < grid.n**2 for a in arrays.values())
        assert grid.x.shape == (grid.n, 1) and grid.y.shape == (1, grid.n)

    def test_from_function_broadcasts_to_an_owned_plane(self, grid):
        k = 2.0 * math.pi / grid.length
        f = ScalarField.from_function(grid, lambda x, y: np.sin(k * x))
        assert f.values.shape == (grid.n, grid.n)
        assert f.values.flags.writeable and f.values.flags.owndata
        np.testing.assert_array_equal(f.values[:, 0], f.values[:, -1])
        u = VectorField2.from_function(grid, lambda x, y: (np.sin(k * x), 0.0))
        assert u.values.shape == (2, grid.n, grid.n) and u.values.flags.writeable

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PeriodicGrid(48, 1.0)

    def test_rejects_tiny_or_bad_length(self):
        with pytest.raises(ValueError):
            PeriodicGrid(2, 1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(8, -1.0)

    def test_rejects_wrong_shape_and_nonfinite(self, grid):
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((3, 3)))
        bad = np.zeros((grid.n, grid.n))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ScalarField(grid, bad)


class TestDerivatives:
    def test_constant_has_zero_gradient(self, grid):
        u = VectorField2(grid, np.ones((2, grid.n, grid.n)))
        assert u.grad().norm_l2() == 0.0

    def test_single_mode_derivative_exact(self, grid):
        k = 2.0 * math.pi / grid.length
        u = VectorField2.from_function(grid, lambda x, y: (np.sin(k * x), 0.0 * x))
        G = u.grad()
        exact = k * np.cos(k * grid.x)
        assert np.abs(G.values[0, 0] - exact).max() < 1e-12
        assert np.abs(G.values[0, 1]).max() < 1e-13

    def test_curl_of_gradient_vanishes(self, grid):
        phi = ScalarField.from_function(grid, bump(0.5, -0.8))
        z = phi.grad()
        assert z.curl().norm_l2() <= 1e-12 * max(z.norm_l2(), 1.0)

    def test_div_of_rotated_gradient_vanishes(self, grid):
        psi = ScalarField.from_function(grid, bump(-1.0, 0.3))
        g = psi.grad()
        rotated = VectorField2(grid, np.stack([-g.values[1], g.values[0]]))
        assert rotated.div().norm_l2() <= 1e-12 * max(rotated.norm_l2(), 1.0)


class TestQuadrature:
    def test_plancherel_and_spectrum_roundtrip(self, grid):
        rng = np.random.default_rng(5)
        f = ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
        vhat = half_spectrum(f.values)
        norm = math.sqrt(grid.plancherel(np.abs(vhat) ** 2))
        assert abs(norm - f.norm_l2()) < 1e-12 * f.norm_l2()
        assert np.abs(from_half_spectrum(vhat) - f.values).max() < 1e-12

    def test_fft_roundtrip(self, grid):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((grid.n, grid.n))
        back = np.fft.ifft2(np.fft.fft2(values)).real
        assert np.abs(back - values).max() < 1e-12


def full_fft_row_curl_residual(G):
    """Oracle: the row-curl residual from full fft2/ifft2 round trips in real space."""
    g = G.grid
    k1d = 2.0 * math.pi * np.fft.fftfreq(g.n, d=g.spacing)
    k1d[g.n // 2] = 0.0
    kx, ky = np.meshgrid(k1d, k1d, indexing="ij")

    def deriv(uhat, k):
        return np.fft.ifft2(1j * k * uhat).real

    worst, scale = 0.0, 0.0
    for i in range(2):
        uhat = np.fft.fft2(G.values[i], axes=(-2, -1))
        curl = deriv(uhat[1], kx) - deriv(uhat[0], ky)
        worst = max(worst, math.sqrt(g.cell_area * float((curl**2).sum())))
        grad_sq = sum(float((deriv(uhat[c], k) ** 2).sum()) for c in range(2) for k in (kx, ky))
        scale += math.sqrt(g.cell_area * grad_sq)
    return worst / scale


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [8, 32])
    def test_row_curl_residual_matches_full_fft_oracle(self, n):
        gs = PeriodicGrid(n, 7.0)
        rng = np.random.default_rng(n)
        sign = (-1.0) ** np.arange(n)
        fields = [
            rng.standard_normal((2, 2, n, n)),
            # content on the Nyquist row and column only
            sign[:, None] * rng.standard_normal((2, 2, 1, n))
            + sign[None, :] * rng.standard_normal((2, 2, n, 1)),
        ]
        for values in fields:
            G = MatrixField2(gs, values)
            oracle = full_fft_row_curl_residual(G)
            assert abs(G.row_curl_residual() - oracle) <= 1e-12 * oracle

    def test_fft_workers_follow_kornlab_threads(self, monkeypatch):
        monkeypatch.delenv("KORNLAB_THREADS", raising=False)
        assert fft_workers() == 1
        monkeypatch.setenv("KORNLAB_THREADS", "2")
        assert fft_workers() == 2
        for bad in ("0", "-1", "two"):
            monkeypatch.setenv("KORNLAB_THREADS", bad)
            with pytest.raises(ValueError):
                fft_workers()


class TestHelmholtz:
    def test_pure_gradient_input(self, grid):
        phi = ScalarField.from_function(grid, bump(0.4, 0.2))
        z = phi.grad()
        gp, dp = helmholtz(z)
        assert np.abs(gp.values - z.values).max() < 1e-12
        assert dp.norm_l2() < 1e-12

    def test_pure_divfree_input(self, grid):
        psi = ScalarField.from_function(grid, bump(-0.6, 0.9))
        g = psi.grad()
        z = VectorField2(grid, np.stack([-g.values[1], g.values[0]]))
        gp, dp = helmholtz(z)
        assert np.abs(dp.values - z.values).max() < 1e-12
        assert gp.norm_l2() < 1e-12

    def test_mixed_recomposition_and_orthogonality(self, grid):
        rng = np.random.default_rng(11)
        z = VectorField2(grid, rng.standard_normal((2, grid.n, grid.n)))
        gp, dp = helmholtz(z)
        recomb = gp.values + dp.values + z.mean()[:, None, None]
        assert np.abs(recomb - z.values).max() < 1e-12
        cross = float((gp.values * dp.values).sum()) * grid.cell_area
        assert abs(cross) < 1e-12 * gp.norm_l2() * dp.norm_l2()
        assert gp.curl().norm_l2() < 1e-12 * z.norm_l2()
        assert dp.div().norm_l2() < 1e-12 * z.norm_l2()
        # idempotence of both projectors
        gp2, dp2 = helmholtz(gp)
        assert np.abs(gp2.values - gp.values).max() < 1e-12
        assert dp2.norm_l2() < 1e-12


class TestPotential:
    def test_roundtrip_recovers_mean_free_part(self, grid):
        u0 = bump_field(grid, seed=3)
        G = u0.grad()
        rec = potential_from_gradient(G)
        centered = u0.values - u0.mean()[:, None, None]
        assert np.abs(rec.values - centered).max() < 1e-10
        assert np.abs(rec.mean()).max() < 1e-14

    def test_zero_gradient(self, grid):
        G = MatrixField2(grid, np.zeros((2, 2, grid.n, grid.n)))
        assert potential_from_gradient(G).norm_l2() == 0.0

    def test_non_gradient_raises(self, grid):
        values = np.zeros((2, 2, grid.n, grid.n))
        values[0, 1] = bump(0.0, 0.0)(grid.x, grid.y)  # d2 u1 without partner
        with pytest.raises(CurlResidualTooLarge):
            potential_from_gradient(MatrixField2(grid, values))


class TestDetIntegral:
    def test_zero(self, grid):
        G = MatrixField2(grid, np.zeros((2, 2, grid.n, grid.n)))
        assert det_integral(G) == 0.0

    def test_gradient_of_bump_is_null(self, grid):
        u = bump_field(grid, seed=8)
        G = u.grad()
        assert abs(det_integral(G)) <= 1e-8 * G.norm_l2() ** 2

    def test_constant_identity_breaks_the_hypothesis(self, grid):
        # A constant field is not compactly supported: the integral is the
        # box area, not zero.
        G = MatrixField2(grid, np.tile(np.eye(2)[:, :, None, None], (grid.n, grid.n)))
        assert det_integral(G) == pytest.approx(grid.length**2, rel=1e-12)

    def test_non_gradient_raises(self, grid):
        values = np.zeros((2, 2, grid.n, grid.n))
        values[1, 0] = bump(1.0, -1.0)(grid.x, grid.y)
        with pytest.raises(CurlResidualTooLarge):
            det_integral(MatrixField2(grid, values))


class TestScaling:
    def test_k1_is_identity(self, grid):
        u = bump_field(grid, seed=1)
        np.testing.assert_array_equal(scaling_sequence(u, 1).values, u.values)

    @pytest.mark.parametrize("k", [2, 4])
    def test_norms_preserved(self, k):
        grid = PeriodicGrid(256, 20.0)
        u = bump_field(grid, seed=2)
        uk = scaling_sequence(u, k)
        G, Gk = u.grad(), uk.grad()
        assert abs(Gk.norm_l2() - G.norm_l2()) <= 1e-12 * G.norm_l2()
        sym = lambda M: math.sqrt(
            grid.cell_area
            * float(
                (
                    M.values[0, 0] ** 2
                    + M.values[1, 1] ** 2
                    + 0.5 * (M.values[0, 1] + M.values[1, 0]) ** 2
                ).sum()
            )
        )
        assert abs(sym(Gk) - sym(G)) <= 1e-12 * sym(G)

    def test_support_shrinks(self):
        grid = PeriodicGrid(256, 20.0)
        u = VectorField2.from_function(grid, lambda x, y: (bump(0, 0)(x, y), 0.0 * x))
        mass = lambda f, r: math.sqrt(
            float((f.values**2 * ((grid.x**2 + grid.y**2) <= r**2)).sum())
            / float((f.values**2).sum())
        )
        u4 = scaling_sequence(u, 4)
        # nearly all mass of the dilated field sits within a quarter radius
        assert mass(u4, 1.25) > 0.999
        assert mass(u, 1.25) < 0.9

    def test_rejects_bad_factor(self, grid):
        with pytest.raises(ValueError):
            scaling_sequence(bump_field(grid), 0)


class TestSupportCheck:
    def test_centered_bump_passes(self, grid):
        f = ScalarField.from_function(grid, bump(0.0, 0.0))
        assert_compact_support(f)

    def test_boundary_mass_detected(self, grid):
        f = ScalarField.from_function(grid, bump(9.5, 0.0))
        assert support_margin_mass(f) > 0.1
        with pytest.raises(ValueError):
            assert_compact_support(f)


class TestStripSums:
    @pytest.mark.parametrize("budget, strips", [(128, 8), (2048, 2)],
                             ids=["8-strips", "2-strips"])
    def test_strip_sums_equal_whole_plane_sums(self, monkeypatch, budget, strips):
        # a non-gradient field: the curl powers are O(1), not roundoff
        grid = PeriodicGrid(64, 20.0)
        G = MatrixField2(grid, np.random.default_rng(3).standard_normal((2, 2, 64, 64)))
        assert len(gridfield.row_strips(64)) == 1
        whole = (G.row_curl_residual(), G.norm_l2(), support_margin_mass(G))
        assert whole[1] == math.sqrt(grid.cell_area * float((G.values**2).sum()))
        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", budget)
        assert len(gridfield.row_strips(64)) == strips  # at least 8 rows each
        assert (G.row_curl_residual(), G.norm_l2(), support_margin_mass(G)) == whole

    def test_tree_sum_pairs_neighbours_and_needs_a_power_of_two(self):
        parts = np.array([1e16, 1.0, -1e16, 1.0])
        assert gridfield.tree_sum(parts) == (1e16 + 1.0) + (-1e16 + 1.0)
        with pytest.raises(ValueError, match="power-of-two"):
            gridfield.tree_sum(parts[:3])


    def test_map_strips_keeps_row_order_on_three_threads(self, monkeypatch):
        import time

        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", 8192)  # 8 strips of 32 rows
        monkeypatch.setenv("KORNLAB_THREADS", "1")
        assert gridfield.map_strips(256, lambda rows: rows.start) == list(range(0, 256, 32))
        monkeypatch.setenv("KORNLAB_THREADS", "3")

        def body(rows):  # units finish out of order
            time.sleep(0.001 * (rows.start % 3))
            return rows.start

        # on threads, units of 8 rows (a quarter strip)
        assert gridfield.map_strips(256, body) == list(range(0, 256, 8))

    def test_map_strips_waits_for_every_unit_before_raising(self, monkeypatch):
        import threading
        import time

        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", 512)  # 8 strips of 8 rows
        monkeypatch.setenv("KORNLAB_THREADS", "3")
        done = []

        def body(rows):  # the calling thread fails at once, the pool takes its time
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError(f"rows {rows.start}")
            time.sleep(0.02)
            done.append(rows.start)

        with pytest.raises(RuntimeError, match="rows") as raised:
            gridfield.map_strips(64, body)
        # the pool ran every other unit to its end before the exception came back
        failed = int(str(raised.value).split()[1])
        assert sorted(done + [failed]) == list(range(0, 64, 8))

    def test_map_strips_runs_each_unit_once_under_stress(self, monkeypatch):
        import sys
        import threading

        monkeypatch.setattr(gridfield, "STRIP_ELEMENTS", 512)
        monkeypatch.setenv("KORNLAB_THREADS", "8")  # more threads than cores
        n = 1024  # 128 strips of 8 rows
        runs, results = [], []

        def sweep():
            for _ in range(20):
                results.append(gridfield.map_strips(n, lambda rows: runs.append(rows.start)
                                                    or rows.start))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=sweep)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert results == [list(range(0, n, 8))] * 20
        assert sorted(runs) == sorted(list(range(0, n, 8)) * 20)

class TestSerialization:
    def test_roundtrip_scalar(self, tmp_path):
        grid = PeriodicGrid(32, 5.0)
        s = ScalarField(grid, bump_field(grid, seed=4).values[0])
        path = tmp_path / "field.json"
        save_field(s, path)
        assert path.read_text() == (
            '{\n  "L": 5.0,\n  "components": 1,\n  "data": "field.bin",\n  "dtype": "float64",'
            '\n  "format": "bin",\n  "n": 32,\n  "order": "row-major"\n}\n')
        assert (tmp_path / "field.bin").read_bytes() == s.values.astype("<f8").tobytes()
        back = load_field(path)
        assert isinstance(back, ScalarField)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, s.values)

    @pytest.mark.parametrize("fmt", ["bin"])
    def test_roundtrip_vector(self, tmp_path, fmt):
        # a vector field travels as one scalar file per component
        grid = PeriodicGrid(32, 5.0)
        u = bump_field(grid, seed=4)
        for i, comp in enumerate(u.values):
            save_field(ScalarField(grid, comp), tmp_path / f"u{i}.json")
            assert json.loads((tmp_path / f"u{i}.json").read_text())["format"] == fmt
        back = VectorField2(grid, [load_field(tmp_path / f"u{i}.json").values for i in range(2)])
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, u.values)
        with pytest.raises(TypeError, match="got VectorField2"):
            save_field(u, tmp_path / "u.json")

    def test_roundtrip_scalar_and_matrix(self, tmp_path):
        grid = PeriodicGrid(16, 3.0)
        s = ScalarField.from_function(grid, bump(0, 0, 0.4))
        save_field(s, tmp_path / "s.json")
        back = load_field(tmp_path / "s.json")
        assert isinstance(back, ScalarField)
        np.testing.assert_array_equal(back.values, s.values)
        # a matrix field is refused before its header or payload is written
        m = MatrixField2(grid, np.tile(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None, None],
                                     (grid.n, grid.n)))
        with pytest.raises(TypeError, match="only a scalar field is written, got MatrixField2"):
            save_field(m, tmp_path / "m.json")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["s.bin", "s.json"]

    @pytest.mark.parametrize("key, value, message", [
        ("components", 2, "unsupported component count 2"),
        ("format", "csv", "unknown field format 'csv'"),
        ("n", 16.7, "field header key 'n' must be an integer, got 16.7"),
        ("n", 16.0, "field header key 'n' must be an integer, got 16.0"),
        ("n", "16", "field header key 'n' must be an integer, got '16'"),
        ("n", True, "field header key 'n' must be an integer, got True"),
        ("L", True, "field header key 'L' must be a number, got True"),
        ("L", "8", "field header key 'L' must be a number, got '8'"),
        ("components", True, "field header key 'components' must be an integer, got True"),
        ("components", 1.0, "field header key 'components' must be an integer, got 1.0"),
    ], ids=["two-components", "csv-format", "fractional-n", "float-n", "string-n", "bool-n",
            "bool-L", "string-L", "bool-components", "float-components"])
    def test_header_value_refused_by_key(self, tmp_path, key, value, message):
        # only a scalar binary field is read, and a value of the wrong JSON
        # kind is refused, not truncated or read as 1
        path = tmp_path / "s.json"
        save_field(ScalarField(PeriodicGrid(16, 8.0), np.zeros((16, 16))), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(ValueError) as info:
            load_field(path)
        assert str(info.value) == message

    def test_repeated_header_key_refused(self, tmp_path):
        # json alone keeps the last value of a repeated key
        path = tmp_path / "s.json"
        save_field(ScalarField(PeriodicGrid(16, 8.0), np.zeros((16, 16))), path)
        path.write_text(path.read_text().replace('"n": 16', '"n": 16, "n": 32'))
        with pytest.raises(ValueError, match="repeated key 'n' in a JSON object"):
            load_field(path)

    def test_integer_box_length_is_a_number(self, tmp_path):
        path = tmp_path / "s.json"
        save_field(ScalarField(PeriodicGrid(16, 8.0), np.zeros((16, 16))), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "L": 8}))
        assert load_field(path).grid == PeriodicGrid(16, 8.0)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"n\": 16}")
        with pytest.raises(ValueError):
            load_field(path)

    def test_payload_size_mismatch(self, tmp_path):
        grid = PeriodicGrid(16, 3.0)
        s = ScalarField.from_function(grid, bump(0, 0, 0.4))
        save_field(s, tmp_path / "s.json")
        (tmp_path / "s.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_field(tmp_path / "s.json")

    def test_oversized_header_is_refused_before_the_grid(self, tmp_path):
        # the grid of n = 2**24 would need petabytes of wavenumber planes,
        # so the payload size must be compared with the header first
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2**24, "L": 20.0, "components": 1,
                                    "format": "bin", "data": "big.bin"}))
        np.zeros(16).astype("<f8").tofile(tmp_path / "big.bin")
        with pytest.raises(ValueError, match="payload holds 16 samples"):
            load_field(path)
