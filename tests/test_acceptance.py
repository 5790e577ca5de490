"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured margins.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from kornlab import kornfem as kf
from kornlab import mat2
from kornlab import rigidity as rg
from kornlab.gridfield import MatrixField2, PeriodicGrid, VectorField2, scaling_sequence
from kornlab.mesh import annulus, disk, unit_square
from kornlab.shells import ShellSpec, blowup_experiment, shell_mesh

#: Double-precision noise floor for quantities that are exact identities of
#: the discrete pipeline (used only where the measured error is structurally
#: zero and the criterion compares two roundoff-level numbers).
ROUNDOFF_FLOOR = 1e-12


def report(num: int, ok: bool, detail: str, elapsed: float | None = None,
           budget: float | None = None) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    if elapsed is not None and budget is not None:
        line += f" (runtime {elapsed:.1f}s, budget {budget:.0f}s)"
    print(line)


def test_criterion_1_square_tangential_band():
    budget = 120.0
    start = time.time()
    levels = [1, 2, 3, 4, 5, 6]  # 2..64 cells per side: five refinements
    estimates = kf.korn_sweep("square", levels, bc="tangential")
    elapsed = time.time() - start
    seq = [e.kappa_sq for e in estimates]
    dofs = [e.dof_count for e in estimates]
    nondecreasing = all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))
    in_band = 1.90 <= seq[-1] <= 2.0 + 1e-9
    ok = nondecreasing and in_band and max(dofs) <= 30000 and elapsed <= budget
    report(1, ok, f"square kappa_sq sweep {['%.12f' % v for v in seq]}, "
                  f"dofs {dofs}", elapsed, budget)
    assert nondecreasing
    assert in_band
    assert max(dofs) <= 30000
    assert elapsed <= budget


def test_criterion_2_dirichlet_constant_and_matrix_identity(full_space_forms):
    budget = 60.0
    start = time.time()
    worst_gap = 0.0
    meshes = [unit_square(6), disk(2), annulus(0.6, 1.0, 32, 3),
              shell_mesh(ShellSpec(h=0.1, angular_resolution=64, radial_layers=2))]
    for mesh in meshes:
        grad, symgrad, divdiv = full_space_forms(mesh)
        Z = kf.dirichlet_constraints(mesh).basis
        gap = 2.0 * (Z.T @ symgrad @ Z) - Z.T @ grad @ Z - Z.T @ divdiv @ Z
        denom = np.abs((Z.T @ grad @ Z).toarray()).max()
        worst_gap = max(worst_gap, np.abs(gap.toarray()).max() / denom)

    estimates = kf.korn_sweep("square", [1, 2, 3, 4, 5, 6], bc="dirichlet")
    seq = [e.kappa_sq for e in estimates]
    elapsed = time.time() - start
    bounded = all(v <= 2.0 + 1e-12 for v in seq)
    converged = seq[-1] >= 1.95
    ok = worst_gap <= 1e-13 and bounded and converged and elapsed <= budget
    report(2, ok, f"null-Lagrangian gap {worst_gap:.2e} (<=1e-13), dirichlet "
                  f"kappa_sq final {seq[-1]:.6f} (>=1.95, all <=2+1e-12)", elapsed, budget)
    assert worst_gap <= 1e-13
    assert bounded
    assert converged
    assert elapsed <= budget


def test_criterion_3_rigidity_equality_case():
    budget = 30.0
    start = time.time()
    grid = PeriodicGrid(512, 20.0)
    alpha = rg.dipole_bump(grid, amplitude=1.0)
    failures = []
    details = []
    for theta0 in (0.0, math.pi / 3):
        rep = rg.synthesize_extremal(alpha, mat2.Rotation(theta0))
        ratio_err = abs(rep.ratio_at_theta0 - 1.0)
        opt_ratio_err = abs(rep.ratio - 1.0)
        plancherel_err = abs(rep.g_norm / rep.f_norm - 1.0)
        angle_err = mat2.angle_distance(rep.optimal_theta, theta0)
        details.append(
            f"R0={theta0:.4f}: |ratio-1|={ratio_err:.1e}, plancherel={plancherel_err:.1e}, "
            f"curl={rep.curl_residual:.1e}, angle_err={angle_err:.1e}"
        )
        if ratio_err > 1e-3 or opt_ratio_err > 1e-3:
            failures.append("ratio")
        if plancherel_err > 1e-10:
            failures.append("plancherel")
        if rep.curl_residual > 1e-8:
            failures.append("curl")
        if angle_err > 1e-6:
            failures.append("angle")
    elapsed = time.time() - start
    ok = not failures and elapsed <= budget
    report(3, ok, "; ".join(details), elapsed, budget)
    assert not failures, failures
    assert elapsed <= budget


def test_criterion_4_grid_refinement_consistency():
    errors = {}
    for n in (256, 512):
        grid = PeriodicGrid(n, 20.0)
        alpha = rg.dipole_bump(grid, amplitude=1.0)
        rep = rg.synthesize_extremal(alpha, mat2.Rotation(0.0))
        errors[n] = abs(rep.ratio_at_theta0 - 1.0)
    shrank = errors[256] >= 2.0 * errors[512]
    at_floor = errors[256] <= ROUNDOFF_FLOOR and errors[512] <= ROUNDOFF_FLOOR
    # The discrete pipeline satisfies the equality case identically (its
    # Plancherel/orthogonality/pointwise-trigonometry steps are exact at any
    # resolution), so both errors sit at double-precision noise; the shrink
    # clause is then vacuous (0 >= 2*0) and the floor records that honestly.
    ok = shrank or at_floor
    report(4, ok, f"|ratio-1| at n=256: {errors[256]:.2e}, n=512: {errors[512]:.2e} "
                  f"({'shrank >=2x' if shrank else 'both at roundoff floor'})")
    assert ok


def test_criterion_5_null_lagrangian_det_integral():
    grid = PeriodicGrid(256, 20.0)
    rng = np.random.default_rng(2026)
    worst_det = 0.0
    worst_split = 0.0
    for _ in range(20):
        vals = np.zeros((2, grid.n, grid.n))
        for c in range(2):
            for _ in range(4):
                cx, cy = rng.uniform(-3.0, 3.0, 2)
                w = rng.uniform(0.7, 1.5)
                vals[c] += rng.uniform(-1.0, 1.0) * np.exp(
                    -((grid.x - cx) ** 2 + (grid.y - cy) ** 2) / (2.0 * w**2)
                )
        w_field = VectorField2(grid, vals)
        G = w_field.grad()
        from kornlab.gridfield import det_integral

        worst_det = max(worst_det, abs(det_integral(G)) / G.norm_l2() ** 2)

        # deformation u = R0 x + w; its centered gradient is G again, and
        # the split norms must balance (the det identity integrated)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        R0 = mat2.Rotation(theta0).as_array()
        full = MatrixField2(grid, G.values + R0[:, :, None, None])
        V = MatrixField2(grid, full.values - R0[:, :, None, None])
        v = V.values
        c_a, c_b, a_a, a_b = mat2.split_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
        conf = 2.0 * grid.cell_area * float((c_a**2 + c_b**2).sum())
        anti = 2.0 * grid.cell_area * float((a_a**2 + a_b**2).sum())
        worst_split = max(worst_split, abs(conf - anti) / V.norm_l2() ** 2)
    ok = worst_det <= 1e-8 and worst_split <= 1e-6
    report(5, ok, f"20 fields: |det integral|/|grad|^2 worst {worst_det:.2e} (<=1e-8), "
                  f"split-norm gap worst {worst_split:.2e} (<=1e-6)")
    assert worst_det <= 1e-8
    assert worst_split <= 1e-6


def test_criterion_6_shell_blowup():
    budget = 60.0
    start = time.time()
    spec = ShellSpec()  # stock profile 0.2 + 0.05 cos(3 theta)
    table = blowup_experiment(spec, [0.1, 0.05, 0.025, 0.0125])
    elapsed = time.time() - start
    grad_scaled = [row.grad_norm / math.sqrt(row.h) for row in table.rows]
    sym_scaled = [row.symgrad_norm / row.h**1.5 for row in table.rows]
    slope_ok = abs(table.slope + 1.0) <= 0.15
    grad_ok = max(grad_scaled) <= 1.20 * min(grad_scaled)
    sym_ok = max(sym_scaled) <= 1.25 * min(sym_scaled)
    ok = slope_ok and grad_ok and sym_ok and elapsed <= budget
    report(6, ok, f"slope {table.slope:.4f} (-1 +- 0.15), grad/sqrt(h) spread "
                  f"{max(grad_scaled) / min(grad_scaled) - 1.0:.1%} (<=20%), "
                  f"symgrad/h^1.5 spread {max(sym_scaled) / min(sym_scaled) - 1.0:.1%}",
           elapsed, budget)
    assert slope_ok
    assert grad_ok
    assert sym_ok
    assert elapsed <= budget


def test_criterion_7_matrix_property_suite():
    budget = 10.0
    start = time.time()
    rng = np.random.default_rng(123)
    count = 100_000
    m11, m12, m21, m22 = rng.uniform(-10.0, 10.0, size=(4, count))
    scale = np.maximum(1.0, m11**2 + m12**2 + m21**2 + m22**2)

    c_a, c_b, a_a, a_b = mat2.split_arrays(m11, m12, m21, m22)
    fc = np.stack([c_a, c_b, -c_b, c_a])
    fa = np.stack([a_a, a_b, a_b, -a_a])
    recon = np.max(np.abs(np.stack([
        c_a + a_a - m11, c_b + a_b - m12, -c_b + a_b - m21, c_a - a_a - m22,
    ])) / np.sqrt(scale))
    ortho = np.max(np.abs((fc * fa).sum(axis=0)) / scale)
    norm2 = m11**2 + m12**2 + m21**2 + m22**2
    pythag = np.max(np.abs((fc**2).sum(axis=0) + (fa**2).sum(axis=0) - norm2) / scale)
    det = m11 * m22 - m12 * m21
    det_resid = np.max(np.abs(det - 0.5 * ((fc**2).sum(axis=0) - (fa**2).sum(axis=0))) / scale)

    dist = mat2.dist_so2_arrays(m11, m12, m21, m22)
    brute = mat2.dist_so2_bruteforce(m11, m12, m21, m22)
    brute_resid = np.max(np.abs(dist - brute))
    fa_norm = np.sqrt((fa**2).sum(axis=0))
    lower_violations = int((dist < fa_norm - 1e-12 * np.sqrt(scale)).sum())
    cof_gap = 2.0 * fa_norm  # |cof F - F| = 2 |F^a| entrywise
    cof_violations = int((cof_gap > 2.0 * dist + 1e-12 * np.sqrt(scale)).sum())
    elapsed = time.time() - start

    ok = (recon <= 1e-12 and ortho <= 1e-12 and pythag <= 1e-12
          and det_resid <= 1e-12 and brute_resid <= 1e-9
          and lower_violations == 0 and cof_violations == 0 and elapsed <= budget)
    report(7, ok, f"1e5 matrices: recon {recon:.1e}, ortho {ortho:.1e}, "
                  f"pythagoras {pythag:.1e}, det {det_resid:.1e} (all <=1e-12), "
                  f"dist-vs-brute {brute_resid:.1e} (<=1e-9), violations "
                  f"{lower_violations}+{cof_violations}", elapsed, budget)
    assert recon <= 1e-12 and ortho <= 1e-12 and pythag <= 1e-12 and det_resid <= 1e-12
    assert brute_resid <= 1e-9
    assert lower_violations == 0 and cof_violations == 0
    assert elapsed <= budget


def test_criterion_8_scaling_invariance():
    grid = PeriodicGrid(512, 20.0)
    u = VectorField2.from_function(
        grid,
        lambda x, y: (
            np.exp(-((x - 0.5) ** 2 + y**2) / 2.0),
            (x + 0.3) * np.exp(-(x**2 + (y + 0.4) ** 2) / 2.0),
        ),
    )

    def sym_norm(M):
        return math.sqrt(grid.cell_area * float((
            M.values[0, 0] ** 2 + M.values[1, 1] ** 2
            + 0.5 * (M.values[0, 1] + M.values[1, 0]) ** 2
        ).sum()))

    G = u.grad()
    worst = 0.0
    for k in (1, 2, 4):
        Gk = scaling_sequence(u, k).grad()
        worst = max(worst, abs(Gk.norm_l2() - G.norm_l2()) / G.norm_l2())
        worst = max(worst, abs(sym_norm(Gk) - sym_norm(G)) / sym_norm(G))
    ok = worst <= 1e-12
    report(8, ok, f"k in (1, 2, 4): worst relative norm drift {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_9_disk_deflation():
    center = np.array([0.0, 0.0])
    values = []
    center_err = None
    for level in (2, 3, 4):
        est = kf.korn_constant(disk(level), bc="tangential")
        assert est.l_omega.kind == "rotational"
        assert est.deflated_rotation
        assert math.isfinite(est.kappa_sq)
        values.append(est.kappa_sq)
        if level == 4:
            center_err = float(np.abs(est.l_omega.center - center).max())
    stable = abs(values[-1] - values[-2]) <= 0.02 * values[-1]
    ok = center_err <= 1e-3 and stable
    report(9, ok, f"center error {center_err:.2e} (<=1e-3 at level 4), kappa_sq "
                  f"{['%.5f' % v for v in values]}, last step change "
                  f"{abs(values[-1] - values[-2]) / values[-1]:.2%} (<=2%)")
    assert center_err <= 1e-3
    assert stable
