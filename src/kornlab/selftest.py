"""Cross-module invariant suites with measured residuals.

Each property returns its worst measured residual together with the bound it
must stay under; the CLI prints one PASS/FAIL line per property.  All
randomness flows from a single seed, so repeated runs produce bit-identical
residual logs.

``det_constant`` overrides the constant in the determinant identity
det F = c (|F^c|^2 - |F^a|^2).  The correct value c = 1/2 is verified by
direct expansion; injecting c = 2 (a plausible misprint) makes the det
property fail loudly, demonstrating that the suite actually checks it.
"""

from __future__ import annotations

import numpy as np

from . import mat2
from .gridfield import (
    PeriodicGrid,
    ScalarField,
    VectorField2,
    det_integral,
    from_half_spectrum,
    half_spectrum,
    helmholtz,
    scaling_sequence,
)


def _prop(name: str, residual: float, bound: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "bound": float(bound),
        "passed": bool(residual <= bound),
    }


def _matrix_suite(rng: np.random.Generator, samples: int, det_constant: float | None) -> list[dict]:
    m11, m12, m21, m22 = rng.uniform(-10.0, 10.0, size=(4, samples))
    c_a, c_b, a_a, a_b = mat2.split_arrays(m11, m12, m21, m22)
    scale = np.maximum(1.0, m11**2 + m12**2 + m21**2 + m22**2)

    recon = np.max(
        np.abs(np.stack([
            c_a + a_a - m11, c_b + a_b - m12, -c_b + a_b - m21, c_a - a_a - m22,
        ])) / np.sqrt(scale)
    )
    # Orthogonality F^c : F^a is an algebraic identity; evaluate the actual
    # entrywise product sum rather than a simplified form.
    fc = np.stack([c_a, c_b, -c_b, c_a])
    fa = np.stack([a_a, a_b, a_b, -a_a])
    ortho = np.max(np.abs((fc * fa).sum(axis=0)) / scale)

    norm2 = m11**2 + m12**2 + m21**2 + m22**2
    pythag = np.max(np.abs((fc**2).sum(axis=0) + (fa**2).sum(axis=0) - norm2) / scale)

    const = mat2.DET_SPLIT_CONSTANT if det_constant is None else det_constant
    det = m11 * m22 - m12 * m21
    halves = (fc**2).sum(axis=0) / 2.0 - (fa**2).sum(axis=0) / 2.0
    det_resid = np.max(np.abs(det - const * 2.0 * halves) / scale)

    dist = mat2.dist_so2_arrays(m11, m12, m21, m22)
    fa_norm = np.sqrt((fa**2).sum(axis=0))
    lower = np.max(np.maximum(fa_norm - dist, 0.0) / np.sqrt(scale))
    cof_gap = np.max(np.maximum(2.0 * fa_norm - 2.0 * dist, 0.0) / np.sqrt(scale))

    brute = mat2.dist_so2_bruteforce(m11, m12, m21, m22)
    brute_resid = np.max(np.abs(dist - brute))

    return [
        _prop("mat2.reconstruction", recon, 1e-12),
        _prop("mat2.orthogonality", ortho, 1e-12),
        _prop("mat2.pythagoras", pythag, 1e-12),
        _prop("mat2.det_identity", det_resid, 1e-12),
        _prop("mat2.dist_lower_bound", lower, 0.0),
        _prop("mat2.cofactor_gap_bound", cof_gap, 0.0),
        _prop("mat2.dist_vs_bruteforce", brute_resid, 1e-9),
    ]


def _grid_suite(rng: np.random.Generator) -> list[dict]:
    n = 128
    grid = PeriodicGrid(n, 20.0)
    values = rng.standard_normal((n, n))
    f = ScalarField(grid, values)
    vhat = half_spectrum(values)
    spectral_norm = np.sqrt(grid.plancherel(np.abs(vhat) ** 2))
    plancherel = abs(spectral_norm - f.norm_l2()) / max(f.norm_l2(), 1e-300)
    roundtrip = np.max(np.abs(from_half_spectrum(vhat) - values))

    z = VectorField2(grid, rng.standard_normal((2, n, n)))
    gp, dp = helmholtz(z)
    mean = z.mean()
    recomb = np.max(np.abs(gp.values + dp.values + mean[:, None, None] - z.values))
    cross = abs(float((gp.values * dp.values).sum()) * grid.cell_area) / max(
        gp.norm_l2() * dp.norm_l2(), 1e-300
    )
    curl_free = gp.curl().norm_l2() / max(z.norm_l2(), 1e-300)
    div_free = dp.div().norm_l2() / max(z.norm_l2(), 1e-300)
    gp2, dp2 = helmholtz(gp)
    idem = np.max(np.abs(gp2.values - gp.values)) + np.max(np.abs(dp2.values))

    def bump(cx, cy, w):
        return lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w**2))

    u = VectorField2(grid, np.stack([
        ScalarField.from_function(grid, bump(0.5, -0.3, 1.2)).values,
        ScalarField.from_function(grid, bump(-0.8, 0.4, 1.4)).values,
    ]))
    G = u.grad()
    det_resid = abs(det_integral(G)) / max(G.norm_l2() ** 2, 1e-300)

    uk = scaling_sequence(u, 2)
    scale_resid = abs(uk.grad().norm_l2() - G.norm_l2()) / max(G.norm_l2(), 1e-300)

    return [
        _prop("gridfield.plancherel", plancherel, 1e-12),
        _prop("gridfield.fft_roundtrip", roundtrip, 1e-12),
        _prop("gridfield.helmholtz_recomposition", recomb, 1e-12),
        _prop("gridfield.helmholtz_orthogonality", cross, 1e-12),
        _prop("gridfield.helmholtz_curl_free", curl_free, 1e-12),
        _prop("gridfield.helmholtz_div_free", div_free, 1e-12),
        _prop("gridfield.helmholtz_idempotent", idem, 1e-12),
        _prop("gridfield.det_integral_null", det_resid, 1e-8),
        _prop("gridfield.scaling_invariance", scale_resid, 1e-12),
    ]


def _fem_suite() -> list[dict]:
    from .kornfem import (
        IDENTITY_TOL,
        assemble,
        dirichlet_constraints,
        korn_sweep,
        null_lagrangian_gap,
    )
    from .mesh import disk, unit_square

    worst = max(null_lagrangian_gap(assemble(mesh), dirichlet_constraints(mesh).basis)
                for mesh in (unit_square(6), disk(2)))

    estimates = korn_sweep("square", [1, 2, 3], bc="tangential")
    seq = [e.kappa_sq for e in estimates]
    mono_violation = max(
        (max(a - b, 0.0) for a, b in zip(seq, seq[1:])), default=0.0
    )

    return [
        _prop("kornfem.null_lagrangian_identity", worst, IDENTITY_TOL),
        _prop("kornfem.monotone_refinement", mono_violation, 1e-12),
    ]


def _rigidity_suite() -> list[dict]:
    from .mat2 import Rotation
    from .rigidity import dipole_bump, synthesize_extremal

    grid = PeriodicGrid(128, 20.0)
    alpha = dipole_bump(grid, amplitude=0.7)
    report = synthesize_extremal(alpha, Rotation(0.3))
    return [
        _prop("rigidity.equality_case", abs(report.ratio - 1.0), 1e-3),
        _prop("rigidity.plancherel_g_f", abs(report.g_norm / report.f_norm - 1.0), 1e-10),
        _prop("rigidity.curl_residual", report.curl_residual, 1e-8),
        _prop("rigidity.optimal_angle", mat2.angle_distance(report.optimal_theta, 0.3), 1e-6),
    ]


def run_selftest(seed: int = 0, samples: int = 20000,
                 det_constant: float | None = None) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []
    results.extend(_matrix_suite(rng, samples, det_constant))
    results.extend(_grid_suite(rng))
    results.extend(_fem_suite())
    results.extend(_rigidity_suite())
    return results
