"""Constructor and certifier of extremal fields for planar rigidity.

Given a compactly supported angle field alpha and a far-field rotation R0,
the pipeline builds a deformation gradient of the form

    G(x) = R0 [ R(alpha(x)) + [[a(x), b(x)], [b(x), -a(x)]] ]

whose conformal part lies in SO(2) at every point, so the pointwise distance
to the rotation group is carried entirely by the anticonformal coefficients
(a, b).  Curl-freeness of G couples (a, b) to alpha through the first-order
system

    curl g = div f,   div g = curl f,      g = (a, b),
    f = (sin alpha, cos alpha - 1),

solved per frequency in Fourier space.  For such fields the squared distance
of G to its best constant rotation equals exactly twice the integrated
squared pointwise distance to SO(2) -- the equality case of the rigidity
estimate with constant sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import ZeroDistance
from .gridfield import (
    MatrixField2,
    PeriodicGrid,
    ScalarField,
    VectorField2,
    assert_compact_support,
    check_gradient,
    from_half_spectrum,
    half_spectrum,
    map_strips,
    potential_from_gradient,  # noqa: F401  (public name here; perfbench traces it)
    tree_sum,
)
from .mat2 import dist_so2_arrays  # bound at import: see _strip_sums

#: Threshold on rhs below which the field counts as a rotation a.e.
ZERO_DISTANCE_EPS = 1e-20


@dataclass
class ExtremalReport:
    """Certificate quantities for a candidate gradient field."""

    curl_residual: float
    optimal_theta: float
    lhs: float            # integral of |G - R*|^2, R* the best rotation
    rhs: float            # integral of dist^2(G, SO(2))
    ratio: float          # lhs / (2 rhs)
    alpha_norm: float | None = None
    f_norm: float | None = None
    g_norm: float | None = None
    theta0: float | None = None          # far-field angle, when known
    lhs_at_theta0: float | None = None   # integral of |G - R(theta0)|^2
    ratio_at_theta0: float | None = None


def build_f(alpha: ScalarField) -> VectorField2:
    """Pointwise lift f = (sin alpha, cos alpha - 1), one row strip at a time.

    |f|^2 = 2 - 2 cos(alpha) <= alpha^2 pointwise, so ||f|| <= ||alpha||.
    """
    f = np.empty((2,) + alpha.values.shape)
    map_strips(alpha.grid.n, lambda rows: (np.sin(alpha.values[rows], out=f[0, rows]),
               np.subtract(np.cos(alpha.values[rows]), 1.0, out=f[1, rows])))
    return VectorField2(alpha.grid, f)


def solve_g(f: VectorField2) -> VectorField2:
    """Solve curl g = div f, div g = curl f by a per-frequency reflection.

    With xi_perp = (-xi_2, xi_1) the system pins the components of g-hat
    along the orthonormal frame (xi-hat, xi-hat-perp):

        <g-hat, xi_perp> = <f-hat, xi>,   <g-hat, xi> = <f-hat, xi_perp>,

    i.e. g-hat = <f-hat, xi_perp> xi-hat + <f-hat, xi> xi-hat-perp, a real
    orthogonal (reflection) multiplier; hence ||g|| = ||f|| exactly.  The
    multiplier has no limit at frequency zero; the zero mode is completed
    with its x-axis limit [[0, 1], [1, 0]], which keeps the map an isometry
    (any unimodular completion solves the system, since constants are
    annihilated by curl and div).

    g-hat overwrites f-hat one row strip of the half spectrum at a time,
    with the multiplier formed per strip.
    """
    grid = f.grid
    ghat = half_spectrum(f.values)

    def reflect(rows):
        # Reflection matrix [[-c2, c1], [c1, c2]] with c1 = (kx^2-ky^2)/|k|^2,
        # c2 = 2 kx ky / |k|^2 on the derivative wavenumbers (Nyquist
        # dropped); at k = 0 use the x-axis limit c1 = 1, c2 = 0.  On the
        # unpaired Nyquist lines this is the (sign-adjusted) component swap:
        # c1 = 1 on the column by itself, c1 = -1 set on the row, which also
        # holds two derivative-blind modes.  The swap keeps both equations
        # exact for the module's operators and the multiplier even in k.
        dkx, inv_dk2 = grid.dkx[rows], grid.inv_dk2[rows]
        c1 = np.where(grid.dk2[rows] == 0.0, 1.0, (dkx**2 - grid.dky**2) * inv_dk2)
        c2 = 2.0 * dkx * grid.dky * inv_dk2
        if rows.start <= grid.n // 2 < rows.stop:
            c1[grid.n // 2 - rows.start, :] = -1.0
        f0, f1 = ghat[0, rows], ghat[1, rows]
        ghat[0, rows], ghat[1, rows] = -c2 * f0 + c1 * f1, c1 * f0 + c2 * f1

    map_strips(grid.n, reflect)
    return VectorField2(grid, from_half_spectrum(ghat))


def _gradient_rows(f, g, r: np.ndarray, G: np.ndarray) -> None:
    """R0 (R(alpha) + [[a, b], [b, -a]]) on the rows of one strip: f, g and
    G are that strip's (2, h, n), (2, h, n) and (2, 2, h, n) views."""
    sa, cm1 = f
    a, b = g
    ca = cm1 + 1.0
    base = ((ca + a, b - sa), (sa + b, ca - a))
    for i in range(2):
        for j in range(2):
            np.multiply(r[i, 0], base[0][j], out=G[i, j])
            G[i, j] += r[i, 1] * base[1][j]


def _strip_sums(Gs: np.ndarray) -> list:
    """dist^2(G, SO(2)) and the four entries of G, summed over a (2, 2, h, n)
    strip; on strip threads, so through the kernel bound at import."""
    return [(dist_so2_arrays(Gs[0, 0], Gs[0, 1], Gs[1, 0], Gs[1, 1]) ** 2).sum(),
            *(Gs[i, j].sum() for i in range(2) for j in range(2))]


def assemble_gradient(
    f: VectorField2, g: VectorField2, r0: mat2.Rotation = mat2.Rotation(0.0)
) -> tuple[MatrixField2, np.ndarray]:
    """Pointwise gradient R0 (R(alpha) + [[a, b], [b, -a]]) from
    f = (sin alpha, cos alpha - 1) and g = (a, b), plus 13 sums over it.

    Left-multiplying by the constant rotation R0 keeps the conformal part in
    SO(2) and rotates the anticonformal coefficient vector by R0.  One sweep
    over the row strips writes G and, while each strip is in cache, sums
    dist^2(G, SO(2)) and the four entries of G (the sums
    :func:`rigidity_ratio` takes), f^2 and g^2 per component (4), and
    |G_ij - R0_ij|^2 (4), in that order.  No curl check runs here:
    :func:`rigidity_ratio` makes it.
    """
    n = f.grid.n
    r = r0.as_array()
    G = np.empty((2, 2, n, n))

    def strip(rows):
        fs, gs, Gs = f.values[:, rows], g.values[:, rows], G[:, :, rows]
        squares = [(v**2).sum() for v in (*fs, *gs)]
        _gradient_rows(fs, gs, r, Gs)
        return [*_strip_sums(Gs), *squares, *_lhs_terms(Gs, r)]

    sums = tree_sum(map_strips(n, strip))  # before G is wrapped: the wrap checks its samples
    return MatrixField2(f.grid, G), sums


def rigidity_ratio(G: MatrixField2, sums: np.ndarray | None = None) -> ExtremalReport:
    """Certificate for a gradient field: best rotation, both sides, ratio.

    The minimizer of the integral of |G - R|^2 over SO(2) depends only on
    the mean of G: it is the closest rotation to the conformal part of the
    mean.  The row-curl check (:func:`~kornlab.gridfield.check_gradient`)
    transforms G itself.  ``sums`` starts with the summed dist^2(G, SO(2))
    and the four entry sums of G, as :func:`assemble_gradient` returns them;
    they are computed from G when not passed.  One more sweep sums
    |G - R*|^2 (see :func:`_lhs_at`).  Raises :class:`ZeroDistance` when G
    is a rotation field a.e. (the rigidity quotient is then 0/0), and
    :class:`CurlResidualTooLarge` when its row curls exceed ``CURL_TOL``.
    """
    grid = G.grid
    curl_residual = check_gradient(G)
    if sums is None:
        sums = tree_sum(map_strips(grid.n, lambda rows: _strip_sums(G.values[:, :, rows])))
    rhs = float(grid.cell_area * sums[0])
    rstar = mat2.closest_rotation(sums[1:5].reshape(2, 2) / grid.n**2)
    lhs = _lhs_at(G, rstar.as_array())

    if rhs <= ZERO_DISTANCE_EPS * max(1.0, lhs):
        raise ZeroDistance(
            "the field is a rotation almost everywhere; "
            "dist(grad u, SO(2)) vanishes and the ratio is undefined"
        )
    return ExtremalReport(
        curl_residual=curl_residual,
        optimal_theta=rstar.theta,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / (2.0 * rhs),
    )


def _lhs_terms(Gs: np.ndarray, R) -> list:
    """Sums of (G_ij - R_ij)^2 over a (2, 2, h, n) strip, entry by entry."""
    return [((Gs[i, j] - R[i][j]) ** 2).sum() for i in range(2) for j in range(2)]


def _lhs_total(grid: PeriodicGrid, terms: np.ndarray) -> float:
    """Integral of |G - R|^2 from its four per-entry sums, added in order."""
    total = 0.0
    for term in terms:
        total += term
    return float(grid.cell_area * total)


def _lhs_at(G: MatrixField2, R: np.ndarray) -> float:
    """Integral of |G - R|^2 for a (2, 2) rotation R, summed entry by entry
    and strip by strip.  Taken directly, not as the moment form
    |G|^2 - 2 tr(R^T G) + 2, whose terms are O(L^2) against an O(1) result
    and cancel away about three digits at L = 20."""
    parts = map_strips(G.grid.n, lambda rows: _lhs_terms(G.values[:, :, rows], R))
    return _lhs_total(G.grid, tree_sum(parts))


def synthesize_extremal(
    alpha: ScalarField, r0: mat2.Rotation = mat2.Rotation(0.0)
) -> ExtremalReport:
    """Full pipeline: alpha -> f -> g -> gradient -> certificate.

    Requires alpha to satisfy the compact-support convention.  Returns the
    certificate, which carries the pipeline norms and, since the far-field
    rotation is known here, the left-hand side measured against it as well.
    The deformation itself is not built; its mean-zero periodic part is
    ``potential_from_gradient(assemble_gradient(f, solve_g(f), r0)[0])``.

    Every pointwise stage runs over row strips of ``STRIP_ELEMENTS``
    samples, so its temporaries stay in cache, on ``KORNLAB_THREADS``
    threads (:func:`~kornlab.gridfield.map_strips`); only the three FFTs
    (f-hat, g, G-hat) see whole planes, with as many workers.  One sweep,
    :func:`assemble_gradient`, writes G and sums f^2 and g^2 for the norms,
    dist^2(G, SO(2)) for the right-hand side, the entries of G for its mean
    (hence R*), and |G - R0|^2 for the left-hand side at the far-field
    rotation.  :func:`rigidity_ratio` takes those sums, makes the single
    curl check on G-hat and a second sweep for |G - R*|^2.  The per-strip
    sums are combined by :func:`~kornlab.gridfield.tree_sum`, which
    reproduces numpy's whole-plane sums bit for bit, so no reported number
    depends on the strip height or the thread count.

    Memory: g-hat overwrites f-hat, and f and g are dropped before the
    4-plane transform of G, which only the curl check holds.
    """
    assert_compact_support(alpha)
    grid = alpha.grid
    alpha_norm = alpha.norm_l2()
    f = build_f(alpha)
    g = solve_g(f)
    G, sums = assemble_gradient(f, g, r0)
    del f, g

    report = rigidity_ratio(G, sums)
    report.alpha_norm = alpha_norm
    report.f_norm = math.sqrt(grid.cell_area * float(sums[5] + sums[6]))
    report.g_norm = math.sqrt(grid.cell_area * float(sums[7] + sums[8]))
    report.theta0 = r0.theta
    report.lhs_at_theta0 = _lhs_total(grid, sums[9:])
    report.ratio_at_theta0 = report.lhs_at_theta0 / (2.0 * report.rhs)
    return report


# ---------------------------------------------------------------------------
# Analytic angle profiles, written row strip by row strip.
# ---------------------------------------------------------------------------

def _gaussian_rows(out: np.ndarray, grid: PeriodicGrid, rows: slice,
                   center: tuple[float, float], width: float) -> np.ndarray:
    """exp(-|x - c|^2 / (2 width^2)) on the rows of one strip, into ``out``."""
    cx, cy = center
    np.add((grid.x[rows] - cx) ** 2, (grid.y - cy) ** 2, out=out)
    np.negative(out, out=out)
    out /= 2.0 * width**2
    return np.exp(out, out=out)


def gaussian_bump(
    grid: PeriodicGrid,
    amplitude: float = 1.0,
    width: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> ScalarField:
    """Radial Gaussian bump alpha = amplitude * exp(-|x - c|^2 / (2 width^2))."""
    alpha = np.empty((grid.n, grid.n))
    map_strips(grid.n, lambda rows: np.multiply(
        _gaussian_rows(alpha[rows], grid, rows, center, width), amplitude, out=alpha[rows]))
    return ScalarField(grid, alpha)


def dipole_bump(
    grid: PeriodicGrid,
    amplitude: float = 1.0,
    width: float = 0.8,
    offset: tuple[float, float] = (1.25, 0.0),
) -> ScalarField:
    """Odd pair of Gaussian lobes at +/- offset: alpha(-x) = -alpha(x).

    The point symmetry makes the integral of sin(alpha) vanish, so the best
    rotation of the synthesized gradient coincides with the far-field
    rotation instead of being tilted by the O(1/L^2) mean of f.
    """
    ox, oy = offset
    alpha = np.empty((grid.n, grid.n))

    def strip(rows):
        pos = _gaussian_rows(alpha[rows], grid, rows, (ox, oy), width)
        pos -= _gaussian_rows(np.empty_like(pos), grid, rows, (-ox, -oy), width)
        pos *= amplitude

    map_strips(grid.n, strip)
    return ScalarField(grid, alpha)
