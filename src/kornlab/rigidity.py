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
    CURL_TOL,
    MatrixField2,
    PeriodicGrid,
    ScalarField,
    VectorField2,
    assert_compact_support,
    check_gradient,
    from_half_spectrum,
    half_spectrum,
    potential_from_gradient,  # noqa: F401  (public name here; perfbench traces it)
    potential_from_spectrum,
)

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

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


@dataclass
class ExtremalField:
    """Deformation split into a mean-zero periodic part plus affine metadata.

    The full gradient is ``affine + grad(periodic)``; the affine matrix is
    the grid mean of the synthesized gradient (approximately the far-field
    rotation, since the construction data are compactly supported).  The
    periodic part is built on access from ``ghat``, the gradient's rfft2.
    """

    grid: PeriodicGrid
    ghat: np.ndarray  # (2, 2, n, n/2 + 1) complex
    affine: np.ndarray

    @property
    def periodic(self) -> VectorField2:
        return potential_from_spectrum(self.grid, self.ghat)

    def gradient(self) -> MatrixField2:
        G = self.periodic.grad()
        return MatrixField2(G.grid, G.values + self.affine[:, :, None, None])


def build_f(alpha: ScalarField) -> VectorField2:
    """Pointwise lift f = (sin alpha, cos alpha - 1).

    |f|^2 = 2 - 2 cos(alpha) <= alpha^2 pointwise, so ||f|| <= ||alpha||.
    """
    f = np.empty((2,) + alpha.values.shape)
    np.sin(alpha.values, out=f[0])
    np.cos(alpha.values, out=f[1])
    f[1] -= 1.0
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
    """
    grid = f.grid
    fhat = half_spectrum(f.values)
    # Reflection matrix [[-c2, c1], [c1, c2]] with c1 = (kx^2-ky^2)/|k|^2,
    # c2 = 2 kx ky / |k|^2 on the derivative wavenumbers (Nyquist dropped);
    # at k = 0 use the x-axis limit c1 = 1, c2 = 0.  On the unpaired Nyquist
    # lines this is the (sign-adjusted) component swap: c1 = 1 on the column
    # by itself, c1 = -1 set on the row, which also holds two
    # derivative-blind modes.  The swap keeps both equations exact for the
    # module's operators and the multiplier even in k.
    c1 = np.where(grid.dk2 == 0.0, 1.0, (grid.dkx**2 - grid.dky**2) * grid.inv_dk2)
    c2 = 2.0 * grid.dkx * grid.dky * grid.inv_dk2
    c1[grid.n // 2, :] = -1.0
    # g-hat = [[-c2, c1], [c1, c2]] f-hat, each row formed in its output
    ghat = np.empty_like(fhat)
    term = np.empty_like(fhat[0])
    np.multiply(-c2, fhat[0], out=ghat[0])
    ghat[0] += np.multiply(c1, fhat[1], out=term)
    np.multiply(c1, fhat[0], out=ghat[1])
    ghat[1] += np.multiply(c2, fhat[1], out=term)
    del fhat, term, c1, c2
    return VectorField2(grid, from_half_spectrum(ghat))


def _gradient(f: VectorField2, g: VectorField2, r0: mat2.Rotation) -> MatrixField2:
    """R0 (R(alpha) + [[a, b], [b, -a]]) from f = (sin alpha, cos alpha - 1)
    and g = (a, b).

    The four base planes are written straight into G, which is then
    left-multiplied by R0 in place, one column at a time: one scratch plane
    keeps the column's top entry, and numpy forms one temporary product per
    added term.  Every entry is the same rounded expression
    r_i0 B_0j + r_i1 B_1j as a product formed out of place.
    """
    sa, cm1 = f.values
    a, b = g.values
    G = np.empty((2, 2) + a.shape)
    np.add(cm1, 1.0, out=G[0, 0])
    G[0, 0] += a
    np.subtract(b, sa, out=G[0, 1])
    np.add(sa, b, out=G[1, 0])
    np.add(cm1, 1.0, out=G[1, 1])
    G[1, 1] -= a
    r = r0.as_array()
    top = np.empty_like(a)
    for j in range(2):
        np.copyto(top, G[0, j])
        G[0, j] *= r[0, 0]
        G[0, j] += r[0, 1] * G[1, j]
        G[1, j] *= r[1, 1]
        G[1, j] += r[1, 0] * top
    return MatrixField2(f.grid, G)


def assemble_gradient(
    alpha: ScalarField,
    g: VectorField2,
    r0: mat2.Rotation = mat2.Rotation(0.0),
    tol: float = CURL_TOL,
) -> MatrixField2:
    """Pointwise gradient R0 (R(alpha) + [[a, b], [b, -a]]) with g = (a, b).

    Left-multiplying by the constant rotation R0 keeps the conformal part in
    SO(2) and rotates the anticonformal coefficient vector by R0.  The
    consistency of (alpha, g) is re-checked through the row curls.
    """
    G = _gradient(build_f(alpha), g, r0)
    check_gradient(G, tol)
    return G


def rigidity_ratio(G: MatrixField2, curl_tol: float = CURL_TOL) -> ExtremalReport:
    """Certificate for a gradient field: best rotation, both sides, ratio.

    The minimizer of the integral of |G - R|^2 over SO(2) depends only on
    the mean of G: it is the closest rotation to the conformal part of the
    mean.  Raises :class:`ZeroDistance` when G is a rotation field a.e.
    (the rigidity quotient is then 0/0).
    """
    return _certificate(G, check_gradient(G, curl_tol))


def _certificate(G: MatrixField2, curl_residual: float) -> ExtremalReport:
    area = G.grid.cell_area
    v = G.values
    dist2 = mat2.dist_so2_arrays(v[0, 0], v[0, 1], v[1, 0], v[1, 1])
    rhs = float(area * np.square(dist2, out=dist2).sum())
    del dist2

    mean = mat2.Mat2.from_array(G.mean())
    rstar = mat2.closest_rotation(mean)
    lhs = _lhs_at(G, rstar.theta)

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


def _lhs_at(G: MatrixField2, theta: float) -> float:
    """Integral of |G - R(theta)|^2, summed entry by entry in one scratch
    plane.  Taken directly, not as the moment form |G|^2 - 2 tr(R^T G) + 2,
    whose terms are O(L^2) against an O(1) result and cancel away about
    three digits at L = 20."""
    c, s = math.cos(theta), math.sin(theta)
    R = ((c, -s), (s, c))
    diff = np.empty_like(G.values[0, 0])
    total = 0.0
    for i in range(2):
        for j in range(2):
            np.subtract(G.values[i, j], R[i][j], out=diff)
            total += np.square(diff, out=diff).sum()
    return float(G.grid.cell_area * total)


def synthesize_extremal(
    alpha: ScalarField, r0: mat2.Rotation = mat2.Rotation(0.0)
) -> tuple[ExtremalField, ExtremalReport]:
    """Full pipeline: alpha -> f -> g -> gradient -> certificate.

    Requires alpha to satisfy the compact-support convention.  The returned
    report carries the pipeline norms and, since the far-field rotation is
    known here, the left-hand side measured against it as well.

    Memory: each stage writes into its output with at most a few scratch
    planes beside the fields it must keep.  The norms of alpha, f and g are
    taken before G is built, and f and g are dropped before the 4-plane
    transform of G, which the single curl check reads and the returned
    field keeps.  Both left-hand sides are summed from G - R directly (see
    :func:`_lhs_at`), never from the moments of G.
    """
    assert_compact_support(alpha)
    f = build_f(alpha)
    g = solve_g(f)
    norms = alpha.norm_l2(), f.norm_l2(), g.norm_l2()
    G = _gradient(f, g, r0)
    del f, g
    ghat = half_spectrum(G.values)
    report = _certificate(G, check_gradient(G, CURL_TOL, ghat))
    extremal = ExtremalField(G.grid, ghat, G.mean())

    report.alpha_norm, report.f_norm, report.g_norm = norms
    report.theta0 = r0.theta
    report.lhs_at_theta0 = _lhs_at(G, r0.theta)
    report.ratio_at_theta0 = report.lhs_at_theta0 / (2.0 * report.rhs)
    return extremal, report


# ---------------------------------------------------------------------------
# Analytic angle profiles.
# ---------------------------------------------------------------------------

def gaussian_bump(
    grid: PeriodicGrid,
    amplitude: float = 1.0,
    width: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> ScalarField:
    """Radial Gaussian bump alpha = amplitude * exp(-|x - c|^2 / (2 width^2))."""
    cx, cy = center
    r2 = (grid.x - cx) ** 2 + (grid.y - cy) ** 2
    return ScalarField(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


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
    pos = np.exp(-((grid.x - ox) ** 2 + (grid.y - oy) ** 2) / (2.0 * width**2))
    neg = np.exp(-((grid.x + ox) ** 2 + (grid.y + oy) ** 2) / (2.0 * width**2))
    return ScalarField(grid, amplitude * (pos - neg))
