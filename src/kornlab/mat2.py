"""Exact calculus of real 2x2 matrices built on the conformal/anticonformal split.

Every 2x2 matrix decomposes orthogonally as F = F^c + F^a with

    F^c = [[c_a, c_b], [-c_b, c_a]]   (conformal part),
    F^a = [[a_a, a_b], [a_b, -a_a]]   (anticonformal part).

Rotations are exactly the conformal matrices of Frobenius norm sqrt(2), so
distances to SO(2) reduce to elementary closed forms in the split
coefficients.  The kernels take the four entries as component arrays (any
broadcastable shapes, scalars included); :func:`closest_rotation` takes one
(2, 2) array.  An independent brute-force angle-scan oracle cross-checks the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotation

TWO_PI = 2.0 * math.pi

#: Scale-relative threshold below which the conformal part counts as zero
#: and the closest rotation is non-unique.
DEGENERACY_EPS = 1e-12

#: Verified constant in the determinant identity
#: det F = DET_SPLIT_CONSTANT * (|F^c|^2 - |F^a|^2).
#: Direct expansion: det F = (c_a^2 + c_b^2) - (a_a^2 + a_b^2)
#: = (|F^c|^2 - |F^a|^2) / 2.
DET_SPLIT_CONSTANT = 0.5


@dataclass(frozen=True)
class Rotation:
    """A planar rotation stored by its angle, reduced to [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    def as_array(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]], dtype=float)


def angle_distance(a: float, b: float) -> float:
    """Absolute angular separation of a and b on the circle, in [0, pi]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def closest_rotation(f: np.ndarray) -> Rotation:
    """The unique rotation minimizing |f - R(theta)| for a (2, 2) array f.

    Equals the angle of the conformal part.  Raises
    :class:`~kornlab.errors.DegenerateRotation` when |F^c| falls below
    ``DEGENERACY_EPS * max(1, |F|)``: every rotation is then equidistant from f.
    """
    (m11, m12), (m21, m22) = f
    c_a, c_b, _, _ = split_arrays(m11, m12, m21, m22)
    r_c = math.sqrt(c_a**2 + c_b**2)
    if r_c < DEGENERACY_EPS * max(1.0, math.sqrt(m11**2 + m12**2 + m21**2 + m22**2)):
        raise DegenerateRotation(
            f"conformal part has norm {r_c:.3e}; the closest rotation is not unique"
        )
    return Rotation(math.atan2(-c_b, c_a))


# ---------------------------------------------------------------------------
# Vectorized component-array API.  All functions take/return broadcastable
# arrays holding matrix entries; used by the field pipelines and by the
# large-sample property suites.
# ---------------------------------------------------------------------------

def split_arrays(m11, m12, m21, m22):
    """Vectorized split; returns (c_a, c_b, a_a, a_b)."""
    c_a = 0.5 * (m11 + m22)
    c_b = 0.5 * (m12 - m21)
    a_a = 0.5 * (m11 - m22)
    a_b = 0.5 * (m12 + m21)
    return c_a, c_b, a_a, a_b


def dist_so2_arrays(m11, m12, m21, m22):
    """Vectorized distance to SO(2), sqrt(2 (r_c - 1)^2 + 2 (a_a^2 + a_b^2)).

    F^a is orthogonal to the conformal plane that holds SO(2), and there the
    rotations form the circle of radius sqrt(2) about the origin."""
    c_a, c_b, a_a, a_b = split_arrays(m11, m12, m21, m22)
    r_c = np.sqrt(c_a**2 + c_b**2)
    return np.sqrt(2.0 * (r_c - 1.0) ** 2 + 2.0 * (a_a**2 + a_b**2))


def dist_so2_bruteforce(m11, m12, m21, m22, coarse: int = 1024, rounds: int = 9):
    """Distance to SO(2) by direct minimization of |F - R(theta)| over theta.

    Independent of the closed form: scans a coarse angle grid, then shrinks
    the bracket around the best angle ``rounds`` times.  Final bracket width
    is 2*pi * (4/32)^rounds, far below 1e-8, so the value error is limited
    by the curvature of the objective, well under 1e-9 for moderate inputs.

    |F - R|^2 = |F|^2 + 2 - 2 (p cos(theta) + q sin(theta)) with
    p = m11 + m22 and q = m21 - m12; only this trigonometric evaluation is
    shared with nothing in the closed-form path.
    """
    m11, m12, m21, m22 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (m11, m12, m21, m22))
    )
    shape = m11.shape
    f2 = (m11**2 + m12**2 + m21**2 + m22**2).ravel()
    p = (m11 + m22).ravel()
    q = (m21 - m12).ravel()

    theta = np.linspace(0.0, TWO_PI, coarse, endpoint=False)
    proj = np.outer(p, np.cos(theta)) + np.outer(q, np.sin(theta))
    best = theta[np.argmax(proj, axis=1)]
    width = TWO_PI / coarse

    local = np.linspace(-2.0, 2.0, 33)
    for _ in range(rounds):
        angles = best[:, None] + width * local[None, :]
        proj = p[:, None] * np.cos(angles) + q[:, None] * np.sin(angles)
        best = angles[np.arange(angles.shape[0]), np.argmax(proj, axis=1)]
        width *= 4.0 / 32.0

    val = f2 + 2.0 - 2.0 * (p * np.cos(best) + q * np.sin(best))
    return np.sqrt(np.maximum(val, 0.0)).reshape(shape)
