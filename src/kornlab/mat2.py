"""Exact calculus of real 2x2 matrices built on the conformal/anticonformal split.

Every 2x2 matrix decomposes orthogonally as F = F^c + F^a with

    F^c = [[c_a, c_b], [-c_b, c_a]]   (conformal part),
    F^a = [[a_a, a_b], [a_b, -a_a]]   (anticonformal part).

Rotations are exactly the conformal matrices of Frobenius norm sqrt(2), so
distances to SO(2) reduce to elementary closed forms in the split
coefficients.  The module provides a scalar API on small value types plus
vectorized helpers operating on component arrays, and an independent
brute-force angle-scan oracle used to cross-check the closed forms.
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
class Mat2:
    """A real 2x2 matrix with entries m11, m12 / m21, m22."""

    m11: float
    m12: float
    m21: float
    m22: float

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, a) -> "Mat2":
        a = np.asarray(a, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"expected shape (2, 2), got {a.shape}")
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=float)

    def frobenius(self) -> float:
        return math.sqrt(self.m11**2 + self.m12**2 + self.m21**2 + self.m22**2)

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ConformalSplit:
    """Coefficients of the conformal and anticonformal parts of a matrix."""

    c_a: float
    c_b: float
    a_a: float
    a_b: float

    def conformal(self) -> Mat2:
        return Mat2(self.c_a, self.c_b, -self.c_b, self.c_a)

    def anticonformal(self) -> Mat2:
        return Mat2(self.a_a, self.a_b, self.a_b, -self.a_a)

    def anticonformal_norm(self) -> float:
        return math.sqrt(2.0 * (self.a_a**2 + self.a_b**2))


@dataclass(frozen=True)
class Rotation:
    """A planar rotation stored by its angle, reduced to [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    def matrix(self) -> Mat2:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Mat2(c, -s, s, c)

    def as_array(self) -> np.ndarray:
        return self.matrix().as_array()


def angle_distance(a: float, b: float) -> float:
    """Absolute angular separation of a and b on the circle, in [0, pi]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def split(f: Mat2) -> ConformalSplit:
    """Orthogonal projection of f onto the conformal and anticonformal planes."""
    return ConformalSplit(
        c_a=0.5 * (f.m11 + f.m22),
        c_b=0.5 * (f.m12 - f.m21),
        a_a=0.5 * (f.m11 - f.m22),
        a_b=0.5 * (f.m12 + f.m21),
    )


def cofactor(f: Mat2) -> Mat2:
    """Cofactor matrix: cof F = [[m22, -m21], [-m12, m11]].

    Identities: F (cof F)^T = det(F) Id and cof F - F = -2 F^a.
    """
    return Mat2(f.m22, -f.m21, -f.m12, f.m11)


def dist_so2(f: Mat2) -> float:
    """Frobenius distance from f to the rotation group.

    Closed form sqrt(2 (r_c - 1)^2 + |F^a|^2) with r_c = |F^c| / sqrt(2):
    the anticonformal part is orthogonal to the conformal plane containing
    SO(2), and within that plane the rotations form the circle of radius
    sqrt(2) around the origin.
    """
    s = split(f)
    r_c = math.sqrt(s.c_a**2 + s.c_b**2)
    return math.sqrt(2.0 * (r_c - 1.0) ** 2 + s.anticonformal_norm() ** 2)


def closest_rotation(f: Mat2) -> Rotation:
    """The unique rotation minimizing |f - R(theta)|.

    Equals the angle of the conformal part.  Raises
    :class:`~kornlab.errors.DegenerateRotation` when |F^c| falls below
    ``DEGENERACY_EPS * max(1, |F|)``: every rotation is then equidistant from f.
    """
    s = split(f)
    r_c = math.sqrt(s.c_a**2 + s.c_b**2)
    if r_c < DEGENERACY_EPS * max(1.0, f.frobenius()):
        raise DegenerateRotation(
            f"conformal part has norm {r_c:.3e}; the closest rotation is not unique"
        )
    return Rotation(math.atan2(-s.c_b, s.c_a))


# ---------------------------------------------------------------------------
# Vectorized component-array API.  All functions take/return arrays of equal
# shape holding matrix entries; used by the field pipelines and by the
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
    """Vectorized distance to SO(2), sqrt(2 (r_c - 1)^2 + 2 (a_a^2 + a_b^2))."""
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
