"""Thin shells around the unit circle and the 1/h blow-up of their Korn constants.

A shell of thickness h is bounded by the radius profiles 1 + h g(theta) - h
and 1 + h g(theta) for a smooth g: S^1 -> (0, 1/3).  The explicit test field

    u(y) = y^perp + h g'(theta) y / |y|

is tangential on both boundary curves (their radial derivative is h g'
exactly), rotates the shell at leading order, and carries a symmetric
gradient of order h^(3/2) in L2 against a full gradient of order h^(1/2),
so the Korn quotient grows like 1/h as the shell thins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfiniteQuotient, MeshValidationError
from .mesh import TriMesh, evaluate_field_ratio, radial_band

#: Stock profile: smooth, valued in (0, 1/3), no rotational symmetry.
DEFAULT_COS_COEFFS = {0: 0.2, 3: 0.05}

#: cos, -sin, -cos, sin: successive derivatives of cos, as (negate, function).
_DERIVATIVE_CYCLE = ((False, np.cos), (True, np.sin), (True, np.cos), (False, np.sin))


@dataclass
class ShellSpec:
    """Shell geometry: truncated Fourier profile g plus thickness h."""

    cos_coeffs: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_COS_COEFFS))
    sin_coeffs: dict[int, float] = field(default_factory=dict)
    h: float = 0.1
    angular_resolution: int = 2048
    radial_layers: int = 4

    def __post_init__(self):
        if not (0.0 < self.h < 0.5):
            raise MeshValidationError(f"shell thickness must lie in (0, 0.5), got {self.h}")
        if self.angular_resolution < 16 or self.radial_layers < 1:
            raise MeshValidationError("shell resolution too coarse")
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        g = self.profile(theta)
        if g.min() <= 0.0 or g.max() >= 1.0 / 3.0:
            raise MeshValidationError(
                f"profile range [{g.min():.4f}, {g.max():.4f}] leaves (0, 1/3)"
            )

    def profile(self, theta, order: int = 0):
        """g(theta), or its derivative of the given order."""
        theta = np.asarray(theta, dtype=float)
        g = np.zeros_like(theta)
        # the m-th derivative of cos(k theta) is k^m times entry m of the
        # cycle cos, -sin, -cos, sin; sin(k theta) is the cycle's entry 3
        for coeffs, start in ((self.cos_coeffs, 0), (self.sin_coeffs, 3)):
            negate, fn = _DERIVATIVE_CYCLE[(start + order) % 4]
            for k, c in coeffs.items():
                if k == 0 and order:
                    continue  # scale 0: the term adds a signed zero, no value
                scale = c
                for _ in range(order):
                    scale = scale * k
                if negate:
                    g -= scale * fn(k * theta)
                else:
                    g += scale * fn(k * theta)
        return g

    def is_constant(self) -> bool:
        return all(c == 0.0 for k, c in self.cos_coeffs.items() if k != 0) and all(
            c == 0.0 for c in self.sin_coeffs.values()
        )

    def radii(self, theta):
        """(inner, outer) radius profiles 1 + h g - h and 1 + h g."""
        outer = 1.0 + self.h * self.profile(theta)
        return outer - self.h, outer


def shell_mesh(spec: ShellSpec) -> TriMesh:
    """Structured triangulation of the shell between the two profile curves."""
    return radial_band(
        lambda theta: spec.radii(theta)[0],
        lambda theta: spec.radii(theta)[1],
        angular=spec.angular_resolution,
        radial=spec.radial_layers,
    )


def shell_field(spec: ShellSpec):
    """Analytic test field; returns (u_fn, grad_fn) on (N, 2) point arrays.

    u(y) = y^perp + h g'(theta) y/|y| and, with r = |y|, rhat = y/r and
    that = y^perp/r,

        grad u = J + (h/r) [ g''(theta) rhat (x) that + g'(theta) that (x) that ]

    where J is the quarter-turn.  The derivation only uses the chain rule on
    theta = atan2(y2, y1); correctness is established operationally by the
    finite-difference and tangency tests rather than by trusting the algebra.
    """

    def u_fn(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0.0):
            raise ValueError("shell field undefined at the origin")
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        perp = np.stack([-pts[:, 1], pts[:, 0]], axis=1)
        return perp + spec.h * spec.profile(theta, 1)[:, None] * pts / r[:, None]

    def grad_fn(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        r = np.sqrt(x * x + y * y)  # np.linalg.norm(pts, axis=1), bit for bit
        if np.any(r == 0.0):
            raise ValueError("shell field undefined at the origin")
        theta = np.arctan2(y, x)
        rhat = (x / r, y / r)
        that = (-rhat[1], rhat[0])
        c2 = spec.h * spec.profile(theta, 2) / r
        c1 = spec.h * spec.profile(theta, 1) / r
        J = ((0.0, -1.0), (1.0, 0.0))
        # entry by entry, without (N, 2, 2) temporaries; the sum runs
        # (J + t1) + t2, and the reported norms keep their last bits only in it
        out = np.empty((len(pts), 2, 2))
        for i in range(2):
            for j in range(2):
                out[:, i, j] = J[i][j] + c2 * (rhat[i] * that[j]) + c1 * (that[i] * that[j])
        return out

    return u_fn, grad_fn


@dataclass
class BlowupRow:
    h: float
    grad_norm: float
    symgrad_norm: float
    ratio: float
    tangency_residual: float


@dataclass
class BlowupTable:
    rows: list[BlowupRow]
    slope: float | None  # log-log slope of ratio vs h; None below 2 rows

    def to_dict(self) -> dict:
        return {
            "rows": [row.__dict__ for row in self.rows],
            "slope": self.slope,
        }


def blowup_experiment(spec: ShellSpec, h_list: list[float]) -> BlowupTable:
    """Quadrature norms of the explicit field per thickness, plus the fitted
    log-log slope of the Korn quotient (expected near -1).

    Raises :class:`InfiniteQuotient` for constant profiles: the field is
    then the exact rigid rotation and the quotient is undefined.
    """
    if spec.is_constant():
        raise InfiniteQuotient(
            "constant shell profile: the test field is a rigid rotation with "
            "vanishing symmetric gradient"
        )
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("thickness list must be strictly decreasing")
    rows = []
    for h in h_list:
        spec_h = replace(spec, h=float(h))
        mesh = shell_mesh(spec_h)
        u_fn, grad_fn = shell_field(spec_h)
        result = evaluate_field_ratio(mesh, u_fn, grad_fn)
        rows.append(
            BlowupRow(
                h=float(h),
                grad_norm=result["grad_norm"],
                symgrad_norm=result["symgrad_norm"],
                ratio=result["korn_quotient"],
                tangency_residual=result["tangency_residual"],
            )
        )
    slope = None
    if len(rows) >= 2:
        hs = np.array([r.h for r in rows])
        ratios = np.array([r.ratio for r in rows])
        slope = float(np.polyfit(np.log(hs), np.log(ratios), 1)[0])
    return BlowupTable(rows=rows, slope=slope)
