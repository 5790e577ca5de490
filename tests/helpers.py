"""Helpers shared by several test modules."""

import json
from pathlib import Path

import numpy as np


def save_mesh(mesh, path) -> None:
    """Write ``mesh`` as the JSON mesh file that ``kornlab.mesh.load_mesh`` reads."""
    payload = {"vertices": mesh.vertices.tolist(), "triangles": mesh.triangles.tolist()}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def divfree_bump():
    """(u_fn, grad_fn) of u = rot(psi) with psi = (x(1-x)y(1-y))^2, a
    polynomial field with div u = 0 that vanishes on the unit square's
    boundary; its continuum Korn quotient there is exactly sqrt(2)."""

    def psi_parts(p):
        x, y = p[:, 0], p[:, 1]
        return x * (1 - x), y * (1 - y), 1 - 2 * x, 1 - 2 * y

    def u_fn(p):
        a, b, da, db = psi_parts(p)
        return np.stack([2 * a**2 * b * db, -2 * a * da * b**2], axis=1)

    def grad_fn(p):
        a, b, da, db = psi_parts(p)
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = 4 * a * da * b * db
        out[:, 0, 1] = 2 * a**2 * (db**2 - 2 * b)
        out[:, 1, 0] = -2 * b**2 * (da**2 - 2 * a)
        out[:, 1, 1] = -4 * a * da * b * db
        return out

    return u_fn, grad_fn
