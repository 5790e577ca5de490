"""Helpers shared by several test modules."""

import json
from pathlib import Path


def save_mesh(mesh, path) -> None:
    """Write ``mesh`` as the JSON mesh file that ``kornlab.mesh.load_mesh`` reads."""
    payload = {"vertices": mesh.vertices.tolist(), "triangles": mesh.triangles.tolist()}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")
