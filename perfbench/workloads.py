"""Workload definitions: the CLI items of one pass, generated from a seed.

A pass is the list of items a workload sends through ``kornlab.cli.main``
one after another (a closed loop with one client).  Each item writes a JSON
report, which the worker reads back and checks with the item's gate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import gates

#: Shell profiles are drawn with their range strictly inside (0, 1/3).
SHELL_HARMONICS = (2, 3, 4)


@dataclass
class Item:
    label: str
    argv: list[str]       # CLI arguments without --report
    command: str          # expected ``command`` field of the report
    gate: object          # result dict -> list of failed checks


def _korn(label: str, args: list[str], gate) -> Item:
    return Item(label, ["korn", *args], "korn", gate)


def shell_coeffs(rng: random.Random) -> dict:
    """A smooth profile g = c0 + a cos(k1 t) + b sin(k2 t) with values in
    (0, 1/3): the harmonics take at most 90% of the room c0 leaves."""
    c0 = rng.uniform(0.12, 0.21)
    room = 0.9 * min(c0, 1.0 / 3.0 - c0)
    k1, k2 = rng.sample(SHELL_HARMONICS, 2)
    share = rng.uniform(0.3, 0.7)
    return {"cos": {"0": c0, str(k1): share * room},
            "sin": {str(k2): -(1.0 - share) * room}}


def rigidity_params(rng: random.Random) -> dict:
    """Dipole inputs inside the compact-support convention at L = 20:
    width <= 0.8 and lobe offset <= 1.5 keep the margin mass far below
    the 1e-10 bound of ``assert_compact_support``."""
    radius = rng.uniform(0.9, 1.5)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "amplitude": rng.uniform(0.5, 1.5),
        "width": rng.uniform(0.5, 0.8),
        "center": (radius * math.cos(phi), radius * math.sin(phi)),
        "r0": rng.uniform(-math.pi, math.pi),
    }


def _rigidity(label: str, n: int, params: dict | None, r0: float) -> Item:
    argv = ["rigidity", f"--n={n}", f"--r0={r0!r}"]
    if params is not None:
        cx, cy = params["center"]
        argv += [f"--amplitude={params['amplitude']!r}", f"--width={params['width']!r}",
                 f"--center={cx!r},{cy!r}"]
    return Item(label, argv, "rigidity", partial(gates.rigidity, r0=r0))


def korn_dirichlet(rng: random.Random, workdir: Path) -> list[Item]:
    return [_korn("square-dirichlet",
                  ["--domain", "square", "--bc", "dirichlet", "--refine", "5"],
                  gates.dirichlet)]


def korn_slip_geometry(rng: random.Random, workdir: Path) -> list[Item]:
    coeffs = workdir / "shell-coeffs.json"
    coeffs.write_text(json.dumps(shell_coeffs(rng), sort_keys=True) + "\n")
    return [
        _korn("square-slip", ["--domain", "square", "--refine", "6"], gates.square_tangential),
        _korn("disk-slip", ["--domain", "disk", "--refine", "4"],
              partial(gates.rotational, deflated_from=2)),
        _korn("annulus-slip", ["--domain", "annulus", "--refine", "3"], gates.rotational),
        Item("shell", ["shell", "--coeffs", str(coeffs), "--angular", "8192"], "shell",
             gates.shell),
    ]


def rigidity_large(rng: random.Random, workdir: Path) -> list[Item]:
    return [_rigidity("dipole-2048", 2048, None, 1.0472)]


def rigidity_batch(rng: random.Random, workdir: Path) -> list[Item]:
    items = []
    for i in range(32):
        params = rigidity_params(rng)
        items.append(_rigidity(f"dipole-256-{i}", 256, params, params["r0"]))
    return items


WORKLOADS = {
    "korn-dirichlet": korn_dirichlet,
    "korn-slip-geometry": korn_slip_geometry,
    "rigidity-large": rigidity_large,
    "rigidity-batch": rigidity_batch,
}


def make_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Items of one pass; the same (workload, seed) gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng, workdir)
