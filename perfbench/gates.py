"""Output gates: each takes the ``result`` block of a CLI report and returns
the list of failed checks (empty when the output is correct).

The tolerances are the ones ``tests/test_acceptance.py`` pins, plus one
accuracy floor for the Dirichlet sweep (see ``DIRICHLET_DEFICIT_MAX``).
"""

from __future__ import annotations

import math

#: 2 - kappa^2 at the finest level of ``korn --bc dirichlet --refine 5``
#: measured on the seed code (levels 1-6, 7938 dofs): 3.0568e-4.  The
#: value is deterministic; a solver that stops earlier reports a lower
#: kappa^2.  The gate allows 10% on top of the seed value.
DIRICHLET_DEFICIT_SEED = 3.0568e-4
DIRICHLET_DEFICIT_MAX = 1.10 * DIRICHLET_DEFICIT_SEED


def angle_distance(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _nondecreasing(seq: list[float]) -> bool:
    return all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))


def dirichlet(result: dict) -> list[str]:
    seq = result["kappa_sq_sequence"]
    fails = []
    if not all(v <= 2.0 + 1e-12 for v in seq):
        fails.append(f"kappa_sq above 2 + 1e-12: {max(seq)!r}")
    if not seq[-1] >= 1.95:
        fails.append(f"final kappa_sq {seq[-1]!r} below 1.95")
    if not 2.0 - seq[-1] <= DIRICHLET_DEFICIT_MAX:
        fails.append(f"final 2 - kappa_sq {2.0 - seq[-1]!r} above {DIRICHLET_DEFICIT_MAX!r}")
    return fails


def square_tangential(result: dict) -> list[str]:
    seq = result["kappa_sq_sequence"]
    fails = []
    if not 1.90 <= seq[-1] <= 2.0 + 1e-9:
        fails.append(f"final kappa_sq {seq[-1]!r} outside [1.90, 2 + 1e-9]")
    if not _nondecreasing(seq):
        fails.append("kappa_sq sequence decreases")
    return fails


def rotational(result: dict, deflated_from: int = 1) -> list[str]:
    """Disk and annulus sweeps: every level detects the rotation, and levels
    ``deflated_from`` and up deflate it.  Level 1 of the disk is a hexagon
    whose rotation is not admissible, so the disk passes ``deflated_from=2``
    (as in acceptance criterion 9); the annulus deflates at every level.
    The meshes are not nested, so ``monotone_nondecreasing`` is not gated."""
    fails = []
    levels = result["levels"]
    for i, level in enumerate(levels):
        if level["l_omega"]["kind"] != "rotational":
            fails.append(f"level {i + 1}: l_omega kind {level['l_omega']['kind']!r}")
        if i + 1 >= deflated_from and level["deflated_rotation"] is not True:
            fails.append(f"level {i + 1}: rotation not deflated")
    return fails


def rigidity(result: dict, r0: float) -> list[str]:
    fails = []
    for key in ("ratio", "ratio_at_theta0"):
        if not abs(result[key] - 1.0) <= 1e-3:
            fails.append(f"|{key} - 1| = {abs(result[key] - 1.0)!r} above 1e-3")
    plancherel = abs(result["g_norm"] / result["f_norm"] - 1.0)
    if not plancherel <= 1e-10:
        fails.append(f"Plancherel error {plancherel!r} above 1e-10")
    if not result["curl_residual"] <= 1e-8:
        fails.append(f"curl residual {result['curl_residual']!r} above 1e-8")
    angle = angle_distance(result["optimal_theta"], r0)
    if not angle <= 1e-6:
        fails.append(f"optimal angle {angle!r} away from r0")
    return fails


def shell(result: dict) -> list[str]:
    slope = result["slope"]
    if slope is None or not abs(slope + 1.0) <= 0.15:
        return [f"blow-up slope {slope!r} outside -1 +- 0.15"]
    return []
