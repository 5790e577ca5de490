"""Metric definitions.  Names, units and directions of the workloads and
metrics come from ``BENCHMARK.json`` at the checkout root; this module adds
only what that file cannot hold.

Each per-layer metric names the end-to-end metric and workload it should
move, written down before any optimisation is measured against it.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "cli.self_s": "wall_s and item_p90_s on rigidity-batch",
    "mesh.build_s": "wall_s on korn-slip-geometry",
    "mesh.vertices": "wall_s on korn-slip-geometry (context: problem size)",
    "kornfem.sweep_s": "wall_s on korn-slip-geometry (prolongation between levels)",
    "kornfem.assemble_s": "wall_s on korn-slip-geometry",
    "kornfem.constraints_s": "wall_s on korn-slip-geometry",
    "kornfem.symmetry_s": "wall_s on korn-slip-geometry",
    "kornfem.factor_s": "wall_s on korn-slip-geometry",
    "kornfem.factor_nnz": "peak_rss_mb on korn-slip-geometry",
    "kornfem.solve_s": "wall_s on korn-dirichlet",
    "kornfem.iterations": "wall_s on korn-dirichlet",
    "kornfem.eig_residual_max":
        "the Dirichlet accuracy gate (kornfem.kappa_sq_deficit) on korn-dirichlet",
    "kornfem.kappa_sq_deficit":
        "the Dirichlet accuracy gate on korn-dirichlet (2 - kappa^2 at the finest level)",
    "kornfem.dofs": "nothing: a context count that must not change",
    "shells.mesh_s": "wall_s on korn-slip-geometry",
    "shells.quadrature_s": "wall_s on korn-slip-geometry",
    "shells.self_s": "wall_s on korn-slip-geometry",
    "gridfield.fft_calls": "wall_s on rigidity-batch (per-call overhead)",
    "gridfield.fft_planes": "wall_s on rigidity-large and rigidity-batch",
    "gridfield.fft_s": "wall_s on rigidity-large and rigidity-batch",
    "gridfield.fft_bytes": "peak_rss_mb on rigidity-large",
    "gridfield.curl_checks": "wall_s on rigidity-large",
    "gridfield.curl_check_s": "wall_s on rigidity-large",
    "gridfield.potential_s": "wall_s on rigidity-large",
    "rigidity.profile_s": "wall_s and item_p90_s on rigidity-batch",
    "rigidity.lift_s": "wall_s on rigidity-large, item_p90_s on rigidity-batch",
    "rigidity.solve_g_s": "wall_s on rigidity-large, item_p90_s on rigidity-batch",
    "rigidity.assemble_s": "wall_s on rigidity-large, item_p90_s on rigidity-batch",
    "rigidity.certificate_s": "wall_s on rigidity-large, item_p90_s on rigidity-batch",
    "rigidity.self_s": "wall_s on rigidity-large, item_p90_s on rigidity-batch",
    "rigidity.syntheses": "nothing: context count, one per rigidity item",
    "mat2.dist_s": "wall_s on rigidity-batch",
    "trace.overhead_s": "nothing: traced minus untraced pass wall time",
}

#: Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = ("mesh.vertices", "kornfem.factor_nnz", "kornfem.iterations", "kornfem.dofs",
                "gridfield.fft_calls", "gridfield.fft_planes", "gridfield.fft_bytes",
                "gridfield.curl_checks", "rigidity.syntheses")

#: Span count key -> per-layer metric, and how values of one pass combine.
SPAN_COUNTS = {
    "vertices": ("mesh.vertices", sum),
    "factor_nnz": ("kornfem.factor_nnz", sum),
    "iterations": ("kornfem.iterations", sum),
    "dofs": ("kornfem.dofs", sum),
    "eig_residual": ("kornfem.eig_residual_max", max),
    "fft_calls": ("gridfield.fft_calls", sum),
    "planes": ("gridfield.fft_planes", sum),
    "bytes": ("gridfield.fft_bytes", sum),
    "curl_checks": ("gridfield.curl_checks", sum),
    "syntheses": ("rigidity.syntheses", sum),
}


def time_metric(layer: str, name: str) -> str:
    """Per-layer time metric a span's self time is added to."""
    return "cli.self_s" if layer == "cli" else f"{layer}.{name}_s"
