"""Span tracer for the benchmark's traced runs.

Spans are recorded from outside the library: :func:`install_third_party`
and :func:`install_kornlab` replace the module attributes that kornlab looks
up at call time (``kornfem.assemble``, ``numpy.fft.fft2``,
``MatrixField2.row_curl_residual``, ...) with wrappers
that open a span around the original call.  A span holds its layer, name,
start, end, parent span, the id of the CLI item it belongs to, and counts
measured at the boundary (FFT planes, factor fill, iterations, ...).  Spans
stay in memory; the worker writes them out when the run ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

#: Allowed slack between the summed self times of one item and the item's
#: time as the worker measures it with its own clock reads: the root span
#: opens just before and closes just after that measurement.
ITEM_WALL_TOLERANCE_S = 1e-3


@dataclass
class Span:
    sid: int
    parent: int | None
    item: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """Records spans while ``active``; wrappers call straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.item = 0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), parent, self.item, layer, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not s:
            raise RuntimeError(f"span stack out of order at {s.layer}.{s.name}")

    def wrap(self, owner, attr: str, layer: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``measure(args, kwargs, result)`` returns counts stored on the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            s = self.span(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(s)
            if measure is not None:
                s.counts.update(measure(args, kwargs, out))
            return out

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Boundary counts.
# ---------------------------------------------------------------------------

_FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _fft_measure(fname: str):
    """Planes and bytes of a 2-D transform: one plane per n x n slice of the
    input over the two transformed axes (batched leading axes included);
    bytes are input plus output array sizes, as computed, not measured
    memory traffic."""
    default_axes = (-2, -1) if fname.endswith("2") else None

    def measure(args, kwargs, out):
        a = args[0]
        axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
        if axes is None:
            axes = tuple(range(a.ndim))
        counts = {"fft_calls": 1, "planes": 0, "bytes": a.nbytes + out.nbytes}
        if len(axes) == 2:
            counts["planes"] = a.size // (a.shape[axes[0]] * a.shape[axes[1]])
        return counts

    return measure


def install_third_party(tracer: Tracer) -> None:
    """Wrap numpy/scipy entry points.  Call before kornlab is imported, so a
    ``from scipy.fft import rfft2`` inside the library binds the wrapper."""
    import numpy.fft
    import scipy.fft
    import scipy.sparse.linalg

    for module in (numpy.fft, scipy.fft):
        for fname in _FFT_NAMES:
            tracer.wrap(module, fname, "gridfield", "fft", _fft_measure(fname))
    tracer.wrap(scipy.sparse.linalg, "splu", "kornfem", "factor",
                lambda a, k, lu: {"factor_nnz": int(lu.L.nnz + lu.U.nnz)})


def install_kornlab(tracer: Tracer) -> None:
    """Wrap the kornlab functions each layer exposes to its callers."""
    from kornlab import cli, gridfield, kornfem, mat2, rigidity, shells

    def korn_counts(a, k, est):
        return {"iterations": int(est.iterations), "dofs": int(est.dof_count),
                "eig_residual": float(est.eig_residual)}

    def mesh_counts(a, k, mesh):
        return {"vertices": int(len(mesh.vertices))}

    for name in ("cmd_korn", "cmd_rigidity", "cmd_shell"):
        tracer.wrap(cli, name, "cli", name)
    for name in ("unit_square", "disk", "annulus"):
        tracer.wrap(kornfem, name, "mesh", "build", mesh_counts)
    tracer.wrap(kornfem, "korn_sweep", "kornfem", "sweep")
    tracer.wrap(kornfem, "korn_constant", "kornfem", "solve", korn_counts)
    tracer.wrap(kornfem, "assemble", "kornfem", "assemble")
    tracer.wrap(kornfem, "tangential_constraints", "kornfem", "constraints")
    tracer.wrap(kornfem, "dirichlet_constraints", "kornfem", "constraints")
    tracer.wrap(kornfem, "detect_L_omega", "kornfem", "symmetry")
    tracer.wrap(shells, "blowup_experiment", "shells", "self")
    tracer.wrap(shells, "shell_mesh", "shells", "mesh")
    tracer.wrap(shells, "evaluate_field_ratio", "shells", "quadrature")
    tracer.wrap(rigidity, "gaussian_bump", "rigidity", "profile")
    tracer.wrap(rigidity, "dipole_bump", "rigidity", "profile")
    tracer.wrap(rigidity, "synthesize_extremal", "rigidity", "self",
                lambda a, k, r: {"syntheses": 1})
    tracer.wrap(rigidity, "build_f", "rigidity", "lift")
    tracer.wrap(rigidity, "solve_g", "rigidity", "solve_g")
    tracer.wrap(rigidity, "assemble_gradient", "rigidity", "assemble")
    tracer.wrap(rigidity, "rigidity_ratio", "rigidity", "certificate")
    tracer.wrap(rigidity, "potential_from_gradient", "gridfield", "potential")
    tracer.wrap(gridfield.MatrixField2, "row_curl_residual", "gridfield", "curl_check",
                lambda a, k, r: {"curl_checks": 1})
    tracer.wrap(mat2, "dist_so2_arrays", "mat2", "dist")


# ---------------------------------------------------------------------------
# Analysis of recorded spans.
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def check_consistency(spans: list[Span], item_walls: dict[int, float]) -> list[str]:
    """Problems found in a trace.

    Two checks test the tracer itself: a child span outside its parent, and
    a negative self time.  A stack-based tracer with a monotonic clock cannot
    produce either, so they catch bugs in the tracer, not in the timings.
    The third compares each item's summed self times with ``item_walls``,
    the item times measured apart from the spans, and catches spans that do
    not cover the item or an item traced without a root span.
    """
    problems = []
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    roots: dict[int, list[Span]] = {}
    totals: dict[int, float] = {}
    for s in spans:
        if s.parent is None:
            roots.setdefault(s.item, []).append(s)
        else:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end or p.item != s.item:
                problems.append(f"span {s.layer}.{s.name}#{s.sid} lies outside its "
                                f"parent {p.layer}.{p.name}#{p.sid}")
        if selfs[s.sid] < 0.0:
            problems.append(f"span {s.layer}.{s.name}#{s.sid} has self time "
                            f"{selfs[s.sid]:.3e} s")
        totals[s.item] = totals.get(s.item, 0.0) + selfs[s.sid]
    for item, rs in roots.items():
        if len(rs) != 1:
            problems.append(f"item {item} has {len(rs)} root spans")
    for item, wall in item_walls.items():
        total = totals.get(item, 0.0)
        if abs(total - wall) > ITEM_WALL_TOLERANCE_S:
            problems.append(f"item {item}: self times sum to {total:.6f} s, "
                            f"the item took {wall:.6f} s")
    return problems
