"""Child process of the benchmark: set up one workload, run its passes,
check every report, and write the measurements to a JSON file.

Run by ``run.py`` as ``python -m perfbench.worker`` from the checkout root,
with ``src`` on ``PYTHONPATH`` and the thread variables already set.  With
``--setup-only`` it stops after set-up, so the parent can time set-up
several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench import metrics, spans
from perfbench.workloads import make_items

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KORNLAB_THREADS")


def monotonic() -> float:
    """Clock shared with the parent process, for set-up time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_item(cli, item, report: Path, tracer) -> dict:
    report.unlink(missing_ok=True)
    argv = item.argv + ["--report", str(report)]
    error = None
    root = tracer.span("cli", "main") if tracer is not None and tracer.active else None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # an item that crashes counts as failed; the run goes on
        code, error = None, traceback.format_exc(limit=3)
    finally:
        dt = time.perf_counter() - t0
        if root is not None:
            tracer.close(root)
    fails = []
    result = None
    if error is not None:
        fails.append(f"raised: {error.strip().splitlines()[-1]}")
    elif code != 0:
        fails.append(f"exit code {code}")
    elif not report.exists():
        fails.append("no report written")
    else:
        payload = json.loads(report.read_text())
        if payload.get("command") != item.command:
            fails.append(f"report command {payload.get('command')!r}")
        else:
            result = payload["result"]
            fails.extend(item.gate(result))
    out = {"label": item.label, "dt": dt, "failures": fails}
    if result is not None and item.command == "korn" and "dirichlet" in item.argv:
        out["kappa_sq_deficit"] = 2.0 - result["kappa_sq_final"]
    return out


def layer_metrics(recorded: list, items: list[dict]) -> dict:
    """Per-layer values of one traced pass: summed self times per layer
    metric, and the span counts combined as ``metrics.SPAN_COUNTS`` says."""
    counts = {name for name, _ in metrics.SPAN_COUNTS.values()}
    values = {name: 0 if name in counts else 0.0 for name in metrics.PER_LAYER}
    selfs = spans.self_times(recorded)
    gathered: dict[str, list] = {}
    for s in recorded:
        values[metrics.time_metric(s.layer, s.name)] += selfs[s.sid]
        for key, v in s.counts.items():
            gathered.setdefault(key, []).append(v)
    for key, vs in gathered.items():
        name, combine = metrics.SPAN_COUNTS[key]
        values[name] = combine(vs)
    deficits = [it["kappa_sq_deficit"] for it in items if "kappa_sq_deficit" in it]
    values["kornfem.kappa_sq_deficit"] = max(deficits) if deficits else 0.0
    return values


def pass_schedule(traced: bool):
    """Modes of successive passes.  A traced run alternates traced (T) and
    untraced (U) passes as T U U T T U U T ..., so slow drift over the run
    affects both sides alike."""
    i = 0
    while True:
        yield traced and (i % 4 in (0, 3))
        i += 1


def enough_passes(passes: list[dict], traced_run: bool) -> bool:
    """A run may stop after one pass, or in a traced run after two traced
    passes (to compare their counts) and one untraced pass."""
    n_traced = sum(p["traced"] for p in passes)
    if traced_run:
        return n_traced >= 2 and len(passes) > n_traced
    return len(passes) >= 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    threads_seen = {var: os.environ.get(var) for var in THREAD_VARS}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install_third_party(tracer)

    import numpy
    import scipy
    import scipy.fft
    import scipy.sparse.linalg  # noqa: F401

    import kornlab
    from kornlab import cli, gridfield, kornfem, mat2, rigidity, shells  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(kornlab.__file__).resolve().parents:
        sys.stderr.write(f"kornlab imported from {kornlab.__file__}, not from {src}\n")
        return 2
    if tracer is not None:
        spans.install_kornlab(tracer)

    workdir = ROOT / "perfbench" / "out" / args.workload
    items = make_items(args.workload, args.seed, workdir)
    ready = monotonic()
    out = Path(args.out)
    if args.setup_only:
        out.write_text(json.dumps({"ready": ready}))
        return 0

    passes = []
    item_walls = {}  # traced item id -> its time as run_item measured it
    start = time.perf_counter()
    item_id = 0
    for traced in pass_schedule(bool(args.trace)):
        if enough_passes(passes, bool(args.trace)):
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall"] > args.seconds:
                break
        if tracer is not None:
            tracer.active = traced
            first_span = len(tracer.spans)
        results = []
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = item_id
            results.append(run_item(cli, item, workdir / f"item-{k}.json", tracer))
            if traced:
                item_walls[item_id] = results[-1]["dt"]
            item_id += 1
        record = {"traced": traced, "wall": sum(r["dt"] for r in results), "items": results}
        if traced:
            tracer.active = False
            record["layers"] = layer_metrics(tracer.spans[first_span:], results)
        passes.append(record)

    payload = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "kornlab": kornlab.__version__},
        "threads_seen": threads_seen,
    }
    if tracer is not None:
        payload["trace_problems"] = spans.check_consistency(tracer.spans, item_walls)
        trace_file = out.with_name(out.stem + "-spans.json")
        trace_file.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
        payload["trace_file"] = str(trace_file)
        tracer.uninstall()
    out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
