"""kornlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload korn-dirichlet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; kornlab is imported from ``src``.
Each workload runs in a fresh child process (``perfbench/worker.py``) whose
environment sets the BLAS/OpenMP/kornlab thread variables to ``nproc``.
Items run one after another (a closed loop with one client) for about
``--seconds`` seconds.  Set-up is timed in several extra child launches.

With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of the
traced passes.  Human-readable lines before it give each metric's median,
quartiles and sample count, the failure rate and the machine.  The exit
code is 0 only when every item passed its output gate (and, when traced,
the trace is consistent).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.worker import THREAD_VARS, monotonic  # noqa: E402

#: Child launches per untraced run that time set-up (the measured child is
#: one).  Each costs about 0.5 s; the median of many damps slow phases of
#: the machine and cold imports.
SETUP_SAMPLES = 15
#: A run, set-up launches included, must end well inside 180 s.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def machine() -> dict:
    """CPU model and cache sizes from lscpu, read only."""
    info = {"nproc": len(os.sched_getaffinity(0))}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return info
    for key, label in (("Model name", "cpu"), ("L1d cache", "l1d"), ("L2 cache", "l2"),
                       ("L3 cache", "l3")):
        m = re.search(rf"^{key}:\s*(.+)$", text, re.MULTILINE)
        if m:
            info[label] = m.group(1).strip()
    return info


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def launch(args, out: Path, env: dict, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one worker child; returns its JSON output and its launch time."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    out.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next child")
    launched = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text()), launched


def run_workload(args, env: dict, deadline: float) -> dict:
    """Measure one workload; returns a summary with the final metrics."""
    outdir = ROOT / "perfbench" / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = 0 if args.trace else SETUP_SAMPLES - 1

    def setup_only() -> float:
        data, launched = launch(args, outdir / f"{stem}-setup.json", env, deadline, True)
        return data["ready"] - launched

    # Set-up launches before and after the measured child, so that they
    # sample the machine at both ends of the run.
    setups = [setup_only() for _ in range(extra // 2)]
    data, launched = launch(args, outdir / f"{stem}.json", env, deadline, False)
    setups.append(data["ready"] - launched)
    setups += [setup_only() for _ in range(extra - extra // 2)]

    passes = data["passes"]
    items = [it for p in passes for it in p["items"]]
    failed = [it for it in items if it["failures"]]
    problems = list(data.get("trace_problems", []))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "attempted": len(items), "failed": len(failed), "data": data}
    untraced = [p["wall"] for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {}
        for name in metrics.PER_LAYER:
            vals = [p["layers"][name] for p in traced]
            if name in metrics.EXACT_COUNTS and len(set(vals)) > 1:
                problems.append(f"{name} differs between traced passes: {vals}")
            exact = name in metrics.EXACT_COUNTS
            layers[name] = vals[0] if exact else statistics.median(vals)
        layers["trace.overhead_s"] = (statistics.median([p["wall"] for p in traced])
                                      - statistics.median(untraced))
        summary["samples"] = {name: [p["layers"][name] for p in traced]
                              for name in traced[0]["layers"]}
        summary["metrics"] = layers
    else:
        summary["samples"] = {
            "wall_s": untraced,
            "setup_s": setups,
            "peak_rss_mb": [data["peak_rss_mb"]],
            "item_dt": [it["dt"] for it in items],
        }
        summary["metrics"] = {
            "wall_s": sum(untraced) / len(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": data["peak_rss_mb"],
            "item_p90_s": percentile90([it["dt"] for it in items]),
        }
    summary["problems"] = problems
    summary["failures"] = [f"{it['label']}: {'; '.join(it['failures'])}" for it in failed]
    deficits = [it["kappa_sq_deficit"] for it in items if "kappa_sq_deficit" in it]
    if deficits:
        summary["kappa_sq_deficit"] = deficits
    summary["correct"] = not failed and not problems
    (outdir / f"{stem}-summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def print_summary(s: dict, env_info: dict) -> None:
    data = s["data"]
    print(f"== {s['workload']}  seed {s['seed']}  trace {s['trace']}: "
          f"{len(data['passes'])} passes, {s['attempted']} items")
    threads = " ".join(f"{k}={v}" for k, v in data["threads_seen"].items())
    caches = " ".join(f"{k}={env_info[k]}" for k in ("l1d", "l2", "l3") if k in env_info)
    versions = " ".join(f"{k}={v}" for k, v in data["versions"].items())
    print(f"   machine: nproc={env_info['nproc']} cpu={env_info.get('cpu', '?')!r} {caches}")
    print(f"   versions: {versions}; child threads: {threads}")
    if s["trace"]:
        for name, value in s["metrics"].items():
            samples = s["samples"].get(name, [])
            print(f"   {name:26s} {value!r:>24} {metrics.UNITS[name]:6s} n={len(samples)}  "
                  f"-> {metrics.MOVES[name]}")
        syntheses = s["metrics"]["rigidity.syntheses"]
        if syntheses:
            per = {k: s["metrics"][f"gridfield.{k}"] / syntheses
                   for k in ("fft_calls", "fft_planes", "curl_checks")}
            print(f"   per synthesis: {per['fft_calls']:g} 2-D FFT calls, "
                  f"{per['fft_planes']:g} FFT planes, {per['curl_checks']:g} curl checks")
    else:
        for name in metrics.END_TO_END:
            unit = metrics.UNITS[name]
            samples = s["samples"]["item_dt" if name == "item_p90_s" else name]
            q1, q2, q3 = quartiles(samples)
            print(f"   {name:12s} {s['metrics'][name]!r:>22} {unit:3s} "
                  f"(samples: median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"n={len(samples)})")
    rate = s["failed"] / s["attempted"]
    print(f"   fail_rate    {rate!r} ({s['failed']} of {s['attempted']} items)")
    if "kappa_sq_deficit" in s:
        print(f"   kappa_sq_deficit {max(s['kappa_sq_deficit'])!r} (2 - kappa^2, finest level)")
    for line in s["failures"] + s["problems"]:
        print(f"   FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*metrics.WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kornlab" / "__init__.py").is_file():
        sys.stderr.write(f"no kornlab sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    env_info = machine()
    env = child_env(env_info["nproc"])
    names = metrics.WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            summaries.append(run_workload(one, env, deadline))
        except BenchError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        print_summary(summaries[-1], env_info)

    if len(summaries) == 1:
        values = summaries[0]["metrics"]
    else:
        values = {f"{s['workload']}:{k}": v for s in summaries for k, v in s["metrics"].items()}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k.rsplit(":", 1)[-1]]}
                    for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
