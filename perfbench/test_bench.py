"""Tests of the benchmark itself: output gates, seeded inputs, span
accounting and the refusal to run without sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import subprocess
import sys
import time
import types
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import gates, spans, workloads  # noqa: E402

# Results as the seed code reports them (values rounded where the gate
# does not depend on the digits).
DIRICHLET_OK = {"kappa_sq_sequence": [1.6, 1.90671688, 1.97901242, 1.99494295,
                                      1.99876172, 1.999694322688007],
                "kappa_sq_final": 1.999694322688007}
SQUARE_OK = {"kappa_sq_sequence": [2.0, 1.9999999999999996, 2.0000000000000013,
                                   1.999999999999997, 2.0000000000000004],
             "kappa_sq_final": 2.0000000000000004}


def _level(kind="rotational", deflated=True):
    return {"l_omega": {"kind": kind}, "deflated_rotation": deflated}


DISK_OK = {"levels": [_level(deflated=False)] + [_level() for _ in range(4)]}
ANNULUS_OK = {"levels": [_level() for _ in range(4)]}
disk_gate = partial(gates.rotational, deflated_from=2)
RIGIDITY_R0 = 1.0472
RIGIDITY_OK = {"ratio": 1.0, "ratio_at_theta0": 1.0000000000000002,
               "f_norm": 1.8762841308720684, "g_norm": 1.8762841308720686,
               "curl_residual": 7.9e-15, "optimal_theta": RIGIDITY_R0 + 2 * math.pi}
SHELL_OK = {"slope": -1.0127205495770366}


def _set(path, value):
    def mutate(result):
        target = result
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


GATE_CASES = [
    # (gate, good result, mutation that must be rejected)
    (gates.dirichlet, DIRICHLET_OK, _set(["kappa_sq_sequence", 2], 2.0 + 1e-11)),
    (gates.dirichlet, DIRICHLET_OK, _set(["kappa_sq_sequence", 5], 1.949)),
    (gates.dirichlet, DIRICHLET_OK, _set(["kappa_sq_sequence", 5], 1.9996)),
    (gates.square_tangential, SQUARE_OK, _set(["kappa_sq_sequence", 4], 1.899)),
    (gates.square_tangential, SQUARE_OK, _set(["kappa_sq_sequence", 4], 2.0 + 1e-8)),
    (gates.square_tangential, SQUARE_OK, _set(["kappa_sq_sequence", 2], 2.001)),
    (disk_gate, DISK_OK, _set(["levels", 3, "l_omega", "kind"], "trivial")),
    (disk_gate, DISK_OK, _set(["levels", 0, "l_omega", "kind"], "trivial")),
    (disk_gate, DISK_OK, _set(["levels", 1, "deflated_rotation"], False)),
    (gates.rotational, ANNULUS_OK, _set(["levels", 0, "deflated_rotation"], False)),
    (gates.rotational, ANNULUS_OK, _set(["levels", 2, "l_omega", "kind"], "trivial")),
    (gates.shell, SHELL_OK, _set(["slope"], -0.84)),
    (gates.shell, SHELL_OK, _set(["slope"], None)),
]
RIGIDITY_CASES = [
    ("ratio", 1.0011), ("ratio_at_theta0", 0.9989), ("g_norm", 1.8762841308720686 * (1 + 1e-9)),
    ("curl_residual", 2e-8), ("optimal_theta", RIGIDITY_R0 + 1e-5),
]


@pytest.mark.parametrize("gate, good", [(gates.dirichlet, DIRICHLET_OK),
                                        (gates.square_tangential, SQUARE_OK),
                                        (disk_gate, DISK_OK), (gates.rotational, ANNULUS_OK),
                                        (gates.shell, SHELL_OK)])
def test_gates_accept_seed_results(gate, good):
    assert gate(copy.deepcopy(good)) == []


@pytest.mark.parametrize("case", range(len(GATE_CASES)))
def test_gate_rejects_one_wrong_value(case):
    gate, good, mutate = GATE_CASES[case]
    bad = copy.deepcopy(good)
    mutate(bad)
    assert gate(bad), f"{gate} accepted {bad}"


@pytest.mark.parametrize("key, value", RIGIDITY_CASES)
def test_rigidity_gate_rejects_one_wrong_value(key, value):
    assert gates.rigidity(dict(RIGIDITY_OK), r0=RIGIDITY_R0) == []
    assert gates.rigidity({**RIGIDITY_OK, key: value}, r0=RIGIDITY_R0)


def test_disk_and_annulus_gates_ignore_monotone_flag():
    assert disk_gate({**DISK_OK, "monotone_nondecreasing": False}) == []
    assert gates.rotational({**ANNULUS_OK, "monotone_nondecreasing": False}) == []


def test_slip_workload_exempts_only_the_first_disk_level(tmp_path):
    items = {it.label: it for it in workloads.make_items("korn-slip-geometry", 1, tmp_path)}
    assert items["disk-slip"].gate(copy.deepcopy(DISK_OK)) == []
    assert items["annulus-slip"].gate(copy.deepcopy(DISK_OK))


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------

def test_seeded_inputs_stay_inside_their_documented_ranges():
    from kornlab.gridfield import PeriodicGrid, assert_compact_support
    from kornlab.rigidity import dipole_bump
    from kornlab.shells import ShellSpec

    grid = PeriodicGrid(256, 20.0)
    for seed in range(200):
        rng = random.Random(seed)
        raw = workloads.shell_coeffs(rng)
        ShellSpec(cos_coeffs={int(k): v for k, v in raw["cos"].items()},
                  sin_coeffs={int(k): v for k, v in raw["sin"].items()})  # raises outside (0, 1/3)
        p = workloads.rigidity_params(rng)
        assert p["width"] <= 0.8 and math.hypot(*p["center"]) <= 1.5
        assert_compact_support(dipole_bump(grid, p["amplitude"], p["width"], p["center"]))


def _run_items(items, workdir: Path) -> list[list[str]]:
    from kornlab import cli

    failures = []
    for k, item in enumerate(items):
        report = workdir / f"item-{k}.json"
        assert cli.main(item.argv + ["--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["command"] == item.command
        failures.append(item.gate(payload["result"]))
    return failures


def test_two_seeds_give_different_inputs_that_pass_every_gate(tmp_path):
    argvs = {}
    for seed in (1, 2):
        batch = workloads.make_items("rigidity-batch", seed, tmp_path / f"b{seed}")
        slip = workloads.make_items("korn-slip-geometry", seed, tmp_path / f"s{seed}")
        shell = [it for it in slip if it.command == "shell"]
        argvs[seed] = ([it.argv for it in batch],
                       (tmp_path / f"s{seed}" / "shell-coeffs.json").read_text())
        assert _run_items(batch + shell, tmp_path) == [[]] * (len(batch) + 1)
    assert argvs[1][0] != argvs[2][0]
    assert argvs[1][1] != argvs[2][1]
    again = workloads.make_items("rigidity-batch", 1, tmp_path / "again")
    assert [it.argv for it in again] == argvs[1][0]


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

def _span(sid, parent, start, end, item=0):
    return spans.Span(sid, parent, item, "x", f"s{sid}", start, end)


def test_self_times_subtract_children_and_add_up():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0),
            _span(3, 0, 5.0, 9.0)]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert spans.check_consistency(tree, {0: 10.0}) == []


def test_consistency_check_flags_a_child_outside_its_parent():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 8.0, 11.0)]
    problems = spans.check_consistency(tree, {})
    assert any("outside its parent" in p for p in problems)


def test_consistency_check_compares_self_times_with_measured_item_time():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0)]
    assert any("the item took" in p for p in spans.check_consistency(tree, {0: 10.5}))
    untraced = [_span(0, None, 0.0, 10.0)]
    assert any("the item took" in p for p in spans.check_consistency(untraced, {0: 10.0, 1: 2.0}))


def test_wrapper_records_only_while_active_and_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = spans.Tracer()
    tracer.wrap(mod, "f", "layer", "f", lambda a, k, r: {"calls": 1})
    assert mod.f(1) == 2 and tracer.spans == []
    tracer.active = True
    assert mod.f(2) == 3
    assert [(s.layer, s.name, s.counts) for s in tracer.spans] == [("layer", "f", {"calls": 1})]
    tracer.uninstall()
    assert mod.f is original


def test_traced_synthesis_counts_repeat_exactly():
    from kornlab import mat2, rigidity
    from kornlab.gridfield import PeriodicGrid

    tracer = spans.Tracer()
    spans.install_third_party(tracer)
    spans.install_kornlab(tracer)
    try:
        alpha = rigidity.dipole_bump(PeriodicGrid(64, 20.0))
        tracer.active = True
        walls = {}
        for item in range(2):
            tracer.item = item
            root = tracer.span("cli", "main")
            t0 = time.perf_counter()
            rigidity.synthesize_extremal(alpha, mat2.Rotation(0.5))
            walls[item] = time.perf_counter() - t0
            tracer.close(root)
    finally:
        tracer.uninstall()
    assert spans.check_consistency(tracer.spans, walls) == []
    per_item = [{}, {}]
    for s in tracer.spans:
        for key, v in s.counts.items():
            per_item[s.item][key] = per_item[s.item].get(key, 0) + v
    assert per_item[0] == per_item[1]
    assert per_item[0]["curl_checks"] == 3 and per_item[0]["syntheses"] == 1
    assert per_item[0]["planes"] == 64


# ---------------------------------------------------------------------------
# The command without sources.
# ---------------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "korn-dirichlet",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
