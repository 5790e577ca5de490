"""The CLI exit-code contract, fuzzed.

Configs are drawn from the option tables, each key valid, hostile or absent,
and passed through ``--config``.  ``main`` must never raise, must return 0,
2, 3 or 4 (``selftest`` may return 1 only with the determinant constant
broken), and every report it writes must be strict JSON.
"""

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kornlab.cli import OPTIONS, main
from kornlab.gridfield import PeriodicGrid, save_field
from kornlab.mesh import unit_square
from kornlab.rigidity import dipole_bump

from helpers import save_mesh

#: Wrong types and booleans, digit and float strings, extreme and non-finite
#: numbers, negative and huge sizes, and the empty string.
HOSTILE = [None, True, False, [], {}, [1.0, 2.0, 3.0], "x", "", "2", "40", "1.5", "1e300",
           "nan", "-inf", 1e300, -1e300, float("nan"), float("inf"), -1, 0, 10**12, 10**400]

#: Valid values that keep a run cheap.
SMALL = {
    "refine": [0, 1, 2], "n": [16, 64], "angular": [16, 128], "radial": [1, 2],
    "samples": [1, 200], "seed": [0, 7], "tol": [1e-10, "1e-6"], "amplitude": [0.4, "1.0"],
    "box": [20.0, 24], "width": [0.5, 0.8], "center": ["1.25,0", [0.0, 0.5]],
    "r0": [0.0, 1.0472], "h_list": ["0.1,0.05", [0.1]], "profile": ["0.2+0.05*cos(3t)", "0.2"],
}

#: Keys never left out: the defaults of the sizes are full-size runs, and the
#: report is read back.
ALWAYS = {"refine", "n", "angular", "radial", "samples", "report"}

#: (command, examples); a valid selftest run takes about a second.
COMMANDS = [("korn", 100), ("rigidity", 150), ("shell", 100), ("selftest", 25)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid values of the path keys: small input files and output paths."""
    root = tmp_path_factory.mktemp("contract")
    save_mesh(unit_square(4), root / "mesh.json")
    save_field(dipole_bump(PeriodicGrid(64, 20.0)), root / "alpha.json")
    (root / "coeffs.json").write_text(json.dumps({"cos": {"0": 0.2, "2": 0.05}}))
    return {
        "mesh_file": [str(root / "mesh.json"), str(root / "absent.json")],
        "alpha_file": [str(root / "alpha.json")],
        "coeffs": [str(root / "coeffs.json")],
        "csv": [str(root / "table.csv")],
        "report": [str(root / "report.json")],
        "root": root,
    }


def draw_config(data, command: str, files: dict) -> dict:
    table = OPTIONS[command]
    file_keys = {opt.fixed_by for opt in table.values()}
    # at most two hostile keys, so that a defect behind the first refusal shows
    hostile_keys = data.draw(st.sets(st.sampled_from(sorted(table)), max_size=2))
    config = {}
    # file keys first, so that a size they fix may be left out
    for key in sorted(table, key=lambda key: key not in file_keys):
        opt = table[key]
        if isinstance(opt.kind, tuple):
            valid = list(opt.kind)
        elif opt.kind is bool:
            valid = [True, False]
        else:
            valid = {**SMALL, **files}[key]
        if key in hostile_keys:
            valid = HOSTILE + ([opt.hi + 1] if isinstance(opt.hi, int) else [])
        elif key not in ALWAYS or opt.fixed_by in config:
            valid = [None, *valid]  # None: left out
        value = data.draw(st.sampled_from(valid), label=key)
        if value is not None or key in hostile_keys:
            config[key] = value
    return config


def strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, examples", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_exit_code_contract(files, monkeypatch, command, examples):
    # a hostile string such as "x" is a valid output path, relative to here
    monkeypatch.chdir(files["root"])

    @settings(max_examples=examples, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        config = draw_config(data, command, files)
        Path("config.json").write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on extreme inputs
            code = main([command, "--config", "config.json"])
        broken = command == "selftest" and config.get("break_det_constant") is True
        assert code in ({0, 1, 2, 3, 4} if broken else {0, 2, 3, 4})
        if code in (0, 1):  # the run has just written its report
            strict_json(Path(config["report"]).read_text())

    check()
