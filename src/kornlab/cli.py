"""Batch command-line front end.

Subcommands::

    kornlab korn      FEM Korn-constant estimation (refinement sweep or mesh file)
    kornlab rigidity  synthesize and certify an extremal rigidity field
    kornlab shell     thin-shell blow-up experiment (CSV table + JSON summary)
    kornlab selftest  run the cross-module invariant suites

Every subcommand accepts ``--config FILE`` (flat JSON; explicit flags win)
and writes a JSON report embedding the exact configuration and the library
version.  Reports are deterministic for a fixed (config, seed) apart from
the timestamp field.  Exit codes: 0 success, 2 invalid input, 3 mathematical
degeneracy, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4


def _apply_thread_cap() -> None:
    cap = os.environ.get("KORNLAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _report_envelope(command: str, config: dict, result: dict) -> dict:
    from . import __version__

    return {
        "command": command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": config,
        "result": result,
    }


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    return json.loads(Path(path).read_text())


def _load(loader, path, what: str):
    """``loader(path)``; a missing, unreadable or non-JSON file is invalid input."""
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _merge_config(args: argparse.Namespace, parser_keys: set[str]) -> dict:
    """Flat-JSON config with CLI-flag override precedence."""
    config = {}
    if args.config:
        loaded = _load(_read_json, args.config, "config file")
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = set(loaded) - parser_keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if not _flag_accepts(args.flags[key], value):
                raise ValueError(f"config key {key!r}: invalid value {value!r}")
        config.update(loaded)
    for key in parser_keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _flag_accepts(action: argparse.Action, value) -> bool:
    """Whether a config value is one its flag accepts: a JSON integer or a
    digit string for an integer flag, a value its ``type`` converts for any
    other typed flag, a string (one of the ``choices``, if any) for a text
    flag, a boolean for a switch and for no other flag; ``center`` may be two
    numbers, ``h_list`` a list."""
    if isinstance(value, list) and all(type(x) in (int, float) for x in value):
        if action.dest == "h_list" or (action.dest == "center" and len(value) == 2):
            return True
    if action.const is not None:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.type is int:
        # int() would truncate 1.9 and accept true; neither is an integer
        return type(value) is int or (isinstance(value, str)
                                      and re.fullmatch(r"[0-9]+", value) is not None)
    if action.type is None:
        return isinstance(value, str) and (action.choices is None or value in action.choices)
    try:
        action.type(value)
    except (TypeError, ValueError):
        return False
    return True


def _finite(config: dict, key: str) -> float:
    """``config[key]`` as a float; non-finite values are invalid input."""
    value = float(config[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {config[key]!r}")
    return value


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]


def _parse_pair(text: str) -> tuple[float, float]:
    vals = _parse_float_list(text)
    if len(vals) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return vals[0], vals[1]


_TERM_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d*\.?\d+(?:[eE][+-]?\d+)?)\s*\*?)?\s*"
    r"(?:(?P<fn>cos|sin)\(\s*(?P<k>\d*)\s*\*?\s*t\s*\))?\s*$"
)


def parse_profile(text: str) -> tuple[dict[int, float], dict[int, float]]:
    """Parse profiles like ``0.2 + 0.05*cos(3t) - 0.1*sin(2*t)`` into
    cosine/sine coefficient maps."""
    cos_coeffs: dict[int, float] = {}
    sin_coeffs: dict[int, float] = {}
    # split before each sign, except the sign of an exponent such as 1e-3
    pieces = [p for p in re.split(r"(?<![\d.][eE])(?=[+-])", text.replace(" ", "")) if p]
    if not pieces:
        raise ValueError(f"empty profile {text!r}")
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group("coeff") is None and m.group("fn") is None):
            raise ValueError(f"cannot parse profile term {piece!r}")
        coeff = (-1.0 if m.group("sign") == "-" else 1.0) * (
            float(m.group("coeff")) if m.group("coeff") else 1.0
        )
        if m.group("fn") is None:
            cos_coeffs[0] = cos_coeffs.get(0, 0.0) + coeff
        else:
            k = int(m.group("k")) if m.group("k") else 1
            target = cos_coeffs if m.group("fn") == "cos" else sin_coeffs
            target[k] = target.get(k, 0.0) + coeff
    return cos_coeffs, sin_coeffs


def _coeff_map(terms, part: str) -> dict[int, float]:
    """The ``part`` ("cos" or "sin") of a coeffs file as {wavenumber: coefficient}."""
    if not isinstance(terms, dict):
        raise ValueError(f"coeffs file: {part!r} must be an object {{k: c}}, got {terms!r}")
    try:
        return {int(k): float(c) for k, c in terms.items()}
    except TypeError as exc:
        raise ValueError(f"coeffs file: {part!r} coefficients must be numbers: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_korn(args: argparse.Namespace) -> int:
    keys = {"domain", "refine", "bc", "tol", "mesh_file", "store_maximizer", "report"}
    config = _merge_config(args, keys)
    if config.get("mesh_file"):
        unused = [key for key in ("domain", "refine") if key in config]
        if unused:
            raise ValueError(f"{', '.join(unused)}: not used with mesh_file, "
                             "whose mesh sets the domain and the level")
    else:
        config.setdefault("domain", "square")
        config.setdefault("refine", 5)
        if int(config["refine"]) < 0:
            raise ValueError(f"refine must be a non-negative integer, got {config['refine']}")
    config.setdefault("bc", "tangential")
    config.setdefault("tol", 1e-10)
    config.setdefault("store_maximizer", False)
    tol = _finite(config, "tol")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {config['tol']!r}")

    from . import kornfem
    from .mesh import load_mesh

    if config.get("mesh_file"):
        mesh = _load(load_mesh, config["mesh_file"], "mesh file")
        estimates = [kornfem.korn_constant(mesh, bc=config["bc"], tol=tol)]
    else:
        # level 1 upward: level-0 stock meshes have no admissible fields
        levels = list(range(1, int(config["refine"]) + 2))
        estimates = kornfem.korn_sweep(config["domain"], levels, bc=config["bc"], tol=tol)
    seq = [est.kappa_sq for est in estimates]
    # Only the structured square meshes refine into nested spaces, where the
    # sequence must not decrease; elsewhere monotonicity is not expected.
    nested = not config.get("mesh_file") and config["domain"] == "square"
    monotone = all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))
    result = {
        "levels": [est.to_dict(include_maximizer=config["store_maximizer"]) for est in estimates],
        "kappa_sq_sequence": seq,
        "kappa_sq_final": seq[-1],
        "nested": nested,
        "monotone_nondecreasing": monotone if nested else None,
    }
    _write_report(config.get("report"), _report_envelope("korn", config, result))
    return EXIT_OK


#: Settings of the built-in angle profiles and their grid; an alpha file
#: brings its own field and grid, so none of them applies to it.
_PROFILE_KEYS = ("profile", "amplitude", "width", "center", "n", "box")


def cmd_rigidity(args: argparse.Namespace) -> int:
    keys = {"profile", "amplitude", "width", "center", "alpha_file", "r0",
            "n", "box", "report"}
    config = _merge_config(args, keys)
    config.setdefault("r0", 0.0)
    r0 = _finite(config, "r0")

    from . import rigidity
    from .gridfield import PeriodicGrid, ScalarField, load_field
    from .mat2 import Rotation

    if config.get("alpha_file"):
        unused = [key for key in _PROFILE_KEYS if key in config]
        if unused:
            raise ValueError(f"{', '.join(unused)}: not used with alpha_file, "
                             "whose field sets the profile and the grid")
        alpha = _load(load_field, config["alpha_file"], "alpha file")
        if not isinstance(alpha, ScalarField):
            raise ValueError("alpha file must hold a single-component field")
        config["n"], config["box"] = alpha.grid.n, alpha.grid.length
    else:
        config.setdefault("profile", "dipole-bump")
        config.setdefault("amplitude", 1.0)
        config.setdefault("n", 512)
        config.setdefault("box", 20.0)
        # every number is checked before the grid is built
        amplitude = _finite(config, "amplitude")
        gaussian = config["profile"] == "gaussian-bump"
        width = _finite(config, "width") if "width" in config else (1.0 if gaussian else 0.8)
        if width <= 0.0:
            raise ValueError(f"width must be positive, got {config['width']!r}")
        # profile is one of the flag's choices, center a string or two numbers
        center = config.get("center", "0,0" if gaussian else "1.25,0")
        try:
            center = _parse_pair(center) if isinstance(center, str) else tuple(center)
        except ValueError as exc:
            raise ValueError(f"center: {exc}") from None
        if not all(math.isfinite(c) for c in center):
            raise ValueError(f"center must be two finite numbers, got {config['center']!r}")
        config.setdefault("width", width)
        grid = PeriodicGrid(int(config["n"]), float(config["box"]))
        bump = rigidity.gaussian_bump if gaussian else rigidity.dipole_bump
        alpha = bump(grid, amplitude, width, center)

    _, report = rigidity.synthesize_extremal(alpha, Rotation(r0))
    _write_report(config.get("report"),
                  _report_envelope("rigidity", config, report.to_dict()))
    return EXIT_OK


def cmd_shell(args: argparse.Namespace) -> int:
    keys = {"profile", "coeffs", "h_list", "angular", "radial", "csv", "report"}
    config = _merge_config(args, keys)
    config.setdefault("h_list", "0.1,0.05,0.025,0.0125")
    config.setdefault("angular", 2048)
    config.setdefault("radial", 4)

    from .shells import DEFAULT_COS_COEFFS, BlowupTable, ShellSpec, blowup_experiment

    if config.get("coeffs"):
        raw = _load(_read_json, config["coeffs"], "coeffs file")
        if not isinstance(raw, dict):
            raise ValueError("coeffs file must hold a JSON object {cos: {k: c}, sin: {k: c}}")
        cos_coeffs, sin_coeffs = (_coeff_map(raw.get(part, {}), part) for part in ("cos", "sin"))
    elif config.get("profile"):
        cos_coeffs, sin_coeffs = parse_profile(config["profile"])
    else:
        cos_coeffs, sin_coeffs = dict(DEFAULT_COS_COEFFS), {}

    h_list = config["h_list"]
    if isinstance(h_list, str):
        h_list = _parse_float_list(h_list)
    h_list = [float(h) for h in h_list]
    if not h_list:
        raise ValueError("h list is empty")

    spec = ShellSpec(
        cos_coeffs=cos_coeffs,
        sin_coeffs=sin_coeffs,
        h=h_list[0],
        angular_resolution=int(config["angular"]),
        radial_layers=int(config["radial"]),
    )
    table: BlowupTable = blowup_experiment(spec, h_list)

    if config.get("csv"):
        with open(config["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "grad_norm", "symgrad_norm", "ratio", "tangency_residual"])
            for row in table.rows:
                writer.writerow([row.h, row.grad_norm, row.symgrad_norm,
                                 row.ratio, row.tangency_residual])
    _write_report(config.get("report"),
                  _report_envelope("shell", config, table.to_dict()))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    keys = {"seed", "samples", "break_det_constant", "report"}
    config = _merge_config(args, keys)
    config.setdefault("seed", 0)
    config.setdefault("samples", 20000)
    config.setdefault("break_det_constant", False)

    from .selftest import run_selftest

    results = run_selftest(
        seed=int(config["seed"]),
        samples=int(config["samples"]),
        det_constant=2.0 if config["break_det_constant"] else None,
    )
    all_pass = all(r["passed"] for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        sys.stdout.write(f"[{status}] {r['name']}: residual={r['residual']:.3e} "
                         f"(bound {r['bound']:.1e})\n")
    result = {"properties": results, "all_passed": all_pass}
    if config.get("report"):
        _write_report(config["report"], _report_envelope("selftest", config, result))
    return EXIT_OK if all_pass else 1


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kornlab",
        description="Korn and rigidity constant laboratory (batch runs).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    korn = sub.add_parser("korn", help="FEM Korn-constant estimation")
    korn.add_argument("--domain", choices=["square", "disk", "annulus", "shell"])
    korn.add_argument("--refine", type=int, help="number of refinement steps")
    korn.add_argument("--bc", choices=["tangential", "dirichlet"])
    korn.add_argument("--tol", type=float, help="Rayleigh stagnation tolerance")
    korn.add_argument("--mesh-file", dest="mesh_file", help="JSON mesh instead of a builtin domain")
    korn.add_argument("--store-maximizer", dest="store_maximizer",
                      action="store_const", const=True, default=None)
    korn.set_defaults(func=cmd_korn)

    rig = sub.add_parser("rigidity", help="synthesize an extremal rigidity field")
    rig.add_argument("--profile", choices=["gaussian-bump", "dipole-bump"])
    rig.add_argument("--amplitude", type=float)
    rig.add_argument("--width", type=float)
    rig.add_argument("--center", help="x,y center (gaussian) or lobe offset (dipole)")
    rig.add_argument("--alpha-file", dest="alpha_file", help="field file with the angle profile")
    rig.add_argument("--r0", type=float, help="far-field rotation angle (radians)")
    rig.add_argument("--n", type=int, help="grid samples per axis (power of two)")
    rig.add_argument("--box", type=float, help="box side length")
    rig.set_defaults(func=cmd_rigidity)

    shell = sub.add_parser("shell", help="thin-shell blow-up experiment")
    shell.add_argument("--profile", help='profile string, e.g. "0.2+0.05*cos(3t)"')
    shell.add_argument("--coeffs", help="JSON file {cos: {k: c}, sin: {k: c}}")
    shell.add_argument("--h-list", dest="h_list", help="comma-separated thicknesses")
    shell.add_argument("--angular", type=int, help="angular samples")
    shell.add_argument("--radial", type=int, help="radial layers")
    shell.add_argument("--csv", help="CSV output path for the blow-up table")
    shell.set_defaults(func=cmd_shell)

    selftest = sub.add_parser("selftest", help="run the invariant suites")
    selftest.add_argument("--seed", type=int)
    selftest.add_argument("--samples", type=int)
    selftest.add_argument("--break-det-constant", dest="break_det_constant",
                          action="store_const", const=True, default=None,
                          help="flip the determinant identity constant to the "
                               "incorrect value 2; the det property must then fail")
    selftest.set_defaults(func=cmd_selftest)

    for p in (korn, rig, shell, selftest):
        p.add_argument("--config", help="flat JSON config; explicit flags override")
        p.add_argument("--report", help="JSON report path (default: stdout)")
        p.set_defaults(flags={action.dest: action for action in p._actions})
    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import (
        CurlResidualTooLarge,
        DegenerateRotation,
        InfiniteQuotient,
        MeshValidationError,
        SolverFailure,
        ZeroDistance,
    )

    try:
        return args.func(args)
    except (MeshValidationError, CurlResidualTooLarge, ValueError) as exc:
        sys.stderr.write(f"kornlab: invalid input: {exc}\n")
        return EXIT_INVALID
    except (ZeroDistance, InfiniteQuotient, DegenerateRotation) as exc:
        sys.stderr.write(f"kornlab: degenerate problem: {exc}\n")
        return EXIT_DEGENERATE
    except SolverFailure as exc:
        sys.stderr.write(f"kornlab: solver failure: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
