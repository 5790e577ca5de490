"""Batch command-line front end.

Subcommands::

    kornlab korn      FEM Korn-constant estimation (refinement sweep or mesh file)
    kornlab rigidity  synthesize and certify an extremal rigidity field
    kornlab shell     thin-shell blow-up experiment (CSV table + JSON summary)
    kornlab selftest  run the cross-module invariant suites

Each subcommand's keys are its table in :data:`OPTIONS`.  Every subcommand
accepts ``--config FILE`` (flat JSON; explicit flags win) and writes a JSON
report embedding the exact configuration and the library version.  Reports
are deterministic for a fixed (config, seed) apart from the timestamp field.
Exit codes: 0 success, 1 a ``selftest`` property failed, 2 invalid input,
3 mathematical degeneracy, 4 solver failure or a non-finite result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import reprlib
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import thread_count
from .errors import (
    CurlResidualTooLarge,
    DegenerateRotation,
    InfiniteQuotient,
    MeshValidationError,
    SolverFailure,
    ZeroDistance,
    unique_keys,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4


def _apply_thread_cap() -> None:
    """Copy ``KORNLAB_THREADS``, once checked, into the unset BLAS thread variables."""
    if os.environ.get("KORNLAB_THREADS"):
        cap = str(thread_count())
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _report_envelope(command: str, config: dict, result) -> dict:
    from . import __version__

    return {
        "command": command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": config,
        "result": result,
    }


def _encode(obj):
    """The JSON form of a value ``json`` cannot write: a result dataclass as
    its fields, less those whose names start with "_", and an array as a list."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_report(path: str | None, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_encode) + "\n"
    except ValueError as exc:  # nan or infinity, which JSON cannot hold
        raise SolverFailure(f"the result holds a non-finite number ({exc})") from None
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)


def _load(loader, path, what: str):
    """``loader(path)``; a missing, unreadable or non-JSON file is invalid input."""
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


class Opt(NamedTuple):
    """One key of a subcommand: its flag, its config key and its report entry.

    ``kind`` is int, float, str, bool (a switch), tuple (two numbers), list
    (numbers) or a tuple of the accepted strings.  ``default`` is recorded
    when the key applies and is not given (None: left out; a callable: from
    the values of the keys before it).  Numbers are finite, ``sign`` is
    "positive" or "non-negative", ``hi`` is a number or the key that holds
    it.  While its ``fixed_by`` file key is given, the key is refused.
    """

    kind: object
    default: object = None
    sign: str | None = None
    hi: float | str | None = None
    fixed_by: str | None = None
    help: str | None = None


_REPORT = Opt(str, help="JSON report path (default: stdout)")

#: The key tables of the subcommands.  The size maxima keep one run within
#: about 1.6 GB of memory; the README gives the peak measured at each.
OPTIONS = {
    "korn": {
        "domain": Opt(("square", "disk", "annulus", "shell"), "square", fixed_by="mesh_file"),
        "refine": Opt(int, 5, "non-negative", 6, "mesh_file", "number of refinement steps"),
        "bc": Opt(("tangential", "dirichlet"), "tangential"),
        "tol": Opt(float, 1e-10, "positive", help="Rayleigh stagnation tolerance"),
        "mesh_file": Opt(str, help="JSON mesh instead of a builtin domain"),
        "store_maximizer": Opt(bool, False),
        "report": _REPORT,
    },
    "rigidity": {
        "profile": Opt(("gaussian-bump", "dipole-bump"), "dipole-bump", fixed_by="alpha_file"),
        "amplitude": Opt(float, 1.0, fixed_by="alpha_file"),
        "n": Opt(int, 512, hi=4096, fixed_by="alpha_file", help="grid size, a power of two"),
        "box": Opt(float, 20.0, fixed_by="alpha_file", help="box side length"),
        # the defaults of rigidity.gaussian_bump and rigidity.dipole_bump
        "width": Opt(float, lambda values: 1.0 if values["profile"] == "gaussian-bump" else 0.8,
                     "positive", "box", "alpha_file"),
        "center": Opt(tuple, fixed_by="alpha_file", help="x,y bump center or lobe offset"),
        "alpha_file": Opt(str, help="field file with the angle profile"),
        "r0": Opt(float, 0.0, help="far-field rotation angle (radians)"),
        "report": _REPORT,
    },
    "shell": {
        "profile": Opt(str, fixed_by="coeffs", help='profile string, e.g. "0.2+0.05*cos(3t)"'),
        "coeffs": Opt(str, help="JSON file {cos: {k: c}, sin: {k: c}}"),
        "h_list": Opt(list, "0.1,0.05,0.025,0.0125", help="comma-separated thicknesses"),
        "angular": Opt(int, 2048, hi=65536, help="angular samples"),
        "radial": Opt(int, 4, hi=16, help="radial layers"),
        "csv": Opt(str, help="CSV output path for the blow-up table"),
        "report": _REPORT,
    },
    "selftest": {
        "seed": Opt(int, 0, "non-negative"),
        "samples": Opt(int, 20000, "positive", 100000),
        "break_det_constant": Opt(bool, False, help="flip the determinant identity constant "
                                  "to the incorrect value 2; the det property must then fail"),
        "report": _REPORT,
    },
}


def _accepts(kind, value) -> bool:
    """Whether a config value has its key's kind: a JSON integer or a digit
    string for an int, a value float() converts for a float, a string for a
    text key, one of the strings of a choice, a boolean for a switch and for
    no other key; a pair or a list may be a string or a list of numbers."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind is int:
        # int() would truncate 1.9; a float is not an integer
        return type(value) is int or (isinstance(value, str)
                                      and re.fullmatch(r"[0-9]+", value) is not None)
    if kind is float:
        try:
            float(value)
        except (TypeError, ValueError, OverflowError):
            return False
        return True
    if kind is str or isinstance(value, str):
        return isinstance(value, str)
    return (isinstance(value, list) and (kind is list or len(value) == 2)
            and all(type(x) in (int, float) for x in value))


def _checked(key: str, opt: Opt, raw, values: dict):
    """``raw`` as its key's kind; a value outside the key's domain is invalid input."""
    if raw == "":
        raise ValueError(f"{key} must not be empty")
    if opt.kind in (tuple, list):
        items = re.split(r"[,\s]+", raw.strip()) if isinstance(raw, str) else raw
        try:
            value = [float(x) for x in items if x != ""]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{key}: {exc}") from None
        wrong_count = len(value) != 2 if opt.kind is tuple else not value
        if wrong_count or not all(math.isfinite(x) for x in value):
            count = "two" if opt.kind is tuple else "one or more"
            raise ValueError(f"{key} must be {count} finite numbers, got {raw!r}")
        return tuple(value) if opt.kind is tuple else value
    if opt.kind not in (int, float):
        return raw
    try:
        value = opt.kind(raw)
    except ValueError as exc:  # such as a digit string beyond int()'s 4300 digits
        raise ValueError(f"{key}: {exc}") from None
    if opt.kind is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {raw!r}")
    if opt.sign and (value < 0 or (value == 0 and opt.sign == "positive")):
        what = f"a {opt.sign} integer" if opt.kind is int else opt.sign
        raise ValueError(f"{key} must be {what}, got {raw!r}")
    hi = values[opt.hi] if isinstance(opt.hi, str) else opt.hi
    if hi is not None and value > hi:
        raise ValueError(f"{key} must be at most {opt.hi}, got {raw!r}")
    return value


def _options(args: argparse.Namespace) -> tuple[dict, dict]:
    """The configuration to record and the checked values of the keys that
    apply: ``--config`` values of their keys' kinds, overridden by the flags
    given, and the defaults of the keys that neither gives."""
    table = OPTIONS[args.subcommand]
    given = {}
    if args.config is not None:
        given = _load(_read_json, args.config, "config file")
        if not isinstance(given, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = set(given) - set(table)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in given.items():
            if not _accepts(table[key].kind, value):
                raise ValueError(f"config key {key!r}: invalid value {value!r}")
    given.update({key: getattr(args, key) for key in table if getattr(args, key) is not None})
    for file_key in {opt.fixed_by for opt in table.values()} & set(given):
        unused = [key for key, opt in table.items() if opt.fixed_by == file_key and key in given]
        if unused:
            raise ValueError(f"{', '.join(unused)}: not used with {file_key}, which fixes them")
    config, values = {}, {}
    for key, opt in table.items():
        if opt.fixed_by in given:
            continue
        raw = given.get(key, opt.default)
        if callable(raw):
            raw = raw(values)
        if raw is not None:
            config[key] = raw
            values[key] = _checked(key, opt, raw, values)
    return config, values


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
    keys = {}  # wavenumber -> the first key that names it
    for k, c in terms.items():
        # JSON booleans are ints to Python, and NaN passes every range check
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
            raise ValueError(f"coeffs file: {part!r} coefficients must be numbers and "
                             f"finite, got {c!r} for {reprlib.repr(k)}")
        # int() also takes spaces, "1_0" and other scripts' digits; past 308
        # digits k is beyond float range, which the profile's k * theta needs
        if re.fullmatch(r"[+-]?[0-9]{1,308}", k) is None:
            raise ValueError(f"coeffs file: {part!r} wavenumbers must be decimal integers "
                             f"of at most 308 digits, got {reprlib.repr(k)}")
        if (twin := keys.setdefault(int(k), k)) != k:  # "3", "03" and "+3" are one wavenumber
            raise ValueError(f"coeffs file: {part!r} wavenumbers {reprlib.repr(twin)} and "
                             f"{reprlib.repr(k)} are the same integer")
    return {int(k): float(c) for k, c in terms.items()}


# ---------------------------------------------------------------------------
# Subcommands: each takes the configuration to record and the checked values.
# ---------------------------------------------------------------------------

def cmd_korn(config: dict, values: dict) -> int:
    from . import kornfem
    from .mesh import load_mesh

    bc, tol = values["bc"], values["tol"]
    if "mesh_file" in values:
        mesh = _load(load_mesh, values["mesh_file"], "mesh file")
        estimates = [kornfem.korn_constant(mesh, bc=bc, tol=tol)]
    else:
        # level 1 upward: level-0 stock meshes have no admissible fields
        levels = list(range(1, values["refine"] + 2))
        estimates = kornfem.korn_sweep(values["domain"], levels, bc=bc, tol=tol)
    seq = [est.kappa_sq for est in estimates]
    # Only the structured square meshes refine into nested spaces, where the
    # sequence must not decrease; elsewhere monotonicity is not expected.
    nested = values.get("domain") == "square"
    monotone = all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))
    if values["store_maximizer"]:
        estimates = [_encode(est) | {"maximizer": est.maximizer} for est in estimates]
    result = {
        "levels": estimates,
        "kappa_sq_sequence": seq,
        "kappa_sq_final": seq[-1],
        "nested": nested,
        "monotone_nondecreasing": monotone if nested else None,
    }
    _write_report(values.get("report"), _report_envelope("korn", config, result))
    return EXIT_OK


def cmd_rigidity(config: dict, values: dict) -> int:
    from . import rigidity
    from .gridfield import PeriodicGrid, load_field
    from .mat2 import Rotation

    if "alpha_file" in values:
        alpha = _load(load_field, values["alpha_file"], "alpha file")
        config["n"], config["box"] = alpha.grid.n, alpha.grid.length
    else:
        gaussian = values["profile"] == "gaussian-bump"
        bump = rigidity.gaussian_bump if gaussian else rigidity.dipole_bump
        # without a center, each bump keeps its own (unrecorded) default
        center = (values["center"],) if "center" in values else ()
        grid = PeriodicGrid(values["n"], values["box"])
        alpha = bump(grid, values["amplitude"], values["width"], *center)

    report = rigidity.synthesize_extremal(alpha, Rotation(values["r0"]))
    _write_report(values.get("report"), _report_envelope("rigidity", config, report))
    return EXIT_OK


def cmd_shell(config: dict, values: dict) -> int:
    from .shells import (DEFAULT_COS_COEFFS, BlowupRow, BlowupTable, ShellSpec,
                         blowup_experiment)

    if "coeffs" in values:
        raw = _load(_read_json, values["coeffs"], "coeffs file")
        if not isinstance(raw, dict):
            raise ValueError("coeffs file must hold a JSON object {cos: {k: c}, sin: {k: c}}")
        if unknown := sorted(set(raw) - {"cos", "sin"}):
            raise ValueError(f"coeffs file: unknown parts {unknown}; the parts are 'cos' and 'sin'")
        cos_coeffs, sin_coeffs = (_coeff_map(raw.get(part, {}), part) for part in ("cos", "sin"))
    elif "profile" in values:
        cos_coeffs, sin_coeffs = parse_profile(values["profile"])
    else:
        cos_coeffs, sin_coeffs = dict(DEFAULT_COS_COEFFS), {}

    h_list = values["h_list"]
    spec = ShellSpec(
        cos_coeffs=cos_coeffs,
        sin_coeffs=sin_coeffs,
        h=h_list[0],
        angular_resolution=values["angular"],
        radial_layers=values["radial"],
    )
    table: BlowupTable = blowup_experiment(spec, h_list)

    if "csv" in values:
        with open(values["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in dataclasses.fields(BlowupRow)])
            writer.writerows(dataclasses.astuple(row) for row in table.rows)
    _write_report(values.get("report"), _report_envelope("shell", config, table))
    return EXIT_OK


def cmd_selftest(config: dict, values: dict) -> int:
    from .selftest import run_selftest

    results = run_selftest(
        seed=values["seed"],
        samples=values["samples"],
        det_constant=2.0 if values["break_det_constant"] else None,
    )
    all_pass = all(r["passed"] for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        sys.stdout.write(f"[{status}] {r['name']}: residual={r['residual']:.3e} "
                         f"(bound {r['bound']:.1e})\n")
    result = {"properties": results, "all_passed": all_pass}
    if "report" in values:
        _write_report(values["report"], _report_envelope("selftest", config, result))
    return EXIT_OK if all_pass else 1


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="kornlab",
        description="Korn and rigidity constant laboratory (batch runs).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {
        "korn": "FEM Korn-constant estimation",
        "rigidity": "synthesize an extremal rigidity field",
        "shell": "thin-shell blow-up experiment",
        "selftest": "run the invariant suites",
    }
    for name, text in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat JSON config; explicit flags override")
        for key, opt in OPTIONS[name].items():
            flag = "--" + key.replace("_", "-")
            if opt.kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, help=opt.help)
            else:
                p.add_argument(flag, dest=key, help=opt.help,
                               type=opt.kind if opt.kind in (int, float) else None,
                               choices=opt.kind if isinstance(opt.kind, tuple) else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        _apply_thread_cap()  # before any subcommand imports numpy
        # looked up per call: wrappers set on the module after import take effect
        return globals()[f"cmd_{args.subcommand}"](*_options(args))
    # an overflow comes from a number too large to compute with, such as a box of 1e300
    except (MeshValidationError, CurlResidualTooLarge, ValueError, OverflowError) as exc:
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
