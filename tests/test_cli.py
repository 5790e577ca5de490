import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kornlab
from kornlab import cli
from kornlab.cli import main, parse_profile
from kornlab.gridfield import PeriodicGrid, ScalarField, save_field
from kornlab.mesh import unit_square

from helpers import save_mesh


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestParseProfile:
    def test_stock_string(self):
        cos_c, sin_c = parse_profile("0.2+0.05*cos(3t)")
        assert cos_c == {0: 0.2, 3: 0.05}
        assert sin_c == {}

    def test_signs_spaces_and_sin(self):
        cos_c, sin_c = parse_profile("0.3 - 0.1*cos(2*t) + 0.05*sin(t)")
        assert cos_c == {0: 0.3, 2: -0.1}
        assert sin_c == {1: 0.05}

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_profile("0.2+weird(3t)")

    def test_bare_sign_terms(self):
        assert parse_profile("0.2-cos(3t)") == ({0: 0.2, 3: -1.0}, {})
        assert parse_profile("0.2+sin(t)") == ({0: 0.2}, {1: 1.0})
        for text in ("0.2+", "0.2-*cos(t)"):
            with pytest.raises(ValueError, match="cannot parse profile term"):
                parse_profile(text)

    def test_exponent_coefficients(self):
        cos_c, sin_c = parse_profile("0.2+1e-3*cos(2t)")
        assert cos_c == {0: 0.2, 2: 1e-3}
        assert sin_c == {}

    coefficients = st.one_of(st.sampled_from([1.0, -1.0]),
                             st.floats(allow_nan=False, allow_infinity=False))

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.dictionaries(st.integers(1, 40), coefficients, max_size=4),
        st.dictionaries(st.integers(1, 40), coefficients, max_size=4),
    )
    def test_repr_round_trip(self, c0, cos_terms, sin_terms):
        def term(c, fn, k):
            sign = "-" if c < 0 else "+"
            if abs(c) == 1.0:  # written bare: "+cos(3t)", "-sin(2t)"
                return f"{sign}{fn}({k}t)"
            return f"{sign}{abs(c)!r}*{fn}({k}t)"

        text = repr(c0) + "".join(
            [term(c, "cos", k) for k, c in cos_terms.items()]
            + [term(c, "sin", k) for k, c in sin_terms.items()]
        )
        cos_c, sin_c = parse_profile(text)
        assert cos_c == {0: c0, **cos_terms}
        assert sin_c == sin_terms


class TestKornCommand:
    def test_square_sweep_report(self, tmp_path):
        report = tmp_path / "korn.json"
        code = run(["korn", "--domain", "square", "--refine", "2",
                    "--bc", "tangential", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        result = payload["result"]
        assert result["monotone_nondecreasing"]
        assert 1.90 <= result["kappa_sq_final"] <= 2.0 + 1e-9
        assert payload["config"]["domain"] == "square"
        assert "timestamp" in payload and "version" in payload

    def test_store_maximizer_flag(self, tmp_path):
        report = tmp_path / "korn.json"
        code = run(["korn", "--domain", "square", "--refine", "1",
                    "--store-maximizer", "--report", str(report)])
        assert code == 0
        levels = json.loads(report.read_text())["result"]["levels"]
        assert all("maximizer" in lvl for lvl in levels)
        assert len(levels[-1]["maximizer"]) == 2 * 5**2  # full dof vector

    def test_disk_reports_rotational_symmetry_and_deflation(self, tmp_path):
        report = tmp_path / "disk.json"
        code = run(["korn", "--domain", "disk", "--refine", "3", "--report", str(report)])
        assert code == 0
        last = json.loads(report.read_text())["result"]["levels"][-1]
        assert last["l_omega"]["kind"] == "rotational"
        assert last["deflated_rotation"]

    def test_rotational_mesh_file_off_the_origin(self, tmp_path):
        # the rotation is deflated about the fitted centre, not the origin
        from kornlab.kornfem import korn_constant
        from kornlab.mesh import TriMesh, disk

        mesh_path, report = tmp_path / "disk.json", tmp_path / "report.json"
        mesh = disk(4)
        save_mesh(TriMesh(mesh.vertices + (0.3, -0.2), mesh.triangles), mesh_path)
        assert run(["korn", "--mesh-file", str(mesh_path), "--report", str(report)]) == 0
        (level,) = json.loads(report.read_text())["result"]["levels"]
        assert level["l_omega"]["kind"] == "rotational"
        np.testing.assert_allclose(level["l_omega"]["center"], [0.3, -0.2], atol=1e-12)
        assert level["deflated_rotation"]
        assert level["top_eigenspace_dim"] == 2
        assert abs(level["kappa_sq"] - korn_constant(disk(4)).kappa_sq) <= 1e-12

    def test_malformed_mesh_file_exits_2_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0,0],[1,0],[2,0]], "triangles": [[0,1,2]]}')
        code = run(["korn", "--mesh-file", str(bad)])
        assert code == 2
        assert "area" in capsys.readouterr().err

    def test_mesh_file_path(self, tmp_path):
        from kornlab.mesh import unit_square

        mesh_path = tmp_path / "mesh.json"
        save_mesh(unit_square(4), mesh_path)
        report = tmp_path / "report.json"
        code = run(["korn", "--mesh-file", str(mesh_path), "--report", str(report)])
        assert code == 0
        result = json.loads(report.read_text())["result"]
        assert len(result["levels"]) == 1

    def test_nested_flag_gates_monotonicity(self, tmp_path):
        from kornlab.mesh import unit_square

        mesh_path = tmp_path / "mesh.json"
        save_mesh(unit_square(4), mesh_path)
        cases = {
            "square": (["korn", "--domain", "square", "--refine", "1"], True),
            "disk": (["korn", "--domain", "disk", "--refine", "2"], False),
            "file": (["korn", "--mesh-file", str(mesh_path)], False),
        }
        for name, (argv, nested) in cases.items():
            report = tmp_path / f"{name}.json"
            assert run(argv + ["--report", str(report)]) == 0
            result = json.loads(report.read_text())["result"]
            assert result["nested"] is nested
            if nested:
                assert result["monotone_nondecreasing"] is True
            else:
                assert result["monotone_nondecreasing"] is None

    def test_report_names_solver_path(self, tmp_path):
        cases = {
            "dirichlet": (["--domain", "square", "--refine", "3", "--bc", "dirichlet"],
                          ["dense", "dense", "dense", "shifted"]),
            "disk": (["--domain", "disk", "--refine", "2"], ["dense", "dense", "symgrad"]),
        }
        for name, (argv, solvers) in cases.items():
            report = tmp_path / f"{name}.json"
            assert run(["korn", *argv, "--report", str(report)]) == 0
            levels = json.loads(report.read_text())["result"]["levels"]
            assert [lvl["solver"] for lvl in levels] == solvers

    def test_report_names_seed_path(self, tmp_path):
        # the slip square's prolonged top block is already converged
        report = tmp_path / "square.json"
        assert run(["korn", "--domain", "square", "--refine", "3", "--report", str(report)]) == 0
        levels = json.loads(report.read_text())["result"]["levels"]
        assert [lvl["solver"] for lvl in levels] == ["dense", "dense", "dense", "seed"]
        assert levels[-1]["iterations"] == 0

    def test_unconverged_iteration_exits_4(self, monkeypatch, capsys):
        from kornlab import kornfem

        monkeypatch.setattr(kornfem, "MAX_ITER", 3)
        code = run(["korn", "--domain", "disk", "--refine", "3"])
        assert code == 4
        err = capsys.readouterr().err
        assert "did not converge" in err and "dofs" in err and "residual" in err

    def test_structurally_singular_problem_exits_4(self, tmp_path, capsys):
        # the two-triangle square has no admissible slip fields at all
        from kornlab.mesh import unit_square

        mesh_path = tmp_path / "tiny.json"
        save_mesh(unit_square(1), mesh_path)
        code = run(["korn", "--mesh-file", str(mesh_path), "--bc", "tangential"])
        assert code == 4
        assert "empty" in capsys.readouterr().err


class TestRigidityCommand:
    def test_default_run_certifies_equality(self, tmp_path):
        report = tmp_path / "rig.json"
        code = run(["rigidity", "--n", "128", "--report", str(report)])
        assert code == 0
        r = json.loads(report.read_text())["result"]
        assert abs(r["ratio"] - 1.0) < 1e-3
        assert abs(r["g_norm"] / r["f_norm"] - 1.0) < 1e-10

    def test_r0_flag_sets_optimal_angle(self, tmp_path):
        report = tmp_path / "rig.json"
        code = run(["rigidity", "--n", "128", "--r0", "1.0472", "--report", str(report)])
        assert code == 0
        r = json.loads(report.read_text())["result"]
        assert abs(r["optimal_theta"] - math.pi / 3) < 1e-4

    def test_zero_alpha_file_exits_3(self, tmp_path, capsys):
        grid = PeriodicGrid(64, 20.0)
        path = tmp_path / "alpha.json"
        save_field(ScalarField(grid, np.zeros((64, 64))), path)
        code = run(["rigidity", "--alpha-file", str(path)])
        assert code == 3
        assert "rotation" in capsys.readouterr().err

    def test_unknown_profile_exits_2(self):
        assert run(["rigidity", "--n", "64", "--profile", "gaussian-bump",
                    "--width", "50"]) == 2  # support check fails


class TestShellCommand:
    def test_default_writes_csv_and_slope(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        report = tmp_path / "shell.json"
        code = run(["shell", "--h-list", "0.1,0.05", "--angular", "128",
                    "--radial", "2", "--csv", str(csv_path), "--report", str(report)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "h,grad_norm,symgrad_norm,ratio,tangency_residual"
        assert len(lines) == 3
        assert json.loads(report.read_text())["result"]["slope"] is not None

    def test_single_h_has_no_slope(self, tmp_path):
        report = tmp_path / "shell1.json"
        code = run(["shell", "--h-list", "0.1", "--angular", "128",
                    "--radial", "2", "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["result"]["slope"] is None

    def test_constant_profile_exits_3(self, capsys):
        code = run(["shell", "--profile", "0.2", "--h-list", "0.1,0.05"])
        assert code == 3
        assert "rigid rotation" in capsys.readouterr().err

    def test_coeffs_file(self, tmp_path):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"cos": {"0": 0.25, "2": 0.04}}))
        report = tmp_path / "shell.json"
        code = run(["shell", "--coeffs", str(coeffs), "--h-list", "0.1,0.05",
                    "--angular", "128", "--radial", "2", "--report", str(report)])
        assert code == 0


class TestSelftestCommand:
    def test_clean_run_passes(self, tmp_path, capsys):
        report = tmp_path / "self.json"
        code = run(["selftest", "--seed", "1", "--samples", "2000",
                    "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert json.loads(report.read_text())["result"]["all_passed"]

    def test_break_det_constant_fails_loudly(self, capsys):
        code = run(["selftest", "--seed", "1", "--samples", "2000",
                    "--break-det-constant"])
        out = capsys.readouterr().out
        assert code == 1
        assert re.search(r"\[FAIL\] mat2\.det_identity", out)

    def test_fixed_seed_is_deterministic(self, capsys):
        run(["selftest", "--seed", "9", "--samples", "1500"])
        first = capsys.readouterr().out
        run(["selftest", "--seed", "9", "--samples", "1500"])
        second = capsys.readouterr().out
        assert first == second


def test_thread_cap_env_var(monkeypatch):
    from kornlab.cli import _apply_thread_cap

    monkeypatch.setenv("KORNLAB_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")  # explicit settings win
    _apply_thread_cap()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "8"


@pytest.mark.parametrize("argv", [
    ["korn", "--mesh-file"],
    ["rigidity", "--alpha-file"],
    ["shell", "--coeffs"],
])
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "absent.json"
    assert run(argv + [str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input: cannot read")
    assert "absent.json" in err


_SQUARE_VERTICES = [[0, 0], [1, 0], [0, 1], [1, 1]]


def _square_and_a_free_vertex(cells):
    mesh = unit_square(cells)
    return {"vertices": [*mesh.vertices.tolist(), [5, 5]], "triangles": mesh.triangles.tolist()}


@pytest.mark.parametrize("payload, message", [
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1]]}, "index triples"),
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1, 2], [1, 3]]}, "index triples"),
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1, 7]]}, "out of vertex range"),
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1, -1]]}, "out of vertex range"),
    ({"vertices": _SQUARE_VERTICES, "triangles": []}, "no triangles"),
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1, 2.5], [1, 3, 2]]}, "integers"),
    ({"vertices": [[0], [1], [2]], "triangles": [[0, 1, 2]]}, "2D points"),
    (7, "JSON object"),
    ({"vertices": [[0, 0], [1, 0], [0, float("nan")]], "triangles": [[0, 1, 2]]},
     "vertex coordinates must be finite"),
    # the first ran to exit 0 with kappa_sq 1 on an empty boundary, the second
    # to the dense Cholesky factorization, which failed with exit 2
    ({"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2], [0, 2, 1]]},
     "repeated triangle: triangles 0 and 1 have the same vertices"),
    ({"vertices": [*_SQUARE_VERTICES, [3, 3], [4, 3], [3, 4]],
      "triangles": [[0, 1, 3], [0, 3, 2], [4, 5, 6], [4, 6, 5]]},
     "repeated triangle: triangles 2 and 3 have the same vertices"),
    ({"vertices": _SQUARE_VERTICES, "triangles": [[0, 1, 3], [0, 3, 2], [2, 3, 0]]},
     "repeated triangle: triangles 1 and 2 have the same vertices"),
    # a vertex no triangle uses makes both forms singular: the dense path
    # (unit_square(4)) and the iterative one (unit_square(16)) exited 4
    (_square_and_a_free_vertex(4), "vertex 25 is a corner of no triangle"),
    (_square_and_a_free_vertex(16), "vertex 289 is a corner of no triangle"),
], ids=["two-indices", "ragged", "past-end", "negative", "empty", "non-integer",
        "1d-vertices", "not-an-object", "nan-vertex", "repeated-lone-triangle",
        "repeated-isolated-triangle", "repeated-triangle-rotated", "unused-vertex-dense",
        "unused-vertex-iterative"])
def test_malformed_mesh_file_names_defect(tmp_path, capsys, payload, message):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(payload))
    for bc in ("tangential", "dirichlet"):
        assert run(["korn", "--mesh-file", str(path), "--bc", bc]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kornlab: invalid input:")
        assert message in err


def _two_disk_mesh_file(tmp_path, level):
    from kornlab.mesh import TriMesh, disk

    one = disk(level)
    path = tmp_path / f"two-disks-{level}.json"
    save_mesh(TriMesh(np.concatenate([one.vertices, one.vertices + [5.0, 0.0]]),
                      np.concatenate([one.triangles, one.triangles + len(one.vertices)])), path)
    return path


def test_two_disk_mesh_file_exits_4_on_either_solver_path(tmp_path, capsys):
    # each disk may rotate alone, so B is singular; the dense path (196
    # dofs at level 2) used to exit 0 with kappa_sq 4e15, the iterative one
    # (level 3) already refused it
    errors = []
    for level in (2, 3):
        assert run(["korn", "--mesh-file", str(_two_disk_mesh_file(tmp_path, level))]) == 4
        errors.append(capsys.readouterr().err)
    assert errors == ["kornlab: solver failure: singular symmetric-gradient form: "
                      "undetected rigid mode or geometry/symmetry mismatch\n"] * 2


def test_bow_tie_mesh_file_names_vertex(tmp_path, capsys):
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [-1, 0], [-1, -1]],
        "triangles": [[0, 1, 2], [0, 3, 4]],
    }))
    assert run(["korn", "--mesh-file", str(path)]) == 2
    assert "non-manifold boundary vertex 0" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "must hold a JSON object"),
    ({"cos": [0.2]}, "'cos' must be an object"),
    ({"cos": {"0": 0.2}, "sin": 3}, "'sin' must be an object"),
    ({"cos": {"0": [0.2]}}, "'cos' coefficients must be numbers"),
    ({"cos": {"0": 0.2, "3": None}}, "'cos' coefficients must be numbers"),
    # these used to exit 4 ("non-finite number"), or to run on 0.0, on the
    # parsed string, or without the misspelt part
    ({"cos": {"0": float("nan"), "3": 0.05}}, "got nan for '0'"),
    ({"cos": {"0": 0.2, "3": False}}, "got False for '3'"),
    ({"cos": {"0": 0.2, "3": "0.05"}}, "got '0.05' for '3'"),
    ({"cos": {"0": 0.2}, "sn": {"1": 0.01}}, "unknown parts ['sn']"),
    # these used to exit 2 with int()'s own message, which named no part or key
    ({"cos": {"0": 0.2, "x": 0.05}}, "'cos' wavenumbers must be decimal integers "
                                     "of at most 308 digits, got 'x'"),
    ({"cos": {"0": 0.2}, "sin": {"1.5": 0.05}}, "'sin' wavenumbers must be decimal integers "
                                                "of at most 308 digits, got '1.5'"),
    ({"cos": {"0": 0.2, "7" * 5000: 0.05}}, "'cos' wavenumbers must be decimal integers "
                                            "of at most 308 digits, got '7777"),
    # the range was printed with :.4f, about 600 characters for 1e308
    ({"cos": {"0": 0.2, "3": 1e308}}, "leaves (0, 1/3)"),
    # these used to run on: the last of two equal wavenumbers overwrote the
    # first, and 4096 aliased to 0 on the 4096 samples of the range check
    ({"cos": {"0": 0.2, "3": 0.05, "03": 0.01}}, "'cos' wavenumbers '3' and '03' are the "
                                                 "same integer"),
    ({"cos": {"0": 0.2, "4096": -0.15}}, "profile wavenumber 4096 exceeds half the angular "
                                         "resolution 2048"),
], ids=["not-an-object", "cos-list", "sin-number", "list-coefficient", "null-coefficient",
        "nan", "false", "string", "unknown-part", "letter-key", "decimal-key", "5000-digit-key",
        "huge-coefficient", "duplicate-wavenumber", "unresolved-wavenumber"])
def test_malformed_coeffs_file_names_defect(tmp_path, capsys, payload, message):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(payload))
    assert run(["shell", "--coeffs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert message in err
    assert len(err) < 200


def test_report_key_sets_are_pinned(tmp_path):
    # reports are written from the fields of the result dataclasses, so a
    # field added to one of them reaches the report: these literals keep
    # that a deliberate change
    def result(argv):
        report = tmp_path / "report.json"
        assert run(argv + ["--report", str(report)]) == 0
        return json.loads(report.read_text())["result"]

    level_keys = {"kappa_sq", "solver", "eig_residual", "top_eigenspace_dim", "dof_count",
                  "iterations", "l_omega", "deflated_rotation"}
    for flags, keys in (([], level_keys), (["--store-maximizer"], level_keys | {"maximizer"})):
        (level,) = result(["korn", "--refine", "0", *flags])["levels"]
        assert set(level) == keys
        assert set(level["l_omega"]) == {"kind", "residual", "center"}
    assert set(result(["rigidity", "--n", "64"])) == {
        "curl_residual", "optimal_theta", "lhs", "rhs", "ratio", "alpha_norm", "f_norm",
        "g_norm", "theta0", "lhs_at_theta0", "ratio_at_theta0"}
    shell = result(["shell", "--angular", "64", "--radial", "1", "--h-list", "0.1,0.05"])
    assert set(shell) == {"rows", "slope"}
    assert set(shell["rows"][0]) == {"h", "grad_norm", "symgrad_norm", "ratio",
                                     "tangency_residual"}


def test_negative_refine_exits_2(capsys):
    assert run(["korn", "--refine", "-1"]) == 2
    assert "refine must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (["--width=-0.8"], "width"),
    (["--width", "0"], "width"),
    (["--r0", "nan"], "r0"),
    (["--amplitude", "inf"], "amplitude"),
    (["--center", "nan,0"], "center"),
    (["--profile", "gaussian-bump", "--center", "0,-inf"], "center"),
    ({"width": -1.0}, "width"),
    ({"amplitude": float("nan")}, "amplitude"),
    ({"center": [0.0, float("inf")]}, "center"),
], ids=["negative-width", "zero-width", "nan-r0", "inf-amplitude", "nan-center",
        "inf-center", "config-negative-width", "config-nan-amplitude", "config-inf-center"])
def test_invalid_rigidity_profile_number_exits_2(tmp_path, capsys, flags, key):
    # these used to run (a negative width is only squared) or to fail later
    # as "non-finite samples" without naming the flag
    if isinstance(flags, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(flags))
        flags = ["--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["rigidity", "--n", "64"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kornlab: invalid input: {key} ")


def test_zero_amplitude_stays_degenerate(capsys):
    assert run(["rigidity", "--n", "64", "--amplitude", "0"]) == 3
    assert "rotation almost everywhere" in capsys.readouterr().err


def test_alpha_file_header_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text("5")
    assert run(["rigidity", "--alpha-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert "field header must hold a JSON object" in err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"domain": "square", "refine": 1, "bc": "dirichlet"}))
        report = tmp_path / "report.json"
        code = run(["korn", "--config", str(config), "--refine", "2",
                    "--report", str(report)])
        assert code == 0
        cfg = json.loads(report.read_text())["config"]
        assert cfg["refine"] == 2       # flag wins
        assert cfg["bc"] == "dirichlet"  # config survives

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"domain": "square", "bogus": 1}))
        assert run(["korn", "--config", str(config)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("rigidity", "amplitude", [1]),
        ("rigidity", "center", 5),
        ("korn", "refine", [5]),
        ("shell", "h_list", 5),
    ], ids=["amplitude-list", "center-number", "refine-list", "h_list-number"])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert run([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kornlab: invalid input:")
        assert repr(key) in err

    @pytest.mark.parametrize("command,given", [
        ("rigidity", {"n": 64, "width": 0.5, "amplitude": "0.4", "center": [1.0, 0.5],
                      "profile": "gaussian-bump"}),
        # a string tol used to reach the iterative levels unconverted (TypeError)
        ("korn", {"tol": "1e-10", "refine": 3}),
    ], ids=["rigidity", "korn-string-tol"])
    def test_config_values_of_flag_types_kept_as_given(self, tmp_path, command, given):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(given))
        report = tmp_path / "report.json"
        assert run([command, "--config", str(config), "--report", str(report)]) == 0
        cfg = json.loads(report.read_text())["config"]
        assert {key: cfg[key] for key in given} == given

    def test_reports_identical_apart_from_timestamp(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["rigidity", "--n", "64", "--width", "0.5", "--amplitude", "0.4",
                "--report", str(out)]
        assert run(args) == 0
        first = json.loads(out.read_text())
        assert run(args) == 0
        second = json.loads(out.read_text())
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second


@pytest.mark.parametrize("given", [
    ["--width", "0.3"],
    ["--profile", "gaussian-bump"],
    ["--center", "2,2"],
    ["--amplitude", "0.5"],
    ["--n", "64"],
    ["--box", "30"],
    {"n": 512},
    {"box": 20.0},
    {"profile": "dipole-bump", "width": 0.8},
], ids=["width", "profile", "center", "amplitude", "n", "box", "config-n", "config-box",
        "config-profile-width"])
def test_profile_settings_with_alpha_file_exit_2(tmp_path, capsys, given):
    # these used to run on the file's field while the report recorded them
    path = tmp_path / "alpha.json"
    save_field(ScalarField(PeriodicGrid(64, 20.0), np.zeros((64, 64))), path)
    if isinstance(given, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(given))
        keys, given = list(given), ["--config", str(config)]
    else:
        keys = [given[0][2:]]
    assert run(["rigidity", "--alpha-file", str(path)] + given) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert all(key in err for key in keys) and "alpha_file" in err


def test_oversized_alpha_file_header_exits_2(tmp_path, capsys):
    # this used to build the n = 2**24 grid and fail allocating it (exit 1)
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"n": 2**24, "L": 20.0, "components": 1,
                                "format": "bin", "data": "alpha.bin"}))
    np.zeros(16).astype("<f8").tofile(tmp_path / "alpha.bin")
    assert run(["rigidity", "--alpha-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert "payload holds 16 samples" in err


def test_alpha_file_report_records_the_file_grid(tmp_path):
    from kornlab.rigidity import dipole_bump

    path, report = tmp_path / "alpha.json", tmp_path / "report.json"
    save_field(dipole_bump(PeriodicGrid(64, 24.0)), path)
    assert run(["rigidity", "--alpha-file", str(path), "--r0", "0.5",
                "--report", str(report)]) == 0
    config = json.loads(report.read_text())["config"]
    assert config == {"alpha_file": str(path), "r0": 0.5, "n": 64, "box": 24.0,
                      "report": str(report)}


@pytest.mark.parametrize("command, key, value", [
    ("korn", "refine", 1.9),
    ("korn", "refine", True),
    ("rigidity", "n", 64.5),
    ("shell", "angular", 2048.0),
    ("selftest", "samples", 200.5),
    ("selftest", "samples", " 200"),
], ids=["refine-float", "refine-bool", "n-float", "angular-integral-float",
        "samples-float", "samples-padded-string"])
def test_integer_flag_takes_only_integers_from_config(tmp_path, capsys, command, key, value):
    # int() used to truncate these (or read true as 1), and the report kept
    # the value as given
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    assert run([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kornlab: invalid input: config key {key!r}")


@pytest.mark.parametrize("command, given", [
    ("rigidity", {"amplitude": True, "n": 64}),
    ("rigidity", {"box": True, "n": 64}),
    ("korn", {"tol": True, "refine": 1}),
], ids=["amplitude", "box", "tol"])
def test_float_flag_refuses_booleans_from_config(tmp_path, capsys, command, given):
    # float() used to read true as 1.0, and the report kept true
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(given))
    assert run([command, "--config", str(config)]) == 2
    key = next(iter(given))
    assert capsys.readouterr().err.startswith(f"kornlab: invalid input: config key {key!r}")


def test_integer_flag_takes_digit_string_from_config(tmp_path):
    config, report = tmp_path / "cfg.json", tmp_path / "report.json"
    config.write_text(json.dumps({"refine": "1"}))
    assert run(["korn", "--config", str(config), "--report", str(report)]) == 0
    assert len(json.loads(report.read_text())["result"]["levels"]) == 2


@pytest.mark.parametrize("command, key", [("selftest", "seed"), ("korn", "refine")])
def test_overlong_digit_string_names_its_key(tmp_path, capsys, command, key):
    # int() refuses more than 4300 digits, and its message named no key
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: "1" * 5000}))
    assert run([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"kornlab: invalid input: {key}: ")


@pytest.mark.parametrize("tol",["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_korn_tol_must_be_finite_and_positive(tmp_path, capsys, tol, source):
    # inf used to stop after 3 iterations and look converged; nan and -1 ran
    # 400 iterations and exited 4
    argv = ["korn", "--domain", "square", "--bc", "dirichlet", "--refine", "4"]
    if source == "flag":
        argv.append(f"--tol={tol}")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tol": float(tol)}))
        argv += ["--config", str(config)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("kornlab: invalid input: tol ")


def _square_mesh_file(tmp_path):
    from kornlab.mesh import unit_square

    path = tmp_path / "mesh.json"
    save_mesh(unit_square(4), path)
    return path


@pytest.mark.parametrize("given", [
    ["--domain", "disk"],
    ["--refine", "3"],
    ["--domain", "square", "--refine", "1"],
    {"domain": "square"},
    {"refine": 5},
], ids=["domain", "refine", "domain-refine", "config-domain", "config-refine"])
def test_sweep_settings_with_mesh_file_exit_2(tmp_path, capsys, given):
    # these used to run on the file's mesh while the report recorded them
    path = _square_mesh_file(tmp_path)
    if isinstance(given, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(given))
        keys, given = list(given), ["--config", str(config)]
    else:
        keys = [flag[2:] for flag in given[::2]]
    assert run(["korn", "--mesh-file", str(path)] + given) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert all(key in err for key in keys) and "mesh_file" in err


def test_mesh_file_report_records_no_sweep_settings(tmp_path):
    path, report = _square_mesh_file(tmp_path), tmp_path / "report.json"
    assert run(["korn", "--mesh-file", str(path), "--report", str(report)]) == 0
    config = json.loads(report.read_text())["config"]
    assert config == {"mesh_file": str(path), "bc": "tangential", "tol": 1e-10,
                      "store_maximizer": False, "report": str(report)}



def _with_config(tmp_path, argv):
    """``argv`` with a dict in it replaced by ``--config`` and a file holding it."""
    config = tmp_path / "cfg.json"
    out = []
    for item in argv:
        if isinstance(item, dict):
            config.write_text(json.dumps(item))
            out += ["--config", str(config)]
        else:
            out.append(item)
    return out


def test_non_finite_result_exits_4(tmp_path, capsys):
    # the report used to hold "alpha_norm": Infinity, which is not JSON, and exit 0
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code = run(["rigidity", "--n", "64", "--amplitude", "1e300", "--report", str(report)])
    assert code == 4
    assert "non-finite" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags", [
    ["--width", "1e300"],
    ["--width", "1e10"],
    ["--width", "20.5"],
    ["--box", "10", "--width", "12"],
], ids=["1e300", "1e10", "above-box", "above-set-box"])
def test_width_beyond_box_exits_2(capsys, flags):
    # 1e300 used to raise OverflowError (exit 1), 1e10 to exit 3
    assert run(["rigidity", "--n", "64"] + flags) == 2
    assert capsys.readouterr().err.startswith("kornlab: invalid input: width must be at most box")


@pytest.mark.parametrize("given", [
    ["--profile", "0.2+0.05*cos(3t)"],
    [{"profile": "0.2+0.05*cos(3t)"}],
], ids=["flag", "config"])
def test_profile_with_coeffs_file_exits_2(tmp_path, capsys, given):
    # the coefficients file used to win while the report recorded the profile
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"cos": {"0": 0.25, "2": 0.04}}))
    argv = ["shell", "--coeffs", str(coeffs), "--angular", "128"] + given
    assert run(_with_config(tmp_path, argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:")
    assert "profile" in err and "coeffs" in err


@pytest.mark.parametrize("argv, key", [
    (["shell", {"profile": ""}], "profile"),
    (["korn", "--mesh-file", ""], "mesh_file"),
    (["korn", "--mesh-file", "", "--refine", "1"], "mesh_file"),
    (["rigidity", "--alpha-file", ""], "alpha_file"),
    (["shell", "--coeffs", ""], "coeffs"),
    (["shell", "--csv", ""], "csv"),
    (["selftest", "--report", ""], "report"),
    (["korn", {"report": ""}], "report"),
], ids=["shell-profile", "mesh-file", "mesh-file-refine", "alpha-file", "coeffs", "csv",
        "report", "config-report"])
def test_empty_string_is_not_absent(tmp_path, capsys, argv, key):
    # each used to run as if the key were missing and record ""
    assert run(_with_config(tmp_path, argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("kornlab: invalid input:") and key in err


@pytest.mark.parametrize("argv, message", [
    (["rigidity", "--n", "16777216"], "n must be at most 4096"),
    (["korn", {"refine": "40"}], "refine must be at most 6"),
    (["korn", "--refine", "7"], "refine must be at most 6"),
    (["shell", "--angular", "100000000"], "angular must be at most 65536"),
    (["shell", "--radial", "100000"], "radial must be at most 16"),
    (["selftest", "--samples", "0"], "samples must be a positive integer"),
    (["selftest", "--samples", "100001"], "samples must be at most 100000"),
], ids=["n", "config-refine", "refine", "angular", "radial", "samples-0", "samples-max"])
def test_sizes_checked_before_allocation(tmp_path, capsys, argv, message):
    # these used to fail allocating (exit 1), run on past any timeout, use up
    # memory until killed, or exit 2 on numpy's zero-size array message
    assert run(_with_config(tmp_path, argv)) == 2
    assert capsys.readouterr().err.startswith(f"kornlab: invalid input: {message}")


@pytest.mark.parametrize("argv, key", [
    (["--box", "1e300"], ""),
    ([{"amplitude": 10**400}], "config key 'amplitude'"),
    ([{"center": [10**400, 0]}], "center"),
], ids=["box-1e300", "huge-int-amplitude", "huge-int-center"])
def test_numbers_too_large_to_compute_with_exit_2(tmp_path, capsys, argv, key):
    # each used to end in an OverflowError traceback (exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(_with_config(tmp_path, ["rigidity", "--n", "64"] + argv)) == 2
    assert capsys.readouterr().err.startswith(f"kornlab: invalid input: {key}")


@pytest.mark.parametrize("argv", [
    ["korn", "--refine", "0"],
    ["shell", "--angular", "16", "--radial", "1"],
    ["rigidity", "--n", "64"],
    ["selftest", "--samples", "2000"],
], ids=["korn", "shell", "rigidity", "selftest"])
@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_invalid_thread_count_exits_2_before_blas_sees_it(monkeypatch, capsys, argv, threads):
    # korn and shell used to run, with the value exported to BLAS; rigidity
    # and selftest exited 2 only at their first FFT, after the export
    import os

    monkeypatch.setenv("KORNLAB_THREADS", threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"kornlab: invalid input: KORNLAB_THREADS must be a positive integer, got {threads!r}\n")
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def _alpha_header(tmp_path, **changes):
    path = tmp_path / "alpha.json"
    save_field(ScalarField(PeriodicGrid(16, 8.0), np.zeros((16, 16))), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
    return path


def _vector_field_file(tmp_path):
    # the header and payload a two-component field would need
    path = tmp_path / "vector.json"
    path.write_text(json.dumps({"n": 16, "L": 8.0, "components": 2, "dtype": "float64",
                                "order": "row-major", "format": "bin", "data": "vector.bin"}))
    np.zeros((2, 16, 16)).astype("<f8").tofile(tmp_path / "vector.bin")
    return path


def _list_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    return path


def _json_text(name, text):
    """A writer of ``text`` to the file ``name``, for inputs json.dumps cannot
    write, such as an object that repeats a key."""
    def write(tmp_path):
        (tmp_path / name).write_text(text)
        return tmp_path / name
    return write


@pytest.mark.parametrize("argv, message", [
    (["korn", "--config", _list_config], "config file must hold a flat JSON object"),
    (["shell", "--profile", " "], "empty profile ' '"),
    (["rigidity", "--alpha-file", _vector_field_file], "unsupported component count 2"),
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, components=3)],
     "unsupported component count 3"),
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, format="xml")],
     "unknown field format 'xml'"),
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, n=16.7)],
     "field header key 'n' must be an integer, got 16.7"),
    # a number here used to crash with a TypeError (exit 1)
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, data=5)],
     "field header key 'data' must name a file beside the header, got 5"),
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, data="../alpha.bin")],
     "field header key 'data' must name a file beside the header, got '../alpha.bin'"),
    (["rigidity", "--alpha-file", lambda d: _alpha_header(d, data="..")],
     "field header key 'data' must name a file beside the header, got '..'"),
    # these used to run on with the last of the two values
    (["korn", "--config", _json_text("cfg.json", '{"refine": 1, "refine": 2, "domain": "disk"}')],
     "repeated key 'refine' in a JSON object"),
    (["shell", "--coeffs", _json_text("coeffs.json", '{"cos": {"0": 0.2, "3": 0.05, "3": 0.01}}')],
     "repeated key '3' in a JSON object"),
    (["korn", "--mesh-file", _json_text("mesh.json", '{"vertices": [[0, 0], [1, 0], [0, 1]], '
                                        '"vertices": [[0, 0], [2, 0], [0, 2]], '
                                        '"triangles": [[0, 1, 2]]}')],
     "repeated key 'vertices' in a JSON object"),
    (["rigidity", "--alpha-file", _json_text("alpha.json", '{"n": 16, "n": 32, "L": 8.0, '
                                             '"components": 1, "format": "bin", '
                                             '"data": "alpha.bin"}')],
     "repeated key 'n' in a JSON object"),
], ids=["config-list", "blank-profile", "vector-alpha", "three-components", "xml-format",
        "fractional-n", "numeric-data", "data-outside", "data-parent", "repeated-config-key", "repeated-wavenumber", "repeated-mesh-key",
        "repeated-header-key"])
def test_refusal_names_its_defect(tmp_path, capsys, argv, message):
    argv = [str(item(tmp_path)) if callable(item) else item for item in argv]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"kornlab: invalid input: {message}\n"


class TestCachedParser:
    """``main`` builds its parser once per process and looks up the
    subcommand function at call time."""

    SHELL = ["shell", "--h-list", "0.1,0.05", "--angular", "128", "--radial", "2"]
    RIGIDITY = ["rigidity", "--n", "64", "--width", "0.5", "--amplitude", "0.4"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reports_match_separate_processes(self, tmp_path):
        src = str(Path(kornlab.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv in (self.SHELL, self.RIGIDITY):
            here, alone = tmp_path / "here.json", tmp_path / "alone.json"
            assert run([*argv, "--report", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "kornlab.cli", *argv, "--report", str(alone)],
                           env=env, check=True)
            reports = [json.loads(path.read_text()) for path in (here, alone)]
            for report in reports:
                report.pop("timestamp")
                report["config"].pop("report")
            assert reports[0] == reports[1]

    def test_runs_the_function_set_after_the_first_call(self, tmp_path, monkeypatch):
        assert run([*self.RIGIDITY, "--report", str(tmp_path / "r.json")]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_rigidity", lambda config, values: calls.append(values) or 0)
        assert run(self.RIGIDITY) == 0
        assert [values["n"] for values in calls] == [64]

    def test_bad_arguments_exit_2_after_a_good_call(self, tmp_path, capsys):
        assert run([*self.SHELL, "--report", str(tmp_path / "s.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["korn", "--refine", "two"])
        assert exc.value.code == 2
        assert run(["korn", "--tol", "nan"]) == 2
        assert "tol must be finite" in capsys.readouterr().err
