import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kornlab import mat2
from kornlab.errors import DegenerateRotation

finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_matrices(rng, count):
    return rng.uniform(-10.0, 10.0, size=(4, count))


def projection_split_oracle(f: mat2.Mat2):
    """Independent split: least-squares projection onto the conformal and
    anticonformal basis matrices, solved as a 4x4 linear system."""
    basis = np.array([
        [1.0, 0.0, 0.0, 1.0],    # conformal (a)
        [0.0, 1.0, -1.0, 0.0],   # conformal (b)
        [1.0, 0.0, 0.0, -1.0],   # anticonformal (a)
        [0.0, 1.0, 1.0, 0.0],    # anticonformal (b)
    ]).T
    coeffs, *_ = np.linalg.lstsq(basis, f.as_array().ravel(), rcond=None)
    return coeffs  # (c_a, c_b, a_a, a_b)


class TestSplit:
    def test_identity_is_conformal(self):
        s = mat2.split(mat2.Mat2.identity())
        assert (s.c_a, s.c_b, s.a_a, s.a_b) == (1.0, 0.0, 0.0, 0.0)

    def test_generic_matrix_against_projection_oracle(self):
        f = mat2.Mat2(1.0, 2.0, 3.0, 4.0)
        s = mat2.split(f)
        assert (s.c_a, s.c_b, s.a_a, s.a_b) == (2.5, -0.5, -1.5, 2.5)
        oracle = projection_split_oracle(f)
        np.testing.assert_allclose([s.c_a, s.c_b, s.a_a, s.a_b], oracle, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.3, math.pi, 5.1])
    def test_rotations_have_no_anticonformal_part(self, theta):
        s = mat2.split(mat2.Rotation(theta).matrix())
        assert abs(s.a_a) == 0.0 and abs(s.a_b) == 0.0

    def test_reconstruction(self):
        f = mat2.Mat2(0.3, -1.7, 2.2, 9.9)
        s = mat2.split(f)
        total = s.conformal().as_array() + s.anticonformal().as_array()
        np.testing.assert_allclose(total, f.as_array(), atol=1e-15)


class TestCofactor:
    def test_identity(self):
        assert mat2.cofactor(mat2.Mat2.identity()) == mat2.Mat2.identity()

    def test_generic_and_det_identity(self):
        f = mat2.Mat2(1.0, 2.0, 3.0, 4.0)
        cof = mat2.cofactor(f)
        assert cof == mat2.Mat2(4.0, -3.0, -2.0, 1.0)
        # F (cof F)^T = det(F) Id
        prod = f.as_array() @ cof.as_array().T
        np.testing.assert_allclose(prod, f.det() * np.eye(2), atol=1e-12)

    def test_anticonformal_matrix_negates(self):
        b = mat2.Mat2(1.0, 0.0, 0.0, -1.0)
        cof = mat2.cofactor(b)
        np.testing.assert_allclose(cof.as_array(), -b.as_array(), atol=0)


class TestDistSo2:
    def test_identity_zero(self):
        assert mat2.dist_so2(mat2.Mat2.identity()) == 0.0

    def test_double_identity(self):
        # brute force over a fine grid verifies sqrt(2); the minimizer is 0
        f = mat2.Mat2(2.0, 0.0, 0.0, 2.0)
        assert abs(mat2.dist_so2(f) - math.sqrt(2.0)) < 1e-15
        brute = mat2.dist_so2_bruteforce(2.0, 0.0, 0.0, 2.0)
        assert abs(brute - math.sqrt(2.0)) < 1e-12

    def test_pure_anticonformal_distance_constant_in_theta(self):
        # |diag(1,-1) - R(theta)|^2 = 4 for every theta
        f = mat2.Mat2(1.0, 0.0, 0.0, -1.0)
        thetas = np.linspace(0.0, 2.0 * math.pi, 1000)
        c, s = np.cos(thetas), np.sin(thetas)
        d2 = (1 - c) ** 2 + s**2 + s**2 + (-1 - c) ** 2
        np.testing.assert_allclose(d2, 4.0, atol=1e-12)
        assert abs(mat2.dist_so2(f) - 2.0) < 1e-15


class TestClosestRotation:
    def test_identity(self):
        assert mat2.closest_rotation(mat2.Mat2.identity()).theta == 0.0

    def test_anticonformal_perturbation_is_irrelevant(self):
        r = mat2.Rotation(1.3).as_array()
        perturb = np.array([[0.4, 0.1], [0.1, -0.4]])
        f = mat2.Mat2.from_array(r + perturb)
        assert abs(mat2.closest_rotation(f).theta - 1.3) < 1e-12
        # brute force confirms the angle
        thetas = np.linspace(0.0, 2 * math.pi, 400001)
        dists = [
            np.linalg.norm(f.as_array() - mat2.Rotation(t).as_array()) for t in thetas[::400]
        ]
        best = thetas[::400][int(np.argmin(dists))]
        assert abs(best - 1.3) < 0.01

    def test_degenerate_conformal_part(self):
        with pytest.raises(DegenerateRotation):
            mat2.closest_rotation(mat2.Mat2(1.0, 0.0, 0.0, -1.0))

    def test_angle_reduction(self):
        assert mat2.Rotation(-math.pi).theta == pytest.approx(math.pi)
        assert mat2.Rotation(2.0 * math.pi).theta == 0.0


@settings(max_examples=200, deadline=None)
@given(m11=finite_entries, m12=finite_entries, m21=finite_entries, m22=finite_entries)
def test_split_invariants_hypothesis(m11, m12, m21, m22):
    f = mat2.Mat2(m11, m12, m21, m22)
    s = mat2.split(f)
    fc = s.conformal().as_array()
    fa = s.anticonformal().as_array()
    scale = max(1.0, f.frobenius() ** 2)
    assert np.abs(fc + fa - f.as_array()).max() <= 1e-12 * scale
    assert abs((fc * fa).sum()) <= 1e-12 * scale
    assert abs((fc**2).sum() + (fa**2).sum() - f.frobenius() ** 2) <= 1e-12 * scale
    # det F = (|F^c|^2 - |F^a|^2) / 2
    assert abs(f.det() - 0.5 * ((fc**2).sum() - (fa**2).sum())) <= 1e-12 * scale
    # distance bounds: dist >= |F^a| and |cof F - F| <= 2 dist
    dist = mat2.dist_so2(f)
    fa_norm = math.sqrt((fa**2).sum())
    assert dist >= fa_norm - 1e-12 * scale
    cof_gap = np.linalg.norm(mat2.cofactor(f).as_array() - f.as_array())
    assert abs(cof_gap - 2.0 * fa_norm) <= 1e-12 * scale
    assert cof_gap <= 2.0 * dist + 1e-12 * scale


def test_dist_closed_form_matches_bruteforce_bulk():
    rng = np.random.default_rng(2024)
    m11, m12, m21, m22 = random_matrices(rng, 5000)
    closed = mat2.dist_so2_arrays(m11, m12, m21, m22)
    brute = mat2.dist_so2_bruteforce(m11, m12, m21, m22)
    assert np.abs(closed - brute).max() < 1e-9


_rng = np.random.default_rng(31)


@pytest.mark.parametrize("entries", [
    (1.5, *_rng.uniform(-3.0, 3.0, (3, 40))),
    (np.asarray(0.4), -0.2, np.asarray(0.7), 1.1),
    (0.9, 0.1, -0.3, 2),
    (_rng.uniform(-3.0, 3.0, (5, 1)), _rng.uniform(-3.0, 3.0, (1, 6)), 0.25,
     _rng.uniform(-3.0, 3.0, 6)),
], ids=["float-m11", "zero-d", "python-scalars", "broadcast-2d"])
def test_dist_arrays_broadcasts_mixed_inputs(entries):
    closed = mat2.dist_so2_arrays(*entries)
    brute = mat2.dist_so2_bruteforce(*entries)
    assert np.shape(closed) == np.broadcast_shapes(*(np.shape(m) for m in entries))
    assert np.abs(closed - brute).max() < 1e-9


def test_det_identity_printed_constant_two_fails_at_identity():
    # The constant in det F = c (|F^c|^2 - |F^a|^2) is 1/2: at F = Id the
    # split norms give |F^c|^2 = 2, |F^a|^2 = 0, and det Id = 1.  The
    # plausible misprint c = 2 would claim det Id = 4; keep this pinned so
    # the constant can never silently drift.
    f = mat2.Mat2.identity()
    s = mat2.split(f)
    gap = 2.0 * (s.c_a**2 + s.c_b**2) - 2.0 * (s.a_a**2 + s.a_b**2)
    assert f.det() == 0.5 * gap
    assert f.det() != 2.0 * gap


def test_closest_rotation_maximizes_trace_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = mat2.Mat2(*rng.uniform(-5, 5, 4))
        try:
            theta = mat2.closest_rotation(f).theta
        except DegenerateRotation:
            continue
        # F : R(theta) beats a dense sample of other rotations
        best = (f.as_array() * mat2.Rotation(theta).as_array()).sum()
        others = np.linspace(0, 2 * math.pi, 721)
        vals = [(f.as_array() * mat2.Rotation(t).as_array()).sum() for t in others]
        assert best >= max(vals) - 1e-8
