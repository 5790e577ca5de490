import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kornlab import mat2
from kornlab.errors import DegenerateRotation

finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_matrices(rng, count):
    return rng.uniform(-10.0, 10.0, size=(4, count))


def cofactor_oracle(f):
    """Cofactor matrix of a (2, 2) array: cof F = [[m22, -m21], [-m12, m11]]."""
    (m11, m12), (m21, m22) = f
    return np.array([[m22, -m21], [-m12, m11]])


def split_parts(f):
    """The conformal and anticonformal parts of a (2, 2) array, built from
    the coefficients of :func:`mat2.split_arrays`."""
    c_a, c_b, a_a, a_b = mat2.split_arrays(f[0, 0], f[0, 1], f[1, 0], f[1, 1])
    return np.array([[c_a, c_b], [-c_b, c_a]]), np.array([[a_a, a_b], [a_b, -a_a]])


def projection_split_oracle(f):
    """Independent split: least-squares projection onto the conformal and
    anticonformal basis matrices, solved as a 4x4 linear system."""
    basis = np.array([
        [1.0, 0.0, 0.0, 1.0],    # conformal (a)
        [0.0, 1.0, -1.0, 0.0],   # conformal (b)
        [1.0, 0.0, 0.0, -1.0],   # anticonformal (a)
        [0.0, 1.0, 1.0, 0.0],    # anticonformal (b)
    ]).T
    coeffs, *_ = np.linalg.lstsq(basis, np.asarray(f).ravel(), rcond=None)
    return coeffs  # (c_a, c_b, a_a, a_b)


class TestSplit:
    def test_identity_is_conformal(self):
        assert mat2.split_arrays(1.0, 0.0, 0.0, 1.0) == (1.0, 0.0, 0.0, 0.0)

    def test_generic_matrix_against_projection_oracle(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = mat2.split_arrays(1.0, 2.0, 3.0, 4.0)
        assert s == (2.5, -0.5, -1.5, 2.5)
        np.testing.assert_allclose(s, projection_split_oracle(f), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.3, math.pi, 5.1])
    def test_rotations_have_no_anticonformal_part(self, theta):
        r = mat2.Rotation(theta).as_array()
        _, _, a_a, a_b = mat2.split_arrays(r[0, 0], r[0, 1], r[1, 0], r[1, 1])
        assert abs(a_a) == 0.0 and abs(a_b) == 0.0

    def test_reconstruction(self):
        f = np.array([[0.3, -1.7], [2.2, 9.9]])
        fc, fa = split_parts(f)
        np.testing.assert_allclose(fc + fa, f, atol=1e-15)


class TestCofactor:
    # the cofactor is an inline oracle here; these pin the split against it
    # through cof F - F = -2 F^a and F (cof F)^T = det(F) Id
    def test_identity(self):
        f = np.eye(2)
        _, fa = split_parts(f)
        assert np.array_equal(cofactor_oracle(f) - f, -2.0 * fa)

    def test_generic_and_det_identity(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        cof = cofactor_oracle(f)
        assert np.array_equal(cof, [[4.0, -3.0], [-2.0, 1.0]])
        fc, fa = split_parts(f)
        np.testing.assert_allclose(cof - f, -2.0 * fa, atol=1e-12)
        det = mat2.DET_SPLIT_CONSTANT * ((fc**2).sum() - (fa**2).sum())
        np.testing.assert_allclose(f @ cof.T, det * np.eye(2), atol=1e-12)

    def test_anticonformal_matrix_negates(self):
        b = np.array([[1.0, 0.0], [0.0, -1.0]])
        fc, fa = split_parts(b)
        assert np.array_equal(fc, np.zeros((2, 2))) and np.array_equal(fa, b)
        np.testing.assert_allclose(cofactor_oracle(b), -b, atol=0)


class TestDistSo2:
    def test_identity_zero(self):
        assert mat2.dist_so2_arrays(1.0, 0.0, 0.0, 1.0) == 0.0

    def test_double_identity(self):
        # brute force over a fine grid verifies sqrt(2); the minimizer is 0
        assert abs(mat2.dist_so2_arrays(2.0, 0.0, 0.0, 2.0) - math.sqrt(2.0)) < 1e-15
        brute = mat2.dist_so2_bruteforce(2.0, 0.0, 0.0, 2.0)
        assert abs(brute - math.sqrt(2.0)) < 1e-12

    def test_pure_anticonformal_distance_constant_in_theta(self):
        # |diag(1,-1) - R(theta)|^2 = 4 for every theta
        thetas = np.linspace(0.0, 2.0 * math.pi, 1000)
        c, s = np.cos(thetas), np.sin(thetas)
        d2 = (1 - c) ** 2 + s**2 + s**2 + (-1 - c) ** 2
        np.testing.assert_allclose(d2, 4.0, atol=1e-12)
        assert abs(mat2.dist_so2_arrays(1.0, 0.0, 0.0, -1.0) - 2.0) < 1e-15


class TestClosestRotation:
    def test_identity(self):
        assert mat2.closest_rotation(np.eye(2)).theta == 0.0

    def test_anticonformal_perturbation_is_irrelevant(self):
        r = mat2.Rotation(1.3).as_array()
        perturb = np.array([[0.4, 0.1], [0.1, -0.4]])
        f = r + perturb
        assert abs(mat2.closest_rotation(f).theta - 1.3) < 1e-12
        # brute force confirms the angle
        thetas = np.linspace(0.0, 2 * math.pi, 400001)
        dists = [np.linalg.norm(f - mat2.Rotation(t).as_array()) for t in thetas[::400]]
        best = thetas[::400][int(np.argmin(dists))]
        assert abs(best - 1.3) < 0.01

    def test_degenerate_conformal_part(self):
        with pytest.raises(DegenerateRotation):
            mat2.closest_rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_angle_reduction(self):
        assert mat2.Rotation(-math.pi).theta == pytest.approx(math.pi)
        assert mat2.Rotation(2.0 * math.pi).theta == 0.0


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(allow_nan=False, allow_infinity=False))
@example(theta=-0.0)
@example(theta=-5e-324)
@example(theta=-1e-17)
@example(theta=2.0 * math.pi)
@example(theta=4.0 * math.pi)
def test_rotation_angle_lies_in_half_open_turn(theta):
    # float % rounds a tiny negative angle up to 2*pi itself
    assert 0.0 <= mat2.Rotation(theta).theta < mat2.TWO_PI


@settings(max_examples=200, deadline=None)
@given(m11=finite_entries, m12=finite_entries, m21=finite_entries, m22=finite_entries)
def test_split_invariants_hypothesis(m11, m12, m21, m22):
    f = np.array([[m11, m12], [m21, m22]])
    fc, fa = split_parts(f)
    frob_sq = (f**2).sum()
    scale = max(1.0, frob_sq)
    assert np.abs(fc + fa - f).max() <= 1e-12 * scale
    assert abs((fc * fa).sum()) <= 1e-12 * scale
    assert abs((fc**2).sum() + (fa**2).sum() - frob_sq) <= 1e-12 * scale
    # det F = (|F^c|^2 - |F^a|^2) / 2
    det = m11 * m22 - m12 * m21
    assert abs(det - 0.5 * ((fc**2).sum() - (fa**2).sum())) <= 1e-12 * scale
    # distance bounds: dist >= |F^a| and |cof F - F| <= 2 dist
    dist = mat2.dist_so2_arrays(m11, m12, m21, m22)
    fa_norm = math.sqrt((fa**2).sum())
    assert dist >= fa_norm - 1e-12 * scale
    cof_gap = np.linalg.norm(cofactor_oracle(f) - f)
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
    c_a, c_b, a_a, a_b = mat2.split_arrays(1.0, 0.0, 0.0, 1.0)
    gap = 2.0 * (c_a**2 + c_b**2) - 2.0 * (a_a**2 + a_b**2)
    det = 1.0 * 1.0 - 0.0 * 0.0
    assert det == 0.5 * gap
    assert det != 2.0 * gap


def test_closest_rotation_maximizes_trace_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = rng.uniform(-5, 5, 4).reshape(2, 2)
        try:
            theta = mat2.closest_rotation(f).theta
        except DegenerateRotation:
            continue
        # F : R(theta) beats a dense sample of other rotations
        best = (f * mat2.Rotation(theta).as_array()).sum()
        others = np.linspace(0, 2 * math.pi, 721)
        vals = [(f * mat2.Rotation(t).as_array()).sum() for t in others]
        assert best >= max(vals) - 1e-8
