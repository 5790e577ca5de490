import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg  # noqa: F401  (sp.linalg for the saddle-form oracle)

from kornlab import cli
from kornlab import kornfem as kf
from kornlab.errors import InfiniteQuotient, SolverFailure
from kornlab.mesh import TriMesh, annulus, disk, evaluate_field_ratio, unit_square

from helpers import divfree_bump


def _encoded(est):
    """The estimate as a ``korn`` report writes one level of it."""
    return json.loads(json.dumps(est, default=cli._encode))


def element_matrices_oracle():
    """Independent 6x6 element matrices for the reference triangle
    ((0,0), (1,0), (0,1)) in exact rational arithmetic, straight from the
    definitions of the three quadratic forms (integrands are constant)."""
    grads = [
        (Fraction(-1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    area = Fraction(1, 2)
    A = [[Fraction(0)] * 6 for _ in range(6)]
    B = [[Fraction(0)] * 6 for _ in range(6)]
    C = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        for c in range(2):
            for j in range(3):
                for d in range(2):
                    I, J = 2 * i + c, 2 * j + d
                    # grad(phi_i e_c) has single nonzero row c = grads[i]
                    if c == d:
                        A[I][J] = area * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1])
                    # D(u):D(v) = 1/2 (grad u : grad v + grad u : (grad v)^T)
                    s = grads[i][d] * grads[j][c]
                    B[I][J] = Fraction(1, 2) * (A[I][J] + area * s)
                    C[I][J] = area * grads[i][c] * grads[j][d]
    to_np = lambda M: np.array([[float(x) for x in row] for row in M])
    return to_np(A), to_np(B), to_np(C)


class TestAssembly:
    def test_reference_triangle_matches_rational_oracle(self, full_space_forms):
        mesh = TriMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
        )
        grad, symgrad, divdiv = full_space_forms(mesh)
        A_exp, B_exp, C_exp = element_matrices_oracle()
        np.testing.assert_allclose(grad.toarray(), A_exp, atol=1e-15)
        np.testing.assert_allclose(symgrad.toarray(), B_exp, atol=1e-15)
        np.testing.assert_allclose(divdiv.toarray(), C_exp, atol=1e-15)

    @pytest.mark.parametrize(
        "mesh_factory",
        [lambda: unit_square(5), lambda: disk(2), lambda: annulus(0.6, 1.0, 24, 2)],
        ids=["square", "disk", "annulus"],
    )
    def test_null_lagrangian_identity_on_dirichlet_dofs(self, mesh_factory, full_space_forms):
        mesh = mesh_factory()
        grad, symgrad, divdiv = full_space_forms(mesh)
        Z = kf.dirichlet_constraints(mesh).basis
        gap = 2.0 * (Z.T @ symgrad @ Z) - Z.T @ grad @ Z - Z.T @ divdiv @ Z
        denom = np.abs((Z.T @ grad @ Z).toarray()).max()
        assert np.abs(gap.toarray()).max() <= 1e-13 * denom

    def test_skew_affine_field_has_zero_strain_energy(self, full_space_forms):
        mesh = unit_square(4)
        grad, symgrad, _ = full_space_forms(mesh)
        u = np.zeros(2 * len(mesh.vertices))
        u[0::2] = -mesh.vertices[:, 1]
        u[1::2] = mesh.vertices[:, 0]
        assert abs(u @ (symgrad @ u)) < 1e-14
        # while the full gradient energy is positive
        assert u @ (grad @ u) > 1.0

    def test_area_and_curl_functional(self):
        mesh = disk(3)
        forms = kf.assemble(mesh)
        assert forms.area == pytest.approx(mesh.areas().sum())
        u = np.zeros(2 * len(mesh.vertices))
        u[0::2] = -mesh.vertices[:, 1]
        u[1::2] = mesh.vertices[:, 0]
        # curl of the rigid rotation is 2 on every triangle
        assert forms.curl_vec @ u == pytest.approx(2.0 * forms.area, rel=1e-12)


def _loop_kinds(mesh):
    """The per-vertex loop the array code replaced, kept as the oracle:
    boundary vertex -> ("pinned", None) or ("normal", unit normal), the
    adjacent edge normals collected in edge order and their bisector
    normalized with np.linalg.norm."""
    per_vertex = {}
    for (a, b), n in zip(mesh.boundary_edges, mesh.boundary_normals):
        per_vertex.setdefault(int(a), []).append(n)
        per_vertex.setdefault(int(b), []).append(n)
    kinds = {}
    for v, normals in per_vertex.items():
        if len(normals) == 1:
            kinds[v] = ("normal", normals[0])
            continue
        n1, n2 = normals[0], normals[1]
        angle = math.atan2(abs(n1[0] * n2[1] - n1[1] * n2[0]), float(n1 @ n2))
        s = n1 + n2
        norm = np.linalg.norm(s)
        if angle > kf.CORNER_ANGLE or norm == 0.0:
            kinds[v] = ("pinned", None)
        else:
            kinds[v] = ("normal", s / norm)
    return kinds


def _loop_basis(nverts, kinds):
    """Basis column by column: two unit columns per free vertex, the tangent
    (-n2, n1) per normal-constrained vertex, none per pinned vertex."""
    rows, cols, vals = [], [], []
    col = 0
    for v in range(nverts):
        kind = kinds.get(v)
        if kind is None:
            for c in range(2):
                rows.append(2 * v + c)
                cols.append(col)
                vals.append(1.0)
                col += 1
        elif kind[0] == "normal":
            n = kind[1]
            rows.extend([2 * v, 2 * v + 1])
            cols.extend([col, col])
            vals.extend([-n[1], n[0]])
            col += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * nverts, col))


def _shell_8192(h):
    from kornlab.shells import ShellSpec, shell_mesh

    return shell_mesh(ShellSpec(h=h, angular_resolution=8192))


ORACLE_MESHES = (
    [("square-dirichlet", lambda: unit_square(8), "dirichlet"),
     ("disk-slip", lambda: disk(3), "tangential"),
     ("annulus-slip", lambda: annulus(0.6, 1.0, 24, 2), "tangential"),
     ("shell-slip", lambda: kf.builtin_domain("shell", 0), "tangential")]
    + [(f"square{lv}-{bc}", lambda lv=lv: kf.builtin_domain("square", lv), bc)
       for lv in range(1, 8) for bc in ("tangential", "dirichlet")]
    + [(f"disk{lv}", lambda lv=lv: kf.builtin_domain("disk", lv), "tangential")
       for lv in range(2, 6)]
    + [(f"annulus{lv}", lambda lv=lv: kf.builtin_domain("annulus", lv), "tangential")
       for lv in range(1, 5)]
    + [(f"shell{lv}", lambda lv=lv: kf.builtin_domain("shell", lv), "tangential")
       for lv in range(3)]
    + [(f"shell8192-h{h}", lambda h=h: _shell_8192(h), "tangential")
       for h in (0.1, 0.05, 0.025, 0.0125)]
)


class TestConstraints:
    def test_square_corners_pinned_edges_normal(self):
        mesh = unit_square(4)
        cs = kf.tangential_constraints(mesh)
        corners = {0, 4, 20, 24}
        assert np.array_equal(cs.vertices, mesh.boundary_vertices())
        assert np.array_equal(cs.slip, [v not in corners for v in cs.vertices])
        for v, normal in zip(cs.vertices[cs.slip], cs.normals):
            x, y = mesh.vertices[v]
            expected_axis = 0 if x in (0.0, 1.0) else 1
            assert abs(abs(normal[expected_axis]) - 1.0) < 1e-12

    def test_disk_bisector_normals_close_to_radial(self):
        mesh = disk(4)
        cs = kf.tangential_constraints(mesh)
        assert cs.slip.all()
        points = mesh.vertices[cs.vertices]
        radial = points / np.linalg.norm(points, axis=1)[:, None]
        worst = float(np.abs(cs.normals - radial).max())
        h = 2.0 * math.pi / (6 * 2**4)
        assert worst <= 4.0 * h**2

    def test_dirichlet_pins_all_boundary(self):
        mesh = unit_square(3)
        cs = kf.dirichlet_constraints(mesh)
        assert cs.dof_count == 2 * (len(mesh.vertices) - len(mesh.boundary_vertices()))

    def test_basis_columns_orthonormal(self):
        mesh = disk(3)
        cs = kf.tangential_constraints(mesh)
        gram = (cs.basis.T @ cs.basis).toarray()
        np.testing.assert_allclose(gram, np.eye(cs.dof_count), atol=1e-14)

    @pytest.mark.parametrize("mesh_factory,bc", [m[1:] for m in ORACLE_MESHES],
                             ids=[m[0] for m in ORACLE_MESHES])
    def test_basis_matches_vertex_loop(self, mesh_factory, bc):
        # the thin-shell iteration counts move with the last bit of a slip
        # normal, so the array code must round exactly as the loop did
        mesh = mesh_factory()
        if bc == "tangential":
            cs, kinds = kf.tangential_constraints(mesh), _loop_kinds(mesh)
        else:
            cs = kf.dirichlet_constraints(mesh)
            kinds = {int(v): ("pinned", None) for v in mesh.boundary_vertices()}
        vertices = sorted(kinds)
        assert np.array_equal(cs.vertices, vertices)
        assert np.array_equal(cs.slip, [kinds[v][0] == "normal" for v in vertices])
        normals = np.array([kinds[v][1] for v in vertices if kinds[v][0] == "normal"])
        normals = normals.reshape(-1, 2)
        assert cs.normals.dtype == normals.dtype
        assert np.array_equal(cs.normals, normals)
        ref = _loop_basis(len(mesh.vertices), kinds)
        assert cs.basis.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(cs.basis, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestDetectLOmega:
    def test_square_is_trivial(self):
        info = kf.detect_L_omega(unit_square(6))
        assert info.kind == "trivial"
        assert info.residual > 1e-3

    def test_shifted_disk_recovers_center(self):
        m = disk(4)
        info = kf.detect_L_omega(TriMesh(m.vertices + (3.0, -1.0), m.triangles))
        assert info.kind == "rotational"
        assert np.abs(info.center - np.array([3.0, -1.0])).max() < 1e-3

    def test_profiled_annulus_is_trivial(self):
        from kornlab.shells import ShellSpec, shell_mesh

        mesh = shell_mesh(ShellSpec(h=0.1, angular_resolution=128, radial_layers=2))
        info = kf.detect_L_omega(mesh)
        assert info.kind == "trivial"
        assert info.residual > 1e-3

    def test_perturbed_disk_fails_detection(self):
        mesh = disk(4)
        rng = np.random.default_rng(3)
        mesh.vertices = mesh.vertices + rng.uniform(-5e-3, 5e-3, mesh.vertices.shape)
        mesh = TriMesh(mesh.vertices, mesh.triangles)
        info = kf.detect_L_omega(mesh)
        assert info.kind == "trivial"
        assert info.residual >= 1e-3


class TestKornConstant:
    def test_small_square_matches_dense_oracle(self, full_space_forms):
        mesh = unit_square(4)  # 30 constrained dofs: dense path
        est = kf.korn_constant(mesh, bc="tangential")
        # brute-force full-spectrum solve on explicitly restricted matrices
        grad, symgrad, _ = full_space_forms(mesh)
        Z = kf.tangential_constraints(mesh).basis
        from scipy.linalg import eigh

        A = (Z.T @ grad @ Z).toarray()
        B = (Z.T @ symgrad @ Z).toarray()
        vals = eigh(A, B, eigvals_only=True)
        assert abs(est.kappa_sq - vals[-1]) < 1e-12 * max(1.0, vals[-1])

    def test_iterative_path_matches_dense(self, monkeypatch):
        for mesh, bc in ((disk(3), "tangential"), (unit_square(12), "dirichlet")):
            it = kf.korn_constant(mesh, bc=bc)
            with monkeypatch.context() as m:
                m.setattr(kf, "DENSE_THRESHOLD", 10**6)
                dn = kf.korn_constant(mesh, bc=bc)
            assert abs(it.kappa_sq - dn.kappa_sq) <= 1e-8 * dn.kappa_sq

    def test_square_tangential_sweep_monotone_to_two(self):
        estimates = kf.korn_sweep("square", [1, 2, 3, 4], bc="tangential")
        seq = [e.kappa_sq for e in estimates]
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
        assert 1.90 <= seq[-1] <= 2.0 + 1e-9

    def test_dirichlet_bounded_by_two_and_converges(self):
        estimates = kf.korn_sweep("square", [1, 2, 3, 4, 5], bc="dirichlet")
        seq = [e.kappa_sq for e in estimates]
        assert all(v <= 2.0 + 1e-12 for v in seq)
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
        assert seq[-1] >= 1.95

    def test_disk_deflation_is_stable_under_refinement(self):
        values = []
        for level in (2, 3, 4):
            est = kf.korn_constant(disk(level), bc="tangential")
            assert est.l_omega.kind == "rotational"
            assert est.deflated_rotation
            assert math.isfinite(est.kappa_sq)
            values.append(est.kappa_sq)
        assert abs(values[-1] - values[-2]) <= 0.02 * values[-1]

    def test_rotation_quotient_is_excluded_by_deflation(self):
        # without deflation the rigid rotation makes B singular; the solver
        # must still produce a finite value and flag the deflation
        est = kf.korn_constant(disk(3), bc="tangential")
        assert est.deflated_rotation
        assert est.kappa_sq < 10.0

    def test_skew_mode_downdate_matches_scan_minimization(self):
        # On a rotationally symmetric domain the numerator minimizes
        # int |grad u - t J|^2 over the multiples of the quarter-turn J;
        # compare the rank-one downdate against a brute-force scan in t.
        mesh = disk(3)
        forms = kf.assemble(mesh)
        cs = kf.tangential_constraints(mesh)
        pencil = kf._Pencil(forms, cs.basis, forms.curl_vec)
        grads, areas = kf._shape_gradients(mesh)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(pencil.n)
            tri_vals = (cs.basis @ x).reshape(-1, 2)[mesh.triangles]
            G = np.einsum("tic,tid->tcd", tri_vals, grads)

            def objective(t):
                diff = G - t * J[None, :, :]
                return float(np.einsum("t,tcd,tcd->", areas, diff, diff))

            ts = np.linspace(-5.0, 5.0, 4001)
            best = ts[int(np.argmin([objective(t) for t in ts]))]
            local = np.linspace(best - 5e-3, best + 5e-3, 4001)
            direct = min(objective(t) for t in local)
            assert abs(direct - x @ pencil.apply_A(x)) <= 1e-8 * max(1.0, direct)

    def test_top_eigenspace_is_linear(self):
        # any combination of top-cluster eigenvectors attains kappa_sq
        mesh = unit_square(4)
        forms = kf.assemble(mesh)
        constraints = kf.tangential_constraints(mesh)
        pencil = kf._Pencil(forms, constraints.basis, None)
        vals, vecs = kf._dense_top(pencil, 3)
        top = vals[0]
        cluster = vecs[:, np.abs(vals - top) <= 1e-6 * max(1.0, abs(top))]
        assert cluster.shape[1] >= 2
        rng = np.random.default_rng(0)
        for _ in range(10):
            combo = cluster @ rng.standard_normal(cluster.shape[1])
            rho = (combo @ (pencil.A @ combo)) / (combo @ (pencil.B @ combo))
            assert abs(rho - top) <= 1e-10 * max(1.0, top)

    def test_empty_constrained_space_raises(self):
        # the 2-triangle square has only boundary vertices
        with pytest.raises(SolverFailure, match="empty"):
            kf.korn_constant(unit_square(1), bc="dirichlet")

    @pytest.mark.parametrize(
        "domain,level",
        [("square", 4), ("disk", 4), ("annulus", 3), ("shell", 1)],
    )
    def test_every_builtin_domain_reaches_whole_plane_bound(self, domain, level):
        # the whole-plane constant 2 bounds every domain from below; the
        # divergence-free bump seed realizes it at moderate resolution
        est = kf.korn_constant(kf.builtin_domain(domain, level=level), bc="tangential")
        assert est.kappa_sq >= 2.0 - 0.05

    def test_non_convergence_raises_with_counts(self, monkeypatch):
        # three steps leave the disk far from converged (residual ~0.8)
        monkeypatch.setattr(kf, "MAX_ITER", 3)
        with pytest.raises(SolverFailure,
                           match=r"did not converge: \d+ dofs, 3 iterations.*residual"):
            kf.korn_constant(disk(4), bc="tangential")

    def test_builtin_square_level_zero_is_two_triangles(self):
        mesh = kf.builtin_domain("square", level=0)
        assert len(mesh.triangles) == 2
        assert len(mesh.boundary_edges) == 4


class TestShiftedPreconditioner:
    @pytest.mark.parametrize(
        "mesh_factory,bc,solver",
        [
            (lambda: unit_square(8), "dirichlet", "shifted"),
            (lambda: disk(3), "dirichlet", "shifted"),
            (lambda: unit_square(8), "tangential", "shifted"),
            (lambda: disk(3), "tangential", "symgrad"),
            (lambda: annulus(0.6, 1.0, 24, 2), "tangential", "symgrad"),
            (lambda: kf.builtin_domain("shell", 0), "tangential", "symgrad"),
        ],
        ids=["square-dirichlet", "disk-dirichlet", "square-slip", "disk-slip",
             "annulus-slip", "shell-slip"],
    )
    def test_certification(self, mesh_factory, bc, solver, monkeypatch):
        # certified: no curl downdate, no deflation, identity on the dofs;
        # the rotational disk and annulus carry a downdate, the shell's
        # curved slip boundary breaks the identity
        monkeypatch.setattr(kf, "DENSE_THRESHOLD", 0)
        est = kf.korn_constant(mesh_factory(), bc=bc)
        assert est.solver == solver

    def test_curved_slip_boundary_breaks_identity(self):
        mesh = kf.builtin_domain("shell", 0)
        gap = kf.null_lagrangian_gap(kf.assemble(mesh), kf.tangential_constraints(mesh).basis)
        assert gap > 1e3 * kf.IDENTITY_TOL

    def test_dirichlet_level_six_from_prolonged_seed(self):
        coarse, fine = kf.korn_sweep("square", [5, 6], bc="dirichlet")
        assert fine.solver == "shifted"
        assert fine.iterations <= 40
        assert coarse.kappa_sq <= fine.kappa_sq <= 2.0

    def test_slip_square_matches_dense_top(self):
        # top eigenvalue 2 is degenerate here, and the shifted form is
        # singular up to the 2 delta B term on its eigenspace
        mesh = unit_square(16)
        est = kf.korn_constant(mesh, bc="tangential")
        assert est.solver == "shifted"
        pencil = kf._Pencil(kf.assemble(mesh), kf.tangential_constraints(mesh).basis, None)
        vals, _ = kf._dense_top(pencil, 1)
        assert abs(est.kappa_sq - vals[0]) <= 1e-8 * vals[0]
        vec = kf.tangential_constraints(mesh).basis.T @ est.maximizer
        rho = (vec @ (pencil.A @ vec)) / (vec @ (pencil.B @ vec))
        assert abs(rho - est.kappa_sq) <= 1e-12 * est.kappa_sq


class TestEvaluateFieldRatio:
    def test_rigid_rotation_has_infinite_quotient(self):
        mesh = disk(3)
        u_fn = lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1)
        grad_fn = lambda p: np.broadcast_to(
            np.array([[0.0, -1.0], [1.0, 0.0]]), (len(p), 2, 2)
        )
        with pytest.raises(InfiniteQuotient):
            evaluate_field_ratio(mesh, u_fn, grad_fn)

    def test_divfree_bump_quotient_approaches_sqrt2(self):
        # div u = 0 exactly, so the continuum quotient is exactly sqrt(2);
        # quadrature converges to it.
        u_fn, grad_fn = divfree_bump()
        errors = []
        for m in (8, 16, 32):
            res = evaluate_field_ratio(unit_square(m), u_fn, grad_fn)
            errors.append(abs(res["korn_quotient"] - math.sqrt(2.0)))
        assert errors[-1] < 1e-4
        assert errors[-1] < errors[0]
        # the field vanishes on the boundary: tangency residual tiny
        res = evaluate_field_ratio(unit_square(16), u_fn, grad_fn)
        assert res["tangency_residual"] < 1e-12


def _rotational_pencils(mesh):
    """The slip pencils of a rotational ``mesh``: on the full constrained
    basis, and, as korn_constant builds it, without the basis column k where
    |q_k| is largest; with the unit rotation q and k."""
    forms, constraints = kf.assemble(mesh), kf.tangential_constraints(mesh)
    rot = kf._rotation_dofs(mesh, constraints, kf.detect_L_omega(mesh).center)
    q = rot / np.linalg.norm(rot)
    k = int(np.argmax(np.abs(q)))
    reduced = constraints.basis[:, np.delete(np.arange(len(q)), k)]
    return (kf._Pencil(forms, constraints.basis, forms.curl_vec),
            kf._Pencil(forms, reduced, forms.curl_vec), q, k)


def _max_abs_downdated(pencil):
    """Largest entry of A~ = A - ell ell^T / scale, formed in row chunks."""
    return max(np.abs(pencil.A[i:i + 512].toarray()
                      - np.outer(pencil.ell[i:i + 512], pencil.ell) / pencil.scale).max()
               for i in range(0, pencil.n, 512))


def _saddle_solve(B, q, R):
    """Oracle for B Y = R modulo span q with q^T Y = 0: the saddle form
    [[B, q], [q^T, 0]] factored with partial pivoting.  Returns Y and the
    factor's L + U nonzeros."""
    lu = sp.linalg.splu(sp.bmat([[B, q[:, None]], [q[None, :], None]]).tocsc())
    Y = lu.solve(np.concatenate([R, np.zeros((1, R.shape[1]))]))[:-1]
    return Y, lu.L.nnz + lu.U.nnz


def _undeflated_disk_pencil():
    mesh = disk(3)
    return mesh, kf._Pencil(kf.assemble(mesh), kf.tangential_constraints(mesh).basis, None)


class TestBlockKernel:
    def test_b_orthonormalize_drops_exactly_the_degenerate_columns(self):
        mesh, pencil = _undeflated_disk_pencil()
        center = kf.detect_L_omega(mesh).center
        rot = kf._rotation_dofs(mesh, kf.tangential_constraints(mesh), center)
        # B-null up to roundoff; scaled so that its roundoff B-norm sits far
        # below the 1e-10 drop bound (it is about 1e-8 at unit size)
        rot *= 1e-3 / np.linalg.norm(rot)
        x = np.random.default_rng(1).standard_normal((pencil.n, 3))
        # a multiple of x1, the rotation, and a column 1e-6 away from span{x0}:
        # the Gram matrix alone resolves neither the multiple's zero norm nor the
        # last column's direction, which the second pass must restore
        V = np.column_stack([x[:, 0], x[:, 1], 3.0 * x[:, 1], rot, x[:, 0] + 1e-6 * x[:, 2]])
        Q = kf._b_orthonormalize(pencil, V)
        assert Q.shape == (pencil.n, 3)
        np.testing.assert_allclose(Q.T @ (pencil.B @ Q), np.eye(3), atol=1e-12)
        first = V[:, 0] / np.linalg.norm(V[:, 0])
        assert abs(abs(first @ Q[:, 0]) / np.linalg.norm(Q[:, 0]) - 1.0) < 1e-12
        # the kept columns span the non-degenerate input columns
        coeff = np.linalg.lstsq(Q, x, rcond=None)[0]
        assert np.linalg.norm(Q @ coeff - x) <= 1e-8 * np.linalg.norm(x)

    def test_b_orthonormalize_all_degenerate_gives_empty_block(self):
        _, pencil = _undeflated_disk_pencil()
        assert kf._b_orthonormalize(pencil, np.zeros((pencil.n, 2))).shape == (pencil.n, 0)

    @staticmethod
    def _dirichlet_square_block():
        mesh = unit_square(16)
        pencil = kf._Pencil(kf.assemble(mesh), kf.dirichlet_constraints(mesh).basis, None)
        rng = np.random.default_rng(0)
        seeds = [kf.dirichlet_constraints(mesh).basis.T @ kf._bump_seed(mesh)]
        return pencil, seeds + [rng.standard_normal(pencil.n) for _ in range(2)]

    def test_one_block_solve_per_iteration(self):
        pencil, seeds = self._dirichlet_square_block()
        pencil.precondition(np.zeros((pencil.n, 1)))  # factor once
        solve, shapes = pencil._solve, []

        def counting(R):
            shapes.append(R.shape)
            return solve(R)

        pencil._solve = counting
        _, _, iterations, converged = kf._block_top(pencil, seeds, 1e-10)
        assert converged
        assert shapes == [(pencil.n, 3)] * iterations

    def test_one_b_orthonormalization_per_iteration(self, monkeypatch):
        # the Ritz basis is B-orthonormal and the Ritz coefficients are
        # orthonormal, so the next block needs no pass of its own: one for
        # the start block and one per step
        pencil, seeds = self._dirichlet_square_block()
        calls, orthonormalize = [], kf._b_orthonormalize
        monkeypatch.setattr(kf, "_b_orthonormalize",
                            lambda p, V: calls.append(V.shape[1]) or orthonormalize(p, V))
        values, X, iterations, converged = kf._block_top(pencil, seeds, 1e-10)
        assert converged and iterations > 2
        assert calls == [3, 6] + [9] * (iterations - 1)
        np.testing.assert_allclose(X.T @ (pencil.B @ X), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(values, np.einsum("ij,ij->j", X, pencil.apply_A(X)),
                                   rtol=1e-13)

    def test_dense_path_refuses_a_singular_form(self):
        # disk level 2 (98 dofs) with its rotation left in: the curl term
        # takes the rotation out of A~, so only the solve check sees that
        # B is singular; the reduction used to return kappa_sq 42
        mesh = disk(2)
        forms = kf.assemble(mesh)
        pencil = kf._Pencil(forms, kf.tangential_constraints(mesh).basis, forms.curl_vec)
        assert pencil.n <= kf.DENSE_THRESHOLD
        with pytest.raises(SolverFailure, match="^singular symmetric-gradient form: "):
            kf._dense_top(pencil, 3)

    def test_dense_path_maps_a_failed_cholesky_to_solver_failure(self):
        # numpy raises LinAlgError, a ValueError, which the CLI reads as invalid input
        mesh = unit_square(4)
        pencil = kf._Pencil(kf.assemble(mesh), kf.tangential_constraints(mesh).basis, None)
        pencil.B = -pencil.B
        # B = E^T E is semidefinite, so a failed factorization means a singular form
        with pytest.raises(SolverFailure, match="^singular symmetric-gradient form: "):
            kf._dense_top(pencil, 3)

    def test_singular_definite_form_raises(self):
        # B is singular along the undeflated rotation; the unpivoted factor
        # still completes, with a roundoff-sized pivot
        _, pencil = _undeflated_disk_pencil()
        R = np.random.default_rng(0).standard_normal((pencil.n, 3))
        with pytest.raises(SolverFailure, match="singular symmetric-gradient form"):
            pencil.precondition(R)

    @pytest.mark.parametrize("level,nnz_ratio", [(3, 0.75), (4, 0.65), (5, 0.5)])
    def test_pinned_solve_matches_saddle_oracle(self, level, nnz_ratio, monkeypatch):
        # the dense column q fills the saddle factor more the finer the mesh:
        # reduced over saddle L + U nonzeros measure 0.67, 0.56 and 0.39
        full, pencil, q, k = _rotational_pencils(disk(level))
        R = np.random.default_rng(level).standard_normal((full.n, 3))
        R -= np.multiply.outer(q, q @ R)
        oracle, saddle_nnz = _saddle_solve(full.B, q, R)
        factors, splu = [], kf.spla.splu

        def recording(M, **kw):
            factors.append(splu(M, **kw))
            return factors[-1]

        monkeypatch.setattr(kf.spla, "splu", recording)
        # the reduced solve, embedded with a zero at k and q projected out
        Y = np.insert(pencil.precondition(np.delete(R, k, axis=0)), k, 0.0, axis=0)
        Y -= np.multiply.outer(q, q @ Y)
        assert np.linalg.norm(Y - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert np.abs(q @ Y).max() <= 1e-12 * np.linalg.norm(Y)
        (lu,) = factors
        assert lu.shape == (full.n - 1, full.n - 1)
        assert lu.L.nnz + lu.U.nnz < nnz_ratio * saddle_nnz

    def test_factored_pencil_is_freed_without_the_cycle_collector(self):
        # a solve closure that held its pencil would keep every factor of a
        # sweep alive until the cyclic garbage collector ran
        _, pencil, _, _ = _rotational_pencils(disk(3))
        pencil.precondition(np.ones((pencil.n, 1)))
        ref = weakref.ref(pencil)
        gc.disable()
        try:
            del pencil
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("mesh_factory", [
        lambda: disk(3), lambda: disk(5), lambda: kf.builtin_domain("annulus", 2),
        lambda: kf.builtin_domain("annulus", 4),
        lambda: TriMesh(disk(4).vertices + (0.3, -0.2), disk(4).triangles),
    ], ids=["disk3", "disk5", "annulus2", "annulus4", "disk4-off-origin"])
    def test_rotation_lies_in_the_kernel_of_both_forms(self, mesh_factory):
        # so dropping the basis column where |q_k| is largest deflates q as
        # projecting it out did; measured at most 2.8e-17 and 3.6e-17
        full, _, q, _ = _rotational_pencils(mesh_factory())
        assert np.abs(full.apply_A(q)).max() <= 1e-14 * _max_abs_downdated(full)
        assert np.abs(full.apply_B(q)).max() <= 1e-14 * abs(full.B).max()

    @pytest.mark.parametrize("domain,level", [("disk", 5), ("annulus", 4)])
    def test_deflated_top_block_is_orthogonal_to_the_rotation(self, domain, level):
        # the reduced pencil's vectors come back with q projected out, and
        # the full-basis pencil gives the maximizer the reported quotient;
        # measured |q^T X| <= 1.8e-14 and relative gaps <= 9.1e-15
        mesh = kf.builtin_domain(domain, level)
        est = kf.korn_constant(mesh)
        full, _, q, _ = _rotational_pencils(mesh)
        X = kf.tangential_constraints(mesh).basis.T @ est._top_block
        X /= np.sqrt(np.einsum("ij,ij->j", X, full.apply_B(X)))
        assert np.abs(q @ X).max() <= 1e-13
        x = X[:, 0]
        rho = (x @ full.apply_A(x)) / (x @ full.apply_B(x))
        assert abs(rho - est.kappa_sq) <= 1e-13 * est.kappa_sq

    def test_thin_shell_converges(self):
        # B is badly conditioned on the thin shell: with a single
        # Gram-Schmidt pass the block loses B-orthogonality, and the
        # iteration stalls at residual 6e-5 (level 1) or runs out of steps
        est = kf.korn_constant(kf.builtin_domain("shell", 2), bc="tangential")
        assert est.iterations < 400
        assert est.eig_residual <= 1e-7

    @pytest.mark.parametrize("level,iterations,kappa_sq", [
        (0, 4, 109677.66684570203), (1, 4, 193465.7732218131), (2, 4, 247182.97025132176),
        (3, 4, 270787.8305131634),
    ])
    def test_thin_shell_iterations_pinned(self, level, iterations, kappa_sq):
        est = kf.korn_constant(kf.builtin_domain("shell", level), bc="tangential")
        assert est.iterations == iterations
        assert abs(est.kappa_sq - kappa_sq) <= 1e-12 * kappa_sq

    def test_thin_shell_off_the_knife_edge(self, monkeypatch):
        # Gram matrices of the assembled B lost the thin shells' strain
        # energies to cancellation: one ulp in a slip normal moved levels
        # 0-2 from 7/53/64 iterations to 16/44/127 and failed level 3.
        # Through the strain rows both bases take the same few steps.
        def reciprocal_bisector(mesh):
            # tangential_constraints with normals s * (1 / norm), not s / norm
            edges = mesh.boundary_edges
            leaving, entering = np.argsort(edges[:, 0]), np.argsort(edges[:, 1])
            vertices = edges[leaving, 0]
            first, second = np.sort([leaving, entering], axis=0)
            n1, n2 = mesh.boundary_normals[first], mesh.boundary_normals[second]
            angle = np.arctan2(np.abs(n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]),
                               kf._row_dot(n1, n2))
            s = n1 + n2
            norm = np.sqrt(kf._row_dot(s, s))
            slip = (angle <= kf.CORNER_ANGLE) & (norm != 0.0)
            normals = s[slip] * (1.0 / norm[slip, None])
            return kf.ConstraintSet(vertices, slip, normals,
                                    kf._build_basis(len(mesh.vertices), vertices, slip, normals))

        for level in range(4):
            mesh = kf.builtin_domain("shell", level)
            stock = kf.korn_constant(mesh, bc="tangential")
            with monkeypatch.context() as m:
                m.setattr(kf, "tangential_constraints", reciprocal_bisector)
                moved = kf.korn_constant(mesh, bc="tangential")
            assert not np.array_equal(moved.maximizer, stock.maximizer)
            assert stock.iterations <= 8 and moved.iterations <= 8
            assert abs(moved.kappa_sq - stock.kappa_sq) <= 1e-12 * stock.kappa_sq

    def test_dense_path_value_pinned(self):
        est = kf.korn_constant(unit_square(8), bc="dirichlet")
        assert est.solver == "dense"
        assert abs(est.kappa_sq - 1.979012418507) <= 1e-11


# Per-level kappa^2 and iteration counts of the stock sweeps, as computed
# before the eigen kernel was blocked; the slip square's levels 4-7 take
# their pairs from the prolonged top block, without iterating, and the disk
# and annulus levels iterate from it.
SWEEP_PINS = {
    ("square", "dirichlet"): [
        (1.6, 0), (1.9067168808452177, 0), (1.9790124185070403, 0),
        (1.9949429489580985, 11), (1.9987680692111798, 21), (1.9996958014102642, 13),
    ],
    ("square", "tangential"): [
        (2.0, 0), (1.9999999999999996, 0), (2.0000000000000013, 0), (2.0000000000000013, 0),
        (2.0000000000000004, 0), (2.0000000000000093, 0), (2.000000000000006, 0),
    ],
    ("disk", "tangential"): [
        (1.9506093398208024, 0), (3.8913728339307885, 0), (3.971604327031767, 7),
        (3.992792349750504, 6), (3.9981893936044433, 6),
    ],
    ("annulus", "tangential"): [
        (3.9458929376383285, 0), (3.977146302941696, 6), (3.98778778954525, 6),
        (3.992212442150958, 5),
    ],
}


@pytest.mark.parametrize("domain,bc", list(SWEEP_PINS), ids=str)
def test_sweep_values_and_iterations_pinned(domain, bc):
    pins = SWEEP_PINS[(domain, bc)]
    estimates = kf.korn_sweep(domain, list(range(1, len(pins) + 1)), bc=bc)
    assert [e.iterations for e in estimates] == [it for _, it in pins]
    for est, (kappa_sq, _) in zip(estimates, pins):
        assert abs(est.kappa_sq - kappa_sq) <= 1e-10


@pytest.mark.parametrize("domain,levels", [("disk", [2, 3, 4, 5]), ("annulus", [1, 2, 3, 4])])
def test_rotational_sweep_seeds_keep_the_rotational_partner(domain, levels):
    # the top eigenvalue of the slip disk and annulus is double; a start from
    # the prolonged maximizer alone loses its partner and reports dimension 1
    # on disk levels 4-5 and annulus levels 3-4
    estimates = kf.korn_sweep(domain, levels)
    assert [est.top_eigenspace_dim for est in estimates] == [2] * len(levels)
    assert all(est.deflated_rotation for est in estimates)
    assert [est.solver for est in estimates[1:]] == ["symgrad"] * (len(levels) - 1)


def test_slip_square_sweep_takes_levels_from_the_seed_block(monkeypatch):
    # nested P1 spaces keep the prolonged top block a top eigenspace of the
    # attained constant 2, so levels 4-7 make no factor and no iteration
    factors = []
    splu = kf.spla.splu
    monkeypatch.setattr(kf.spla, "splu", lambda M, **kw: factors.append(M.shape) or splu(M, **kw))
    estimates = kf.korn_sweep("square", list(range(1, 8)))
    assert factors == []
    for est in estimates[3:]:
        assert (est.solver, est.iterations, est.top_eigenspace_dim) == ("seed", 0, 3)
        assert est.eig_residual <= 1e-12
        assert abs(est.kappa_sq - 2.0) <= 1.9e-14
        assert "_top_block" not in _encoded(est)
    seq = [est.kappa_sq for est in estimates]
    assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


def test_failed_seed_check_iterates_from_the_prolonged_maximizer():
    # Dirichlet seed blocks are far from converged (residuals 0.05-0.15):
    # the level is what the prolonged maximizer alone gives, bit for bit
    estimates = kf.korn_sweep("square", list(range(1, 7)), bc="dirichlet")
    for level, (coarse, est) in enumerate(zip(estimates, estimates[1:]), start=2):
        seed = kf.square_prolongation(coarse.maximizer, 2 ** (level - 1))
        alone = kf.korn_constant(unit_square(2**level), bc="dirichlet", seed=seed[:, None])
        assert est.solver != "seed"
        assert _encoded(est) == _encoded(alone)
        assert est.maximizer.tobytes() == alone.maximizer.tobytes()


def test_rotational_seed_blocks_skip_the_rayleigh_ritz_check(monkeypatch):
    # the disk and annulus meshes are not nested, and the check never passed
    # there: their seed blocks start the iteration without it
    checked = []
    seed_pairs = kf._seed_pairs
    monkeypatch.setattr(kf, "_seed_pairs", lambda *a: checked.append(a[0].n) or seed_pairs(*a))
    for domain, top in (("disk", 4), ("annulus", 3)):
        estimates = kf.korn_sweep(domain, list(range(1, top + 1)))
        assert all(est.deflated_rotation for est in estimates[1:])
    assert checked == []
    kf.korn_sweep("square", [1, 2, 3, 4])
    assert len(checked) == 1  # level 4: the only seeded level above the dense ones


@pytest.mark.parametrize("levels", [[1, 3], [3, 2]], ids=["gap", "descending"])
def test_sweep_prolongs_only_from_the_level_below(levels):
    # a level whose predecessor is not one coarser starts from the default
    # seed, as it would alone (prolonging it raised a bare reshape or matmul
    # error)
    estimates = kf.korn_sweep("square", levels)
    assert len(estimates) == 2
    alone = kf.korn_sweep("square", levels[1:])[0]
    assert _encoded(estimates[1]) == _encoded(alone)
    assert estimates[1].maximizer.tobytes() == alone.maximizer.tobytes()


def test_fallback_start_and_companions_share_one_random_stream():
    # the bump vanishes at every vertex of a fan of the unit square (centre
    # plus boundary vertices), so a random vector starts the iteration; drawn
    # from a second stream of the same seed it equalled the first companion,
    # and the block kept 2 of its 3 columns
    per_side = 60
    t = np.arange(per_side) / per_side
    ring = np.concatenate([np.stack([t, 0 * t], 1), np.stack([1 + 0 * t, t], 1),
                           np.stack([1 - t, 1 + 0 * t], 1), np.stack([0 * t, 1 - t], 1)])
    ids = np.arange(1, len(ring) + 1)
    mesh = TriMesh(np.vstack([[0.5, 0.5], ring]),
                   np.stack([np.zeros_like(ids), ids, np.roll(ids, -1)], axis=1))
    assert not np.any(kf._bump_seed(mesh))
    est = kf.korn_constant(mesh, bc="tangential")
    assert (est.dof_count, est.solver) == (238, "shifted")
    assert est._top_block.shape[1] == 3
