"""P1 finite-element estimator of optimal Korn constants in 2D.

The discrete problem maximizes the Rayleigh quotient of the pair

    A~ (gradient energy, corrected for the skew modes tangential on the
        boundary) over B (symmetric-gradient energy)

on the subspace of vector P1 fields satisfying the boundary conditions:
``dirichlet`` pins every boundary vertex; ``tangential`` constrains boundary
vertices to slide along the boundary (corners get pinned).  Every reported
value is the Rayleigh quotient of an explicit admissible discrete field and
therefore a certified lower bound for the discrete maximum, which in turn
bounds the domain's Korn constant squared from below.

Every form comes from one sparse element-gradient operator: per triangle
the four entries of grad u, constant for P1, scaled by sqrt(area).  On the
constrained space A, B and the div-div form C are Gram products of its
rows, of its strain rows and of its div row.  The null-Lagrangian identity
2B = A + C holds to machine precision on Dirichlet-constrained degrees of
freedom (and on slip dofs of straight-edged domains with pinned corners).

The eigen iteration is preconditioned in one of two ways, chosen from the
pencil itself.  A pencil is *certified* when it has no rank-one curl term
and the identity above holds on its dofs
(:func:`null_lagrangian_gap`).  Then sigma B - A = C + 2 delta B with
sigma = 2 (1 + delta) is symmetric positive definite, every eigenvalue is at
most 2, and the exact shifted inverse (sigma B - A)^{-1} sits just above the
top cluster, where the spectrum of the Dirichlet problem crowds.  Every
other pencil is preconditioned with B^{-1}.

The iteration moves n x k blocks: per step, sparse block products with A
and B and one multi-column solve with the preconditioner, whose definite
forms are factored in a symmetric order without pivoting.  A rigid
rotation q that is admissible lies in the kernel of both forms; it is
deflated by the choice of basis: the pencil is built without the basis
column where |q_k| is largest, and B is definite there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MeshValidationError, SolverFailure
from .mesh import (TriMesh, annulus, band_prolongation, disk, disk_prolongation,  # noqa: F401
                   unit_square)

#: Boundary vertices whose adjacent edge normals differ by more than this
#: angle (radians) are treated as corners and pinned.
CORNER_ANGLE = 0.35

#: Normalized boundary misfit below which a rotational symmetry is accepted.
ROTATION_TOL = 1e-8

#: Relative width of the top eigenvalue cluster for multiplicity reporting.
CLUSTER_WIDTH = 1e-6

#: Eigenpairs computed below the top one, to report the top cluster's dimension.
EXTRA_PAIRS = 2

#: Relative bound on the null-Lagrangian gap 2B - A - C on the constrained
#: space under which a pencil is certified for the shifted preconditioner.
IDENTITY_TOL = 1e-13

#: Relative distance of the preconditioner shift above 2: sigma = 2 (1 + delta).
#: Positive so that sigma B - A = C + 2 delta B stays definite where the
#: div-div form C is singular (discretely divergence-free fields).
SHIFT_DELTA = 1e-8

#: First-solve relative residual above which a factored form counts as singular.
SOLVE_TOL = 1e-6
SINGULAR = "singular {}: undetected rigid mode or geometry/symmetry mismatch"

#: Steps of the block eigen iteration before it counts as not converged.
MAX_ITER = 400

#: Pencils with at most this many dofs are solved densely.
DENSE_THRESHOLD = 200


# ---------------------------------------------------------------------------
# Assembly.
# ---------------------------------------------------------------------------

@dataclass
class AssembledForms:
    """The element-gradient operator of the vector P1 space (dof = 2*vertex+comp).

    operator: sparse (4T, 2V); rows 4t .. 4t+3 map u to sqrt(area_t) times
              (d1 u1, d2 u1, d1 u2, d2 u2) on triangle t, so that every form
              is a Gram product of its rows (:func:`_constrained_rows`)
    """

    operator: sp.csr_matrix
    area: float
    curl_vec: np.ndarray  # linear functional u -> integral of (d1 u2 - d2 u1)


def _shape_gradients(mesh: TriMesh):
    """Per-triangle P1 shape-function gradients and areas, vectorized."""
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det <= 0.0):
        raise MeshValidationError("degenerate or misoriented triangle in assembly")
    # Gradients of barycentric coordinates: rows of inv([e1 e2])^T for the
    # last two; the first is minus their sum.
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    g0 = -(g1 + g2)
    grads = np.stack([g0, g1, g2], axis=1)  # (T, 3, 2)
    return grads, 0.5 * det


def assemble(mesh: TriMesh) -> AssembledForms:
    grads, areas = _shape_gradients(mesh)
    T, root = len(mesh.triangles), np.sqrt(areas)
    # Row 4t + 2c + a holds sqrt(area) d_a u_c: entries sqrt(area) (G_i)_a at
    # the dofs 2 v_i + c of the triangle's three vertices v_i.
    data = np.tile((root[:, None, None] * grads).transpose(0, 2, 1), (1, 2, 1))
    cols = np.repeat(2 * mesh.triangles[:, None, :] + np.arange(2)[:, None], 2, axis=1)
    op = sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, 12 * T + 1, 3)),
                       shape=(4 * T, 2 * len(mesh.vertices)))
    # Curl functional: integral of (d1 u2 - d2 u1).
    return AssembledForms(op, float(areas.sum()), (op[2::4] - op[1::4]).T @ root)


def _constrained_rows(forms: AssembledForms, basis: sp.spmatrix):
    """The operator's rows on the constrained space, G_Z = G Z, and from
    them by slicing the strain rows E_Z (e11, e22, sqrt2 e12) and the div
    rows D_Z: A = G_Z^T G_Z, B = E_Z^T E_Z and C = D_Z^T D_Z."""
    GZ = forms.operator @ basis
    E = sp.vstack([GZ[0::4], GZ[3::4], (GZ[1::4] + GZ[2::4]) / math.sqrt(2.0)], format="csr")
    return GZ, E, GZ[0::4] + GZ[3::4]


def _gram(M: sp.csr_matrix) -> sp.csr_matrix:
    return M.T.tocsr() @ M


def _gap(A: sp.csr_matrix, B: sp.csr_matrix, D: sp.csr_matrix) -> float:
    scale = abs(A).max()
    return float(abs(2.0 * B - A - _gram(D)).max() / scale) if scale > 0.0 else 0.0


def null_lagrangian_gap(forms: AssembledForms, basis: sp.spmatrix) -> float:
    """Largest entry of 2B - A - C on the constrained basis Z, relative to
    the largest entry of A, all three Gram products of the rows of G Z.

    The null-Lagrangian identity makes this roundoff on Dirichlet dofs; a
    curved slip boundary leaves a gap far above it (about 5e-3 on the stock
    disk, annulus and shell meshes).
    """
    GZ, E, D = _constrained_rows(forms, basis)
    return _gap(_gram(GZ), _gram(E), D)


# ---------------------------------------------------------------------------
# Constraints.
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSet:
    """Boundary constraints plus the constrained-space basis.

    ``vertices``: the boundary vertices, ascending; each leaves and enters
    exactly one boundary edge (``TriMesh.validate`` enforces this for mesh
    files, and the builtin domains satisfy it).  ``slip`` marks those that
    slide along the unit ``normals`` (one row per slip vertex); the others
    are pinned.  ``basis`` is the sparse (2V, m) matrix whose orthonormal
    columns span the admissible space: two unit columns per free vertex, the
    tangent of a slip vertex, none for a pinned vertex.
    """

    vertices: np.ndarray
    slip: np.ndarray
    normals: np.ndarray
    basis: sp.csr_matrix

    @property
    def dof_count(self) -> int:
        return self.basis.shape[1]


def _build_basis(nverts: int, vertices: np.ndarray, slip: np.ndarray,
                 normals: np.ndarray) -> sp.csr_matrix:
    # Columns in vertex order; the tangent of normal (n1, n2) is (-n2, n1).
    width = np.full(nverts, 2)
    width[vertices] = slip
    vals = np.ones((nverts, 2))
    vals[vertices[slip]] = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    first = np.cumsum(width) - width
    cols = first[:, None] + (width[:, None] == 2) * np.arange(2)
    live = np.repeat(width > 0, 2)
    rows = np.flatnonzero(live)
    return sp.csr_matrix((vals.ravel()[live], (rows, cols.ravel()[live])),
                         shape=(2 * nverts, int(width.sum())))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy's vector-dot kernel per row (a 1 x 1 matmul), which rounds as
    # np.linalg.norm does; an elementwise a0*b0 + a1*b1 differs in the last
    # bit, and the thin-shell iteration counts move with that bit.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def tangential_constraints(mesh: TriMesh) -> ConstraintSet:
    """Slip conditions u . n = 0 along the bisector of the normals of the
    boundary edges that each boundary vertex leaves and enters (exactly one
    each), taken in edge order; a vertex whose normals turn by more than
    ``CORNER_ANGLE``, or cancel (a slit), is a pinned corner."""
    edges = mesh.boundary_edges
    leaving, entering = np.argsort(edges[:, 0]), np.argsort(edges[:, 1])
    vertices = edges[leaving, 0]
    first, second = np.sort([leaving, entering], axis=0)
    n1, n2 = mesh.boundary_normals[first], mesh.boundary_normals[second]
    angle = np.arctan2(np.abs(n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]), _row_dot(n1, n2))
    s = n1 + n2
    norm = np.sqrt(_row_dot(s, s))
    slip = (angle <= CORNER_ANGLE) & (norm != 0.0)
    normals = s[slip] / norm[slip, None]
    return ConstraintSet(vertices, slip, normals,
                         _build_basis(len(mesh.vertices), vertices, slip, normals))


def dirichlet_constraints(mesh: TriMesh) -> ConstraintSet:
    vertices = mesh.boundary_vertices()
    slip, normals = np.zeros(len(vertices), dtype=bool), np.zeros((0, 2))
    return ConstraintSet(vertices, slip, normals,
                         _build_basis(len(mesh.vertices), vertices, slip, normals))


# ---------------------------------------------------------------------------
# Rotational-symmetry detection.
# ---------------------------------------------------------------------------

@dataclass
class LOmegaInfo:
    kind: str                      # "trivial" | "rotational"
    residual: float                # normalized boundary misfit
    center: np.ndarray | None = None


def detect_L_omega(mesh: TriMesh) -> LOmegaInfo:
    """Least-squares fit of a rotation center to the boundary.

    The affine field x -> (x - c)^perp is tangential iff (x - c)^perp . n
    vanishes on the boundary; the misfit is minimized over c at edge
    midpoints with edge-length weights and normalized by the weighted spread
    of the boundary around the fitted center.  The symmetry is rotational
    when that misfit is below ``ROTATION_TOL``.
    """
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]] + mesh.vertices[mesh.boundary_edges[:, 1]])
    n = mesh.boundary_normals
    w = mesh.edge_lengths()
    # (x - c)^perp . n = x^perp . n - c . m  with  m = (n2, -n1).
    m = np.stack([n[:, 1], -n[:, 0]], axis=1)
    target = mids[:, 0] * n[:, 1] - mids[:, 1] * n[:, 0]  # x^perp . n
    M = (w[:, None, None] * np.einsum("ei,ej->eij", m, m)).sum(axis=0)
    rhs = (w[:, None] * target[:, None] * m).sum(axis=0)
    try:
        center = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        center = np.linalg.lstsq(M, rhs, rcond=None)[0]
    misfit = target - m @ center
    spread = np.einsum("e,e->", w, ((mids - center) ** 2).sum(axis=1))
    residual = math.sqrt(float(w @ misfit**2) / max(spread, 1e-300))
    if residual < ROTATION_TOL:
        return LOmegaInfo("rotational", residual, center)
    return LOmegaInfo("trivial", residual)


# ---------------------------------------------------------------------------
# Eigen solve.
# ---------------------------------------------------------------------------

@dataclass
class KornEstimate:
    kappa_sq: float
    eig_residual: float
    top_eigenspace_dim: int
    dof_count: int
    iterations: int
    l_omega: LOmegaInfo
    deflated_rotation: bool
    solver: str                    # "dense" | "seed" | "shifted" | "symgrad"
    _top_block: np.ndarray         # full dofs (2V x k), maximizer first; unreported

    @property
    def maximizer(self) -> np.ndarray:
        """Full dof vector (2V), admissible."""
        return self._top_block[:, 0]


class _Pencil:
    """Pencil (A~, B) on the columns of ``basis``, with an optional rank-one
    curl downdate.

    The operators take n x k blocks or vectors.  ``shifted`` records whether
    the pencil is certified for the shifted preconditioner (module docstring)."""

    def __init__(self, forms: AssembledForms, basis: sp.spmatrix, rank_one: np.ndarray | None):
        GZ, self.E, D = _constrained_rows(forms, basis)  # B = E^T E
        self.A, self.B = _gram(GZ), _gram(self.E)
        self.ell = None if rank_one is None else basis.T @ rank_one
        self.scale = 2.0 * forms.area
        self.n = basis.shape[1]
        self.shifted = rank_one is None and _gap(self.A, self.B, D) <= IDENTITY_TOL
        self._solve = None
        self._M = None  # operator that the first solve's residual is measured with

    def apply_A(self, X: np.ndarray) -> np.ndarray:
        Y = self.A @ X
        if self.ell is not None:
            Y = Y - np.multiply.outer(self.ell, (self.ell @ X) / self.scale)
        return Y

    def apply_B(self, X: np.ndarray) -> np.ndarray:
        return self.B @ X

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """Apply the preconditioner of the block iteration to a residual block.

        On a certified pencil this solves (sigma B - A) Y = R with
        sigma = 2 (1 + SHIFT_DELTA); the matrix equals C + 2 delta B there,
        which is symmetric positive definite.  Otherwise it solves B Y = R;
        B is definite on every pencil that ``korn_constant`` builds, since a
        rigid rotation is deflated by its basis.  The factor is made on the
        first call, in a symmetric minimum-degree order without pivoting.  A
        singular form can still factor, with a roundoff-sized pivot, into
        finite garbage; the first solve's relative residual, above
        ``SOLVE_TOL``, exposes it.
        """
        what = "shifted form sigma B - A" if self.shifted else "symmetric-gradient form"
        first = self._solve is None
        if first:
            self._M = self.B
            if self.shifted:
                self._M = (2.0 * (1.0 + SHIFT_DELTA) * self.B - self.A).tocsr()
            try:
                lu = spla.splu(self._M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
            except Exception as exc:
                raise SolverFailure(
                    f"factorization of the {what} failed "
                    f"(undetected rigid mode or broken mesh): {exc}"
                ) from exc
            self._solve = lu.solve
        Y = self._solve(R)
        if not np.all(np.isfinite(Y)) or (
            first and np.linalg.norm(self._M @ Y - R) > SOLVE_TOL * np.linalg.norm(R)
        ):
            raise SolverFailure(SINGULAR.format(what))
        return Y


def _block_top(pencil: _Pencil, seeds: list[np.ndarray], tol: float
               ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Locally optimal block iteration for the largest eigenpairs of (A~, B).

    Each step maximizes the Rayleigh quotient over the span of the current
    block X, the preconditioned residuals T R, R = A X - B X diag(rho), and
    the previous update directions P.  The span contains the previous block,
    so the leading Rayleigh quotient is nondecreasing: every reported value
    is the quotient of an explicit admissible field, hence a certified lower
    bound, and a prolonged coarse maximizer used as seed keeps square sweeps
    nondecreasing.  The block (seeded with random companions) makes locking
    onto an interior eigenvalue from a near-eigenvector start vanishingly
    unlikely, where single-vector power iteration with a stagnation stop can
    be fooled.

    A step makes one multi-column solve with T = ``pencil.precondition``
    (the shifted inverse (sigma B - A)^{-1} on a certified pencil, B^{-1}
    otherwise; definite factors in a symmetric order), B-orthonormalizes
    S = [X, T R, P] once on small Gram matrices and multiplies A S and B X.
    The top Ritz coefficients C are orthonormal, so X = S C, A X = (A S) C,
    and P = S[:, k:] C[k:] is S C less its part in the last block
    (Knyazev 2001; Hetmaniuk and Lehoucq 2006).  With B^{-1} the iteration
    converges at the rate set by the relative gap below the top eigenvalue,
    which is tiny where the Dirichlet spectrum clusters below 2 (hundreds of
    iterations at 8k dofs); the shift just above 2 magnifies that gap, and
    the Dirichlet sweep converges in tens.  The iteration stops when the top
    Ritz value changes by less than ``tol`` (relative) twice in a row, which
    also ends a highly degenerate top eigenvalue (the slip square, where 2
    is attained) in three steps.

    Returns (values, vectors, iterations, converged); values sorted
    descending, vectors B-orthonormal, and ``converged`` false when
    ``MAX_ITER`` steps ran without the stopping rule firing.
    """
    X = _b_orthonormalize(pencil, np.stack(seeds, axis=1))
    k = X.shape[1]
    if k == 0:
        raise SolverFailure("start block is B-degenerate")
    AX = pencil.apply_A(X)
    P = None
    rho_top = -np.inf
    stall = 0
    iterations = 0
    converged = False
    for it in range(MAX_ITER):
        iterations = it + 1
        rhos = np.einsum("ij,ij->j", X, AX)
        R = AX - pencil.apply_B(X) * rhos[None, :]
        W = pencil.precondition(R)
        S = _b_orthonormalize(pencil, np.hstack([X, W] if P is None else [X, W, P]))
        AS = pencil.apply_A(S)
        a_small = S.T @ AS
        a_small = 0.5 * (a_small + a_small.T)
        vals, vecs = np.linalg.eigh(a_small)
        coeff = vecs[:, ::-1][:, :k]
        X, AX, P = S @ coeff, AS @ coeff, S[:, k:] @ coeff[k:]
        del S, AS
        top = float(vals[-1])
        if abs(top - rho_top) < tol * max(1.0, abs(top)):
            stall += 1
            if stall >= 2:
                converged = True
                break
        else:
            stall = 0
        rho_top = top
    rhos = np.einsum("ij,ij->j", X, AX)
    order = np.argsort(rhos)[::-1]
    return rhos[order], X[:, order], iterations, converged


def _b_orthonormalize(pencil: _Pencil, V: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in the B inner product, in column order, dropping columns
    of B-norm at most 1e-10 after projection onto the kept earlier ones.

    Two passes on the Gram matrix (E V)^T (E V) of the strain rows, B = E^T E
    (CholQR2): the second re-measures what the first cannot resolve (norms
    below about 1e-8 of a column's own); the drop rule tests the product of
    both norms.  V^T (B V) cancels terms of size |B| |V|^2 down to the strain
    energy, which lost the thin shells' digits and stalled their iteration;
    the strain rows cancel per triangle, before squaring.
    """
    norms = np.ones(V.shape[1])  # B-norm each column stood for so far
    for _ in range(2):
        EV = pencil.E @ V
        G = EV.T @ EV
        C = np.eye(len(G))  # column j: coefficients of column j's residual
        keep, kept = [], []
        for j in range(len(G)):
            c = C[:, j]
            nrm = math.sqrt(max(float(c @ G @ c), 0.0))
            if nrm * norms[j] > 1e-10:
                c /= nrm
                keep.append(j)
                kept.append(nrm * norms[j])
                C[:, j + 1:] -= np.outer(c, (c @ G) @ C[:, j + 1:])
        V = V @ C[:, keep]
        norms = np.array(kept)
    return V


def _seed_pairs(pencil: _Pencil, coords: np.ndarray, count: int, tol: float):
    """Rayleigh-Ritz on a block of constrained coordinates: its ``count`` pairs,
    sorted descending, if each has |A x - rho B x| <= tol |A x|; else None."""
    if coords.shape[1] < count:
        return None
    X = _b_orthonormalize(pencil, coords)
    AX = pencil.apply_A(X)
    V = np.linalg.eigh(X.T @ AX)[1]
    X, AX = X @ V, AX @ V
    rhos = np.einsum("ij,ij->j", X, AX)
    resid = np.linalg.norm(AX - pencil.apply_B(X) * rhos, axis=0)
    if X.shape[1] != count or not np.all(resid <= tol * np.linalg.norm(AX, axis=0)):
        return None
    order = np.argsort(rhos)[::-1]
    return rhos[order], X[:, order]


def _dense_top(pencil: _Pencil, count: int):
    """Top ``count`` pairs by a dense reduction.  A singular B fails to
    factor, or factors into garbage as in :meth:`_Pencil.precondition`,
    which one solve exposes; its right-hand side is random, since A~ or
    ones can miss a rigid rotation.  Roundoff picks which; both say singular."""
    A = pencil.A.toarray()
    if pencil.ell is not None:
        A = A - np.outer(pencil.ell, pencil.ell) / pencil.scale
    # B = L L^T reduces the pencil for numpy's LAPACK: scipy's eigh runs in a
    # second OpenBLAS thread pool, 30-120 ms instead of 2 ms at 98 dofs (2 BLAS
    # threads on 2 cores) while numpy's pool still spins after block products.
    B = pencil.B.toarray()
    try:
        Li = np.linalg.inv(np.linalg.cholesky(B))
    except np.linalg.LinAlgError as exc:  # a ValueError, which reads as invalid input
        # B = E^T E is semidefinite, so only a null direction fails to factor
        raise SolverFailure(SINGULAR.format("symmetric-gradient form")) from exc
    R = np.random.default_rng(0).standard_normal(len(B))
    if np.linalg.norm(B @ (Li.T @ (Li @ R)) - R) > SOLVE_TOL * np.linalg.norm(R):
        raise SolverFailure(SINGULAR.format("symmetric-gradient form"))
    vals, vecs = np.linalg.eigh(Li @ A @ Li.T)
    vecs = Li.T @ vecs
    order = np.argsort(vals)[::-1]
    return vals[order[:count]], vecs[:, order[:count]]


def _rotation_dofs(mesh: TriMesh, constraints: ConstraintSet, center: np.ndarray) -> np.ndarray | None:
    """Constrained coordinates of the rigid rotation about ``center`` when it
    is admissible; None when a pinned vertex obstructs it."""
    field = np.zeros(2 * len(mesh.vertices))
    rel = mesh.vertices - center[None, :]
    field[0::2] = -rel[:, 1]
    field[1::2] = rel[:, 0]
    coords = constraints.basis.T @ field
    back = constraints.basis @ coords
    if np.linalg.norm(back - field) > 1e-10 * max(1.0, np.linalg.norm(field)):
        return None
    return coords


def korn_constant(
    mesh: TriMesh,
    bc: str = "tangential",
    tol: float = 1e-10,
    seed: np.ndarray | None = None,
) -> KornEstimate:
    """Maximize the Korn Rayleigh quotient on the constrained P1 space.

    ``seed``, a (2V, k) block of full dof vectors with the maximizer first
    (such as a prolonged coarse top block), is projected onto the
    constrained space, and its first column starts the iteration; default
    is the interpolated divergence-free bump, which already carries a
    quotient close to the supremum (where it has no B-norm, a random vector
    from the companions' stream).  ``EXTRA_PAIRS`` deflated eigenpairs
    are computed to report the dimension of the top eigenvalue cluster.
    Pencils with at most ``DENSE_THRESHOLD`` dofs are solved densely.  Raises
    :class:`SolverFailure` when the iteration runs ``MAX_ITER`` steps without
    converging.

    On a pencil that deflates a rotation the whole ``seed`` block starts the
    iteration, carrying the maximizer's rotational partner (those disk and
    annulus meshes are not nested, and no Rayleigh-Ritz check of the block
    passed there).  Elsewhere a full block is Rayleigh-Ritz reduced before
    anything is factored: pairs with relative residuals at most ``100 * tol``
    are the result (``solver`` "seed", 0 iterations); otherwise its first
    column starts the iteration, with random companions.

    An admissible rigid rotation q lies in the kernel of both forms, so it
    is deflated by the choice of basis: the pencil drops the basis column k
    where |q_k| is largest, and seeds move along q to a zero at k.  Its
    vectors come back with a zero at k and q projected out, so the top
    block stays orthogonal to the rotation.
    """
    if bc not in ("tangential", "dirichlet"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    forms = assemble(mesh)
    constraints = (
        tangential_constraints(mesh) if bc == "tangential" else dirichlet_constraints(mesh)
    )
    if constraints.dof_count == 0:
        raise SolverFailure("constrained space is empty; refine the mesh")

    l_omega = detect_L_omega(mesh)
    basis, rank_one, q = constraints.basis, None, None
    if bc == "tangential" and l_omega.kind == "rotational":
        rank_one = forms.curl_vec
        rot = _rotation_dofs(mesh, constraints, l_omega.center)
        if rot is not None:
            q = rot / np.linalg.norm(rot)
            k = int(np.argmax(np.abs(q)))
            basis = basis[:, np.delete(np.arange(len(q)), k)]

    pencil = _Pencil(forms, basis, rank_one)
    block = min(1 + EXTRA_PAIRS, pencil.n)
    coords = constraints.basis.T @ (_bump_seed(mesh)[:, None] if seed is None else seed)
    if q is not None:
        coords = np.delete(coords - np.multiply.outer(q, coords[k] / q[k]), k, axis=0)
    if pencil.n <= DENSE_THRESHOLD:
        (vals, vecs), iterations, converged, solver = _dense_top(pencil, block), 0, True, "dense"
    elif q is None and (pairs := _seed_pairs(pencil, coords, block, 100 * tol)) is not None:
        (vals, vecs), iterations, converged, solver = pairs, 0, True, "seed"
    else:
        start = coords[:, 0]
        rng = np.random.default_rng(0)
        if float(start @ (pencil.B @ start)) <= 0.0:
            start = rng.standard_normal(pencil.n)
        companions = [rng.standard_normal(pencil.n) for _ in range(block - 1)]
        if q is not None:
            # the whole block keeps the rotational partner of the maximizer;
            # on the Dirichlet square it ended lower, by about 1e-11
            companions[:0] = coords[:, 1:block].T
        seeds = [start, *companions[:block - 1]]
        vals, vecs, iterations, converged = _block_top(pencil, seeds, tol)
        solver = "shifted" if pencil.shifted else "symgrad"
    top = float(vals[0])
    vec = vecs[:, 0]
    dim = sum(1 for v in vals if abs(top - v) <= CLUSTER_WIDTH * max(1.0, abs(top)))

    Ax = pencil.apply_A(vec)
    Bx = pencil.apply_B(vec)
    resid = np.linalg.norm(Ax - top * Bx) / max(np.linalg.norm(Ax), 1e-300)
    if not converged:
        raise SolverFailure(
            f"eigen iteration did not converge: {constraints.dof_count} dofs, {iterations} "
            f"iterations (MAX_ITER), relative residual {resid:.3e}"
        )
    if q is not None:
        vecs = np.insert(vecs, k, 0.0, axis=0)
        vecs -= np.multiply.outer(q, q @ vecs)
    return KornEstimate(
        kappa_sq=float(top),
        eig_residual=float(resid),
        top_eigenspace_dim=int(dim),
        dof_count=constraints.dof_count,
        iterations=iterations,
        l_omega=l_omega,
        deflated_rotation=q is not None,
        solver=solver,
        _top_block=constraints.basis @ vecs,
    )


def _bump_seed(mesh: TriMesh) -> np.ndarray:
    """Divergence-free bump interpolant: u = rot(psi) for a quartic bump psi
    scaled to the mesh bounding box, evaluated at the vertices."""
    v = mesh.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = np.where(hi - lo <= 0.0, 1.0, hi - lo)
    s = (v - lo) / span  # unit-box coordinates
    # psi = (s1 (1-s1) s2 (1-s2))^2; u = (d psi / d s2, -d psi / d s1).
    a = s[:, 0] * (1.0 - s[:, 0])
    b = s[:, 1] * (1.0 - s[:, 1])
    da = 1.0 - 2.0 * s[:, 0]
    db = 1.0 - 2.0 * s[:, 1]
    u1 = 2.0 * a**2 * b * db / span[1]
    u2 = -2.0 * a * da * b**2 / span[0]
    field = np.zeros(2 * len(v))
    field[0::2] = u1
    field[1::2] = u2
    return field


# ---------------------------------------------------------------------------
# Built-in domains and refinement sweeps.
# ---------------------------------------------------------------------------

def builtin_domain(name: str, level: int = 0) -> TriMesh:
    """Mesh generators for the stock domains, parameterized by a level.

    square: unit square, 2^level cells per side (level 0 is the
            two-triangle mesh); nested under level increments.
    disk:   unit disk, hex fan subdivided ``level`` times (needs level >= 2
            for slip conditions: coarser polygons have only corner vertices).
    annulus: radii 0.5 and 1, structured band, 16*2^level angular by
            2+level radial.
    shell:  the stock-profile shell of thickness h = 0.1 around the unit
            circle, 64*2^level angular by 2+level radial.
    """
    if name == "square":
        return unit_square(2**level)
    if name == "disk":
        return disk(level)
    if name == "annulus":
        return annulus(0.5, 1.0, angular=16 * 2**level, radial=2 + level)
    if name == "shell":
        from .shells import ShellSpec, shell_mesh

        return shell_mesh(ShellSpec(angular_resolution=64 * 2**level, radial_layers=2 + level))
    raise MeshValidationError(f"unknown builtin domain {name!r}")


def square_prolongation(coarse: np.ndarray, cells: int) -> np.ndarray:
    """Prolong a full dof vector or (2V, k) block from the m-cell structured square mesh to
    the 2m-cell one (vertex injection plus edge/face midpoint averages)."""
    m = cells
    old = coarse.reshape(m + 1, m + 1, 2, -1)
    new = np.zeros((2 * m + 1, 2 * m + 1, 2, old.shape[3]))
    new[0::2, 0::2] = old
    new[1::2, 0::2] = 0.5 * (old[:-1, :] + old[1:, :])
    new[0::2, 1::2] = 0.5 * (old[:, :-1] + old[:, 1:])
    # Cell centers sit on the coarse diagonal edge v(i,j)-v(i+1,j+1): the P1
    # interpolant there averages the two diagonal endpoints only.
    new[1::2, 1::2] = 0.5 * (old[:-1, :-1] + old[1:, 1:])
    return new.reshape(-1, *coarse.shape[1:])


def _prolongation(domain: str, bc: str, coarse: TriMesh, level: int):
    """Prolongation of full dof blocks from the stock ``domain`` mesh
    ``coarse`` of ``level`` to the next level, or None where sweeps start
    from the bump: the shell, where prolonged seeds cost iterations, and
    the Dirichlet disk and annulus, whose pencils deflate no rotation and
    were never measured with seeds."""
    if domain == "square":
        return lambda block: square_prolongation(block, 2**level)
    if bc != "tangential":
        return None
    if domain == "disk":
        return lambda block: disk_prolongation(block, coarse)
    if domain == "annulus":
        return lambda block: band_prolongation(block, 16 * 2**level, 2 + level)
    return None


def korn_sweep(domain: str, levels: list[int], bc: str = "tangential",
               tol: float = 1e-10) -> list[KornEstimate]:
    """Refinement sweep; a level one finer than the one before it starts from
    that level's prolonged top block (maximizer first) on the square, and on
    the slip disk and annulus, whose pencils deflate a rotation.  On the
    square that makes the sequence nondecreasing by construction (nested
    spaces, monotone iteration); the disk and annulus meshes are not nested,
    so there the seed only saves iterations."""
    estimates: list[KornEstimate] = []
    prolong = None
    for i, level in enumerate(levels):
        mesh = builtin_domain(domain, level=level)
        seed = None
        if prolong is not None and levels[i - 1] == level - 1:
            seed = prolong(estimates[-1]._top_block)
        estimates.append(korn_constant(mesh, bc=bc, tol=tol, seed=seed))
        prolong = _prolongation(domain, bc, mesh, level)
    return estimates
