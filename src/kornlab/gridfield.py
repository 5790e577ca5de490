"""Spectral calculus on a periodic N x N grid.

The grid covers the centered square [-L/2, L/2)^2 with n samples per axis
(n a power of two).  Fields that decay to machine zero inside a margin of
width L/8 from the box boundary behave like compactly supported fields on
the whole plane; :func:`assert_compact_support` makes that hypothesis
checkable.

Conventions, fixed once and asserted in the tests:

* spectral work runs on the half spectrum of real fields: ``rfft2`` over
  the two grid axes gives (n, n/2 + 1) coefficients, x-frequencies in fft
  order along axis -2, y-frequencies 0..n/2 along axis -1;
* forward transform unnormalized, inverse carries 1/n^2, so Plancherel
  reads ||field||_2^2 = (dx^2 / n^2) * sum w |coeff|^2 over the half
  spectrum, with w = 1 on the self-conjugate columns 0 and n/2, else 2;
* spectral derivatives multiply the coefficient at frequency k by i*k and
  zero the unpaired Nyquist wavenumber so derivatives of real fields stay
  real; all multipliers are even in k, so the half spectrum gives exactly
  the real field of the full-plane multiplier;
* quadrature is dx^2 times the sample sum (exact for band-limited fields).

Pointwise work on n x n planes runs in row strips (:func:`row_strips`):
each strip holds about ``STRIP_ELEMENTS`` samples per plane, so the few
strip-sized temporaries of a sweep stay in cache while the planes stream
through once.  Sums are taken per strip and combined by :func:`tree_sum`.
numpy sums a contiguous array pairwise, halving it at every level; n and
the strip height are powers of two, so the strip sums are subtrees of that
recursion, and combining them pairwise gives the whole-plane sum bit for
bit.  Strip sweeps therefore change no reported number, and nor does the
number of threads that run them (:func:`map_strips`).
"""

from __future__ import annotations

import functools
import json
import math
import queue
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft

from . import thread_count as fft_workers  # threads of every FFT and strip sweep
from .errors import CurlResidualTooLarge, unique_keys

#: Relative row-curl tolerance for "this matrix field is a gradient".
CURL_TOL = 1e-8

#: Margin width (as a fraction of L) and mass bound of the support check.
SUPPORT_MARGIN_FRACTION = 0.125
SUPPORT_MASS_BOUND = 1e-10

#: Samples per strip plane in the row-strip sweeps: 2**17 float64, 1 MiB.
#: A power of two, so strips hold a power-of-two number of rows.
STRIP_ELEMENTS = 2**17


def half_spectrum(values: np.ndarray) -> np.ndarray:
    """rfft2 of real samples over the two grid axes."""
    return scipy.fft.rfft2(values, axes=(-2, -1), workers=fft_workers())


def from_half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Real samples of a half spectrum: irfft2 back to the n x n grid."""
    n = coeffs.shape[-2]
    return scipy.fft.irfft2(coeffs, s=(n, n), axes=(-2, -1), workers=fft_workers())


def row_strips(n: int) -> list[slice]:
    """Row slices of an n x n plane: a power-of-two number of equal strips
    of ``STRIP_ELEMENTS // n`` rows, all rows when n is small, and at least
    8, which keeps the sums of half-spectrum strips exact (see
    :meth:`MatrixField2.row_curl_residual`)."""
    h = min(n, max(8, STRIP_ELEMENTS // n))
    return [slice(r, r + h) for r in range(0, n, h)]


@functools.lru_cache(maxsize=1)  # one pool: a new thread count replaces it
def _strip_pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, "kornlab-strips")


def map_strips(n: int, body) -> list:
    """``body(rows)`` over the rows of an n x n plane on :func:`fft_workers`
    threads, results in row order: ``[body(rows) for rows in row_strips(n)]``
    with one worker or one strip.  Otherwise units of a quarter strip (at
    least 8 rows, so sums stay exact) are claimed one by one by the caller
    and a pool, and all end before an exception is re-raised.  A body writes
    only its own rows, and never calls map_strips: the pool could deadlock."""
    strips, workers = row_strips(n), fft_workers()
    if len(strips) == 1 or workers == 1:
        return [body(rows) for rows in strips]
    h = max(8, strips[0].stop // 4)
    units = [slice(r, r + h) for r in range(0, n, h)]
    threads, out = min(workers, len(units)) - 1, [None] * len(units)
    todo = queue.SimpleQueue()  # the unit indices, then a stop mark for every thread
    for k in [*range(len(units)), *[None] * (threads + 1)]:
        todo.put(k)

    def claim():
        for k in iter(todo.get, None):
            out[k] = body(units[k])

    futures = [_strip_pool(threads).submit(claim) for _ in range(threads)]
    try:
        claim()
    finally:
        wait(futures)
    for future in futures:
        future.result()  # re-raises a pool thread's exception
    return out


def tree_sum(parts) -> np.ndarray:
    """Partial sums combined pairwise along axis 0: (a0 + a1) + (a2 + a3)...

    For the per-strip sums of a plane taken in :func:`row_strips` order,
    this is numpy's pairwise sum of the whole plane, bit for bit, as long as
    each strip holds at least 128 samples (numpy's unrolled block); the
    number of parts must be a power of two."""
    parts = np.asarray(parts)
    if len(parts) & (len(parts) - 1):
        raise ValueError(f"tree_sum needs a power-of-two number of parts, got {len(parts)}")
    while len(parts) > 1:
        parts = parts[0::2] + parts[1::2]
    return parts[0]


@dataclass
class PeriodicGrid:
    """Uniform periodic grid on the centered square of side ``length``; it
    keeps broadcastable axes (``x`` (n, 1), ``y`` (1, n), ``dkx``, ``dky``)
    and (n, n/2 + 1) wavenumber planes, never an n x n plane."""

    n: int
    length: float

    def __post_init__(self):
        self.n = n = int(self.n)
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 4, got {n}")
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise ValueError(f"box length must be positive and finite, got {self.length}")
        self.length = float(self.length)
        self.spacing = self.length / n

        coords1d = self.spacing * np.arange(n) - self.length / 2.0
        self.x, self.y = coords1d[:, None], coords1d[None, :]

        # Derivative wavenumbers in the half-spectrum layout, shaped to
        # broadcast against (n, n/2 + 1) coefficients.  The frequency n/2 has
        # no conjugate partner, so it is dropped to keep derivatives real.
        dk1d = 2.0 * math.pi * np.fft.fftfreq(n, d=self.spacing)
        dk1d[n // 2] = 0.0
        self.dkx = dk1d[:, None]
        self.dky = dk1d[None, : n // 2 + 1]
        self.dk2 = self.dkx**2 + self.dky**2
        # 1/|k|^2, zero on the derivative-blind modes (k = 0, Nyquist corners).
        self.inv_dk2 = np.divide(1.0, self.dk2, out=np.zeros_like(self.dk2),
                                 where=self.dk2 != 0.0)

    @property
    def cell_area(self) -> float:
        return self.spacing**2

    def plancherel(self, power: np.ndarray) -> np.ndarray:
        """Squared L2 norms of real fields from their half-spectrum power
        |coeff|^2, one per leading index."""
        return self._plancherel_from_sums(power.sum(axis=(-2, -1)), power[..., 0],
                                         power[..., -1])

    def _plancherel_from_sums(self, total, first, last) -> np.ndarray:
        """:meth:`plancherel` from the sum of the power over the half
        spectrum and the power on its first and last columns (n samples)."""
        weighted = 2.0 * total
        weighted -= first.sum(axis=-1) + last.sum(axis=-1)
        return self.cell_area * weighted / self.n**2


class _Field:
    """Finite real samples on a grid, component axes ``components`` first."""

    components: tuple = ()

    def __init__(self, grid: PeriodicGrid, values):
        values = np.asarray(values, dtype=float)
        want = self.components + (grid.n, grid.n)
        if values.shape != want:
            raise ValueError(f"expected value shape {want}, got {values.shape}")
        if not all(map_strips(grid.n, lambda rows: np.isfinite(values[..., rows, :]).all())):
            raise ValueError("field contains non-finite samples")
        self.grid = grid
        self.values = values

    def mean(self) -> float | np.ndarray:
        return self.values.mean(axis=(-2, -1))

    def norm_l2(self) -> float:
        """L2 norm, squared strip by strip; equal to the whole-array sum."""
        n = self.grid.n
        parts = [s for plane in self.values.reshape(-1, n, n)
                 for s in map_strips(n, lambda rows: (plane[rows] ** 2).sum())]
        return math.sqrt(self.grid.cell_area * float(tree_sum(parts)))

    def _grad_hat(self) -> np.ndarray:
        """Half spectrum of the gradient, derivative index after the components."""
        g = self.grid
        vhat = half_spectrum(self.values)
        return 1j * np.stack([g.dkx * vhat, g.dky * vhat], axis=-3)


class ScalarField(_Field):
    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "ScalarField":
        return cls(grid, np.broadcast_to(fn(grid.x, grid.y), (grid.n, grid.n)).astype(float))

    def grad(self) -> "VectorField2":
        return VectorField2(self.grid, from_half_spectrum(self._grad_hat()))


class VectorField2(_Field):
    components = (2,)

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "VectorField2":
        u1, u2 = fn(grid.x, grid.y)
        return cls(grid, np.stack([np.broadcast_to(u1, (grid.n, grid.n)),
                                   np.broadcast_to(u2, (grid.n, grid.n))]))

    def grad(self) -> "MatrixField2":
        """Gradient G with G[i, j] = d_j u_i."""
        return MatrixField2(self.grid, from_half_spectrum(self._grad_hat()))

    def div(self) -> ScalarField:
        ghat = self._grad_hat()
        return ScalarField(self.grid, from_half_spectrum(ghat[0, 0] + ghat[1, 1]))

    def curl(self) -> ScalarField:
        """Scalar curl d_1 u_2 - d_2 u_1."""
        ghat = self._grad_hat()
        return ScalarField(self.grid, from_half_spectrum(ghat[1, 0] - ghat[0, 1]))


class MatrixField2(_Field):
    components = (2, 2)

    def det_values(self) -> np.ndarray:
        v = self.values
        return v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]

    def row_curl_residual(self, spectrum: np.ndarray | None = None) -> float:
        """Max over rows of ||curl(row)||_2, relative to the sum over rows of
        ||grad(row)||_2; zero (to roundoff) exactly for spectral gradients.

        Both norms come from ``spectrum``, the field's :func:`half_spectrum`
        (computed when not given), by Plancherel.  The powers |coeff|^2 are
        formed one row strip of the half spectrum at a time, from the real
        and imaginary parts, so no complex copy of the spectrum is made.
        Each power is summed per strip, its first and last columns are kept,
        and the strips combine by :func:`tree_sum`: strips of at least 8 rows
        of odd length n/2 + 1 split where numpy's pairwise sum of the whole
        half plane does, so the result is the whole-plane one bit for bit."""
        g = self.grid
        ghat = half_spectrum(self.values) if spectrum is None else spectrum
        edges = np.empty((2, 2, 3, g.n))  # the powers on the first and last column

        def strip(rows):
            re, im = ghat[:, :, rows].real, ghat[:, :, rows].imag
            dkx = g.dkx[rows]
            # the strip's powers: row i holds curl_i, grad_i0, grad_i1
            power = np.empty((2, 3, rows.stop - rows.start, ghat.shape[-1]))
            for i in range(2):
                # curl = dkx * ghat[i, 1] - dky * ghat[i, 0], part by part
                power[i, 0] = ((dkx * re[i, 1] - g.dky * re[i, 0]) ** 2
                               + (dkx * im[i, 1] - g.dky * im[i, 0]) ** 2)
                power[i, 1:] = (re[i] ** 2 + im[i] ** 2) * g.dk2[rows]
            edges[0, ..., rows], edges[1, ..., rows] = power[..., 0], power[..., -1]
            return power.sum(axis=(-2, -1))

        norms2 = g._plancherel_from_sums(tree_sum(map_strips(g.n, strip)), edges[0], edges[1])
        curls, grads = norms2[:, 0], norms2[:, 1:].sum(axis=1)
        return float(np.sqrt(curls).max() / max(np.sqrt(grads).sum(), 1e-300))


def check_gradient(G: MatrixField2, spectrum=None) -> float:
    """Row-curl residual of G; raises :class:`CurlResidualTooLarge` above ``CURL_TOL``."""
    res = G.row_curl_residual(spectrum)
    if res > CURL_TOL:
        raise CurlResidualTooLarge(res, CURL_TOL)
    return res


def helmholtz(z: VectorField2) -> tuple[VectorField2, VectorField2]:
    """Orthogonal splitting z = gradient_part + divfree_part + mean(z).

    Both returned parts have zero mean; the gradient part is curl-free and
    the second part divergence-free, spectrally.  The projection uses the
    same derivative wavenumbers as grad/div/curl (Nyquist line dropped), so
    the advertised identities hold exactly for the module's own operators.
    Content invisible to the derivatives (the unpaired pure-Nyquist corner
    modes) is carried by the gradient part, which keeps the decomposition
    idempotent and exactly recomposable; resolved fields have none.
    """
    g = z.grid
    zhat = half_spectrum(z.values)
    dot_k = (g.dkx * zhat[0] + g.dky * zhat[1]) * g.inv_dk2
    grad_hat = np.stack([g.dkx * dot_k, g.dky * dot_k])
    blind = g.dk2 == 0.0
    grad_hat[:, blind] = zhat[:, blind]
    parts = np.stack([grad_hat, zhat - grad_hat])
    parts[..., 0, 0] = 0.0
    grad_part, div_part = from_half_spectrum(parts)
    return VectorField2(g, grad_part), VectorField2(g, div_part)


def potential_from_gradient(G: MatrixField2) -> VectorField2:
    """Mean-zero periodic u with grad(u) = G - mean(G): the inverse of
    :meth:`VectorField2.grad`.

    The constant part of G is the gradient of an affine map, which does not
    live on the torus; callers keep mean(G) as separate metadata.  Raises
    :class:`CurlResidualTooLarge` when G is not a gradient (:func:`check_gradient`).
    """
    grid, ghat = G.grid, half_spectrum(G.values)
    check_gradient(G, ghat)
    uhat = (grid.dkx * ghat[:, 0] + grid.dky * ghat[:, 1]) * (-1j * grid.inv_dk2)
    return VectorField2(grid, from_half_spectrum(uhat))


def det_integral(G: MatrixField2) -> float:
    """Integral of det G for a gradient field G.

    For G = grad(u) with u effectively supported away from the box boundary
    (or indeed any periodic u) the determinant is a null Lagrangian and the
    integral vanishes.  Raises :class:`CurlResidualTooLarge` when the row
    curls show G is not a gradient (:func:`check_gradient`).
    """
    check_gradient(G)
    return float(G.grid.cell_area * G.det_values().sum())


def scaling_sequence(u: VectorField2, k: int) -> VectorField2:
    """Integer dilation u_k(x) = u(k x) of a compactly supported field.

    In two dimensions the dilation carries no amplitude factor, and both the
    gradient and symmetric-gradient L2 norms are preserved: the k^2 gradient
    growth cancels against the k^-2 Jacobian of the substitution.  Support
    shrinks by the factor k.  Points with k x outside the box map to zero,
    which is exact when u satisfies the compact-support convention; only the
    central copy is kept (no torus wrap-around, which would replicate the
    field k^2 times and inflate the norms).
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {k}")
    n = u.grid.n
    # x_i = i*dx - L/2, so k*x_i lands on grid index k*i - (k-1)*n/2.
    idx = k * np.arange(n) - (k - 1) * (n // 2)
    valid = (idx >= 0) & (idx < n)
    safe = np.clip(idx, 0, n - 1)
    out = u.values[:, safe[:, None], safe[None, :]].copy()
    mask = valid[:, None] & valid[None, :]
    out *= mask
    return VectorField2(u.grid, out)


def support_margin_mass(field) -> float:
    """Relative L2 mass inside the margin of width L/8 along the box boundary."""
    g = field.grid
    margin = SUPPORT_MARGIN_FRACTION * g.length
    edge = g.length / 2.0 - margin

    def strip(plane, rows):  # sum of v^2, and of v^2 in the margin
        v2 = plane[rows] ** 2
        return v2.sum(), (v2 * ((np.abs(g.x[rows]) >= edge) | (np.abs(g.y) >= edge))).sum()

    parts = [s for plane in field.values.reshape(-1, g.n, g.n)
             for s in map_strips(g.n, lambda rows: strip(plane, rows))]
    total, tail = (float(s) for s in tree_sum(parts))
    if total == 0.0:
        return 0.0
    return math.sqrt(tail / total)


def assert_compact_support(field) -> None:
    """Raise ValueError when the margin mass exceeds ``SUPPORT_MASS_BOUND``."""
    mass = support_margin_mass(field)
    if mass > SUPPORT_MASS_BOUND:
        raise ValueError(
            f"field is not compactly supported on the grid: relative L2 mass "
            f"{mass:.3e} within the boundary margin exceeds {SUPPORT_MASS_BOUND:.1e}"
        )


# ---------------------------------------------------------------------------
# Angle-field files: a JSON header plus a flat binary payload of the
# row-major float64 samples of one scalar field.
# ---------------------------------------------------------------------------

def save_field(field: ScalarField, path) -> None:
    """Write a scalar field as ``path`` (JSON header) plus a sibling ``.bin``
    payload; any other field is refused before a byte is written."""
    if not isinstance(field, ScalarField):
        raise TypeError(f"only a scalar field is written, got {type(field).__name__}")
    path = Path(path)
    data_name = path.stem + ".bin"
    field.values.astype("<f8").tofile(path.with_name(data_name))
    header = {"n": field.grid.n, "L": field.grid.length, "components": 1, "dtype": "float64",
              "order": "row-major", "format": "bin", "data": data_name}
    path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


def load_field(path) -> ScalarField:
    """Read a field written by :func:`save_field`; a repeated header key, a
    header value of the wrong JSON kind, other than 1 component or a format
    other than "bin" is refused by name."""
    path = Path(path)
    header = json.loads(path.read_text(), object_pairs_hook=unique_keys)
    if not isinstance(header, dict):
        raise ValueError("field header must hold a JSON object")
    for key in ("n", "L", "components", "format", "data"):
        if key not in header:
            raise ValueError(f"field header misses required key {key!r}")
    for key, kinds, what in (("n", int, "an integer"), ("L", (int, float), "a number"),
                             ("components", int, "an integer")):
        if isinstance(header[key], bool) or not isinstance(header[key], kinds):
            raise ValueError(f"field header key {key!r} must be {what}, got {header[key]!r}")
    if header["components"] != 1:
        raise ValueError(f"unsupported component count {header['components']}")
    if header["format"] != "bin":
        raise ValueError(f"unknown field format {header['format']!r}")
    if not isinstance(data := header["data"], str) or data in ("", "..") or Path(data).name != data:
        raise ValueError(f"field header key 'data' must name a file beside the header, "
                         f"got {data!r}")
    n = header["n"]
    raw = np.fromfile(path.with_name(data), dtype="<f8")
    # checked before the grid, whose wavenumber planes are n x (n/2 + 1)
    if raw.size != n**2:
        raise ValueError(f"payload holds {raw.size} samples, expected {n ** 2}")
    return ScalarField(PeriodicGrid(n, float(header["L"])), raw.reshape(n, n))
