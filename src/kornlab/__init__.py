"""kornlab: numerical laboratory for Korn and geometric rigidity constants in 2D.

The package has four computational layers:

* :mod:`kornlab.mat2` -- exact 2x2 matrix calculus (conformal/anticonformal
  split, distance to the rotation group).
* :mod:`kornlab.gridfield` -- spectral calculus on a periodic square grid
  (derivatives, Helmholtz splitting, potentials, quadrature).
* :mod:`kornlab.rigidity` -- constructor and certifier of extremal fields for
  the planar rigidity estimate with constant sqrt(2).
* :mod:`kornlab.mesh` / :mod:`kornlab.kornfem` -- triangle meshes and the
  P1 finite-element estimator of Korn constants under tangential or
  Dirichlet boundary conditions.
* :mod:`kornlab.shells` -- thin-shell domains around the unit circle and the
  1/h blow-up experiment for their Korn constants.

A batch CLI (``kornlab``) wires the layers together; see :mod:`kornlab.cli`.
"""

import os

__version__ = "0.1.0"


def thread_count() -> int:
    """``KORNLAB_THREADS`` at call time, default 1 (unset or empty).  Read here,
    without numpy, so the CLI can check it before BLAS loads."""
    text = os.environ.get("KORNLAB_THREADS") or "1"
    if not text.isdigit() or int(text) < 1:
        raise ValueError(f"KORNLAB_THREADS must be a positive integer, got {text!r}")
    return int(text)
