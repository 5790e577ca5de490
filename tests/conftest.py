import pytest
import scipy.sparse as sp

from kornlab import kornfem as kf


def _full_space_forms(mesh):
    """The grad-grad, symgrad and div-div forms on the full vector P1 space:
    Gram products of the rows of the element operator times an identity
    basis (``kornfem._constrained_rows``)."""
    identity = sp.identity(2 * len(mesh.vertices), format="csr")
    rows = kf._constrained_rows(kf.assemble(mesh), identity)
    return tuple((M.T @ M).tocsr() for M in rows)


@pytest.fixture
def full_space_forms():
    return _full_space_forms
