"""Exception types shared across the package, and the check of JSON input
for repeated keys.

The CLI maps these onto its exit-code contract: validation failures exit
with 2, mathematical degeneracies with 3, solver failures with 4.
"""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object, or a ValueError
    naming a key that it repeats (``json`` alone keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


class KornlabError(Exception):
    """Base class for all package-specific errors."""


class MeshValidationError(KornlabError):
    """A mesh violates one of its structural invariants."""


class CurlResidualTooLarge(KornlabError):
    """A matrix field passed as a gradient has non-negligible row curls."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"row-curl residual {residual:.3e} exceeds tolerance {tol:.3e}; "
            "the matrix field is not a gradient"
        )


class DegenerateRotation(KornlabError):
    """No unique closest rotation: the conformal part vanishes."""


class ZeroDistance(KornlabError):
    """The field is a rotation almost everywhere; the rigidity ratio is undefined."""


class InfiniteQuotient(KornlabError):
    """The symmetric gradient vanishes (rigid motion); the Korn quotient is infinite."""


class SolverFailure(KornlabError):
    """An iterative solver broke down or the problem is structurally singular."""
