"""Exception types shared across the package."""


class RdlabError(Exception):
    """Base class for all rdlab errors."""


class SpecMismatchError(RdlabError):
    """Operands belong to different groups (or different generating sets)."""


class IndexRadiusError(RdlabError):
    """A ball does not cover the radius an operation needs: a sphere or ball
    past a LengthIndex's radius, ``ball_pair_counts`` on an index smaller
    than M or one that does not fit its group, or a power-iteration domain
    radius below the element's support radius."""


class BudgetExceededError(RdlabError):
    """An enumeration or convolution outgrew the configured element budget.

    ``radius_reached`` is the last fully enumerated radius when the error
    comes from ball enumeration, else None.
    """

    def __init__(self, message, radius_reached=None):
        super().__init__(message)
        self.radius_reached = radius_reached


class HomomorphismError(RdlabError):
    """Generator images fail the homomorphism or injectivity check."""


class CoverageError(RdlabError):
    """Supplied length tables cannot certify the requested comparison range."""
