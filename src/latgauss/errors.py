"""Semantic exceptions shared across the package."""


class LatgaussError(Exception):
    """Base error for this package."""


class DimensionMismatchError(LatgaussError, ValueError):
    """Operands live in different ambient dimensions."""


class InvalidBodyError(LatgaussError, ValueError):
    """Convex-body parameters violate the construction contract."""


class InvalidLatticeError(LatgaussError, ValueError):
    """Basis vectors are not numerically linearly independent."""


class UnsupportedBodyError(LatgaussError):
    """No closed form for this body kind; use the Monte Carlo path."""


class UnsupportedCombinationError(LatgaussError):
    """Minkowski combination of this pair is not closed-form."""


class EnumerationCapExceededError(LatgaussError):
    """Lattice enumeration exceeded the node cap.

    Carries the cap and the number of partial nodes expanded so callers can
    report how far the search got instead of silently truncating.
    """

    def __init__(self, cap: int, partial: int):
        self.cap = cap
        self.partial = partial
        super().__init__(f"enumeration node cap exceeded: cap={cap}, expanded={partial}")


class CalibrationError(LatgaussError):
    """The target measure is unreachable by scaling the body."""


class ResolutionTooCoarseError(LatgaussError):
    """Covering-radius grid slack exceeds the lower bound; raise the resolution."""
