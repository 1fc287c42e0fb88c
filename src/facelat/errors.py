"""Exception types shared across the geometry modules."""


class GeometryError(Exception):
    """Base class for geometric precondition failures."""


class ZeroDirection(GeometryError):
    """A nonzero direction vector was required."""


class DimensionMismatch(GeometryError):
    pass


class NotAFace(GeometryError):
    pass


class PointNotInBody(GeometryError):
    pass


class OriginNotInterior(GeometryError):
    pass


class HypothesisFailed(GeometryError):
    """A theorem's hypothesis does not hold for the given input."""


class UnsupportedArcCenter(GeometryError):
    """Polar bodies require all arcs to be centered at the origin."""


class UndefinedTouchingCone(GeometryError):
    """The direction exposes an empty face, so no touching cone exists."""


class InvariantViolation(Exception):
    """A theorem-level invariant of the library failed: an internal error.

    Raised instead of `assert`, so the invariants are checked under
    `python -O` too.  Deliberately not a `GeometryError`: it never signals
    bad input.
    """


class ParseError(Exception):
    """Body file could not be parsed exactly."""


class UnsupportedForBodyType(Exception):
    pass


class BadAngle(Exception):
    pass


class EigenFailure(Exception):
    pass
