"""Exception taxonomy shared by all modules."""


class ExactNMFError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(ExactNMFError):
    """Matrix or vector dimensions do not match the operation."""


class RankError(ExactNMFError):
    """Input rank is outside the range the operation supports."""


class NegativeEntryError(ExactNMFError, ValueError):
    """A matrix entry or scale that must be nonnegative is negative."""


class NotAdmissible(ExactNMFError):
    """Parameter tuple fails the strict positivity pattern required here."""


class TheoryViolation(ExactNMFError):
    """A step that is guaranteed to succeed failed.

    This never indicates a valid input state; it signals an implementation
    bug or an inexact (non-rational) input upstream.
    """


class PatternError(ExactNMFError):
    """A 7x7 matrix does not carry the cyclic zero pattern up to relabeling."""


class ConsistencyError(ExactNMFError):
    """Scaling produced inconsistent column constants; input was not
    a rank-3 matrix with the cyclic pattern."""


class DegenerateSection(ExactNMFError):
    """The simplex section is empty, a point, or a segment."""


class OutsidePolygon(ExactNMFError):
    """A point expected inside the section polygon lies outside it."""


class NotConvex(ExactNMFError):
    """Vertex list does not describe a strictly convex polygon."""


class CollinearVertices(ExactNMFError):
    """Three consecutive vertices are collinear."""


class DuplicateVertices(ExactNMFError):
    """Two vertices coincide."""


class NotFittedError(ExactNMFError):
    """Estimator method called before fit()."""


class InternalError(ExactNMFError):
    """An invariant that cannot fail for valid inputs failed anyway."""


# A 7-vertex section vertex with more than two tight constraints, which
# convexity forbids, is one such invariant; the old name stays importable.
TangencyError = InternalError


class ParseError(ExactNMFError):
    """An input file could not be parsed."""
