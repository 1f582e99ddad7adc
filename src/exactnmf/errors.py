"""Exception taxonomy shared by all modules: each class but
``InternalError`` names a way an input is refused."""


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


class PatternError(ExactNMFError):
    """A 7x7 matrix does not carry the cyclic zero pattern up to relabeling."""


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
    """A state the theory rules out, a bug: a failed 7-vertex edge check, a
    stepped tuple losing admissibility, a search past 14 steps, a failed
    closing check.  ``slack_matrix`` of a hand-built ``Polygon`` whose
    facets do not fit its vertices raises it too."""


class ParseError(ExactNMFError):
    """An input file could not be parsed."""
