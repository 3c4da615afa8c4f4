"""Exception types shared across the package."""


class SsmiError(Exception):
    """Base class for all package errors."""


class DegeneratePivot(SsmiError):
    """Free-class probability is zero, so log-odds against it are undefined."""


class InvalidClass(SsmiError):
    """A hit observation carries class 0 or a class id outside 1..K."""


class OriginOutOfBounds(SsmiError):
    """A beam origin lies outside the map volume."""


class EmptyRay(SsmiError):
    """A mutual-information query was given no cells or runs."""


class ScaleExceeded(SsmiError):
    """A brute-force oracle was asked for more cells or classes than it enumerates."""


class NoFrontiers(SsmiError):
    """No free/unknown boundary remains; exploration is complete."""


class Unreachable(SsmiError):
    """No collision-free path exists between the requested cells."""


class AllUnreachable(SsmiError):
    """Every frontier candidate failed path planning."""


class PoseInObstacle(SsmiError):
    """A sensing pose lies inside a non-free ground-truth cell."""


class BadDims(SsmiError):
    """Environment dimensions are too small or malformed."""


class CorruptMap(SsmiError, ValueError):
    """A map file is truncated, has trailing bytes, or holds values its
    format does not allow."""
