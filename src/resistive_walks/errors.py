"""Exception types shared across the package."""


class NetworkError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(NetworkError):
    pass


class NonpositiveConductance(NetworkError):
    pass


class DisconnectedGraph(NetworkError):
    pass


class InvalidVertex(NetworkError):
    pass


class EmptyContractionSet(NetworkError):
    pass


class ComplementDisconnected(NetworkError):
    pass


class InvalidRadius(NetworkError):
    pass


class EmptyBoundary(NetworkError):
    pass


class EmptyTarget(NetworkError):
    pass


class VertexInTarget(NetworkError):
    pass


class SolverDivergence(NetworkError):
    pass


class NotTransient(NetworkError):
    pass


class BudgetExceededWithoutConvergence(NetworkError):
    """Raised only when the caller asked for a hard failure; the limit
    routines normally return a best estimate plus a convergence flag."""


class OverlappingSets(NetworkError):
    pass


class NotAFlow(NetworkError):
    pass


class InvalidSpec(NetworkError, ValueError):
    """An argument outside its domain (a count, tolerance or size); also a
    ValueError, so callers that catch ValueError keep working."""


class InvalidQ(NetworkError):
    pass


class InvalidCase(NetworkError):
    pass


class SameVertex(NetworkError):
    pass


class InvalidStart(NetworkError):
    pass


class NotAdjacent(NetworkError):
    pass
