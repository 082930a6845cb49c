"""Exception types shared across the package.

Each subclass of :class:`NetworkError` stands for one input or failure
rule, checked in one place.
"""


class NetworkError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(NetworkError):
    """An edge list, boundary or target set is empty."""


class NonpositiveConductance(NetworkError):
    """A conductance is zero, negative, NaN or infinite, or is not a number:
    anything but an int or float (numpy's included), a bool or a numeric
    string among them."""


class DisconnectedGraph(NetworkError):
    """A network, or a solve's component with no clamped vertex, is cut off."""


class InvalidVertex(NetworkError):
    """A vertex id is not an integer in 0 .. V-1, or a network document's
    vertex count is not an integer."""


class InvalidRadius(NetworkError):
    """An exhaustion radius is negative or already covers a finite graph."""


class VertexInTarget(NetworkError):
    """A source lies in its target or sink set, or a vertex pair repeats one."""


class SolverDivergence(NetworkError):
    """A solve misses its residual tolerance or its free block is singular."""


class NotTransient(NetworkError):
    """A transient-only limit was asked of a recurrent or inconclusive graph."""


class BudgetExceededWithoutConvergence(NetworkError):
    """A limit did not converge within its radius or ball budget.

    ``green_function`` and ``hitting_probability`` always raise it;
    ``resistance_to_infinity`` instead returns its last estimate with
    ``converged=False``."""


class NotAFlow(NetworkError):
    """An edge function breaks the sign conditions of a flow from a to z."""


class InvalidSpec(NetworkError, ValueError):
    """An argument outside its domain (a count, distance, tolerance, size,
    tree degree q or escape case); also a ValueError, so callers that catch
    ValueError keep working.  Every count, level, depth, radius, seed and
    ``n_max`` follows one integer rule: numpy's integers are accepted and a
    bool is refused."""


class NotAdjacent(NetworkError):
    """A directed edge x -> y is asked of two vertices that are not neighbours."""
