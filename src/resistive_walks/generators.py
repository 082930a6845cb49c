"""Level-indexed graph generators and exhaustion by balls.

An infinite (or just large) locally finite graph is described by a
generator that can produce, for any radius ``n``, every edge incident to
the ball of radius ``n`` around the root.  The generator's own labeling
must be dense by radius: ids ``0 .. |B_n|-1`` are the ball, ids beyond are
the frontier at distance ``n + 1``.  :func:`exhaustion` contracts the
frontier to a single vertex ``z`` (self-loops discarded, parallel edges
merged), producing the finite network used for limits of effective
quantities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import InvalidRadius
from .network import Network, _assemble, _check_int, _VertexIds

__all__ = ["GraphGenerator", "HalfLineGenerator", "FiniteBallGenerator", "exhaustion"]


class GraphGenerator(_VertexIds, ABC):
    """Supplies a locally finite graph by radius around a fixed root (id 0)."""

    root: int = 0
    #: ids are int64, so an infinite graph's usable ids stop below 2**63
    vertex_count: int = 2**63
    #: True when the graph is a tree whose vertices all carry the same
    #: conductances, so that its automorphisms map any directed edge onto any
    #: other: a Green function or hitting probability at any depth of 2 or
    #: more then follows from the limits at depth 1
    homogeneous_tree: bool = False

    @abstractmethod
    def ball_size(self, n: int) -> int:
        """Number of vertices within distance n of the root."""

    @abstractmethod
    def ball_edges(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, c) arrays of all edges with an endpoint at depth <= n.

        One edge from a vertex of the ball into the frontier (depth n + 1)
        may stand for several, its conductance their sum:
        :func:`exhaustion` contracts the frontier to one vertex, which
        merges them in any case."""

    @abstractmethod
    def depth_of(self, x: int) -> int:
        """Distance from the root to vertex x in the generator's labeling."""


def exhaustion(gen: GraphGenerator, n: int) -> tuple[Network, int]:
    """Ball of radius n with everything outside contracted to z.

    Returns ``(net, z)``; the generator's ids ``0 .. ball_size(n)-1`` carry
    over unchanged and ``z = ball_size(n)``.  Raises InvalidRadius for a
    negative n, and for a ball that already covers the graph
    (``ball_size(n + 1) == ball_size(n)``), which leaves no boundary, and
    InvalidSpec for an n that is not an integer.
    """
    n = _check_int("radius", n, None)
    if n < 0:
        raise InvalidRadius(f"radius must be >= 0, got {n}")
    interior = gen.ball_size(n)
    if gen.ball_size(n + 1) == interior:
        raise InvalidRadius(f"ball of radius {n} already covers the whole graph")
    u, v, c = gen.ball_edges(n)
    u = np.minimum(u, interior)
    v = np.minimum(v, interior)
    return _assemble(u, v, np.asarray(c, dtype=float), interior + 1), interior


class HalfLineGenerator(GraphGenerator):
    """Half-line 0 - 1 - 2 - ... of unit resistors (the recurrent prototype)."""

    def ball_size(self, n: int) -> int:
        return n + 1

    def ball_edges(self, n: int):
        u = np.arange(n + 1, dtype=np.int64)
        return u, u + 1, np.ones(n + 1)

    def depth_of(self, x: int) -> int:
        return int(x)


class FiniteBallGenerator(GraphGenerator):
    """Adapter presenting a finite Network as a generator.

    Vertices are relabeled breadth-first from ``root`` so ids are dense by
    radius; for ``n`` past the eccentricity of the root the ball is the
    whole graph and exhaustions stop changing.  Mainly for exercising the
    exhaustion limits on arbitrary graphs.
    """

    def __init__(self, net: Network, root: int = 0):
        from scipy.sparse.csgraph import dijkstra

        root = net._check_vertex(root)
        dist = dijkstra(net.conductance_matrix() != 0, unweighted=True, indices=root)
        order = np.argsort(dist, kind="stable")
        self._new_id = np.empty(net.vertex_count, dtype=np.int64)
        self._new_id[order] = np.arange(net.vertex_count)
        self._depth = dist[order].astype(np.int64)
        self._u = self._new_id[net.edge_u]
        self._v = self._new_id[net.edge_v]
        self._c = net.edge_c
        self._edge_depth = np.minimum(self._depth[self._u], self._depth[self._v])
        self.vertex_count = net.vertex_count

    def ball_size(self, n: int) -> int:
        return int(np.searchsorted(self._depth, n, side="right"))

    def ball_edges(self, n: int):
        m = self._edge_depth <= n
        return self._u[m], self._v[m], self._c[m]

    def depth_of(self, x: int) -> int:
        return int(self._depth[x])
