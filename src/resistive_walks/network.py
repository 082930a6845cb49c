"""Weighted-graph data model and graph surgery.

A :class:`Network` is a finite connected graph with symmetric positive
conductances.  It doubles as a reversible Markov chain: the transition
probabilities are ``p(x, y) = c(x, y) / pi(x)`` with ``pi(x)`` the sum of
conductances incident to ``x``.  Networks are immutable after construction
and safe to share across threads.

Vertex ids are dense integers ``0 .. V-1``; arbitrary hashable labels given
at build time are remapped and retained in ``Network.labels``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    ComplementDisconnected,
    DisconnectedGraph,
    EmptyContractionSet,
    EmptyInput,
    InvalidVertex,
    NonpositiveConductance,
)

__all__ = [
    "Network",
    "MarkovView",
    "build_network",
    "vertex_weight",
    "markov_view",
    "contract_vertices",
    "series_parallel_reduce",
    "network_to_json",
    "network_from_json",
]


@dataclass(frozen=True)
class Network:
    """Finite connected weighted graph with merged parallel edges.

    Edges are stored once per undirected pair with ``u < v``; the forward
    orientation of edge ``k`` is ``edge_u[k] -> edge_v[k]``.  The adjacency
    is CSR-style: the neighbors of ``x`` are
    ``adj_neighbor[adj_indptr[x]:adj_indptr[x+1]]`` and ``adj_edge`` holds
    the corresponding undirected edge indices.
    """

    vertex_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_c: np.ndarray
    adj_indptr: np.ndarray
    adj_neighbor: np.ndarray
    adj_edge: np.ndarray
    pi: np.ndarray
    labels: tuple = ()

    @property
    def edge_count(self) -> int:
        return len(self.edge_c)

    def degree(self, x: int) -> int:
        self._check_vertex(x)
        return int(self.adj_indptr[x + 1] - self.adj_indptr[x])

    def neighbors(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        return self.adj_neighbor[self.adj_indptr[x] : self.adj_indptr[x + 1]]

    def incident_edges(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        return self.adj_edge[self.adj_indptr[x] : self.adj_indptr[x + 1]]

    @cached_property
    def _label_ids(self) -> dict:
        """Dense id of each label, the first where a label repeats."""
        return {lab: i for i, lab in reversed(list(enumerate(self.labels)))}

    def index_of(self, label) -> int:
        """Dense id of an original label (the id itself when no labels are
        kept); raises InvalidVertex for a label or id the network lacks."""
        if self.labels:
            ids = self._label_ids
            try:
                return ids[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise InvalidVertex(f"no vertex labelled {label!r}") from None
        try:
            x = operator.index(label)
        except TypeError:
            raise InvalidVertex(f"vertex id {label!r} is not an integer") from None
        self._check_vertex(x)
        return x

    def conductance_matrix(self) -> sp.csr_matrix:
        """Symmetric sparse matrix C with C[x, y] = c(x, y)."""
        n = self.vertex_count
        data = np.concatenate([self.edge_c, self.edge_c])
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def laplacian(self) -> sp.csr_matrix:
        """Weighted graph Laplacian L = diag(pi) - C."""
        c = self.conductance_matrix()
        return sp.diags(self.pi) - c

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.vertex_count:
            raise InvalidVertex(f"vertex {x} out of range 0..{self.vertex_count - 1}")

    def _check_ids(self, ids: Iterable[int]) -> np.ndarray:
        """The vertex ids of an iterable (a set, list, dict or array) as an
        int64 array; raises InvalidVertex naming the first one out of range."""
        try:
            arr = np.fromiter(ids, dtype=np.int64)
        except OverflowError:  # an id beyond int64; the scan names it
            for x in ids:
                self._check_vertex(x)
            raise
        bad = (arr < 0) | (arr >= self.vertex_count)
        if bad.any():
            self._check_vertex(int(arr[bad.argmax()]))
        return arr


@dataclass(frozen=True)
class MarkovView:
    """Reversible Markov chain attached to a network.

    ``p`` is row-stochastic with ``p[x, y] = c(x, y) / pi(x)``; ``pi`` is
    the reversibility function ``pi(x) p(x, y) = pi(y) p(y, x)``.
    """

    pi: np.ndarray
    p: sp.csr_matrix


def _assemble(u: np.ndarray, v: np.ndarray, c: np.ndarray, vertex_count: int,
              labels: tuple = (), check_connected: bool = True) -> Network:
    """Build a Network from dense-id endpoint arrays.

    Merges parallel edges (conductances add), drops self-loops, builds the
    CSR adjacency and vertex weights in a few O(E) numpy passes.  A
    canonical edge list (``u < v`` everywhere, keys ``u * V + v`` strictly
    increasing) is already the merged edge list and skips the sort-and-merge;
    its ``u`` and ``v`` may then be kept as the network's edge arrays, so
    callers pass arrays they do not reuse.
    """
    if np.all(u < v):
        lo, hi = u, v
    else:
        keep = u != v
        u, v, c = u[keep], v[keep], c[keep]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
    if len(lo) == 0:
        raise EmptyInput("no edges remain after dropping self-loops")
    if vertex_count > 2 * len(lo):  # refused before allocating for every vertex
        raise DisconnectedGraph(f"{len(lo)} edges cannot cover {vertex_count} vertices")
    key = lo.astype(np.int64)
    key *= vertex_count
    key += hi
    if np.all(key[1:] > key[:-1]):
        del key
        eu = np.ascontiguousarray(lo, dtype=np.int64)
        ev = np.ascontiguousarray(hi, dtype=np.int64)
        # a fresh array, as ``c`` may be another network's; + 0.0 turns -0.0
        # into 0.0 as a bincount sum would
        cm = np.asarray(c, dtype=np.float64) + 0.0
    else:
        uniq, inv = np.unique(key, return_inverse=True)
        del key
        cm = np.bincount(inv, weights=c, minlength=len(uniq))
        del inv
        eu, ev = np.divmod(uniq, vertex_count)
        del uniq
    del lo, hi, u, v, c

    n_edges = len(eu)
    ends = np.concatenate([eu, ev])
    indptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=vertex_count), out=indptr[1:])
    # one bincount over both ends adds each vertex's terms in edge order,
    # u-ends first, so pi is bit-equal to accumulating u-ends then v-ends
    pi = np.bincount(ends, weights=np.concatenate([cm, cm]), minlength=vertex_count)
    isolated = np.flatnonzero(pi == 0)
    if len(isolated):
        raise DisconnectedGraph(f"vertex {isolated[0]} has no edges (zero weight)")

    # slot j holds end order[j] of edge order[j] % E; its neighbour is the
    # edge's other end, ends[(order[j] + E) % 2E]
    order = np.argsort(ends, kind="stable")
    order += n_edges
    neighbor = np.take(ends, order, mode="wrap")
    del ends
    np.remainder(order, n_edges, out=order)

    if check_connected:
        adj = sp.csr_matrix(
            (np.ones(len(neighbor)), neighbor, indptr), shape=(vertex_count, vertex_count)
        )
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise DisconnectedGraph(f"{ncomp} components")

    return Network(
        vertex_count=vertex_count,
        edge_u=eu,
        edge_v=ev,
        edge_c=cm,
        adj_indptr=indptr,
        adj_neighbor=neighbor,
        adj_edge=order,
        pi=pi,
        labels=labels,
    )


def build_network(edge_list: Iterable[tuple], check_connected: bool = True) -> Network:
    """Build a Network from ``(u, v, c)`` triples.

    Labels may be arbitrary hashable values; they are remapped to dense ids
    (sorted order for sortable labels) and kept in ``Network.labels``.
    Parallel edges merge by summing conductances; self-loops are dropped.
    """
    triples = list(edge_list)
    if not triples:
        raise EmptyInput("empty edge list")
    us = [t[0] for t in triples]
    vs = [t[1] for t in triples]
    cs = np.asarray([float(t[2]) for t in triples])
    if np.any(cs <= 0) or not np.all(np.isfinite(cs)):
        raise NonpositiveConductance("conductances must be positive and finite")

    raw = us + vs
    ids = None
    if all(t is int or issubclass(t, np.integer) for t in set(map(type, raw))):
        ids = np.asarray(raw)  # float64 or object when no integer dtype holds them all
    if ids is not None and ids.dtype.kind in "iu":
        uniq, inv = np.unique(ids, return_inverse=True)
        inv = inv.astype(np.int64, copy=False)
        u, v = inv[: len(us)], inv[len(us) :]
        already_dense = uniq[0] == 0 and uniq[-1] == len(uniq) - 1
        uniq_labels = uniq.tolist()
    else:
        try:
            uniq_labels = sorted(set(raw))
        except TypeError:
            uniq_labels = list(dict.fromkeys(raw))
        remap = {lab: i for i, lab in enumerate(uniq_labels)}
        u = np.asarray([remap[x] for x in us], dtype=np.int64)
        v = np.asarray([remap[x] for x in vs], dtype=np.int64)
        already_dense = all(
            isinstance(lab, (int, np.integer)) and lab == i
            for i, lab in enumerate(uniq_labels)
        )
    labels = () if already_dense else tuple(uniq_labels)
    return _assemble(u, v, cs, len(uniq_labels), labels, check_connected)


def vertex_weight(net: Network, x: int) -> float:
    """pi(x): sum of conductances incident to x."""
    net._check_vertex(x)
    return float(net.pi[x])


def markov_view(net: Network) -> MarkovView:
    """Row-stochastic transition matrix and reversibility function."""
    c = net.conductance_matrix()
    inv_pi = sp.diags(1.0 / net.pi)
    return MarkovView(pi=net.pi.copy(), p=(inv_pi @ c).tocsr())


def contract_vertices(net: Network, s: Iterable[int]) -> tuple[Network, int]:
    """Identify all vertices of ``s`` as one new vertex ``z``.

    Edges internal to ``s`` become self-loops and are thrown away; parallel
    edges to ``z`` merge by summing conductances.  The complement keeps its
    relative order at ids ``0..k-1``; ``z`` gets id ``k``.  Returns the new
    network and the id of ``z``.
    """
    s = net._check_ids(s)
    if len(s) == 0:
        raise EmptyContractionSet("empty contraction set")
    keep = np.ones(net.vertex_count, dtype=bool)
    keep[s] = False
    kept = np.flatnonzero(keep)
    if len(kept) == 0:
        raise ComplementDisconnected("contraction set covers all vertices")
    z = len(kept)
    mapping = np.full(net.vertex_count, z, dtype=np.int64)
    mapping[kept] = np.arange(z)
    if z > 1:
        inner = mapping[net.edge_u] < z
        inner &= mapping[net.edge_v] < z
        sub = sp.csr_matrix(
            (
                np.ones(int(inner.sum())),
                (mapping[net.edge_u[inner]], mapping[net.edge_v[inner]]),
            ),
            shape=(z, z),
        )
        ncomp, _ = connected_components(sub, directed=False)
        if ncomp != 1:
            raise ComplementDisconnected("complement of contraction set is disconnected")
    try:
        out = _assemble(
            mapping[net.edge_u], mapping[net.edge_v], net.edge_c, z + 1
        )
    except (EmptyInput, DisconnectedGraph) as exc:
        raise ComplementDisconnected(str(exc)) from exc
    return out, z


def series_parallel_reduce(net: Network, keep: Iterable[int]) -> Network:
    """Collapse series chains and parallel edges until a fixed point.

    Degree-2 vertices outside ``keep`` are eliminated by replacing their two
    edges (resistances r1, r2) with one of resistance r1 + r2; duplicate
    edges merge by summing conductances.  Non-series-parallel remainders are
    returned as-is.  ``Network.labels`` of the result holds the surviving
    original ids.
    """
    keep = frozenset(int(x) for x in keep)
    for x in keep:
        net._check_vertex(x)
    # dict-of-dicts conductance map; parallel edges already merged at build
    conn: dict[int, dict[int, float]] = {x: {} for x in range(net.vertex_count)}
    for u, v, c in zip(net.edge_u, net.edge_v, net.edge_c):
        conn[int(u)][int(v)] = float(c)
        conn[int(v)][int(u)] = float(c)

    changed = True
    while changed:
        changed = False
        for x in list(conn):
            if x in keep or len(conn[x]) != 2:
                continue
            (a, ca), (b, cb) = conn[x].items()
            if a == b:  # parallel pair collapsed into a loop at a
                continue
            c_new = 1.0 / (1.0 / ca + 1.0 / cb)
            del conn[a][x]
            del conn[b][x]
            del conn[x]
            conn[a][b] = conn[a].get(b, 0.0) + c_new
            conn[b][a] = conn[a][b]
            changed = True

    survivors = sorted(conn)
    remap = {lab: i for i, lab in enumerate(survivors)}
    triples = [
        (remap[x], remap[y], c)
        for x in survivors
        for y, c in conn[x].items()
        if x < y
    ]
    return replace(build_network(triples), labels=tuple(survivors))


def network_to_json(net: Network) -> dict:
    """JSON-serializable dict: {"vertices": V, "edges": [{"u","v","c"}], "labels"}."""
    doc = {
        "vertices": net.vertex_count,
        "edges": [
            {"u": int(u), "v": int(v), "c": float(c)}
            for u, v, c in zip(net.edge_u, net.edge_v, net.edge_c)
        ],
    }
    if net.labels:
        doc["labels"] = {str(i): lab for i, lab in enumerate(net.labels)}
    return doc


def _field(edges, key: str, conv, dtype) -> np.ndarray:
    """``conv(e[key])`` of every edge record, as one array."""
    return np.fromiter((conv(e[key]) for e in edges), dtype=dtype, count=len(edges))


def network_from_json(doc: dict) -> Network:
    """Inverse of :func:`network_to_json`; rejects c <= 0, bad ids and
    declared vertices without edges."""
    n = int(doc["vertices"])
    edges = doc["edges"]
    try:
        u = _field(edges, "u", int, np.int64)
        v = _field(edges, "v", int, np.int64)
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    except OverflowError:  # an id beyond int64 is out of range too; find its edge
        bad = np.array([not (0 <= int(e["u"]) < n and 0 <= int(e["v"]) < n) for e in edges])
    if bad.any():
        raise InvalidVertex(f"edge endpoint out of range: {edges[int(bad.argmax())]}")
    if len(edges) == 0:
        raise EmptyInput("empty edge list")
    c = _field(edges, "c", float, np.float64)
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise NonpositiveConductance("conductances must be positive and finite")
    net = _assemble(u, v, c, n)
    labels = doc.get("labels")
    if labels:
        net = replace(net, labels=tuple(labels[str(i)] for i in range(n)))
    return net
