"""Weighted-graph data model and its JSON interchange format.

A :class:`Network` is a finite connected graph with symmetric positive
conductances.  It doubles as a reversible Markov chain: the transition
probabilities are ``p(x, y) = c(x, y) / pi(x)`` with ``pi(x)`` the sum of
conductances incident to ``x``, that is ``diag(1 / net.pi) @
net.conductance_matrix()``.  Networks are immutable after construction (the
arrays of one built by :func:`build_network`, :func:`network_from_json` or the
tree and exhaustion builders are read-only) and safe to share across threads.

Vertex ids are dense integers ``0 .. V-1``; arbitrary hashable labels given
at build time are remapped and retained in ``Network.labels``.
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DisconnectedGraph,
    EmptyInput,
    InvalidSpec,
    InvalidVertex,
    NonpositiveConductance,
    NotAdjacent,
)

__all__ = [
    "Network",
    "build_network",
    "network_to_json",
    "network_from_json",
]


# bool is an int subclass, and numpy's bool may index as one; no vertex id,
# count or radius is either
_BOOLS = (bool, np.bool_)


def _index(x) -> int:
    """``operator.index(x)``, numpy's integers included, raising TypeError
    for a bool too: the one test of what counts as an integer."""
    if isinstance(x, _BOOLS):
        raise TypeError
    return operator.index(x)


def _check_int(name: str, value, least: int | None = 0) -> int:
    """``value`` as an int, or InvalidSpec naming ``name`` unless it passes
    :func:`_index` and is at least ``least`` (None: no bound).  The one
    check of every count, level, depth, radius, seed and ``n_max``."""
    try:
        n = _index(value)
        if least is None or n >= least:
            return n
    except TypeError:
        pass
    bound = "" if least is None else f" >= {least}"
    raise InvalidSpec(f"{name} must be an integer{bound}, got {value!r}")


class _VertexIds:
    """Vertex ids ``0 .. vertex_count - 1`` and the one check of a vertex
    argument, for a network or any other vertex set with a ``vertex_count``."""

    def _check_vertex(self, x) -> int:
        """``x`` as an int id; raises InvalidVertex unless it is an integer
        in ``0 .. V-1``, a bool not counting as one.  The one check of a
        single vertex argument."""
        try:
            x = _index(x)
        except TypeError:
            raise InvalidVertex(f"vertex id {x!r} is not an integer") from None
        if not 0 <= x < self.vertex_count:
            raise InvalidVertex(f"vertex {x} out of range 0..{self.vertex_count - 1}")
        return x

    def _check_ids(self, ids: Iterable[int]) -> np.ndarray:
        """The vertex ids of an iterable (a set, list, dict or array) as an
        int64 array; raises InvalidVertex naming the first one that is not
        an integer or is out of range.  A 1-D int64 array is checked in
        place, with no per-element pass."""
        if isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1:
            arr = ids
        else:
            if iter(ids) is ids:  # a one-pass iterator
                ids = list(ids)
            try:
                if not set(map(type, ids)).isdisjoint(_BOOLS):
                    raise TypeError
                arr = np.fromiter(map(operator.index, ids), dtype=np.int64)
            except (TypeError, OverflowError):  # a non-integer or an id beyond int64
                for x in ids:  # names the first such id
                    self._check_vertex(x)
                raise InvalidVertex("vertex ids must be integers") from None
        bad = (arr < 0) | (arr >= self.vertex_count)
        if bad.any():
            self._check_vertex(int(arr[bad.argmax()]))
        return arr


@dataclass(frozen=True)
class Network(_VertexIds):
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

    def neighbors(self, x: int) -> np.ndarray:
        x = self._check_vertex(x)
        return self.adj_neighbor[self.adj_indptr[x] : self.adj_indptr[x + 1]]

    def incident_edges(self, x: int) -> np.ndarray:
        x = self._check_vertex(x)
        return self.adj_edge[self.adj_indptr[x] : self.adj_indptr[x + 1]]

    def edge_slot(self, x: int, y: int) -> int:
        """CSR slot of the directed edge x -> y; raises NotAdjacent when
        y is not a neighbour of x."""
        x, y = self._check_vertex(x), self._check_vertex(y)
        first = self.adj_indptr[x]
        hit = np.flatnonzero(self.adj_neighbor[first : self.adj_indptr[x + 1]] == y)
        if not hit.size:
            raise NotAdjacent(f"{x} and {y} are not neighbors")
        return int(first + hit[0])

    def conductance_matrix(self) -> sp.csr_matrix:
        """Symmetric sparse matrix C with C[x, y] = c(x, y), built from the
        CSR adjacency (the indices copied, as sorting them is in place)."""
        n = self.vertex_count
        c = sp.csr_matrix(
            (self.edge_c[self.adj_edge], self.adj_neighbor.copy(), self.adj_indptr),
            shape=(n, n),
        )
        c.sort_indices()
        return c

    def laplacian(self) -> sp.csr_matrix:
        """Weighted graph Laplacian L = diag(pi) - C."""
        c = self.conductance_matrix()
        return sp.diags(self.pi) - c


def _assemble(u: np.ndarray, v: np.ndarray, c: np.ndarray, vertex_count: int,
              labels: tuple = (), check_connected: bool = True) -> Network:
    """Build a Network from dense-id endpoint arrays.

    Merges parallel edges (conductances add), drops self-loops, builds the
    CSR adjacency and vertex weights in a few O(E) numpy passes.  A
    canonical edge list (``u < v`` everywhere, keys ``u * V + v`` strictly
    increasing) is already the merged edge list and skips the sort-and-merge;
    its ``u`` and ``v`` may then be kept as the network's edge arrays, so
    callers pass arrays they do not reuse.  Every array of the network is
    made read-only.

    First it empties the solver's factor slot (see
    :mod:`~resistive_walks.harmonic`): a new network is most likely solved
    next, and its arrays then take the factor's freed memory rather than
    pile up above it, where the factor's freed pages would stay resident.
    On the benchmark's ``solve`` workload (2-vCPU host, glibc malloc), a
    flows factor kept alive through the next level-16 tree build raised the
    peak RSS from 167 to 184 MiB; emptied here, it reads 169.
    """
    from .harmonic import _drop_factor  # harmonic imports this module

    _drop_factor()
    if np.all(u < v):
        lo, hi = u, v
    else:
        keep = u != v
        u, v, c = u[keep], v[keep], c[keep]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
    if len(lo) == 0:
        raise EmptyInput("no edges, or only self-loops")
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

    net = Network(
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
    # read-only, so that nothing keyed by the network's identity (the
    # solver's factor slot) can outlive a change to it
    for arr in (eu, ev, cm, indptr, neighbor, order, pi):
        arr.setflags(write=False)
    if check_connected:
        ncomp, _ = connected_components(net.conductance_matrix(), directed=False)
        if ncomp != 1:
            raise DisconnectedGraph(f"{ncomp} components")
    return net


def build_network(edge_list: Iterable[tuple]) -> Network:
    """Build a Network from ``(u, v, c)`` triples.

    Labels may be arbitrary hashable values; they are remapped to dense ids
    (sorted order for sortable labels) and kept in ``Network.labels``.
    Parallel edges merge by summing conductances; self-loops are dropped;
    a graph that is not connected raises DisconnectedGraph.
    """
    triples = list(edge_list)
    us = [t[0] for t in triples]
    vs = [t[1] for t in triples]
    cs = _conductances([t[2] for t in triples])

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
    return _assemble(u, v, cs, len(uniq_labels), labels)


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


# a conductance is a number: an int or float, numpy's included, and not a bool
_NUMBERS = (int, float, np.integer, np.floating)


def _conductances(cs) -> np.ndarray:
    """The conductances of a sequence as a float64 array; raises
    NonpositiveConductance naming the first that is not a number (a bool,
    string or None is not one), or when one is not positive and finite."""
    odd = {t for t in set(map(type, cs)) if t in _BOOLS or not issubclass(t, _NUMBERS)}
    if odd:
        bad = next(x for x in cs if type(x) in odd)
        raise NonpositiveConductance(f"conductance {bad!r} is not a number")
    try:
        c = np.asarray(cs, dtype=np.float64)
        ok = not np.any(c <= 0) and np.all(np.isfinite(c))
    except OverflowError:  # an integer beyond float64 is not finite
        ok = False
    if not ok:
        raise NonpositiveConductance("conductances must be positive and finite")
    return c


def _endpoints(ids):
    """``ids``, a sequence of vertex ids; raises InvalidVertex naming the
    first that is not an integer (a float, string or boolean is not an id)."""
    odd = {t for t in set(map(type, ids)) if t is not int and not issubclass(t, np.integer)}
    if odd:
        bad = next(x for x in ids if type(x) in odd)
        raise InvalidVertex(f"vertex id {bad!r} is not an integer")
    return ids


def _from_columns(doc: dict, column) -> Network:
    """The network of a JSON document whose edge records' fields are the
    sequences ``column("u")``, ``column("v")`` and ``column("c")``; the one
    check of a document's edges, which reads the columns in that order.
    Rejects a vertex count or ids that are not integers (ids in
    ``0 .. V-1``), conductances that are not positive numbers, and declared
    vertices without edges."""
    n = doc["vertices"]
    if type(n) is not int and not isinstance(n, np.integer):  # as for ids
        raise InvalidVertex(f"vertex count {n!r} is not an integer")
    us, vs = _endpoints(column("u")), _endpoints(column("v"))
    try:
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    except OverflowError:  # an id beyond int64 is out of range too; find its edge
        bad = np.array([not (0 <= a < n and 0 <= b < n) for a, b in zip(us, vs)])
    if bad.any():
        k = int(bad.argmax())
        raise InvalidVertex(f"edge {k} endpoint out of range: ({us[k]}, {vs[k]})")
    net = _assemble(u, v, _conductances(column("c")), n)
    labels = doc.get("labels")
    if labels:
        net = replace(net, labels=tuple(labels[str(i)] for i in range(n)))
    return net


def network_from_json(doc: dict) -> Network:
    """Inverse of :func:`network_to_json`; rejects conductances that are
    not positive numbers, a vertex count that is not an integer, bad ids
    and declared vertices without edges."""
    return _from_columns(doc, lambda key: [e[key] for e in doc["edges"]])


class _Irregular(Exception):
    """An edge record whose fields do not fit the file reader's columns."""


# what an edge record becomes once its fields are in the file reader's columns
_EDGE = object()


def _network_from_file(fh) -> Network:
    """``network_from_json(json.load(fh))`` without a dict per edge.

    Each JSON object with ``u``, ``v`` and ``c`` keys whose ids are ints
    within int64 and whose conductance is an int or float within float64
    moves its fields into three typed columns while the text is parsed, and
    becomes one shared marker.  When the markers are exactly the list
    ``doc["edges"]``, the columns go through the same check as
    :func:`network_from_json`; any other document (an irregular record, or
    an edge-like object outside ``edges``) is parsed again into dicts and
    left to :func:`network_from_json`, so both accept the same documents
    and raise the same errors.
    """
    text = fh.read()
    columns = {"u": array("q"), "v": array("q"), "c": array("d")}
    put_u, put_v, put_c = (col.append for col in columns.values())

    def record(obj: dict):
        try:
            a, b, w = obj["u"], obj["v"], obj["c"]
        except KeyError:  # not an edge record: the document, its labels or a malformed one
            return obj
        if type(a) is not int or type(b) is not int or type(w) is not float and type(w) is not int:
            raise _Irregular
        try:
            put_u(a)
            put_v(b)
            put_c(w)
        except OverflowError:  # an id beyond int64 or a conductance beyond float64
            raise _Irregular from None
        return _EDGE

    try:
        doc = json.loads(text, object_hook=record)
        edges = doc.get("edges") if type(doc) is dict else None
        n_records = len(columns["c"])
        if type(edges) is not list or len(edges) != n_records or edges.count(_EDGE) != n_records:
            raise _Irregular
    except _Irregular:
        return network_from_json(json.loads(text))
    del text, edges
    return _from_columns(doc, columns.__getitem__)
