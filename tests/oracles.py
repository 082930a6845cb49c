"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own solution paths:
absorbing-chain probabilities use dense transition-matrix algebra, and the
star/cycle projection is computed from an explicit fundamental cycle basis
via dense normal equations, and graph assembly is the plain sort-and-merge
the package's own assembly must reproduce bit for bit, as must the tree's
breadth-first labelling against its first, level-by-level form, and the
arithmetic tree walker against its first, one-formula step.
"""

from dataclasses import fields
from itertools import combinations
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from resistive_walks.errors import (
    DisconnectedGraph,
    EmptyInput,
    InvalidVertex,
    NonpositiveConductance,
)
from resistive_walks.network import Network


def dense_transition_matrix(net) -> np.ndarray:
    n = net.vertex_count
    p = np.zeros((n, n))
    for u, v, c in zip(net.edge_u, net.edge_v, net.edge_c):
        p[u, v] = c / net.pi[u]
        p[v, u] = c / net.pi[v]
    return p


def absorbing_hit_probability(net, a: int, z) -> np.ndarray:
    """P_x(hit a before z) for every x, by dense linear algebra.

    Solves (I - Q) h = P[:, a] restricted to transient states, with a and
    z absorbing.
    """
    n = net.vertex_count
    p = dense_transition_matrix(net)
    z = set(int(x) for x in z)
    absorbed = z | {int(a)}
    trans = [x for x in range(n) if x not in absorbed]
    h = np.zeros(n)
    h[a] = 1.0
    if trans:
        q = p[np.ix_(trans, trans)]
        b = p[np.ix_(trans, [a])].ravel()
        h[trans] = np.linalg.solve(np.eye(len(trans)) - q, b)
    return h


def expected_visits(net, start: int, absorbing) -> np.ndarray:
    """E[number of times at x, times 0..absorption) with given absorbing set.

    Counts the time-0 state; the arrival at an absorbing state ends the
    walk (and is counted for that absorbing state only).
    """
    n = net.vertex_count
    p = dense_transition_matrix(net)
    absorbing = set(int(x) for x in absorbing)
    trans = [x for x in range(n) if x not in absorbing]
    g = np.zeros(n)
    if start in absorbing:
        g[start] = 1.0
        return g
    q = p[np.ix_(trans, trans)]
    fundamental = np.linalg.inv(np.eye(len(trans)) - q)
    row = fundamental[trans.index(start)]
    for j, x in enumerate(trans):
        g[x] = row[j]
    return g


def fundamental_cycle_matrix(net) -> np.ndarray:
    """Rows = fundamental cycles of a DFS spanning tree, as signed edge vectors."""
    n, m = net.vertex_count, net.edge_count
    adj = {x: [] for x in range(n)}
    for k, (u, v) in enumerate(zip(net.edge_u, net.edge_v)):
        adj[int(u)].append((int(v), k))
        adj[int(v)].append((int(u), k))
    parent = {0: (None, None)}
    stack = [0]
    order = []
    while stack:
        x = stack.pop()
        order.append(x)
        for y, k in adj[x]:
            if y not in parent:
                parent[y] = (x, k)
                stack.append(y)
    tree_edges = {k for (_, k) in parent.values() if k is not None}

    def path_vector(x):
        vec = np.zeros(m)
        while parent[x][0] is not None:
            p, k = parent[x]
            sign = 1.0 if net.edge_v[k] == x else -1.0  # traversed p -> x forward?
            vec[k] += sign
            x = p
        return vec

    rows = []
    for k in range(m):
        if k in tree_edges:
            continue
        u, v = int(net.edge_u[k]), int(net.edge_v[k])
        vec = path_vector(u) - path_vector(v)
        vec[k] += 1.0
        rows.append(vec)
    return np.array(rows).reshape(len(rows), m)


def project_cycle_space(net, theta: np.ndarray) -> np.ndarray:
    """r-orthogonal projection of theta onto the span of the cycle vectors."""
    basis = fundamental_cycle_matrix(net)
    if basis.shape[0] == 0:
        return np.zeros_like(theta)
    r = 1.0 / net.edge_c
    gram = basis @ np.diag(r) @ basis.T
    rhs = basis @ (r * theta)
    coeffs = np.linalg.solve(gram, rhs)
    return basis.T @ coeffs


def connected_unit_graphs(max_vertices: int):
    """All connected labeled graphs with unit conductances, 2..max_vertices."""
    from resistive_walks import build_network
    from resistive_walks.errors import DisconnectedGraph

    for n in range(2, max_vertices + 1):
        all_pairs = list(combinations(range(n), 2))
        for bits in range(1, 2 ** len(all_pairs)):
            edges = [
                (u, v, 1.0)
                for j, (u, v) in enumerate(all_pairs)
                if bits >> j & 1
            ]
            try:
                net = build_network(edges)
            except DisconnectedGraph:
                continue
            if net.vertex_count == n:
                yield net


# Graph assembly by a plain sort-and-merge (np.unique, np.add.at) and a
# per-edge JSON loop: the reference that ``network._assemble`` and
# ``network.network_from_json`` must match bit for bit.


def reference_assemble(u: np.ndarray, v: np.ndarray, c: np.ndarray, vertex_count: int,
              labels: tuple = (), check_connected: bool = True) -> Network:
    """Build a Network from dense-id endpoint arrays.

    Merges parallel edges (conductances add), drops self-loops, builds the
    CSR adjacency and vertex weights.
    """
    keep = u != v
    u, v, c = u[keep], v[keep], c[keep]
    if len(u) == 0:
        raise EmptyInput("no edges remain after dropping self-loops")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo.astype(np.int64) * vertex_count + hi
    uniq, inv = np.unique(key, return_inverse=True)
    cm = np.bincount(inv, weights=c, minlength=len(uniq))
    eu = (uniq // vertex_count).astype(np.int64)
    ev = (uniq % vertex_count).astype(np.int64)

    ends = np.concatenate([eu, ev])
    other = np.concatenate([ev, eu])
    eidx = np.tile(np.arange(len(eu), dtype=np.int64), 2)
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.add.at(indptr, ends + 1, 1)
    indptr = np.cumsum(indptr)
    pi = np.zeros(vertex_count)
    np.add.at(pi, eu, cm)
    np.add.at(pi, ev, cm)

    if np.any(pi == 0):
        raise DisconnectedGraph("isolated vertex (zero weight)")
    if check_connected:
        adj = sp.csr_matrix(
            (np.ones(2 * len(eu)), (ends, other)), shape=(vertex_count, vertex_count)
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
        adj_neighbor=other[order],
        adj_edge=eidx[order],
        pi=pi,
        labels=labels,
    )


def reference_conductance_matrix(net) -> sp.csr_matrix:
    """C[x, y] = c(x, y) from both orientations of every edge, through COO;
    ``Network.conductance_matrix`` must match it bit for bit."""
    n = net.vertex_count
    data = np.concatenate([net.edge_c, net.edge_c])
    rows = np.concatenate([net.edge_u, net.edge_v])
    cols = np.concatenate([net.edge_v, net.edge_u])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


# The breadth-first tree labelling as it was first written, one level at a
# time with per-vertex depth and parent arrays: the reference that
# ``tree._tree_edges``, ``TreeSpec.depth_of``/``parent_of`` and the
# contracted tree ``exhaustion(TreeGenerator(q), n)`` must match.


def reference_level_starts(q: int, levels: int) -> np.ndarray:
    """Index of the first vertex of each level 0..levels (BFS labeling)."""
    sizes = [1] + [(q + 1) * q ** (k - 1) for k in range(1, levels + 1)]
    return np.concatenate([[0], np.cumsum(sizes)])


def reference_tree_edges(q: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, child) arrays for all edges of the uncontracted tree."""
    starts = reference_level_starts(q, levels)
    parents = [np.zeros(0, dtype=np.int64)]
    children = [np.zeros(0, dtype=np.int64)]
    for k in range(1, levels + 1):
        kids = np.arange(starts[k], starts[k + 1], dtype=np.int64)
        if k == 1:
            par = np.zeros(len(kids), dtype=np.int64)
        else:
            par = starts[k - 1] + (kids - starts[k]) // q
        parents.append(par)
        children.append(kids)
    return np.concatenate(parents), np.concatenate(children)


def reference_tree_step(q: int, leaf: int, cur: np.ndarray, u: np.ndarray):
    """(slot, neighbour) of a step of the uncontracted tree's walk from each
    ``cur`` with variate ``u``, by one general formula for every row: slot
    ``(q + 1) x + floor(u pi(x))``, a child below the row's child count and
    the parent ``max((x - 2) // q, 0)`` past it; ``leaf`` is the first id of
    the deepest level."""
    inner = cur < leaf
    root = cur == 0
    k = (u * np.where(inner, q + 1.0, 1.0)).astype(np.int64)
    slot = (q + 1) * cur + k
    up = k >= np.where(inner, q + root, 0)
    return slot, np.where(up, np.maximum((cur - 2) // q, 0), slot - cur + 2 - root)


def reference_build_tree(q: int, n: int, contracted: bool):
    """``(net, depth, parent, z)`` of the level-n truncation; z is None
    unless everything past level n is contracted to it."""
    starts = reference_level_starts(q, n)
    count = 1 + (q + 1) * (q**n - 1) // (q - 1)
    pu, pv = reference_tree_edges(q, n)
    depth = np.zeros(count, dtype=np.int64)
    for k in range(1, n + 1):
        depth[starts[k] : starts[k + 1]] = k
    parent = np.full(count, -1, dtype=np.int64)
    parent[pv] = pu

    if contracted:
        z = count
        last = np.arange(starts[n], starts[n + 1], dtype=np.int64)
        u = np.concatenate([pu, last])
        v = np.concatenate([pv, np.full(len(last), z, dtype=np.int64)])
        c = np.concatenate([np.ones(len(pu)), np.full(len(last), float(q))])
        if n == 0:
            u, v, c = np.array([0]), np.array([z]), np.array([float(q + 1)])
        net = reference_assemble(u, v, c, count + 1, check_connected=False)
        depth = np.append(depth, n + 1)
        parent = np.append(parent, -1)
        return net, depth, parent, z

    net = reference_assemble(pu, pv, np.ones(len(pu)), count, check_connected=False)
    return net, depth, parent, None


def assert_same_network(a, b):
    """Every field equal, arrays byte for byte and in the same dtype."""
    for f in fields(Network):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def reference_conductance(c) -> float:
    """``float(c)`` for an int or float, numpy's included, that is not a
    bool; anything else, or an int beyond float64, is refused."""
    if isinstance(c, (bool, np.bool_)) or not isinstance(
        c, (int, float, np.integer, np.floating)
    ):
        raise NonpositiveConductance(f"conductance {c!r} is not a number")
    try:
        return float(c)
    except OverflowError:
        raise NonpositiveConductance(f"conductance {c} is not finite") from None


def reference_build_network(edge_list: Iterable[tuple]) -> Network:
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
    cs = np.asarray([reference_conductance(t[2]) for t in triples])
    if np.any(cs <= 0) or not np.all(np.isfinite(cs)):
        raise NonpositiveConductance("conductances must be positive and finite")

    raw = us + vs
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
    return reference_assemble(u, v, cs, len(uniq_labels), labels)


def reference_network_from_json(doc: dict) -> Network:
    """Inverse of :func:`network_to_json`; rejects bad ids, then
    conductances that are not positive numbers."""
    n = doc["vertices"]
    if type(n) is not int and not isinstance(n, np.integer):  # the id rule
        raise InvalidVertex(f"vertex count {n!r} is not an integer")
    for e in doc["edges"]:  # every id is checked before any conductance
        for x in (e["u"], e["v"]):  # a float, string or boolean is not an id
            if type(x) is not int and not isinstance(x, np.integer):
                raise InvalidVertex(f"vertex id {x!r} is not an integer")
        if not (0 <= e["u"] < n and 0 <= e["v"] < n):
            raise InvalidVertex(f"edge endpoint out of range: {e}")
    triples = [(int(e["u"]), int(e["v"]), reference_conductance(e["c"])) for e in doc["edges"]]
    net = reference_build_network(triples)
    if net.vertex_count != n:
        raise DisconnectedGraph("edge list does not cover all declared vertices")
    labels = doc.get("labels")
    if labels:
        lab = tuple(labels[str(i)] for i in range(n))
        net = Network(
            **{
                **{f: getattr(net, f) for f in (
                    "vertex_count", "edge_u", "edge_v", "edge_c",
                    "adj_indptr", "adj_neighbor", "adj_edge", "pi",
                )},
                "labels": lab,
            }
        )
    return net


def reference_validate_flow(net, theta, a, z, tol: float = 1e-12) -> list:
    """Flow-condition violations by a per-vertex loop over 0..V-1."""
    from resistive_walks.flows import apply_d_star

    a = frozenset(int(x) for x in a)
    z = frozenset(int(x) for x in z)
    div = apply_d_star(net, theta)
    violations = []
    for x in range(net.vertex_count):
        if x in a:
            if div[x] <= 0:
                violations.append((x, "source divergence not positive", div[x]))
        elif x in z:
            if div[x] >= 0:
                violations.append((x, "sink divergence not negative", div[x]))
        elif abs(div[x]) > tol:
            violations.append((x, "interior divergence nonzero", div[x]))
    return violations


def reference_kirchhoff(net, current: np.ndarray, exempt=()) -> tuple[float, float]:
    """(node residual, cycle residual) by a level-by-level BFS spanning tree
    from vertex 0, its path sums settled one vertex at a time, and a loop
    over the non-tree edges."""
    from resistive_walks.flows import apply_d_star

    exempt = frozenset(int(x) for x in exempt)
    div = apply_d_star(net, current)
    free = [x for x in range(net.vertex_count) if x not in exempt]
    node = float(np.max(np.abs(div[free]))) if free else 0.0

    n = net.vertex_count
    parent_edge = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            lo, hi = net.adj_indptr[x], net.adj_indptr[x + 1]
            for y, e in zip(net.adj_neighbor[lo:hi], net.adj_edge[lo:hi]):
                if not seen[y]:
                    seen[y] = True
                    parent_edge[y] = e
                    nxt.append(int(y))
        frontier = nxt
    tree = np.zeros(net.edge_count, dtype=bool)
    tree[parent_edge[parent_edge >= 0]] = True

    drops = np.asarray(current, dtype=float) / net.edge_c
    s = np.full(n, np.nan)
    s[0] = 0.0
    pending = [x for x in range(n) if parent_edge[x] >= 0]
    while pending:
        rest = []
        for x in pending:
            e = parent_edge[x]
            u, v = int(net.edge_u[e]), int(net.edge_v[e])
            p = v if u == x else u
            if np.isnan(s[p]):
                rest.append(x)
                continue
            s[x] = s[p] + (drops[e] if u == p else -drops[e])
        pending = rest
    cycle = 0.0
    for e in np.flatnonzero(~tree):
        u, v = int(net.edge_u[e]), int(net.edge_v[e])
        cycle = max(cycle, abs(drops[e] + s[u] - s[v]))
    return node, cycle
