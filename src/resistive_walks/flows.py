"""Discrete calculus on oriented edges: d, d*, flows, energy, Kirchhoff.

An edge function is a numpy array aligned with the network's edge order,
holding the value on the forward orientation ``u -> v`` (tail ``u``, head
``v``); the reverse orientation reads the negation, so antisymmetry is
structural.  Inner products follow the half-sum-over-orientations
convention, which equals a single sum over undirected edges -- every
formula below uses the undirected form to avoid factor-of-2 bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import NotAFlow, VertexInTarget
from .harmonic import BoundarySpec, ohm_current, solve_dirichlet
from .network import Network

__all__ = [
    "apply_d",
    "apply_d_star",
    "chi",
    "inner_r",
    "energy",
    "FlowReport",
    "validate_flow",
    "decompose_star_cycle",
    "KirchhoffReport",
    "verify_kirchhoff",
    "thomson_gap",
    "adjointness_residual",
    "current_flow",
]


def apply_d(net: Network, f: np.ndarray) -> np.ndarray:
    """Coboundary dF(e) = F(tail) - F(head); kills constants."""
    return np.asarray(f, dtype=float)[net.edge_u] - np.asarray(f, dtype=float)[net.edge_v]


def apply_d_star(net: Network, theta: np.ndarray) -> np.ndarray:
    """Divergence d*theta(x) = sum of theta over edges with tail x."""
    theta = np.asarray(theta, dtype=float)
    div = np.zeros(net.vertex_count)
    np.add.at(div, net.edge_u, theta)
    np.add.at(div, net.edge_v, -theta)
    return div


def chi(net: Network, x: int, y: int) -> np.ndarray:
    """Unit flow along the oriented edge x -> y."""
    k = net.adj_edge[net.edge_slot(x, y)]
    theta = np.zeros(net.edge_count)
    theta[k] = 1.0 if net.edge_u[k] == x else -1.0
    return theta


def inner_r(net: Network, theta1: np.ndarray, theta2: np.ndarray) -> float:
    """(theta1, theta2)_r = sum over undirected edges of theta1 theta2 / c."""
    return float(np.sum(theta1 * theta2 / net.edge_c))


def energy(net: Network, theta: np.ndarray) -> float:
    """Dirichlet energy sum of theta(e)^2 r(e); zero iff theta vanishes."""
    return inner_r(net, theta, theta)


@dataclass(frozen=True)
class FlowReport:
    ok: bool
    violations: list


_VIOLATIONS = (
    "source divergence not positive",
    "sink divergence not negative",
    "interior divergence nonzero",
)


def validate_flow(net: Network, theta, a, z, tol: float = 1e-12) -> FlowReport:
    """Check the flow sign conditions: d* > 0 on a, < 0 on z, = 0 elsewhere."""
    kind = np.full(net.vertex_count, 2)
    kind[net._check_ids(z)] = 1
    in_a = net._check_ids(a)
    overlap = kind[in_a] == 1
    if overlap.any():
        raise VertexInTarget(f"source and sink overlap: {sorted(set(in_a[overlap].tolist()))}")
    kind[in_a] = 0
    div = apply_d_star(net, theta)
    bad = np.where(kind == 0, div <= 0, np.where(kind == 1, div >= 0, np.abs(div) > tol))
    where = np.flatnonzero(bad)
    violations = [
        (x, _VIOLATIONS[k], d)
        for x, k, d in zip(where.tolist(), kind[where].tolist(), div[where].tolist())
    ]
    return FlowReport(ok=not violations, violations=violations)


def current_flow(net: Network, div: np.ndarray) -> np.ndarray:
    """The unique current (star-space) flow with the prescribed divergence.

    ``div`` must sum to zero.  The potential solves ``L f = div`` grounded at
    vertex 0 through :func:`~resistive_walks.harmonic.solve_dirichlet`, so it
    carries the same residual check as every other solve; the current is
    its :func:`~resistive_walks.harmonic.ohm_current`, ``c df``.
    """
    return ohm_current(net, solve_dirichlet(net, BoundarySpec([0], [0.0]), source=div))


def decompose_star_cycle(net: Network, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split theta into its r-orthogonal star and cycle components.

    The star part is the current flow with the same divergence as theta
    (a weighted-Laplacian solve); the cycle part is the circulation left
    over.  They recombine to theta and are r-orthogonal.
    """
    star = current_flow(net, apply_d_star(net, theta))
    return star, np.asarray(theta, dtype=float) - star


def _tree_potential(net: Network, drops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tree-edge mask, S) for the BFS spanning tree from vertex 0, where
    S(x) is the signed sum of ``drops`` along the tree path 0 -> x."""
    n = net.vertex_count
    graph = sp.csr_matrix(
        (np.ones(len(net.adj_neighbor)), net.adj_neighbor, net.adj_indptr), shape=(n, n)
    )
    _, parent = breadth_first_order(graph, 0, directed=False, return_predecessors=True)
    parent[parent < 0] = 0  # the root (and any vertex it cannot reach)
    # the slot of each vertex's row that leads to its parent (edges are merged)
    row = np.repeat(np.arange(n), np.diff(net.adj_indptr))
    slot = np.flatnonzero(net.adj_neighbor == parent[row])
    edge = net.adj_edge[slot]
    mask = np.zeros(net.edge_count, dtype=bool)
    mask[edge] = True
    # step(x): drop from parent(x) to x, the forward orientation when it is the tail
    step = np.zeros(n)
    child = row[slot]
    step[child] = np.where(net.edge_u[edge] == parent[child], drops[edge], -drops[edge])
    # pointer doubling: s(x) sums the steps from x up to (not including) up(x)
    up, s = parent, step
    while np.any(up != 0):
        s = s + s[up]
        up = up[up]
    return mask, s


@dataclass(frozen=True)
class KirchhoffReport:
    node_residual: float
    cycle_residual: float


def verify_kirchhoff(net: Network, current: np.ndarray, exempt=()) -> KirchhoffReport:
    """Max node-law residual off the exempt (battery) vertices and max
    cycle-law residual over a fundamental cycle basis."""
    div = apply_d_star(net, current)
    div[net._check_ids(exempt)] = 0.0
    node = float(np.max(np.abs(div)))

    drops = np.asarray(current, dtype=float) / net.edge_c  # theta * r edgewise
    mask, s = _tree_potential(net, drops)
    off = ~mask
    cycle = np.abs(drops[off] + s[net.edge_u[off]] - s[net.edge_v[off]])
    return KirchhoffReport(node_residual=node, cycle_residual=float(cycle.max(initial=0.0)))


def thomson_gap(net: Network, theta: np.ndarray, a, z) -> float:
    """Energy excess of theta over the current flow with the same divergence.

    Always >= 0 up to round-off: the current flow is the energy minimizer
    among flows sharing its divergence, and the gap equals the energy of
    theta's cycle component.  Raises NotAFlow unless theta is a flow from
    ``a`` to ``z`` (:func:`validate_flow` at tolerance 1e-9).
    """
    report = validate_flow(net, theta, a, z, tol=1e-9)
    if not report.ok:
        a, z = (np.sort(net._check_ids(ids)).tolist() for ids in (a, z))
        raise NotAFlow(f"not a flow from {a} to {z}: {report.violations[:5]}")
    i = current_flow(net, apply_d_star(net, theta))
    return energy(net, theta) - energy(net, i)


def adjointness_residual(net: Network, theta: np.ndarray, f: np.ndarray) -> float:
    """|(theta, dF) - (d* theta, F)|; vanishes for all inputs."""
    lhs = float(np.sum(np.asarray(theta, dtype=float) * apply_d(net, f)))
    rhs = float(np.dot(apply_d_star(net, theta), np.asarray(f, dtype=float)))
    return abs(lhs - rhs)
