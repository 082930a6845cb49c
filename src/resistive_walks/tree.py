"""Truncated homogeneous trees and their closed-form quantities.

Every vertex of the infinite homogeneous tree of degree ``q + 1`` carries
unit-conductance edges; the simple random walk on it is the attached
reversible chain.  This module builds finite truncations (optionally with
the outside world contracted to a single vertex ``z``), provides the
closed forms for resistance, voltage, current, Green function, hitting
probabilities and escape probabilities as pure arithmetic, and the O(n)
level-ladder reduction that exploits spherical symmetry.

Vertex labeling is breadth-first: root 0, then level 1 in parent order,
and so on, so ids are stable as the truncation grows.  The labels are
arithmetic: level ``k >= 1`` starts at ``start[k] = tree_vertex_count(q,
k - 1)``, and since ``start[k] - 2 = q * start[k - 1]`` for ``k >= 2``,
every ``x >= 1`` has parent ``max((x - 2) // q, 0)``.  A
:class:`TreeNetwork` therefore keeps no per-vertex array: ``depth_of`` and
``parent_of`` compute depths and parents of any ids from these closed
forms.  The truncation contracted beyond level ``n`` is the radius-``n``
:func:`exhaustion` of :class:`TreeGenerator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCase, InvalidQ, InvalidSpec, InvalidVertex, SameVertex
from .generators import GraphGenerator, exhaustion
from .network import Network, _assemble

__all__ = [
    "TreeSpec",
    "TreeNetwork",
    "TreeGenerator",
    "tree_vertex_count",
    "build_tree",
    "level_slice",
    "first_at_depth",
    "oracle_resistance",
    "oracle_potential_current",
    "oracle_green_hitting",
    "oracle_finite_escape",
    "ladder_resistance",
    "finite_tree_pair_resistance",
    "tree_distance",
    "oracle_table",
]


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of a truncated homogeneous tree of degree q + 1."""

    q: int
    levels: int
    contract_boundary: bool = False

    def __post_init__(self):
        if self.q < 2:
            raise InvalidSpec(f"q must be >= 2, got {self.q}")
        if self.levels < 0:
            raise InvalidSpec(f"levels must be >= 0, got {self.levels}")


@dataclass(frozen=True)
class TreeNetwork:
    """A truncation in breadth-first labels, with ``z`` when contracted."""

    net: Network
    spec: TreeSpec
    z: int | None

    def depth_of(self, x):
        """Depths of the ids ``x`` (an int or an array); ``z`` is at ``levels + 1``."""
        return _depth(self.spec.q, x, self.spec.levels)

    def parent_of(self, x):
        """Parents of the ids ``x`` (an int or an array); -1 at the root and at ``z``."""
        x = np.asarray(x)
        outside = (x == 0) | (self.depth_of(x) > self.spec.levels)
        return np.where(outside, -1, _parent(self.spec.q, x))


def tree_vertex_count(q: int, levels: int) -> int:
    """1 + (q+1)(q^levels - 1)/(q - 1) vertices in the uncontracted tree."""
    return 1 + (q + 1) * (q**levels - 1) // (q - 1)


def _level_starts(q: int, levels: int) -> np.ndarray:
    """Index of the first vertex of each level 0..levels+1 (BFS labeling)."""
    return np.array([0] + [tree_vertex_count(q, k) for k in range(levels + 1)], dtype=np.int64)


def _depth(q: int, x, levels: int):
    """Depths of the ids ``x``; every id past level ``levels`` reads ``levels + 1``."""
    return np.searchsorted(_level_starts(q, levels), x, side="right") - 1


def _parent(q: int, x):
    """``max((x - 2) // q, 0)``: the parent of every id ``x >= 1``."""
    return np.maximum((np.asarray(x, dtype=np.int64) - 2) // q, 0)


def _tree_edges(q: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, child) arrays for all edges of the uncontracted tree."""
    kids = np.arange(1, tree_vertex_count(q, levels), dtype=np.int64)
    return _parent(q, kids), kids


def build_tree(spec: TreeSpec) -> TreeNetwork:
    """Materialize the truncation described by ``spec``.

    With ``contract_boundary`` the whole level-(levels+1)-and-beyond
    structure is a single vertex ``z`` (last id): the radius-``levels``
    exhaustion of :class:`TreeGenerator`, where each deepest explicit
    vertex carries one merged edge of conductance q to ``z`` (the root's
    q + 1 edges merge when levels == 0).
    """
    q, n = spec.q, spec.levels
    if spec.contract_boundary:
        net, z = exhaustion(TreeGenerator(q), n)
        return TreeNetwork(net=net, spec=spec, z=z)
    if n == 0:
        raise InvalidSpec("an uncontracted 0-level tree has no edges")
    pu, pv = _tree_edges(q, n)
    net = _assemble(pu, pv, np.ones(len(pu)), len(pu) + 1, check_connected=False)
    return TreeNetwork(net=net, spec=spec, z=None)


def level_slice(tree: TreeNetwork, k: int) -> np.ndarray:
    """Vertex ids of level k of the truncation."""
    starts = _level_starts(tree.spec.q, tree.spec.levels)
    if not 0 <= k <= tree.spec.levels:
        raise InvalidSpec(f"level {k} outside 0..{tree.spec.levels}")
    return np.arange(starts[k], starts[k + 1], dtype=np.int64)


def first_at_depth(q: int, d: int) -> int:
    """Smallest BFS id at depth d (a leftmost-branch vertex)."""
    return 0 if d == 0 else int(_level_starts(q, d)[d])


def tree_distance(tree: TreeNetwork, a: int, x: int) -> int:
    """Graph distance along the unique geodesic.

    A parent's id is below its children's, so of two distinct vertices the
    larger id is never their lowest common ancestor: lifting it is one step
    of the geodesic.
    """
    count = tree_vertex_count(tree.spec.q, tree.spec.levels)  # z is not a tree vertex
    for y in (a, x):
        if not 0 <= y < count:
            raise InvalidVertex(f"vertex {y} out of range 0..{count - 1}")
    dist = 0
    while a != x:
        a, x = min(a, x), int(_parent(tree.spec.q, max(a, x)))
        dist += 1
    return dist


class TreeGenerator(GraphGenerator):
    """The infinite homogeneous tree as a level-indexed generator.

    ``symmetric=False`` disables the ladder fast path so the generic
    exhaustion-plus-solver route can be exercised on the same graph.
    """

    def __init__(self, q: int, symmetric: bool = True):
        if q < 2:
            raise InvalidQ(f"q must be >= 2, got {q}")
        self.q = q
        self.spherically_symmetric = symmetric

    def ball_size(self, n: int) -> int:
        return tree_vertex_count(self.q, n)

    def ball_edges(self, n: int):
        pu, pv = _tree_edges(self.q, n + 1)
        return pu, pv, np.ones(len(pu))

    def depth_of(self, x: int) -> int:
        # levels with q ** (levels + 1) > x, so that x is within depth levels + 1
        return int(_depth(self.q, x, int(math.log(x + 1, self.q)) + 1))

    def shell_conductance(self, k: int) -> float:
        return float((self.q + 1) * self.q**k)

    def depth_weight(self, d: int) -> float:
        return float(self.q + 1)


def oracle_resistance(q: int, n=None) -> float:
    """R(root <-> level-n set): n-term geometric series; None means infinity.

    Finite n gives (1/(q+1)) (1 - q^-n)/(1 - 1/q); the limit is q/(q^2-1).
    """
    if q < 2:
        raise InvalidQ(f"q must be >= 2, got {q}")
    if n is None or n == float("inf"):
        return q / (q**2 - 1)
    if n < 1:
        raise InvalidQ(f"n must be >= 1, got {n}")
    return (1.0 / (q + 1)) * (1.0 - q ** (-float(n))) / (1.0 - 1.0 / q)


def oracle_potential_current(q: int, depth: int) -> tuple[float, float]:
    """(v, i) of the unit current from the root, at distance ``depth``.

    v(x) = (q/(q^2-1)) q^-|x|; the current toward any single child is
    (1/(q+1)) q^-|x| (toward the parent it is the negation one level up).
    """
    if q < 2:
        raise InvalidQ(f"q must be >= 2, got {q}")
    v = q / (q**2 - 1) * q ** (-float(depth))
    i_down = 1.0 / (q + 1) * q ** (-float(depth))
    return v, i_down


def oracle_green_hitting(q: int, d: int) -> tuple[float, float, float]:
    """(green, hitting, transitions) at distance d from the start.

    G = (q/(q-1)) q^-d visits; hitting probability q^-d; expected
    transitions of an oriented edge (x, y) with d = d(start, x):
    (q/(q^2-1)) q^-d.
    """
    if q < 2:
        raise InvalidQ(f"q must be >= 2, got {q}")
    green = q / (q - 1) * q ** (-float(d))
    hitting = q ** (-float(d))
    transitions = q / (q**2 - 1) * q ** (-float(d))
    return green, hitting, transitions


def oracle_finite_escape(case: str, q: int, n: int | None = None, dist: int | None = None) -> float:
    """Escape probabilities on finite truncations, by case:

    a: root to the full level-n set: q^(n-1)(q-1)/(q^n - 1)
    b: level-n leaf to everything outside its root branch: 1/n
    c: as b but with deeper levels below a: 1/(n(q+1))
    d: terminal vertex a to a single vertex at distance dist: 1/dist
    e: non-terminal a to a single vertex at distance dist: 1/(dist(q+1))
    """
    if q < 2:
        raise InvalidQ(f"q must be >= 2, got {q}")
    if case == "a":
        return q ** (n - 1) * (q - 1) / (q**n - 1)
    if case == "b":
        return 1.0 / n
    if case == "c":
        return 1.0 / (n * (q + 1))
    if case == "d":
        return 1.0 / dist
    if case == "e":
        return 1.0 / (dist * (q + 1))
    raise InvalidCase(f"case must be one of a..e, got {case!r}")


def ladder_resistance(q: int, n: int) -> float:
    """R(root <-> level-n set) by explicit level-wise series/parallel collapse.

    The parallel edges between consecutive levels merge to conductances
    q+1, q(q+1), q^2(q+1), ...; the series sum of their reciprocals is the
    resistance.  O(n) arithmetic; agrees with :func:`oracle_resistance`.
    """
    if q < 2:
        raise InvalidQ(f"q must be >= 2, got {q}")
    if n < 1:
        raise InvalidQ(f"n must be >= 1, got {n}")
    total = 0.0
    shell = float(q + 1)
    for _ in range(n):
        total += 1.0 / shell
        shell *= q
    return total


def finite_tree_pair_resistance(tree: TreeNetwork, a: int, x: int) -> float:
    """Effective resistance between two vertices of an uncontracted tree.

    Equals the graph distance: no current leaves the geodesic, so the
    path's unit resistors add in series.
    """
    if tree.z is not None:
        raise InvalidSpec("pair resistance oracle needs an uncontracted tree")
    if a == x:
        raise SameVertex(f"identical vertices {a}")
    return float(tree_distance(tree, a, x))


def oracle_table(q: int, max_depth: int) -> list[dict]:
    """Closed-form rows (depth, v, i_down, green, hitting, transitions)."""
    rows = []
    for d in range(max_depth + 1):
        v, i_down = oracle_potential_current(q, d)
        green, hitting, transitions = oracle_green_hitting(q, d)
        rows.append(
            {
                "q": q,
                "depth": d,
                "voltage": v,
                "current_down": i_down,
                "green": green,
                "hitting": hitting,
                "transitions": transitions,
            }
        )
    return rows
