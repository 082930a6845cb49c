"""Truncated homogeneous trees and their closed-form quantities.

Every vertex of the infinite homogeneous tree of degree ``q + 1`` carries
unit-conductance edges; the simple random walk on it is the attached
reversible chain.  This module builds finite truncations, provides the
closed forms for resistance, voltage, current, Green function, hitting
probabilities and escape probabilities as pure arithmetic.

Vertex labeling is breadth-first: root 0, then level 1 in parent order,
and so on, so ids are stable as the truncation grows.  The labels are
arithmetic: level ``k >= 1`` starts at ``start[k] = tree_vertex_count(q,
k - 1)``, and since ``start[k] - 2 = q * start[k - 1]`` for ``k >= 2``,
every ``x >= 1`` has parent ``max((x - 2) // q, 0)``.  A
:class:`TreeSpec` is therefore the one tree handle, with no per-vertex
array and nothing built: it checks ids, and answers depths, parents, CSR
slots, levels and distances from these closed forms.  The truncation with
everything beyond level ``n`` shorted to one vertex ``z`` is the
radius-``n`` exhaustion of :class:`TreeGenerator`:
``net, z = exhaustion(TreeGenerator(q), n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NotAdjacent, VertexInTarget
from .generators import GraphGenerator
from .network import Network, _assemble, _check_int, _VertexIds

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
    "finite_tree_pair_resistance",
    "tree_distance",
    "oracle_table",
]


@dataclass(frozen=True)
class TreeSpec(_VertexIds):
    """A truncated homogeneous tree of degree q + 1, answered by arithmetic
    on its breadth-first labels; a tree has at least one level, as a 0-level
    one has no edges, and at most 2**63 - 1 vertices, so every id is an int64."""

    q: int
    levels: int

    def __post_init__(self):
        q, levels = _check_tree_args(self.q, 1, levels=self.levels)
        # past 63 levels q**levels alone exceeds int64: no bignum is formed
        if levels > 63 or tree_vertex_count(q, levels) > np.iinfo(np.int64).max:
            raise InvalidSpec(f"the ({q}, {levels}) tree has more than 2**63 - 1 vertices")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "levels", levels)

    @property
    def vertex_count(self) -> int:
        return tree_vertex_count(self.q, self.levels)

    def _ids(self, x):
        """``x`` checked as vertex ids: an int for a scalar, an int64 array
        for a sequence; raises InvalidVertex."""
        return self._check_vertex(x) if np.ndim(x) == 0 else self._check_ids(x)

    def depth_of(self, x):
        """Depths of the ids ``x`` (an int or an array)."""
        return _depth(self.q, self._ids(x), self.levels)

    def parent_of(self, x):
        """Parents of the ids ``x`` (an int or an array); -1 at the root."""
        x = self._ids(x)
        return np.where(x == 0, -1, _parent(self.q, x))[()]  # [()]: 0-d to a scalar

    def edge_slot(self, x: int, y: int) -> int:
        """Slot of the directed edge x -> y in the tree's CSR rows, numbered
        ``(q + 1) x + k`` for slot k of row x, as :func:`build_tree` lists
        them: the root's slot k is child ``k + 1``, an inner vertex's slot
        ``k < q`` child ``q x + 2 + k`` and slot q its parent, and a leaf has
        only its parent.  Raises NotAdjacent when y is not a neighbour of x."""
        x, y = self._check_vertex(x), self._check_vertex(y)
        q, inner = self.q, x < first_at_depth(self.q, self.levels)
        first = 1 if x == 0 else q * x + 2  # first child
        if inner and first <= y <= q * x + q + 1:
            return (q + 1) * x + y - first
        if x > 0 and y == max((x - 2) // q, 0):
            return (q + 1) * x + (q if inner else 0)
        raise NotAdjacent(f"{x} and {y} are not neighbors")


@dataclass(frozen=True)
class TreeNetwork:
    """A built truncation: its network, in breadth-first labels, and the
    :class:`TreeSpec` that answers every label question."""

    net: Network
    spec: TreeSpec


def _check_tree_args(q: int, least: int = 0, **count) -> tuple[int, int]:
    """The domain of every tree quantity: an integer q >= 2 and one count or
    distance, passed by name, an integer >= ``least``.  Returns both as ints,
    as numpy's would wrap in ``q**n``; raises InvalidSpec."""
    ((name, value),) = count.items()
    return _check_int("q", q, 2), _check_int(name, value, least)


def tree_vertex_count(q: int, levels: int) -> int:
    """1 + (q+1)(q^levels - 1)/(q - 1) vertices in the level-``levels`` tree."""
    q, levels = _check_tree_args(q, levels=levels)
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
    """(parent, child) arrays for all edges of the level-``levels`` tree."""
    kids = np.arange(1, tree_vertex_count(q, levels), dtype=np.int64)
    return _parent(q, kids), kids


def build_tree(spec: TreeSpec) -> TreeNetwork:
    """Materialize the truncation described by ``spec``."""
    pu, pv = _tree_edges(spec.q, spec.levels)
    net = _assemble(pu, pv, np.ones(len(pu)), len(pu) + 1, check_connected=False)
    return TreeNetwork(net=net, spec=spec)


def level_slice(spec: TreeSpec, k: int) -> np.ndarray:
    """Vertex ids of level k of the truncation."""
    if _check_int("level", k) > spec.levels:
        raise InvalidSpec(f"level {k} outside 0..{spec.levels}")
    starts = _level_starts(spec.q, spec.levels)
    return np.arange(starts[k], starts[k + 1], dtype=np.int64)


def first_at_depth(q: int, d: int) -> int:
    """Smallest BFS id at depth d (a leftmost-branch vertex)."""
    q, d = _check_tree_args(q, d=d)
    return 0 if d == 0 else tree_vertex_count(q, d - 1)


def tree_distance(spec: TreeSpec, a: int, x: int) -> int:
    """Graph distance along the unique geodesic.

    A parent's id is below its children's, so of two distinct vertices the
    larger id is never their lowest common ancestor: lifting it is one step
    of the geodesic.
    """
    a, x = spec._check_vertex(a), spec._check_vertex(x)
    dist = 0
    while a != x:
        a, x = min(a, x), int(_parent(spec.q, max(a, x)))
        dist += 1
    return dist


class TreeGenerator(GraphGenerator):
    """The infinite homogeneous tree as a level-indexed generator.

    ``symmetric`` selects nothing: every generator's limits run the one
    exhaustion path.  It is still accepted, for callers that pass it.
    """

    homogeneous_tree = True

    def __init__(self, q: int, symmetric: bool = True):
        self.q = _check_int("q", q, 2)

    def ball_size(self, n: int) -> int:
        return tree_vertex_count(self.q, n)

    def ball_edges(self, n: int):
        """The ball's unit edges, then one edge from each level-n vertex to
        its first child, of conductance q (q + 1 from the root): it stands for
        all the vertex's edges into level n + 1.  The list is canonical, so
        :func:`~resistive_walks.generators.exhaustion` merges nothing."""
        pu, pv = _tree_edges(self.q, n)
        lo, hi = first_at_depth(self.q, n), len(pu) + 1
        boundary = np.arange(lo, hi, dtype=np.int64)
        # level n + 1 starts at hi, and each level-n vertex has q children
        first_child = hi + self.q * (boundary - lo)
        c = np.ones(len(pu) + len(boundary))
        c[len(pu):] = self.q + 1 if n == 0 else self.q
        return np.concatenate([pu, boundary]), np.concatenate([pv, first_child]), c

    def depth_of(self, x: int) -> int:
        # level d + 1 starts at tree_vertex_count(q, d), in Python ints: the
        # levels of an id near 2**63 start beyond int64
        d = 0
        while tree_vertex_count(self.q, d) <= x:
            d += 1
        return d


def oracle_resistance(q: int, n=None) -> float:
    """R(root <-> level-n set): n-term geometric series; None means infinity.

    Finite n gives (1/(q+1)) (1 - q^-n)/(1 - 1/q); the limit is q/(q^2-1).
    """
    if n is None or n == float("inf"):
        q = _check_int("q", q, 2)
        return q / (q**2 - 1)
    q, n = _check_tree_args(q, 1, n=n)
    return (1.0 / (q + 1)) * (1.0 - q ** (-float(n))) / (1.0 - 1.0 / q)


def oracle_potential_current(q: int, depth: int) -> tuple[float, float]:
    """(v, i) of the unit current from the root, at distance ``depth``.

    v(x) = (q/(q^2-1)) q^-|x|; the current toward any single child is
    (1/(q+1)) q^-|x| (toward the parent it is the negation one level up).
    """
    q, depth = _check_tree_args(q, depth=depth)
    v = q / (q**2 - 1) * q ** (-float(depth))
    i_down = 1.0 / (q + 1) * q ** (-float(depth))
    return v, i_down


def oracle_green_hitting(q: int, d: int) -> tuple[float, float, float]:
    """(green, hitting, transitions) at distance d from the start.

    G = (q/(q-1)) q^-d visits; hitting probability q^-d; expected
    transitions of an oriented edge (x, y) with d = d(start, x):
    (q/(q^2-1)) q^-d.
    """
    q, d = _check_tree_args(q, d=d)
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
    if case in ("a", "b", "c"):
        q, n = _check_tree_args(q, 1, n=n)
    elif case in ("d", "e"):
        q, dist = _check_tree_args(q, 1, dist=dist)
    else:
        raise InvalidSpec(f"case must be one of a..e, got {case!r}")
    if case == "a":
        return q ** (n - 1) * (q - 1) / (q**n - 1)
    if case == "b":
        return 1.0 / n
    if case == "c":
        return 1.0 / (n * (q + 1))
    if case == "d":
        return 1.0 / dist
    return 1.0 / (dist * (q + 1))


def finite_tree_pair_resistance(spec: TreeSpec, a: int, x: int) -> float:
    """Effective resistance between two vertices of a truncation.

    Equals the graph distance: no current leaves the geodesic, so the
    path's unit resistors add in series.
    """
    if a == x:
        raise VertexInTarget(f"identical vertices {a}")
    return float(tree_distance(spec, a, x))


def oracle_table(q: int, max_depth: int) -> list[dict]:
    """Closed-form rows (depth, v, i_down, green, hitting, transitions)."""
    q, max_depth = _check_tree_args(q, max_depth=max_depth)
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
