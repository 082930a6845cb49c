"""Seeded Monte Carlo engine for the network's random walk.

Walks step by the chain ``p(x, y) = c(x, y) / pi(x)`` until they enter an
absorbing vertex (at a step count >= ``min_absorb_step``) or run out of
``max_steps``.  The uniform variate consumed by walk ``w`` at step ``t``
is a pure function of ``(seed, w, t)`` via a counter-based splitmix hash,
so tallies are bit-identical across runs and independent of the chunking.
The walks are split into balanced contiguous chunks of at most ``_CHUNK``
walks, each stepped in lockstep with numpy, one after another, into the one
:class:`WalkStats` that :func:`run_walks` returns.

A walk at ``x`` with variate ``u`` moves through the first CSR slot of row
``x`` whose row-local prefix sum of conductances exceeds ``r = u * pi(x)``
(the row's last slot if round-off leaves none): the map from variate to
neighbour of a linear scan of the row.  On a unit row, one whose
conductances are all exactly 1 (every row of the paper's trees), the sums
are exactly ``1, 2, ..., deg`` and ``pi(x) == deg``, so that slot is
``first + floor(r)``, found in O(1).  A row with any other conductance is
odd: its slot is found by bisection over prefix sums added left to right,
exactly as the scan adds them.  The sums are built, over every row, only
when the network has an odd row.  Visits and directed transitions are
tallied per slot in O(E) memory, whatever the number of walks or steps.

The rows come from one of two neighbour sources, stepped by the one loop
of :func:`_step_chunk`: a :class:`Network`'s CSR arrays, or closed forms
of a :class:`TreeSpec`'s breadth-first labels (:func:`_tree_step`), which
list each row in its CSR order, so both take the same neighbours bit for bit.
The tree steps its common row, an inner vertex other than the root and
vertex 1, by arithmetic alone, with no select over a data-dependent mask
(whose mispredicted branches cost about ten times an add); the rare rows,
the root, vertex 1 and the leaves, are found by one unsigned compare and
redone through an index list.

Each step's work runs in place where numpy allows: the splitmix rounds, the
shift to 53 bits and the scaling to [0, 1) write over the two buffers of one
call, and the walks absorbed at a step leave the chunk's arrays by having
their entries overwritten by kept walks from past the new end, so the walks
that stay are not copied.

Tally conventions (hitting time from step 0, return time from step 1):
visits are counted at every time ``0..T`` inclusive, where ``T`` is the
absorption or censoring time; transitions count the steps actually taken.
A walk started on an absorbing vertex is absorbed at time 0 unless
``min_absorb_step`` says otherwise (escape probabilities use 1, making
absorption at the start a *return*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, VertexInTarget
from .network import Network, _check_int, _index
from .tree import TreeSpec, _parent, first_at_depth, tree_vertex_count

__all__ = [
    "WalkConfig",
    "WalkStats",
    "run_walks",
    "estimate_escape",
]

_CHUNK = 65536  # most walks stepped together; caps the per-chunk temporaries
_FEW_ROWS = 16  # rows left over that _row_prefix_sums sums one by one
_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on the uint64 array ``x``, in place; ``tmp`` is
    scratch of the same shape.  Returns ``x``."""
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _M1
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _M2
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp
    return x


def _uniforms(base: np.ndarray, step: int) -> np.ndarray:
    """One U[0, 1) per walk at the given step; base = per-walk key.

    The top 53 bits of the hash, scaled by 2**-53, written over the
    scratch buffer of the rounds: two arrays per call, each pass in place.
    """
    h = base ^ np.uint64((0x9E3779B97F4A7C15 * (step + 1)) & 0xFFFFFFFFFFFFFFFF)
    tmp = np.empty_like(h)
    _mix(h, tmp)
    h >>= _S11
    return np.multiply(h, 2.0**-53, out=tmp.view(np.float64))


def _share(hits: int, n: int) -> tuple[float, float]:
    """(p, std_err) of the binomial share p = hits / n of n walks."""
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class WalkConfig:
    seed: int
    num_walks: int
    start: int
    absorbing: tuple | np.ndarray = ()
    max_steps: int = 1_000_000
    min_absorb_step: int = 0
    watch_vertices: tuple = ()
    watch_edges: tuple = ()
    track_visits: bool = False
    track_transitions: bool = False

    def __post_init__(self):
        # stored as ints: a numpy seed would overflow the seed's 64-bit mask
        for name, least in (("seed", None), ("num_walks", 1), ("max_steps", 1),
                            ("min_absorb_step", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))
        if len(self.absorbing) == 0 and self.max_steps > 10_000_000:
            raise InvalidSpec("absorbing may be empty only with a finite step budget")


@dataclass
class WalkStats:
    """Tallies of one batch of walks.

    ``absorbed_at[w]`` is the absorbing vertex that ended walk ``w`` (-1
    when censored at ``max_steps``); ``steps[w]`` the number of steps it
    took.  Watched vertices/edges carry per-walk counts so means come with
    standard errors.
    """

    config: WalkConfig
    absorbed_at: np.ndarray
    steps: np.ndarray
    watch_visit_counts: np.ndarray  # (num_walks, len(watch_vertices))
    watch_edge_counts: np.ndarray  # (num_walks, len(watch_edges))
    visits: np.ndarray | None = None
    transition_pairs: np.ndarray | None = None  # (k, 2) directed pairs
    transition_counts: np.ndarray | None = None

    @property
    def censored(self) -> int:
        return int(np.sum(self.absorbed_at < 0))

    def hit_fraction(self, target: int) -> tuple[float, float]:
        """(estimate, std_err) of the probability of being absorbed at
        ``target``; raises InvalidSpec naming it unless it is an integer (not
        a bool) among ``config.absorbing``."""
        try:
            x = _index(target)
            if not np.any(np.asarray(self.config.absorbing) == x):
                raise TypeError
        except TypeError:
            raise InvalidSpec(f"{target!r} is not an absorbing vertex") from None
        return _share(np.count_nonzero(self.absorbed_at == x), self.config.num_walks)

    def _watched_mean(self, counts: np.ndarray, watched, key) -> tuple[float, float]:
        """(mean, std_err) of the column of ``counts`` at ``key``'s place in
        ``watched``; raises InvalidSpec naming ``key`` when it is not there."""
        try:
            counts = counts[:, list(watched).index(key)]
        except ValueError:
            raise InvalidSpec(f"{key!r} is not watched") from None
        n = self.config.num_walks
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        return mean, se

    def visit_estimate(self, x: int) -> tuple[float, float]:
        return self._watched_mean(self.watch_visit_counts, self.config.watch_vertices, x)

    def transition_estimate(self, x: int, y: int) -> tuple[float, float]:
        edges = map(tuple, self.config.watch_edges)
        return self._watched_mean(self.watch_edge_counts, edges, (x, y))


def _row_prefix_sums(net: Network) -> np.ndarray:
    """Running sums of the conductances along each CSR row, left to right.

    ``cum[s]`` is bit-equal to the accumulator a linear scan of the row
    holds at slot ``s``.  Each pass adds one row position to every row
    that long; once no more than ``_FEW_ROWS`` rows remain, each finishes
    with one (equally sequential) ``np.cumsum``, so a hub of degree d does
    not cost d passes.
    """
    indptr = net.adj_indptr
    cum = net.edge_c[net.adj_edge]
    deg = np.diff(indptr)
    rows = np.flatnonzero(deg > 1)
    k = 1  # positions < k of every row in ``rows`` are final
    while len(rows) > _FEW_ROWS:
        s = indptr[rows] + k
        cum[s] += cum[s - 1]
        k += 1
        rows = rows[deg[rows] > k]
    for x in rows:
        seg = slice(indptr[x] + k - 1, indptr[x + 1])
        cum[seg] = np.cumsum(cum[seg])
    return cum


def _pick_slots(cum: np.ndarray, first: np.ndarray, last: np.ndarray,
                r: np.ndarray) -> np.ndarray:
    """Per walk, the first slot s in ``[first, last]`` with ``r < cum[s]``,
    or ``last`` when there is none (``r`` at or past the row sum by round-off).

    Bisection in ceil(log2(longest row)) rounds, none for no walks.  Each
    round keeps the answer in ``[first, last]``; a walk whose answer is
    ``last`` with ``r >= cum[last]`` ends with ``first = last + 1``, so
    ``last`` is the result either way.
    """
    for _ in range(int((last - first).max(initial=0)).bit_length()):
        mid = (first + last) >> 1
        left = r < cum[mid]
        last = np.where(left, mid, last)
        first = np.where(left, first, mid + 1)
    return last


def _unit_slots(first: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`_pick_slots` on unit rows, whose prefix sums are 1, 2, ..., deg.

    The first slot with ``r < cum[s]`` is ``first + floor(r)``.  It always
    lies in the row: with ``u <= 1 - 2**-53`` the exact ``u * deg`` is at
    least ``deg * 2**-53`` below deg, more than half the spacing of doubles
    just below deg, so ``r``, the product rounded to nearest, is below deg.
    """
    return first + r.astype(np.int64)


def _tree_step(q: int, leaf: int, cur: np.ndarray,
               u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, neighbour) of a step from each ``cur`` with variate ``u`` on the
    tree of degree q + 1 whose deepest level starts at ``leaf``: the walk
    moves through slot k of its row, numbered ``(q + 1) cur + k`` as
    :meth:`TreeSpec.edge_slot` numbers it.  Every row is a unit row.

    The common row, an inner vertex other than 0 and 1, is stepped by
    arithmetic alone: ``k = floor(u (q + 1))``, the child ``q x + 2 + k``
    blended with the parent ``(x - 2) // q`` where ``k == q``.  The rare
    rows, the root, vertex 1 and the leaves, are those whose ``x - 2``,
    read unsigned, is at least ``max(leaf - 2, 0)``; they are redone
    through an index list by the general formulas.
    """
    # k = floor(u * pi(cur)) on inner rows, cast as it is multiplied
    k = np.multiply(u, q + 1.0, out=np.empty_like(cur), casting="unsafe")
    nxt = q * cur
    nxt += k
    nxt += 2  # the child through slot k
    below = cur - 2
    rare = np.flatnonzero(below.view(np.uint64) >= np.uint64(max(leaf - 2, 0)))
    up = np.floor_divide(below, q, out=below)  # the parent, x >= 2
    up -= nxt
    up *= k == q
    nxt += up
    if len(rare):
        x = cur[rare]
        inner, root = x < leaf, x == 0
        k[rare] = kr = (u[rare] * np.where(inner, q + 1.0, 1.0)).astype(np.int64)
        past = kr >= np.where(inner, q + root, 0)  # past the children
        nxt[rare] = np.where(past, _parent(q, x), q * x + kr + 2 - root)
    return k, nxt


def _drop(absorbed: np.ndarray, done: np.ndarray,
          *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of ``arrays`` without their entries at ``done``, the ascending
    indices of the flags ``absorbed``.  Each kept entry past the new length
    moves into a hole, in place; the order of a chunk's walks matters to no
    output."""
    m = len(absorbed) - len(done)
    movers = np.flatnonzero(~absorbed[m:])
    movers += m
    holes = done[: len(movers)]
    for a in arrays:
        a[holes] = a[movers]
    return tuple(a[:m] for a in arrays)


def _step_chunk(stats: WalkStats, net: Network | TreeSpec, cum: np.ndarray | None,
                odd: np.ndarray | None, absorb_mask: np.ndarray, watch_v: np.ndarray,
                watch_slot: list[int], lo: int, hi: int,
                slot_counts: np.ndarray | None) -> None:
    """Step walks ``lo..hi-1`` in lockstep, writing their entries of ``stats``
    and adding their steps per CSR slot to ``slot_counts``.  At each time t
    the watched vertices are tallied, then from ``min_absorb_step`` on the
    walks on an absorbing vertex end with ``steps = t``; the rest step unless
    t is ``max_steps``.  ``cum`` and ``odd`` are None when no row is odd."""
    cfg = stats.config
    tree = isinstance(net, TreeSpec)
    if tree:
        q, leaf = net.q, first_at_depth(net.q, net.levels)
    else:
        indptr, nbr, pi = net.adj_indptr, net.adj_neighbor, net.pi
    seed_u = np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    key = seed_u ^ (_PHI * (np.arange(lo, hi, dtype=np.uint64) + np.uint64(1)))
    base = _mix(key, np.empty_like(key))
    cur = np.full(hi - lo, cfg.start, dtype=np.int64)
    walk = np.arange(lo, hi, dtype=np.int64)  # global walk index per row

    t = 0
    while True:
        for j, x in enumerate(watch_v):
            stats.watch_visit_counts[walk[cur == x], j] += 1
        if t >= cfg.min_absorb_step:
            absorbed = absorb_mask[cur]
            done = np.flatnonzero(absorbed)
            if len(done):
                gone = walk[done]
                stats.absorbed_at[gone] = cur[done]
                stats.steps[gone] = t
                cur, base, walk = _drop(absorbed, done, cur, base, walk)
        if len(cur) == 0 or t == cfg.max_steps:
            break
        if tree:
            k, nxt = _tree_step(q, leaf, cur, _uniforms(base, t))
            if watch_slot:
                ptr = (q + 1) * cur + k
        else:
            r = _uniforms(base, t) * pi[cur]
            first = indptr[cur]
            if odd is None:
                ptr = _unit_slots(first, r)
            else:  # odd rows bisect; a zero r keeps their cast in range
                o = odd[cur]
                ptr = _unit_slots(first, np.where(o, 0.0, r))
                ptr[o] = _pick_slots(cum, first[o], indptr[cur[o] + 1] - 1, r[o])
            nxt = nbr[ptr]
        for j, s in enumerate(watch_slot):
            stats.watch_edge_counts[walk[ptr == s], j] += 1
        if slot_counts is not None:
            np.add.at(slot_counts, ptr, 1)
        cur = nxt
        t += 1

    stats.steps[walk] = t  # censored walks took the full budget


def run_walks(net: Network | TreeSpec, cfg: WalkConfig) -> WalkStats:
    """Simulate ``cfg.num_walks`` independent walks and tally them.

    ``net`` is a Network, or a TreeSpec, whose tree is walked by its
    arithmetic rows with no network built.  Every vertex of ``cfg`` must be
    a vertex of ``net`` (else InvalidVertex) and every watched edge an edge
    of it (else NotAdjacent).  A TreeSpec refuses, with InvalidSpec, visit
    or transition tallies and slots beyond int64; its absorption flags
    cover only the levels a walk can reach, to ``depth(start) + max_steps``.
    Flags that cannot be allocated raise InvalidSpec.  The chunks of walks
    fill the WalkStats in place; visits and transitions follow from the
    steps they add per CSR slot."""
    odd = cum = None
    tree = isinstance(net, TreeSpec)
    if tree:
        if cfg.track_visits or cfg.track_transitions:
            raise InvalidSpec("visit and transition tallies need a Network")
        if (net.q + 1) * net.vertex_count > np.iinfo(np.int64).max:
            raise InvalidSpec(f"the slots of a {net} do not fit int64")
    n_vert = net.vertex_count
    start = net._check_vertex(cfg.start)
    absorbing = net._check_ids(cfg.absorbing)
    reach = n_vert  # flags for the ids a walk can reach
    if tree:  # no walk leaves depth(start) + max_steps
        deepest = int(net.depth_of(start)) + cfg.max_steps
        reach = tree_vertex_count(net.q, min(net.levels, deepest))
    if reach < n_vert:
        absorbing = absorbing[absorbing < reach]
    try:
        absorb_mask = np.zeros(reach, dtype=bool)
    except MemoryError:
        raise InvalidSpec(f"no memory for the absorption flags of {reach} vertices") from None
    absorb_mask[absorbing] = True
    watch_v = net._check_ids(cfg.watch_vertices)
    watch_slot = [net.edge_slot(x, y) for x, y in cfg.watch_edges]

    if not tree:
        odd_edge = net.edge_c != 1.0
        if odd_edge.any():
            odd = np.zeros(n_vert, dtype=bool)
            odd[net.edge_u[odd_edge]] = odd[net.edge_v[odd_edge]] = True
            cum = _row_prefix_sums(net)
    n_walks = cfg.num_walks
    stats = WalkStats(
        config=cfg,
        absorbed_at=np.full(n_walks, -1, dtype=np.int64),
        steps=np.zeros(n_walks, dtype=np.int64),
        watch_visit_counts=np.zeros((n_walks, len(watch_v)), dtype=np.int64),
        watch_edge_counts=np.zeros((n_walks, len(watch_slot)), dtype=np.int64),
    )
    # steps taken per CSR slot; visits and transitions both derive from it
    track = cfg.track_visits or cfg.track_transitions
    slot_counts = np.zeros(len(net.adj_neighbor), dtype=np.int64) if track else None
    # balanced contiguous chunks of at most _CHUNK walks, one after another
    n_chunks = -(-n_walks // _CHUNK)
    bounds = [i * n_walks // n_chunks for i in range(n_chunks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _step_chunk(stats, net, cum, odd, absorb_mask, watch_v, watch_slot, lo, hi, slot_counts)

    if track:
        taken = np.flatnonzero(slot_counts)
        counts = slot_counts[taken]
        src = np.searchsorted(net.adj_indptr, taken, side="right") - 1
        dst = net.adj_neighbor[taken]
        if cfg.track_visits:
            stats.visits = np.zeros(n_vert, dtype=np.int64)
            stats.visits[cfg.start] = n_walks  # every walk is there at time 0
            np.add.at(stats.visits, dst, counts)
        if cfg.track_transitions:
            order = np.lexsort((dst, src))
            stats.transition_pairs = np.stack([src[order], dst[order]], axis=1)
            stats.transition_counts = counts[order]
    return stats


def estimate_escape(net: Network | TreeSpec, cfg: WalkConfig, a: int, z) -> tuple[float, float]:
    """P(reach z strictly before returning to a), walk started at a: the
    share of walks absorbed in ``z``, ``a`` absorbing from step 1 on.  ``z``
    is any iterable of ids; a 1-D int64 array is checked in place."""
    a, z = net._check_vertex(a), net._check_ids(z)
    if np.any(z == a):
        raise VertexInTarget(f"source {a} lies in the target set")
    stats = run_walks(net, replace(cfg, start=a, absorbing=np.append(z, a), min_absorb_step=1))
    return _share(int(np.count_nonzero(np.isin(stats.absorbed_at, z))), cfg.num_walks)
