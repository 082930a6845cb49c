"""Seeded Monte Carlo engine for the network's random walk.

Walks step by the chain ``p(x, y) = c(x, y) / pi(x)`` until they enter an
absorbing vertex (at a step count >= ``min_absorb_step``) or run out of
``max_steps``.  The uniform variate consumed by walk ``w`` at step ``t``
is a pure function of ``(seed, w, t)`` via a counter-based splitmix hash,
so tallies are bit-identical across runs and independent of any worker
assignment.  The walks are split into balanced contiguous chunks of at most
``_CHUNK`` walks, and each chunk steps its walks in lockstep with numpy.
The chunks run on one worker per usable CPU, or one per chunk when there
are fewer: the calling thread plus a thread pool created for the call (a
run of one chunk stays on the calling thread).  numpy's gathers and ufuncs
release the GIL, so the workers overlap.  Each worker writes per-walk
results only at its own walk indices and keeps its own per-slot tally,
summed exactly at the end, so no output depends on the number of cores.

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

Tally conventions (hitting time from step 0, return time from step 1):
visits are counted at every time ``0..T`` inclusive, where ``T`` is the
absorption or censoring time; transitions count the steps actually taken.
A walk started on an absorbing vertex is absorbed at time 0 unless
``min_absorb_step`` says otherwise (escape probabilities use 1, making
absorption at the start a *return*).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidStart, InvalidVertex, NotAdjacent, VertexInTarget
from .network import Network

__all__ = [
    "WalkConfig",
    "WalkStats",
    "run_walks",
    "estimate_hitting",
    "estimate_green",
    "estimate_transitions",
    "estimate_escape",
]

_CHUNK = 65536  # most walks stepped together; caps the per-chunk temporaries
_FEW_ROWS = 16  # rows left over that _row_prefix_sums sums one by one
_PHI = np.uint64(0x9E3779B97F4A7C15)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _uniforms(base: np.ndarray, step: int) -> np.ndarray:
    """One U[0, 1) per walk at the given step; base = per-walk key."""
    ctr = np.uint64((0x9E3779B97F4A7C15 * (step + 1)) & 0xFFFFFFFFFFFFFFFF)
    h = _mix(base ^ ctr)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


@dataclass(frozen=True)
class WalkConfig:
    seed: int
    num_walks: int
    start: int
    absorbing: tuple = ()
    max_steps: int = 1_000_000
    min_absorb_step: int = 0
    watch_vertices: tuple = ()
    watch_edges: tuple = ()
    track_visits: bool = False
    track_transitions: bool = False

    def __post_init__(self):
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if len(self.absorbing) == 0 and self.max_steps > 10_000_000:
            raise ValueError("absorbing may be empty only with a finite step budget")


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

    @cached_property
    def hits(self) -> dict[int, int]:
        """Absorption counts per absorbing vertex actually reached."""
        done = self.absorbed_at[self.absorbed_at >= 0]
        uniq, counts = np.unique(done, return_counts=True)
        return {int(u): int(c) for u, c in zip(uniq, counts)}

    def hit_count(self, target: int) -> int:
        return self.hits.get(int(target), 0)

    def hit_fraction(self, target: int) -> tuple[float, float]:
        """(estimate, std_err) of the probability of being absorbed at target."""
        n = self.config.num_walks
        p = self.hit_count(target) / n
        return p, math.sqrt(p * (1.0 - p) / n)

    def _watched_mean(self, counts: np.ndarray) -> tuple[float, float]:
        n = self.config.num_walks
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        return mean, se

    def visit_estimate(self, x: int) -> tuple[float, float]:
        j = self.config.watch_vertices.index(x)
        return self._watched_mean(self.watch_visit_counts[:, j])

    def transition_estimate(self, x: int, y: int) -> tuple[float, float]:
        j = self.config.watch_edges.index((x, y))
        return self._watched_mean(self.watch_edge_counts[:, j])

    def transition_count(self, x: int, y: int) -> int:
        if self.transition_pairs is None:
            raise ValueError("run with track_transitions=True")
        m = (self.transition_pairs[:, 0] == x) & (self.transition_pairs[:, 1] == y)
        return int(self.transition_counts[m].sum())

    def to_json(self) -> dict:
        return {
            "seed": self.config.seed,
            "num_walks": self.config.num_walks,
            "start": self.config.start,
            "censored": self.censored,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
        }


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


def _checked_ids(ids, n: int, what: str) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    bad = arr[(arr < 0) | (arr >= n)]
    if bad.size:
        raise InvalidVertex(f"{what} vertex {bad[0]} out of range 0..{n - 1}")
    return arr


def _edge_slot(indptr: np.ndarray, nbr: np.ndarray, x: int, y: int) -> int:
    """CSR slot of the directed edge x -> y, or -1 when y is not adjacent."""
    hit = np.flatnonzero(nbr[indptr[x] : indptr[x + 1]] == y)
    return int(indptr[x] + hit[0]) if hit.size else -1


@dataclass(frozen=True)
class _Run:
    """One :func:`run_walks` call: what its chunks read, and the per-walk
    arrays they write, each chunk at its own walk indices only."""

    cfg: WalkConfig
    cum: np.ndarray | None  # row prefix sums; None when no row is odd
    odd: np.ndarray | None  # per vertex: its row is odd; None when none is
    indptr: np.ndarray
    nbr: np.ndarray
    pi: np.ndarray
    absorb_mask: np.ndarray
    watch_v: np.ndarray
    watch_slot: list[int]
    absorbed_at: np.ndarray
    steps: np.ndarray
    wv_counts: np.ndarray
    we_counts: np.ndarray
    stop: threading.Event = field(default_factory=threading.Event)


def _step_chunk(run: _Run, lo: int, hi: int, slot_counts: np.ndarray | None) -> None:
    """Step walks ``lo..hi-1`` in lockstep until all are absorbed or censored,
    adding their steps per CSR slot to ``slot_counts``; returns early once
    ``run.stop`` is set."""
    cfg, cum, odd, indptr, nbr, pi = run.cfg, run.cum, run.odd, run.indptr, run.nbr, run.pi
    seed_u = np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    base = _mix(seed_u ^ (_PHI * (np.arange(lo, hi, dtype=np.uint64) + np.uint64(1))))
    cur = np.full(hi - lo, cfg.start, dtype=np.int64)
    walk = np.arange(lo, hi, dtype=np.int64)  # global walk index per row

    # time-0 tallies and possible immediate absorption
    for j, x in enumerate(run.watch_v):
        run.wv_counts[walk[cur == x], j] += 1
    if cfg.min_absorb_step == 0:
        done = run.absorb_mask[cur]
        run.absorbed_at[walk[done]] = cur[done]
        keep = ~done
        cur, base, walk = cur[keep], base[keep], walk[keep]

    t = 0
    while len(cur) > 0 and t < cfg.max_steps:
        if run.stop.is_set():
            return
        r = _uniforms(base, t) * pi[cur]
        first = indptr[cur]
        if odd is None:
            ptr = _unit_slots(first, r)
        else:  # odd rows bisect; a zero r keeps their cast in range
            o = odd[cur]
            ptr = _unit_slots(first, np.where(o, 0.0, r))
            ptr[o] = _pick_slots(cum, first[o], indptr[cur[o] + 1] - 1, r[o])
        nxt = nbr[ptr]
        t += 1

        for j, s in enumerate(run.watch_slot):
            run.we_counts[walk[ptr == s], j] += 1
        if slot_counts is not None:
            np.add.at(slot_counts, ptr, 1)
        for j, x in enumerate(run.watch_v):
            run.wv_counts[walk[nxt == x], j] += 1

        cur = nxt
        if t >= cfg.min_absorb_step:
            done = run.absorb_mask[cur]
            if np.any(done):
                run.absorbed_at[walk[done]] = cur[done]
                run.steps[walk[done]] = t
                keep = ~done
                cur, base, walk = cur[keep], base[keep], walk[keep]

    run.steps[walk] = cfg.max_steps  # censored walks took the full budget


def _step_chunks(run: _Run, bounds: list[int], track: bool) -> np.ndarray | None:
    """Step the chunks between consecutive ``bounds`` one after another.

    Returns their steps per CSR slot (None when ``track`` is false).  A
    failure sets ``run.stop``, so the other workers of the call stop too.
    """
    slot_counts = np.zeros(len(run.nbr), dtype=np.int64) if track else None
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            _step_chunk(run, lo, hi, slot_counts)
    except BaseException:
        run.stop.set()
        raise
    return slot_counts


def run_walks(net: Network, cfg: WalkConfig) -> WalkStats:
    """Simulate ``cfg.num_walks`` independent walks and tally them."""
    n_vert = net.vertex_count
    if not 0 <= cfg.start < n_vert:
        raise InvalidStart(f"start vertex {cfg.start} out of range")
    absorb_mask = np.zeros(n_vert, dtype=bool)
    absorb_mask[_checked_ids(cfg.absorbing, n_vert, "absorbing")] = True
    watch_v = _checked_ids(cfg.watch_vertices, n_vert, "watched")
    watch_e = _checked_ids(cfg.watch_edges, n_vert, "watched edge").reshape(-1, 2)

    indptr, nbr = net.adj_indptr, net.adj_neighbor
    odd_edge = net.edge_c != 1.0
    if odd_edge.any():
        odd = np.zeros(n_vert, dtype=bool)
        odd[net.edge_u[odd_edge]] = odd[net.edge_v[odd_edge]] = True
        cum = _row_prefix_sums(net)
    else:
        odd = cum = None
    n_walks = cfg.num_walks
    run = _Run(
        cfg=cfg,
        cum=cum,
        odd=odd,
        indptr=indptr,
        nbr=nbr,
        pi=net.pi,
        absorb_mask=absorb_mask,
        watch_v=watch_v,
        watch_slot=[_edge_slot(indptr, nbr, x, y) for x, y in watch_e],
        absorbed_at=np.full(n_walks, -1, dtype=np.int64),
        steps=np.zeros(n_walks, dtype=np.int64),
        wv_counts=np.zeros((n_walks, len(watch_v)), dtype=np.int64),
        we_counts=np.zeros((n_walks, len(watch_e)), dtype=np.int64),
    )
    # steps taken per CSR slot; visits and transitions both derive from it
    track = cfg.track_visits or cfg.track_transitions

    # balanced contiguous chunks of at most _CHUNK walks, as many per worker
    n_chunks = -(-n_walks // _CHUNK)
    workers = min(_usable_cpus(), n_chunks)
    n_chunks = -(-n_chunks // workers) * workers
    bounds = [i * n_walks // n_chunks for i in range(n_chunks + 1)]
    per = n_chunks // workers
    shares = [bounds[j * per : (j + 1) * per + 1] for j in range(workers)]
    if workers == 1:
        tallies = [_step_chunks(run, bounds, track)]
    else:  # the caller steps the first share itself
        with ThreadPoolExecutor(workers - 1) as pool:
            try:
                futures = [pool.submit(_step_chunks, run, s, track) for s in shares[1:]]
                tallies = [_step_chunks(run, shares[0], track)]
                tallies += [f.result() for f in futures]
            except BaseException:
                run.stop.set()  # the pool's exit then waits at most a step
                raise

    visits = pairs = counts_out = None
    if track:
        slot_counts = tallies[0]
        for extra in tallies[1:]:
            slot_counts += extra
        taken = np.flatnonzero(slot_counts)
        counts = slot_counts[taken]
        src = np.searchsorted(indptr, taken, side="right") - 1
        dst = nbr[taken]
        if cfg.track_visits:
            visits = np.zeros(n_vert, dtype=np.int64)
            visits[cfg.start] = n_walks  # every walk is there at time 0
            np.add.at(visits, dst, counts)
        if cfg.track_transitions:
            order = np.lexsort((dst, src))
            pairs = np.stack([src[order], dst[order]], axis=1)
            counts_out = counts[order]

    return WalkStats(
        config=cfg,
        absorbed_at=run.absorbed_at,
        steps=run.steps,
        watch_visit_counts=run.wv_counts,
        watch_edge_counts=run.we_counts,
        visits=visits,
        transition_pairs=pairs,
        transition_counts=counts_out,
    )


def estimate_hitting(net: Network, cfg: WalkConfig, target: int) -> tuple[float, float]:
    """Fraction of walks absorbed at ``target`` (hitting from step 0)."""
    if target not in cfg.absorbing:
        cfg = replace(cfg, absorbing=tuple(cfg.absorbing) + (target,))
    stats = run_walks(net, cfg)
    return stats.hit_fraction(target)


def estimate_green(net: Network, cfg: WalkConfig, x: int) -> tuple[float, float]:
    """Mean number of visits to ``x`` per walk, with standard error."""
    if x not in cfg.watch_vertices:
        cfg = replace(cfg, watch_vertices=tuple(cfg.watch_vertices) + (x,))
    stats = run_walks(net, cfg)
    return stats.visit_estimate(x)


def estimate_transitions(net: Network, cfg: WalkConfig, x: int, y: int) -> tuple[float, float]:
    """Mean count of directed steps x -> y per walk, with standard error."""
    if int(y) not in net.neighbors(x):
        raise NotAdjacent(f"{x} and {y} are not neighbors")
    if (x, y) not in cfg.watch_edges:
        cfg = replace(cfg, watch_edges=tuple(cfg.watch_edges) + ((x, y),))
    stats = run_walks(net, cfg)
    return stats.transition_estimate(x, y)


def estimate_escape(net: Network, cfg: WalkConfig, a: int, z) -> tuple[float, float]:
    """P(reach z strictly before returning to a), walk started at a."""
    z = frozenset(int(x) for x in z)
    if a in z:
        raise VertexInTarget(f"source {a} lies in the target set")
    cfg = replace(
        cfg,
        start=int(a),
        absorbing=tuple(sorted(z | {int(a)})),
        min_absorb_step=1,
    )
    stats = run_walks(net, cfg)
    n = cfg.num_walks
    escaped = int(sum(c for v, c in stats.hits.items() if v in z))
    p = escaped / n
    return p, math.sqrt(p * (1.0 - p) / n)
