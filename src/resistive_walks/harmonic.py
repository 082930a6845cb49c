"""Dirichlet problems on finite networks and their exhaustion limits.

Voltages are plain numpy arrays over vertex ids.  A solved potential
matches its boundary values exactly and is harmonic on every free vertex:
``sum_y p(x, y) f(y) = f(x)`` within the requested tolerance, relative to
the voltage scale.  Uniqueness of that solution is what lets one solve
path, :func:`solve_dirichlet`, back voltages, limits and (with a source
term) the currents of :mod:`~resistive_walks.flows`.

The free block of a connected network's grounded Laplacian is symmetric
positive definite, so sparse LU factorizes it, whatever its size, with
diagonal pivots in SuperLU's symmetric mode, under a multiple-minimum-degree
ordering of ``A + A^T`` (Liu 1985).  No iterative solver stands in for it:
a stop on the residual ``|r(x)| / pi(x)`` does not bound the voltage error
at a vertex weakly tied to the boundary, and that voltage is the walk's
hitting probability from the vertex (Doyle-Snell 1984).

Consecutive solves on one grounded block share one factor, as the flow
calculus's three solves on a network do.  One slot holds the last free block
and its factor, keyed by the network, held weakly, and the set of clamped ids;
the clamped voltages and the source enter only the right-hand side, and the
residual check runs on every solve.  A miss empties the slot before it
factorizes, as does the build of a network and the death of the slot's own,
so at most one factor is alive.  A network's arrays are read-only, so a factor
keyed by its identity cannot go stale.

Limit quantities (resistance to infinity, Green function, hitting
probabilities) are computed on exhaustions supplied by a
:class:`~resistive_walks.generators.GraphGenerator`.  These sequences
converge geometrically on transient trees, so each step's estimate is
Aitken's delta-squared value of the last three raw terms (Aitken 1926),
``v2 - d2**2 / (d2 - d1)`` with ``d1 = v1 - v0`` and ``d2 = v2 - v1``.  The
raw ``v2`` stands in when the differences do not shrink (``d1 == 0``,
``d2 == d1`` or ``|d2 / d1| >= 1``), as on the half-line's ``R_n = n + 1``.
A limit stops when two successive estimates agree within
``tol * min(1, |estimate|)``: absolutely above 1, relatively below it.  The
Green function and hitting probabilities take their transience verdict
from the same exhaustions, and accelerate ``v_n(x)`` and ``R_n`` apart,
then combine the two limits: on the tree each is a geometric partial sum,
on which Aitken's value is exact, while their ratio is not.  One sweep
decides how far a limit looks: a generator is exhausted only while the
ball has at most ``EXHAUSTION_LIMIT`` vertices.  On the homogeneous tree,
where every quantity is a function of the distance, each vertex at depth 2
or more takes its limits from those at depth 1.

One sweep over the shells gives every radius, for its columns, the root's
first and one per vertex x asked about, by a Schur recursion (Kron reduction,
Kron 1939, applied one shell at a time).  Shell k holds the ids
``ball_size(k-1) .. ball_size(k)-1``; with ``A_kk`` its block of the Laplacian
(the full pi(x) on the diagonal) and ``B_k`` its block against shell k - 1,
the exhaustion of radius n grounds everything past shell n, so its matrix is
the leading part of the next one's and has the block LDL^T factorization
``S_0 = A_00``, ``S_k = A_kk - B_k S_{k-1}^-1 B_k^T``.  The block of forward
vectors ``Z_k = E_k - B_k S_{k-1}^-1 Z_{k-1}`` holds the columns, ``E_k``
their unit entries in shell k; with ``S_k = L_k L_k^T`` and
``Y_k = L_k^-1 Z_k``, running sums over the columns y0 of the root and yx of x
give ``v_n(x) = sum_{k<=n} y0_k^T yx_k``, so column 0 holds
``R_n = v_n(root)``.  Only the last shell's dense Cholesky factor and ``Y`` are
kept.  The factor (``potrf``), one triangular solve (``trtrs``) for all
columns, ``B S^-1 B^T`` (``syrk``) and ``B S^-1 Z`` (a ``gemv`` per column)
run on scipy's own LAPACK and BLAS: alternating with numpy's bundled OpenBLAS
kept both thread pools awake and made the limits benchmark's 80x80 grid limit
ten times slower on 2 vCPUs.  A ``gemm`` would round a column by how many
columns share it, while ``trtrs`` rounds a column alike among any two or more,
so an id's limits do not depend on the other ids swept with it (the root's,
swept alone, may).  Once a shell has more than ``DENSE_SHELL_LIMIT`` vertices,
the remaining radii are solved one exhaustion at a time by
:func:`solve_dirichlet`.  A Schur complement that is not finite or not positive
definite raises :class:`SolverDivergence`, naming its shell.  A limit that
stops on a term of the recursion solves that radius once more, with the
residual check, and raises :class:`SolverDivergence` when the two disagree by
more than ``tol * max(1, |R_n|)`` in any column.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import (
    BudgetExceededWithoutConvergence,
    DisconnectedGraph,
    EmptyInput,
    InvalidSpec,
    NotTransient,
    SolverDivergence,
    VertexInTarget,
)
from .generators import GraphGenerator, exhaustion
from .network import Network, _check_int

__all__ = [
    "BoundarySpec",
    "EffectiveQuantities",
    "LimitResult",
    "solve_dirichlet",
    "ohm_current",
    "effective",
    "unit_voltage",
    "resistance_to_infinity",
    "green_function",
    "hitting_probability",
]

# vertices up to which the ball of a generator is exhausted;
# a limit that would need a larger ball takes its n_max exit instead of
# running out of memory.  The binary tree's ball fits up to radius 20
# (3.1M vertices); the limits benchmark goes to radius 9 (1,534).  It also
# bounds verify's trees: its --levels tree, and the deepest tree it walks.
EXHAUSTION_LIMIT = 4_000_000

# vertices per shell up to which an exhaustion limit runs the shell
# recursion (dense blocks and a Cholesky factor per shell); from the first
# larger shell on, each radius is a fresh exhaustion and sparse LU.
# Measured on a 2-vCPU host, in-process, as medians of 30 rounds of the
# limits benchmark's two calls (the 80x80 grid's shells reach 156
# vertices, the binary tree's double from 3) and of verify's five q=2 tree
# limits, with BLAS on one thread / under the default thread count:
#
#   limit   limits benchmark   verify's tree limits   process peak
#   128     0.46 / 0.48 s      18 / 19 ms             80 MiB
#   256     34 / 36 ms         16 / 17 ms             76 MiB
#   512     35 / 37 ms         23 / 22 ms             76 MiB
#
# At 128 the grid's shells fall back to LU; at 512 the tree's 512-vertex
# shell costs more dense than by LU.  With no shell in the recursion (0)
# the two take 0.60 s and 33 ms, with BLAS on one thread.
DENSE_SHELL_LIMIT = 256

# the shell recursion's LAPACK and BLAS kernels, all from scipy's own
# library, so that no call of the recursion wakes numpy's BLAS threads
_potrf, _trtrs = sla.get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)
_syrk, _gemv = sla.get_blas_funcs(("syrk", "gemv"), dtype=np.float64)

# conductance-to-infinity threshold of the transience verdict
TRANSIENCE_EPS = 1e-3


@dataclass(frozen=True)
class BoundarySpec:
    """Voltages ``values[i]`` clamped at the ids ``clamped[i]`` (an id may
    repeat, with one voltage); every other vertex is free (harmonic)."""

    clamped: Iterable[int]
    values: Sequence[float] | np.ndarray


@dataclass(frozen=True)
class EffectiveQuantities:
    conductance: float
    resistance: float
    escape_probability: float


@dataclass(frozen=True)
class LimitResult:
    value: float
    converged: bool
    n_used: int


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:  # also refuses NaN
        raise InvalidSpec(f"{name} must be positive and finite, got {value}")


class _Factor(NamedTuple):
    """The free block of a network off a clamped set, cut and factorized:
    the network, held weakly, and the sorted clamped ids ``ids`` are its key."""

    net: weakref.ref
    ids: np.ndarray
    free: np.ndarray
    #: the free rows' entries in the clamped columns, for the boundary term
    l_fc: sp.csr_matrix
    l_ff: sp.csr_matrix
    lu: spla.SuperLU


# the last factorized free block; a miss empties it before it factorizes, so
# no more than one factor is alive at a time.  No lock: each solve uses the
# entry it read, so threads racing on the slot can only cost a factorization
_factor: _Factor | None = None


def _drop_factor(ref: weakref.ref | None = None) -> None:
    """Empties the slot; as the weakref callback of a dying network (``ref``
    given), only while the slot still holds that network's entry."""
    global _factor
    if ref is None or (_factor is not None and _factor.net is ref):
        _factor = None


def _factorize(net: Network, ids: np.ndarray) -> _Factor:
    """The :class:`_Factor` of ``net``'s free block off the sorted distinct
    clamped ids ``ids``: the slot's when its key matches, else a new one,
    which the slot then holds.  A factorization that raises leaves the slot
    empty."""
    global _factor
    slot = _factor  # read once: another thread may replace it
    if slot is not None and slot.net() is net and np.array_equal(slot.ids, ids):
        return slot
    _factor = slot = None  # frees the last factor before the next is made
    mask = np.ones(net.vertex_count, dtype=bool)
    mask[ids] = False
    free = np.flatnonzero(mask)
    # the free rows are cut to the free block and to the clamped columns, and
    # dropped before the factorization
    rows = net.laplacian()[free]
    l_ff = rows[:, free]
    l_fc = rows[:, ids]
    del rows
    # l_ff is symmetric positive definite when every component holds a
    # clamped vertex, so diagonal pivots are stable, and its transpose is the
    # CSC matrix SuperLU reads, with no copy.  Measured on a 2-vCPU host over
    # the 79 balls of an 80x80 grid (up to 6,398 free): L + U of the largest
    # holds 230k nonzeros against 396k under the default COLAMD, and the 79
    # factorizations take 0.53 s against 1.02 s; panel_size=1 accounts for
    # 0.53 s against 0.71 s at the default panel size.
    try:
        lu = spla.splu(
            l_ff.T,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            panel_size=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        _, comp = connected_components(net.conductance_matrix(), directed=False)
        if np.setdiff1d(comp, comp[ids]).size:
            raise DisconnectedGraph(
                f"free block is singular ({exc}): a component has no clamped vertex"
            ) from None
        # connected, yet singular in float64: some pi(x) has absorbed a
        # conductance below its rounding unit
        raise SolverDivergence(f"free block is numerically singular ({exc})") from None
    except MemoryError:  # SuperLU could not allocate the factor
        raise SolverDivergence(
            f"sparse LU of the free block ({len(free)} free vertices) ran out of memory"
        ) from None
    _factor = slot = _Factor(weakref.ref(net, _drop_factor), ids, free, l_fc, l_ff, lu)
    return slot


def solve_dirichlet(
    net: Network, bc: BoundarySpec, tol: float = 1e-9, source: np.ndarray | None = None
) -> np.ndarray:
    """Solve the Dirichlet problem; returns the voltage vector.

    Clamps the ids ``bc.clamped`` to ``bc.values`` and solves ``(L v)(x) =
    source(x)`` on every free vertex, ``L = diag(pi) - C`` being the
    Laplacian (``source`` is a vector over all vertices, zero when omitted:
    the free vertices are then harmonic).  The free block, of any size, is
    factorized by sparse LU, and consecutive solves on one network with the
    same set of clamped ids share that factor: the voltages and the source
    enter only the right-hand side.  Every solve, the first or not, must
    satisfy ``max |(L v)(x) - source(x)| / pi(x) <= tol * max(1, max |v|)``
    over the free vertices, else :class:`SolverDivergence` is raised.  No
    clamped id raises :class:`EmptyInput`; values not one per id, a value or
    source entry that is NaN or infinite, or an id given two voltages raise
    :class:`InvalidSpec`.  A free block that LU finds singular raises
    :class:`DisconnectedGraph` when a component has no clamped vertex, and
    :class:`SolverDivergence` otherwise (conductance ratios beyond float64
    resolution); a factor that does not fit in memory also raises
    :class:`SolverDivergence`, naming the free-vertex count.
    """
    _check_positive("tol", tol)
    clamped = net._check_ids(bc.clamped)
    if not len(clamped):
        raise EmptyInput("no clamped vertices")
    given = np.asarray(bc.values, dtype=float)
    if given.shape != clamped.shape or not np.all(np.isfinite(given)):
        raise InvalidSpec("clamped voltages must be finite, one per clamped id")
    values = np.zeros(net.vertex_count)
    values[clamped] = given
    if np.any(values[clamped] != given):  # an id given two voltages keeps one
        raise InvalidSpec("a repeated clamped id is given two voltages")
    if source is not None:
        source = np.asarray(source, dtype=float)
        if not np.all(np.isfinite(source)):
            raise InvalidSpec("source entries must be finite")
    is_clamped = np.zeros(net.vertex_count, dtype=bool)
    is_clamped[clamped] = True
    ids = np.flatnonzero(is_clamped)  # in O(V), where np.unique sorts
    if len(ids) == net.vertex_count:
        return values

    factor = _factorize(net, ids)
    free, l_ff = factor.free, factor.l_ff
    # values is zero on the free columns, so the clamped columns alone give
    # each free row's boundary sum, bit for bit as over the whole row
    boundary = factor.l_fc @ values[ids]
    source_f = np.zeros(len(free)) if source is None else source[free]
    v_f = factor.lu.solve(source_f - boundary)
    values[free] = v_f

    resid = float(np.max(np.abs(l_ff @ v_f + boundary - source_f) / net.pi[free]))
    target = tol * max(1.0, float(np.max(np.abs(values))))
    if not resid <= target:  # also refuses a NaN residual
        raise SolverDivergence(f"harmonic residual {resid:.3e} exceeds tol {target:.3e}")
    return values


def ohm_current(net: Network, values: np.ndarray) -> np.ndarray:
    """Current i(e) = c(e) (v(tail) - v(head)) on each forward edge."""
    return net.edge_c * (values[net.edge_u] - values[net.edge_v])


def unit_voltage(
    net: Network, a: int, z, tol: float = 1e-9
) -> tuple[np.ndarray, EffectiveQuantities]:
    """Voltages with v(a) = 1 and v = 0 on z, and the :func:`effective`
    quantities between a and z that they give."""
    z = net._check_ids(z)
    if not len(z):
        raise EmptyInput("empty target set")
    a = net._check_vertex(a)
    if np.any(z == a):
        raise VertexInTarget(f"source {a} lies in the target set")
    ids = np.append(z, a)
    values = solve_dirichlet(net, BoundarySpec(ids, ids == a), tol=tol)
    cs = net.edge_c[net.incident_edges(a)]
    c = float(np.sum(cs * (1.0 - values[net.neighbors(a)])))
    return values, EffectiveQuantities(c, 1.0 / c, c / float(net.pi[a]))


def effective(net: Network, a: int, z, tol: float = 1e-9) -> EffectiveQuantities:
    """Effective conductance/resistance between a and the grounded set z.

    Solves with v(a) = 1, v|z = 0; the conductance is the total current
    leaving a, and the escape probability C / pi(a) is the chance the walk
    from a reaches z before returning to a.
    """
    return unit_voltage(net, a, z, tol)[1]


class _Estimates:
    """Raw terms of an exhaustion sequence and the estimate after each.

    The estimate is Aitken's delta-squared value of the last three raw
    terms, or the last raw term when their differences do not shrink
    geometrically.  ``converged`` holds once two successive estimates
    agree within ``tol * min(1, |estimate|)``.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.raw: list[float] = []
        self.value = np.nan
        self.converged = False

    def push(self, v2: float) -> None:
        prev = self.value
        self.value = v2
        if len(self.raw) >= 2:
            v0, v1 = self.raw[-2:]
            d1, d2 = v1 - v0, v2 - v1
            if d1 != 0 and abs(d2 / d1) < 1:  # so also d2 != d1
                self.value = v2 - d2 * d2 / (d2 - d1)
        # absolute above 1, relative below it (so a limit far below tol is
        # not cut short); False after NaN
        self.converged = abs(self.value - prev) < self.tol * min(1.0, abs(self.value))
        self.raw.append(v2)


def resistance_to_infinity(
    gen: GraphGenerator, n_max: int = 64, tol: float = 1e-6
) -> LimitResult:
    """Limit of R(root <-> z_n) over exhaustions of increasing radius.

    Declares convergence when two successive estimates (Aitken's values
    where the differences shrink, see the module docstring) differ by less
    than ``tol * min(1, |estimate|)``; otherwise returns the last estimate
    with ``converged=False`` and ``n_used`` the last radius, also when the
    next ball would exceed ``EXHAUSTION_LIMIT`` vertices.  On a finite
    graph, once the ball covers it, the value is the last raw term: the
    exact resistance to the farthest vertices.  R_n is nondecreasing in n
    (Rayleigh monotonicity), so a diverging sequence never converges.
    """
    n_max = _check_int("n_max", n_max, 1)
    _check_positive("tol", tol)
    est = _Estimates(tol)
    term = None
    root = np.array([gen.root])  # R_n is the root's column
    for term in _terms(gen, root, 0, n_max, tol):
        est.push(float(term.v[0]))
        if est.converged:
            break
    _confirm(gen, root, term, tol)
    if est.converged:
        return LimitResult(est.value, converged=True, n_used=term.n)
    n = term.n + 1 if term else 0  # the radius the terms stopped before
    if n <= n_max and gen.ball_size(n) <= EXHAUSTION_LIMIT:
        # finite graph fully exhausted at radius n; no further change possible
        return LimitResult(float(term.v[0]) if term else np.nan, converged=False, n_used=n)
    return LimitResult(est.value, converged=False, n_used=n - 1)


def _verdict(c: float, prev: float | None) -> str:
    """The transience verdict from successive conductances to infinity: C_n
    below ``TRANSIENCE_EPS`` is recurrent (heuristically -- finite data
    cannot certify a zero limit), C_n stable within ``TRANSIENCE_EPS * C_n``
    of the previous radius transient, anything else inconclusive."""
    if c < TRANSIENCE_EPS:
        return "recurrent-heuristic"
    if prev is not None and abs(c - prev) < TRANSIENCE_EPS * c:
        return "transient"
    return "inconclusive"


def _unit_current_voltage(gen: GraphGenerator, cols: np.ndarray, n: int, tol: float):
    """(v_n(x), pi(x)) over the ids ``cols`` for the unit current flow on
    exhaustion n from the root, clamped to 1 (so v_n(root) = R_n bit for bit),
    to ``z_n``; an id past the ball reads z_n, voltage 0 as in the recursion."""
    net, z = exhaustion(gen, n)
    values, eq = unit_voltage(net, gen.root, (z,), tol)
    cols = np.minimum(cols, z)
    return values[cols] * eq.resistance, net.pi[cols]


class _Term(NamedTuple):
    """The unit current flow on exhaustion ``n`` over the sweep's columns,
    the root's first: ``R_n = v[0]``."""

    n: int
    v: np.ndarray
    pi: np.ndarray
    #: True when the shell recursion gave it, False for a residual-checked solve
    by_shells: bool


def _half_edges(gen: GraphGenerator, n: int):
    """Each edge of ``gen.ball_edges(n)`` once from each end, as arrays
    ``(a, b, c)`` sorted by the end ``a``; the sort is stable, so each
    vertex's entries keep the edge order."""
    u, v, c = gen.ball_edges(n)
    a = np.concatenate([u, v])
    order = np.argsort(a, kind="stable")
    c = np.asarray(c, dtype=float)
    return a[order], np.concatenate([v, u])[order], np.concatenate([c, c])[order]


def _shell_blocks(half, prev_lo: int, lo: int, hi: int):
    """(A_kk, B_k) of shell k, the ids ``lo .. hi-1``, as dense arrays.

    ``half`` is the :func:`_half_edges` of a ball of radius k or more; a
    larger ball lists one by one the edges into shell k + 1 that
    ``ball_edges(k)`` may merge, which moves pi(x) at most by rounding.
    ``A_kk`` is the shell's block of the Laplacian with the full pi(x) on
    its diagonal, and ``B_k`` its block against shell k - 1, the ids
    ``prev_lo .. lo-1``.  An edge inside the shell appears from both ends,
    and a self-loop's diagonal entries cancel as in the Laplacian.
    """
    a, b, w = half
    i, j = np.searchsorted(a, (lo, hi))
    a, b, w = a[i:j] - lo, b[i:j] - lo, w[i:j]
    m = hi - lo
    a_kk = np.diag(np.bincount(a, w, minlength=m))
    inner, back = (b >= 0) & (b < m), b < 0
    np.subtract.at(a_kk, (a[inner], b[inner]), w[inner])
    b_k = np.zeros((m, lo - prev_lo))
    np.subtract.at(b_k, (a[back], b[back] + lo - prev_lo), w[back])
    return a_kk, b_k


def _terms(gen: GraphGenerator, cols: np.ndarray, start: int, end: int, tol: float):
    """The :class:`_Term` of each radius ``n = start .. end`` over the ids
    ``cols``, the root's first (each read from radius depth(id) on), up to the
    first radius whose ball has more than ``EXHAUSTION_LIMIT`` vertices or
    covers the graph (``ball_size(n + 1) == ball_size(n)``: no z).

    The shell recursion of the module docstring gives each radius until the
    first shell of more than ``DENSE_SHELL_LIMIT`` vertices; each radius
    from there on has its exhaustion solved afresh.  The dense shells are
    cut from the edges of one ball, ``top``: when the sweep first passes it,
    at radius n, the next is the last radius up to ``min(end, 4n + 3)`` whose
    shells all stay dense and whose ball stays within the budget, so a limit
    that stops at radius n has fetched no ball past radius 4n + 3."""
    top, dense = -1, True  # the sweep holds the edges of the ball of radius top
    prev_lo = lo = 0
    chol, y, sums, pi = None, None, np.zeros(len(cols)), np.full(len(cols), np.nan)
    for n in range(end + 1):
        hi = gen.ball_size(n)
        if hi > EXHAUSTION_LIMIT or gen.ball_size(n + 1) == hi:
            return
        dense = dense and hi - lo <= DENSE_SHELL_LIMIT
        if dense and n > top:
            top, size = n, hi
            # an empty next shell: the ball of radius top covers the graph
            while top < min(end, 4 * n + 3) and size < (
                nxt := gen.ball_size(top + 1)
            ) <= min(size + DENSE_SHELL_LIMIT, EXHAUSTION_LIMIT):
                top, size = top + 1, nxt
            half = _half_edges(gen, top)
        if dense:
            a_kk, b_k = _shell_blocks(half, prev_lo, lo, hi)
            # a_kk is symmetric, so its transpose is the Fortran-ordered
            # matrix that syrk overwrites with S_n and potrf with its factor:
            # each id in the shell has its pi(x) read, and unit entry set, first
            s_k, z = a_kk.T, np.zeros((hi - lo, len(cols)), order="F")
            for j, x in enumerate(cols):
                if lo <= x < hi:
                    z[x - lo, j], pi[j] = 1.0, a_kk[x - lo, x - lo]
            if n:  # with S = L L^T of shell n - 1, Y = L^-1 Z and w = L^-1 B^T:
                # B S^-1 B^T = w^T w and B S^-1 Z = w^T Y
                w, _ = _trtrs(chol, b_k.T, lower=1)
                s_k = _syrk(-1.0, w, 1.0, s_k, trans=1, lower=1, overwrite_c=1)
                for j in range(len(cols)):
                    z[:, j] = _gemv(-1.0, w, y[:, j], 1.0, z[:, j], trans=1)
            # potrf reads only the lower triangle, which syrk wrote, and
            # checks no value; a factor's diagonal is positive, so no trtrs
            # on it fails
            if not np.all(np.isfinite(s_k)):
                raise SolverDivergence(f"Schur complement of shell {n}: not finite")
            chol, info = _potrf(s_k, lower=1, clean=0, overwrite_a=1)
            if info:
                raise SolverDivergence(
                    f"Schur complement of shell {n}: its leading minor of order {info} "
                    "is not positive definite"
                )
            y, _ = _trtrs(chol, z, lower=1)
            sums = sums + [y[:, 0] @ y_j for y_j in y.T]
        prev_lo, lo = lo, hi
        if n < start:
            continue
        if dense:
            yield _Term(n, sums, pi.copy(), True)
        else:
            yield _Term(n, *_unit_current_voltage(gen, cols, n, tol), False)


def _confirm(gen: GraphGenerator, cols: np.ndarray, term: _Term | None, tol: float) -> None:
    """Recompute a term of the shell recursion by one residual-checked
    solve of its exhaustion; raises SolverDivergence when any column's v_n(x),
    R_n the root's, differs by more than ``tol * max(1, |R_n|)``."""
    if term is None or not term.by_shells:
        return
    v, _ = _unit_current_voltage(gen, cols, term.n, tol)
    if not np.all(abs(v - term.v) <= tol * max(1.0, abs(v[0]))):  # also refuses NaN
        raise SolverDivergence(
            f"shell recursion at radius {term.n} gives v_n(x)={term.v.tolist()}, "
            f"R_n first; a solve gives {v.tolist()}"
        )


def _limit(gen, xs, n_max, tol):
    """``(v, R, pi(x))`` for each id x of ``xs``, the Green function being
    ``pi(x) v`` and the hitting probability ``v / R``: the limits v of
    v_n(x) and R of R_n, each estimated on its own, over the radii past
    depth(x) up to ``n_max``; both must converge.  The same exhaustions' R_n
    give the transience verdict (:func:`_verdict`, at ``TRANSIENCE_EPS``),
    which may look on to radius max(32, depth(x) + 2) when ``n_max`` is
    smaller.  :func:`_terms` alone decides how far the radii go: it stops at
    the ball budget.  A verdict needs two radii; when the ball budget allows
    fewer, the budget error is raised, not :class:`NotTransient`.  Each id
    must be a vertex id of ``gen`` (else InvalidVertex).

    Each id reads the terms of its own sweep from its column of one sweep of
    the distinct ids and the root, id 0 and so column 0, which gives R_n.  The
    first id whose limits fail raises once its last term is confirmed, else
    the sweep's last term is.  On a homogeneous tree, a vertex x at
    depth d >= 2 takes the column of a neighbour y of the root, over radii
    up to ``n_max - d + 1``: each of the walk's d steps from the root to x
    is the step to y up to an automorphism, so ``v(x) = R (v(y) / R)^d``."""
    _check_positive("tol", tol)
    columns = []  # (id of the column, depth of its route, first radius, radius budget)
    for x in map(gen._check_vertex, xs):
        depth = gen.depth_of(x)
        if gen.homogeneous_tree and depth >= 2:
            columns.append((gen.ball_size(0), depth, 2, max(n_max - depth + 1, 1)))
        else:
            columns.append((x, 0, depth + 1, n_max))
    ids, _, starts, _ = zip(*columns)
    cols = np.unique([gen.root, *ids])
    first = min(starts)
    ends = [max(budget, 32, start + 1) for _, _, start, budget in columns]
    sweeps = itertools.tee(_terms(gen, cols, first, max(ends), tol), len(ids))
    limits, terms = [], []
    for sweep, col, (_, depth, start, budget), end in zip(
            sweeps, cols.searchsorted(ids), columns, ends):
        last = max(budget, start)
        est_v, est_r = _Estimates(tol), _Estimates(tol)
        verdict, prev_c, term, converged = "inconclusive", None, None, False
        for term in itertools.islice(sweep, start - first, end - first + 1):
            r = float(term.v[0])
            if verdict == "inconclusive":
                verdict, prev_c = _verdict(1.0 / r, prev_c), 1.0 / r
            if verdict == "recurrent-heuristic":
                break
            if term.n <= last:
                est_v.push(float(term.v[col]))
                est_r.push(r)
                converged = est_v.converged and est_r.converged
            if verdict == "transient" and (converged or term.n >= last):
                break
        if not (verdict == "transient" and converged):
            _confirm(gen, cols, term, tol)
        if verdict == "inconclusive" and gen.ball_size(start + 1) > EXHAUSTION_LIMIT:
            raise BudgetExceededWithoutConvergence(
                f"no transience verdict: it needs radii {start} and {start + 1}, and the "
                f"ball of radius {start + 1} exceeds EXHAUSTION_LIMIT = {EXHAUSTION_LIMIT}"
            )
        if verdict != "transient":
            raise NotTransient(f"transience verdict: {verdict}")
        if not converged:
            raise BudgetExceededWithoutConvergence(
                f"no convergence by radius {min(term.n, last)} (n_max={budget}, last "
                f"estimates v={est_v.value!r}, R={est_r.value!r})"
            )
        v, r = est_v.value, est_r.value
        limits.append((r * (v / r) ** depth if depth else v, r, float(term.pi[col])))
        terms.append(term)
    _confirm(gen, cols, max(terms, key=lambda term: term.n), tol)
    return limits


def green_function(
    gen: GraphGenerator, x: int, n_max: int = 80, tol: float = 1e-8
) -> float:
    """Expected number of visits to x for the walk from the root: pi(x) v,
    v the limit of the unit current flow's voltage v_n(x)."""
    ((v, _, pi_x),) = _limit(gen, [x], _check_int("n_max", n_max, 1), tol)
    return pi_x * v


def hitting_probability(
    gen: GraphGenerator, x: int, n_max: int = 80, tol: float = 1e-8
) -> float:
    """P_x(hit the root eventually) = v / R, the limits of v_n(x) and of
    R_n = v_n(root); 1 when x is the root."""
    n_max = _check_int("n_max", n_max, 1)
    _check_positive("tol", tol)
    if gen._check_vertex(x) == gen.root:
        return 1.0
    ((v, r, _),) = _limit(gen, [x], n_max, tol)
    return v / r
