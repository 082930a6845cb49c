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
where every quantity is a function of the distance, each vertex at depth
2 or more takes its limits from those at depth 1.

A generator gets every radius from one sweep over the shells, a
Schur recursion (Kron reduction, Kron 1939, applied one shell at a time).
Shell k holds the ids ``ball_size(k-1) .. ball_size(k)-1``; with ``A_kk``
its block of the Laplacian (the full pi(x) on the diagonal) and ``B_k`` its
block against shell k - 1, the exhaustion of radius n grounds everything
past shell n, so its matrix is the leading part of the next one's and has
the block LDL^T factorization ``S_0 = A_00``,
``S_k = A_kk - B_k S_{k-1}^-1 B_k^T``.  The forward vectors
``z_k = e_k - B_k S_{k-1}^-1 z_{k-1}`` of the unit vectors at the root and
at x then give every radius by running sums,
``R_n = sum_{k<=n} z0_k^T S_k^-1 z0_k`` and
``v_n(x) = sum_{k<=n} z0_k^T S_k^-1 zx_k``; only the last shell's dense
Cholesky factor and the two ``z`` are kept.  Every shell's blocks are
cut from the edges of a ball fetched when the sweep passes the last one,
at radius n, no further out than radius 4n + 3; the factor (``potrf``),
triangular solves (``trtrs``), ``B S^-1 B^T`` (``syrk``) and ``B S^-1 z``
(``gemv``) all run on scipy's own LAPACK and BLAS.  numpy's ``@`` runs on
the OpenBLAS bundled with numpy, a second library with its own thread
pool: when calls alternate between the two, on a 2-vCPU host both pools
stay awake, which made the limits benchmark's 80x80 grid limit about ten
times slower under the default thread count than with BLAS on one thread.  On scipy's kernels
alone it takes the same time either way.  A limit's last bits can still
depend on the thread count: that grid's ``resistance_to_infinity`` (at
seed 1) reads 3.165535350480935 on one BLAS thread and 3.1655353504809427
on two.  Once a shell has more than ``DENSE_SHELL_LIMIT`` vertices, the
remaining radii are solved one exhaustion at a time by
:func:`solve_dirichlet`.  A Schur complement that is not finite or not
positive definite raises :class:`SolverDivergence`, naming its shell.  A
limit that stops on a term of the recursion solves that radius once more,
with the residual check, and raises :class:`SolverDivergence` when the two
disagree by more than ``tol * max(1, |R_n|)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla
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


def solve_dirichlet(
    net: Network, bc: BoundarySpec, tol: float = 1e-9, source: np.ndarray | None = None
) -> np.ndarray:
    """Solve the Dirichlet problem; returns the voltage vector.

    Clamps the ids ``bc.clamped`` to ``bc.values`` and solves ``(L v)(x) =
    source(x)`` on every free vertex, ``L = diag(pi) - C`` being the
    Laplacian (``source`` is a vector over all vertices, zero when omitted:
    the free vertices are then harmonic).  The free block, of any size, is
    factorized by sparse LU, and the result must satisfy
    ``max |(L v)(x) - source(x)| / pi(x) <= tol * max(1, max |v|)`` over the
    free vertices, else :class:`SolverDivergence` is raised.  No clamped id
    raises :class:`EmptyInput`; values not one per id, a value or source
    entry that is NaN or infinite, or an id given two voltages raise
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
    mask = np.ones(net.vertex_count, dtype=bool)
    mask[clamped] = False
    free = np.flatnonzero(mask)
    if len(free) == 0:
        return values

    # the boundary term is taken from the free rows before they are cut to
    # the free block, and the rows are dropped before the factorization
    l_ff = net.laplacian()[free]
    boundary = l_ff @ values
    l_ff = l_ff[:, free]
    source_f = np.zeros(len(free)) if source is None else source[free]
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
        if np.setdiff1d(comp, comp[clamped]).size:
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
    v_f = lu.solve(source_f - boundary)
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
    exact resistance to the farthest vertices.  R_n is nondecreasing in n (Rayleigh monotonicity), so a
    diverging sequence simply never converges.
    """
    n_max = _check_int("n_max", n_max, 1)
    _check_positive("tol", tol)
    est = _Estimates(tol)
    term = None
    for term in _terms(gen, gen.root, 0, n_max, tol):
        est.push(term.r)
        if est.converged:
            break
    _confirm(gen, gen.root, term, tol)
    if est.converged:
        return LimitResult(est.value, converged=True, n_used=term.n)
    n = term.n + 1 if term else 0  # the radius the terms stopped before
    if n <= n_max and gen.ball_size(n) <= EXHAUSTION_LIMIT:
        # finite graph fully exhausted at radius n; no further change possible
        return LimitResult(term.r if term else np.nan, converged=False, n_used=n)
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


def _unit_current_voltage(
    gen: GraphGenerator, x: int, n: int, tol: float
) -> tuple[float, float, float]:
    """(v_n(x), R_n, pi(x)) for the unit current flow on exhaustion n.

    The flow enters at the root and leaves at the contracted boundary
    ``z_n``, so ``R_n = v_n(root)`` is the resistance R(root <-> z_n).
    """
    net, z = exhaustion(gen, n)
    values, eq = unit_voltage(net, gen.root, (z,), tol)
    return float(values[x]) * eq.resistance, eq.resistance, float(net.pi[x])


class _Term(NamedTuple):
    """The unit current flow on exhaustion ``n``: ``(n, v_n(x), R_n, pi(x))``."""

    n: int
    vx: float
    r: float
    pi_x: float
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


def _terms(gen: GraphGenerator, x: int, start: int, end: int, tol: float):
    """The :class:`_Term` of each radius ``n = start .. end``, up to the
    first radius whose ball has more than ``EXHAUSTION_LIMIT`` vertices or
    covers the graph, ``ball_size(n + 1) == ball_size(n)``, where
    :func:`exhaustion` has no boundary.  ``x`` must lie within depth
    ``start``.

    The shell recursion of the module docstring gives each radius until the
    first shell of more than ``DENSE_SHELL_LIMIT`` vertices; each radius
    from there on has its exhaustion solved afresh.  The dense shells are
    cut from the edges of one ball, ``top``: when the sweep first passes it,
    at radius n, the next is the last radius up to ``min(end, 4n + 3)`` whose
    shells all stay dense and whose ball stays within the budget, so a limit
    that stops at radius n has fetched no ball past radius 4n + 3.
    """
    top, dense = -1, True  # the sweep holds the edges of the ball of radius top
    prev_lo = lo = 0
    chol = y0 = yx = None
    r_sum = v_sum = 0.0
    pi_x = np.nan
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
            # matrix that syrk overwrites with S_n and potrf with its factor
            s_k, z0, zx = a_kk.T, np.zeros(hi - lo), None
            if lo <= x < hi:  # the first shell with a nonzero zx
                pi_x = float(a_kk[x - lo, x - lo])
                zx = np.zeros(hi - lo)
                zx[x - lo] = 1.0
            if n == 0:
                z0[gen.root] = 1.0
            else:  # with S = L L^T of shell n - 1, y = L^-1 z and w = L^-1 B^T:
                # B S^-1 B^T = w^T w and B S^-1 z = w^T y
                w, _ = _trtrs(chol, b_k.T, lower=1)
                s_k = _syrk(-1.0, w, 1.0, s_k, trans=1, lower=1, overwrite_c=1)
                z0 = _gemv(-1.0, w, y0, trans=1)
                if yx is not None:
                    zx = _gemv(-1.0, w, yx, trans=1)
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
            y0, _ = _trtrs(chol, z0, lower=1)
            r_sum += float(y0 @ y0)
            if zx is not None:
                yx, _ = _trtrs(chol, zx, lower=1)
                v_sum += float(y0 @ yx)
        prev_lo, lo = lo, hi
        if n < start:
            continue
        if dense:
            yield _Term(n, v_sum, r_sum, pi_x, True)
        else:
            yield _Term(n, *_unit_current_voltage(gen, x, n, tol), False)


def _confirm(gen: GraphGenerator, x: int, term: _Term | None, tol: float) -> None:
    """Recompute a term of the shell recursion by one residual-checked
    solve of its exhaustion; raises SolverDivergence when R_n or v_n(x)
    differ by more than ``tol * max(1, |R_n|)``."""
    if term is None or not term.by_shells:
        return
    vx, r, _ = _unit_current_voltage(gen, x, term.n, tol)
    bound = tol * max(1.0, abs(r))
    if not (abs(r - term.r) <= bound and abs(vx - term.vx) <= bound):  # also refuses NaN
        raise SolverDivergence(
            f"shell recursion at radius {term.n} gives R_n={term.r!r}, v_n(x)={term.vx!r}; "
            f"a solve gives {r!r}, {vx!r}"
        )


def _limit(gen, x, n_max, tol):
    """``(v, R, pi(x))``, the Green function being ``pi(x) v`` and the
    hitting probability ``v / R``: the limits v of v_n(x) and R of R_n,
    each estimated on its own, over radii from depth(x) + 1 to ``n_max``;
    both must converge.  The same exhaustions' R_n give the transience
    verdict (:func:`_verdict`, at ``TRANSIENCE_EPS``), which may look on to
    radius max(32, depth(x) + 2) when ``n_max`` is smaller.  :func:`_terms`
    alone decides how far the radii go: it stops at the ball budget.  A
    verdict needs two radii; when the ball budget allows fewer, the budget
    error is raised, not :class:`NotTransient`.  ``x`` must be a vertex id
    of ``gen`` (else InvalidVertex).

    On a homogeneous tree, every vertex x at a depth d >= 2 takes its limits
    from a neighbour y of the root, over radii up to ``n_max - d + 1``: the
    walk from the root reaches x through each vertex between them, and each
    of those d steps is, up to an automorphism, the step from the root to y,
    so ``v(x) = R (v(y) / R)^d`` and pi(x) = pi(y)."""
    _check_positive("tol", tol)
    x = gen._check_vertex(x)
    depth = gen.depth_of(x)
    if gen.homogeneous_tree and depth >= 2:
        v, r, pi_x = _limit(gen, gen.ball_size(0), max(n_max - depth + 1, 1), tol)
        return r * (v / r) ** depth, r, pi_x
    start = depth + 1
    last = max(n_max, start)
    est_v, est_r = _Estimates(tol), _Estimates(tol)
    verdict, prev_c, term, converged = "inconclusive", None, None, False
    for term in _terms(gen, x, start, max(last, 32, start + 1), tol):
        if verdict == "inconclusive":
            verdict, prev_c = _verdict(1.0 / term.r, prev_c), 1.0 / term.r
        if verdict == "recurrent-heuristic":
            break
        if term.n <= last:
            est_v.push(term.vx)
            est_r.push(term.r)
            converged = est_v.converged and est_r.converged
        if verdict == "transient" and (converged or term.n >= last):
            break
    _confirm(gen, x, term, tol)
    if verdict == "inconclusive" and gen.ball_size(start + 1) > EXHAUSTION_LIMIT:
        raise BudgetExceededWithoutConvergence(
            f"no transience verdict: it needs radii {start} and {start + 1}, and the "
            f"ball of radius {start + 1} exceeds EXHAUSTION_LIMIT = {EXHAUSTION_LIMIT}"
        )
    if verdict != "transient":
        raise NotTransient(f"transience verdict: {verdict}")
    if not converged:
        raise BudgetExceededWithoutConvergence(
            f"no convergence by radius {min(term.n, last)} (n_max={n_max}, last "
            f"estimates v={est_v.value!r}, R={est_r.value!r})"
        )
    return est_v.value, est_r.value, term.pi_x


def green_function(
    gen: GraphGenerator, x: int, n_max: int = 80, tol: float = 1e-8
) -> float:
    """Expected number of visits to x for the walk from the root: pi(x) v,
    v the limit of the unit current flow's voltage v_n(x)."""
    v, _, pi_x = _limit(gen, x, _check_int("n_max", n_max, 1), tol)
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
    v, r, _ = _limit(gen, x, n_max, tol)
    return v / r
