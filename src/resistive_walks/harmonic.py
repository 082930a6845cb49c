"""Dirichlet problems on finite networks and their exhaustion limits.

Voltages are plain numpy arrays over vertex ids.  A solved potential
matches its boundary values exactly and is harmonic on every free vertex:
``sum_y p(x, y) f(y) = f(x)`` within the requested tolerance, relative to
the voltage scale.  Uniqueness of that solution is what lets one solve
path, :func:`solve_dirichlet`, back voltages, limits and (with a source
term) the currents of :mod:`~resistive_walks.flows`.

Limit quantities (resistance to infinity, Green function, hitting
probabilities) are computed on exhaustions supplied by a
:class:`~resistive_walks.generators.GraphGenerator`, stopping when two
successive values agree within ``tol``.  Spherically symmetric generators
dispatch to O(n) per-level ladder sums instead of linear solves; the others
are exhausted only while the ball has at most ``EXHAUSTION_LIMIT`` vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BudgetExceededWithoutConvergence,
    EmptyBoundary,
    EmptyTarget,
    InvalidSpec,
    NotTransient,
    SolverDivergence,
    VertexInTarget,
)
from .generators import GraphGenerator, InvalidRadius, exhaustion
from .network import Network

__all__ = [
    "BoundarySpec",
    "EffectiveQuantities",
    "LimitResult",
    "Transience",
    "solve_dirichlet",
    "ohm_current",
    "effective",
    "resistance_to_infinity",
    "classify_transience",
    "green_function",
    "hitting_probability",
]

# free-vertex count up to which the free block is factorized by sparse LU;
# beyond it Jacobi-preconditioned CG takes over.  Measured on a 2-vCPU host:
# LU on the 300x300 grid (89,998 free) is faster than CG, but its fill-in
# raised the solve benchmark's peak memory from 170 to 252 MiB; on the
# level-16 tree (98,301 free) CG takes 0.17 s and LU 0.23 s.
DIRECT_LIMIT = 50_000

# vertices up to which the ball of a non-symmetric generator is exhausted;
# a limit that would need a larger ball takes its n_max exit instead of
# running out of memory.  The binary tree's ball fits up to radius 20
# (3.1M vertices); the limits benchmark goes to radius 17 (393k).
EXHAUSTION_LIMIT = 4_000_000


@dataclass(frozen=True)
class BoundarySpec:
    """Prescribed voltages; every unclamped vertex is free (harmonic)."""

    clamped: dict[int, float]


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


class Transience(enum.Enum):
    TRANSIENT = "transient"
    RECURRENT_HEURISTIC = "recurrent-heuristic"
    INCONCLUSIVE = "inconclusive"


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # also refuses NaN
        raise InvalidSpec(f"{name} must be positive, got {value}")


def solve_dirichlet(
    net: Network, bc: BoundarySpec, tol: float = 1e-9, source: np.ndarray | None = None
) -> np.ndarray:
    """Solve the Dirichlet problem; returns the voltage vector.

    Clamps the vertices of ``bc`` and solves ``(L v)(x) = source(x)`` on every
    free vertex, ``L = diag(pi) - C`` being the Laplacian (``source`` is a
    vector over all vertices, zero when omitted: the free vertices are then
    harmonic).  The free block is factorized by sparse LU up to
    ``DIRECT_LIMIT`` free vertices and solved by Jacobi-preconditioned CG
    beyond.  Either way the result must satisfy
    ``max |(L v)(x) - source(x)| / pi(x) <= tol * max(1, max |v|)`` over the
    free vertices, else :class:`SolverDivergence` is raised.
    """
    _check_positive("tol", tol)
    if not bc.clamped:
        raise EmptyBoundary("no clamped vertices")
    clamped = net._check_ids(bc.clamped)
    values = np.zeros(net.vertex_count)
    values[clamped] = np.fromiter(bc.clamped.values(), dtype=float, count=len(clamped))
    mask = np.ones(net.vertex_count, dtype=bool)
    mask[clamped] = False
    free = np.flatnonzero(mask)
    if len(free) == 0:
        return values

    rows = net.laplacian()[free]
    l_ff = rows[:, free]
    source_f = np.zeros(len(free)) if source is None else np.asarray(source, dtype=float)[free]
    rhs = source_f - rows @ values
    pi_f = net.pi[free]
    if len(free) <= DIRECT_LIMIT:
        values[free] = spla.splu(l_ff.tocsc()).solve(rhs)
    else:
        # ||r||_2 <= atol bounds every |r(x)| / pi(x) by the residual target;
        # the clamped values only bound max |v| from below, so the target
        # used here is never looser than the one checked below
        atol = tol * max(1.0, float(np.max(np.abs(values)))) * float(np.min(pi_f))
        values[free], _ = spla.cg(
            l_ff,
            rhs,
            rtol=0.0,
            atol=atol,
            maxiter=10 * len(free) + 100,
            M=sp.diags(1.0 / l_ff.diagonal()),
        )

    resid = float(np.max(np.abs(rows @ values - source_f) / pi_f))
    target = tol * max(1.0, float(np.max(np.abs(values))))
    if resid > target:
        raise SolverDivergence(f"harmonic residual {resid:.3e} exceeds tol {target:.3e}")
    return values


def ohm_current(net: Network, values: np.ndarray) -> np.ndarray:
    """Current i(e) = c(e) (v(tail) - v(head)) on each forward edge."""
    return net.edge_c * (values[net.edge_u] - values[net.edge_v])


def _unit_voltage(net: Network, a: int, z, tol: float) -> tuple[np.ndarray, float]:
    """Voltages with v(a) = 1 and v = 0 on z, and the current leaving a."""
    clamped = dict.fromkeys(z, 0.0)
    if not clamped:
        raise EmptyTarget("empty target set")
    if a in clamped:
        raise VertexInTarget(f"source {a} lies in the target set")
    clamped[a] = 1.0
    values = solve_dirichlet(net, BoundarySpec(clamped), tol=tol)
    cs = net.edge_c[net.incident_edges(a)]
    return values, float(np.sum(cs * (1.0 - values[net.neighbors(a)])))


def effective(net: Network, a: int, z, tol: float = 1e-9) -> EffectiveQuantities:
    """Effective conductance/resistance between a and the grounded set z.

    Solves with v(a) = 1, v|z = 0; the conductance is the total current
    leaving a, and the escape probability C / pi(a) is the chance the walk
    from a reaches z before returning to a.
    """
    _, conductance = _unit_voltage(net, a, z, tol)
    return EffectiveQuantities(
        conductance=conductance,
        resistance=1.0 / conductance,
        escape_probability=conductance / float(net.pi[a]),
    )


def _radius_budget(gen: GraphGenerator, n_max: int) -> int:
    """``n_max``, lowered for a non-symmetric generator to the largest
    radius whose ball has at most ``EXHAUSTION_LIMIT`` vertices."""
    if gen.spherically_symmetric:
        return n_max
    n = 0
    while n < n_max and gen.ball_size(n + 1) <= EXHAUSTION_LIMIT:
        n += 1
    return n


def resistance_to_infinity(
    gen: GraphGenerator, n_max: int = 64, tol: float = 1e-6
) -> LimitResult:
    """Limit of R(root <-> z_n) over exhaustions of increasing radius.

    Declares convergence when two successive values differ by less than
    ``tol``; otherwise returns the best estimate with ``converged=False``,
    also when the next ball would exceed ``EXHAUSTION_LIMIT`` vertices.
    R_n is nondecreasing in n (Rayleigh monotonicity), so a diverging
    sequence simply never converges.
    """
    if n_max < 1:
        raise InvalidSpec(f"n_max must be >= 1, got {n_max}")
    _check_positive("tol", tol)
    n_max = _radius_budget(gen, n_max)
    prev = None
    r = np.nan
    for n in range(n_max + 1):
        try:
            r = _unit_current_voltage(gen, gen.root, n, tol)[1]
        except InvalidRadius:
            # finite graph fully exhausted; no further change possible
            return LimitResult(value=prev if prev is not None else r, converged=False, n_used=n)
        if prev is not None and abs(r - prev) < tol:
            return LimitResult(value=r, converged=True, n_used=n)
        prev = r
    return LimitResult(value=r, converged=False, n_used=n_max)


def classify_transience(
    gen: GraphGenerator, n_max: int = 64, eps: float = 1e-3
) -> Transience:
    """Heuristic transience verdict from the conductance-to-infinity trend.

    Transient when C_n stabilizes strictly above ``eps``; recurrent
    (heuristically -- finite data cannot certify a zero limit) when C_n
    drops below ``eps``; inconclusive otherwise.
    """
    _check_positive("eps", eps)
    prev = None
    for n in range(_radius_budget(gen, n_max) + 1):
        try:
            c = 1.0 / _unit_current_voltage(gen, gen.root, n, min(eps, 1e-6))[1]
        except InvalidRadius:
            break
        if c < eps:
            return Transience.RECURRENT_HEURISTIC
        if prev is not None and abs(c - prev) < eps * c:
            return Transience.TRANSIENT
        prev = c
    return Transience.INCONCLUSIVE


def _unit_current_voltage(
    gen: GraphGenerator, x: int, n: int, tol: float
) -> tuple[float, float, float]:
    """(v_n(x), R_n, pi(x)) for the unit current flow on exhaustion n.

    The flow enters at the root and leaves at the contracted boundary
    ``z_n``, so ``R_n = v_n(root)`` is the resistance R(root <-> z_n).
    """
    if gen.spherically_symmetric:
        rs = np.array([1.0 / gen.shell_conductance(k) for k in range(n + 1)])
        d = gen.depth_of(x)
        return float(rs[d:].sum()), float(rs.sum()), gen.depth_weight(d)
    net, z = exhaustion(gen, n)
    values, conductance = _unit_voltage(net, gen.root, (z,), tol)
    r_eff = 1.0 / conductance
    return float(values[x]) * r_eff, r_eff, float(net.pi[x])


def _limit(gen, x, n_max, tol, quantity):
    _check_positive("tol", tol)
    verdict = classify_transience(gen, n_max=max(n_max, 32))
    if verdict is not Transience.TRANSIENT:
        raise NotTransient(f"transience verdict: {verdict.value}")
    prev = None
    start = gen.depth_of(x) + 1
    last = _radius_budget(gen, max(n_max, start))
    for n in range(start, last + 1):
        vx, va, pi_x = _unit_current_voltage(gen, x, n, tol)
        val = quantity(vx, va, pi_x)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
    raise BudgetExceededWithoutConvergence(
        f"no convergence by radius {last} (n_max={n_max}, last value {prev})"
    )


def green_function(
    gen: GraphGenerator, x: int, n_max: int = 80, tol: float = 1e-8
) -> float:
    """Expected number of visits to x for the walk from the root: pi(x) v(x)."""
    return _limit(gen, x, n_max, tol, lambda vx, va, pi_x: pi_x * vx)


def hitting_probability(
    gen: GraphGenerator, x: int, n_max: int = 80, tol: float = 1e-8
) -> float:
    """P_x(hit the root eventually) = lim v_n(x) / v_n(root); 1 when x is the root."""
    if x == gen.root:
        return 1.0
    return _limit(gen, x, n_max, tol, lambda vx, va, pi_x: vx / va)
