"""Three-way cross-validation battery: closed form vs solver vs Monte Carlo.

Each check produces one row pairing a closed-form value with the solver's
number and, where it makes sense, a seeded Monte Carlo estimate.
Deterministic pairs must agree within the requested tolerance; stochastic
pairs within four standard errors.  The battery is what ``verify`` on the
command line runs, at a configurable scale.

The resistance and escape rows read one solve of the exhaustion of radius
``levels - 1``; the resistance_solver rows below ``levels`` read ``R_n =
v[0]`` from one shell sweep of the root's column.  One limit sweep of the
columns ``[0, 1]`` gives the Green and hitting rows, and one batch of walks
from the root to level L, the deepest within ``EXHAUSTION_LIMIT`` vertices,
the Monte Carlo rows: the root's visits, its edge's transitions and, by a
second root visit, the hitting from depth 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flows, tree
from .errors import InvalidSpec
from .generators import exhaustion
from .harmonic import EXHAUSTION_LIMIT, _limit, _terms, unit_voltage
from .network import _check_int, build_network
from .tree import TreeGenerator, TreeSpec, level_slice, tree_vertex_count
from .walks import WalkConfig, _share, run_walks

__all__ = ["CheckRow", "RunReport", "run_battery"]

_MC_SIGMAS = 4.0


@dataclass(frozen=True)
class CheckRow:
    quantity: str
    closed_form: float
    solver_value: float | None
    mc_estimate: float | None
    mc_std_err: float | None
    verdict: str  # "pass" | "fail"


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    results: tuple
    exit_status: str  # "pass" | "fail" | "error"


def _row(quantity, closed, solver=None, mc=None, se=None, tol=1e-9, bias=0.0):
    ok = True
    if solver is not None:
        ok &= abs(solver - closed) <= tol + bias
    if mc is not None:
        ok &= abs(mc - closed) <= _MC_SIGMAS * se + bias + 1e-12
    return CheckRow(
        quantity=quantity,
        closed_form=float(closed),
        solver_value=None if solver is None else float(solver),
        mc_estimate=None if mc is None else float(mc),
        mc_std_err=None if se is None else float(se),
        verdict="pass" if ok else "fail",
    )


def _random_flow_rows(q_seed: int, tol: float) -> list[CheckRow]:
    """Flow-calculus identities on a few random weighted graphs."""
    rng = np.random.default_rng(q_seed)
    rows = []
    worst_adj = worst_recombine = worst_ortho = worst_gap = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 12))
        triples = [(i, i + 1, float(rng.uniform(0.1, 10.0))) for i in range(n - 1)]
        extra = rng.integers(0, n, size=(2 * n, 2))
        triples += [
            (int(a), int(b), float(rng.uniform(0.1, 10.0)))
            for a, b in extra
            if a != b
        ]
        net = build_network(triples)
        theta = rng.normal(size=net.edge_count)
        f = rng.normal(size=net.vertex_count)
        worst_adj = max(worst_adj, flows.adjointness_residual(net, theta, f))
        star, cyc = flows.decompose_star_cycle(net, theta)
        worst_recombine = max(
            worst_recombine, float(np.max(np.abs(star + cyc - theta)))
        )
        worst_ortho = max(worst_ortho, abs(flows.inner_r(net, star, cyc)))
        div = np.zeros(net.vertex_count)
        div[[0, -1]] = 1.0, -1.0
        i = flows.current_flow(net, div)
        perturbed = i + cyc
        gap = flows.thomson_gap(net, perturbed, {0}, {net.vertex_count - 1})
        worst_gap = max(worst_gap, abs(gap - flows.energy(net, cyc)))
    rows.append(_row("flow/adjointness_residual", 0.0, worst_adj, tol=1e-10))
    rows.append(_row("flow/decomposition_recombine", 0.0, worst_recombine, tol=1e-10))
    rows.append(_row("flow/decomposition_orthogonality", 0.0, worst_ortho, tol=1e-9))
    rows.append(_row("flow/thomson_gap_pythagoras", 0.0, worst_gap, tol=1e-9))
    return rows


def run_battery(
    q: int = 2,
    levels: int = 8,
    walks: int = 100_000,
    seed: int = 42,
    tol: float = 1e-9,
) -> RunReport:
    """Full concordance battery at the given scale.  ``levels`` and
    ``walks`` must be >= 1, ``seed`` >= 0, as numpy's generators refuse a
    negative seed, ``tol`` finite and >= 0, and the level-``levels`` tree of
    ``q`` at most ``EXHAUSTION_LIMIT`` vertices; else InvalidSpec."""
    levels = _check_int("levels", levels, 1)
    walks, seed = _check_int("walks", walks, 1), _check_int("seed", seed)
    if not 0 <= tol < np.inf:  # also refuses NaN
        raise InvalidSpec(f"tol must be finite and >= 0, got {tol}")
    size = tree_vertex_count(q, levels)
    if size > EXHAUSTION_LIMIT:
        raise InvalidSpec(f"the level-{levels} tree of q={q} has {size} vertices, "
                          f"more than EXHAUSTION_LIMIT = {EXHAUSTION_LIMIT}")
    rows: list[CheckRow] = []
    gen = TreeGenerator(q)
    # comparisons honor the raw tol (tol=0 demonstrates the fail path);
    # the linear solver itself still needs an achievable residual target
    stol = max(tol, 1e-12)

    # exhaustion n is the level-(n + 1) tree with that level shorted into z,
    # id first_at_depth(q, n + 1); a level carries one voltage, so shorting
    # it changes none, and one solve, the root at 1 and z at 0, gives every
    # R(root <-> level n) = (1 - v(level n)) / C
    net, z = exhaustion(gen, levels - 1)
    values, eq = unit_voltage(net, 0, (z,), stol)
    solver = [float(t.v[0]) for t in _terms(gen, np.array([0]), 0, levels - 2, stol)]
    solver.append(eq.resistance)
    for n, r in enumerate(solver, 1):
        closed = tree.oracle_resistance(q, n)
        level_n = (1.0 - values[tree.first_at_depth(q, n)]) / eq.conductance
        rows.append(_row(f"resistance/n={n}", closed, level_n, tol=1e-12))
        rows.append(_row(f"resistance_solver/n={n}", closed, r, tol=tol))

    closed = tree.oracle_finite_escape("a", q, n=levels)
    rows.append(_row(f"escape/root_to_level_{levels}", closed, eq.escape_probability, tol=tol))

    # limits via exhaustion: one limit call gives v, R and pi(x) at each
    # depth, so the Green function pi(x) v and the hitting probability v / R
    limits = _limit(gen, [tree.first_at_depth(q, d) for d in (0, 1, 2)], 80, 1e-8)
    for d, (v, r, pi_x) in enumerate(limits):
        g_closed, h_closed, _ = tree.oracle_green_hitting(q, d)
        rows.append(_row(f"green/d={d}", g_closed, pi_x * v, tol=1e-6))
        if d:
            rows.append(_row(f"hitting/d={d}", h_closed, v / r, tol=1e-6))

    # Monte Carlo concordance: one batch from the root, absorbed at level L,
    # the deepest whose tree holds at most EXHAUSTION_LIMIT vertices
    L = levels
    while tree_vertex_count(q, L + 1) <= EXHAUSTION_LIMIT:
        L += 1
    big = TreeSpec(q, L)  # walked by arithmetic, never built
    bias = float(q) ** (-L)
    x1 = tree.first_at_depth(q, 1)
    cfg = WalkConfig(seed=seed, num_walks=walks, start=0, absorbing=level_slice(big, L),
                     watch_vertices=(0,), watch_edges=((0, x1),))
    stats = run_walks(big, cfg)
    g_closed, _, s_closed = tree.oracle_green_hitting(q, 0)
    est, se = stats.visit_estimate(0)
    rows.append(_row("mc/green_d0", g_closed, mc=est, se=se, bias=bias))
    est, se = stats.transition_estimate(0, x1)
    rows.append(_row("mc/transitions_root_edge", s_closed, mc=est, se=se, bias=bias))
    # the first step lands at depth 1, so a second root visit is x1 hitting the
    # root before level L: (1/q - q^-L)/(1 - q^-L), within q^-L of 1/q
    _, h_closed, _ = tree.oracle_green_hitting(q, 1)
    p, se = _share(np.count_nonzero(stats.watch_visit_counts[:, 0] >= 2), walks)
    rows.append(_row("mc/hitting_d1", h_closed, mc=p, se=se, bias=bias))

    rows.extend(_random_flow_rows(seed, tol))

    status = "pass" if all(r.verdict == "pass" for r in rows) else "fail"
    return RunReport(
        command="verify",
        inputs={"q": q, "levels": levels, "walks": walks, "seed": seed, "tol": tol},
        results=tuple(rows),
        exit_status=status,
    )
