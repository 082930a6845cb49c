"""Three-way cross-validation battery: closed form vs solver vs Monte Carlo.

Each check produces one row pairing a closed-form value with the solver's
number and, where it makes sense, a seeded Monte Carlo estimate.
Deterministic pairs must agree within the requested tolerance; stochastic
pairs within four standard errors.  The battery is what ``verify`` on the
command line runs, at a configurable scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flows, tree
from .harmonic import effective, green_function, hitting_probability
from .network import build_network
from .tree import TreeGenerator, TreeSpec, build_tree, level_slice
from .walks import WalkConfig, run_walks

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

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "closed_form": self.closed_form,
            "solver_value": self.solver_value,
            "mc_estimate": self.mc_estimate,
            "mc_std_err": self.mc_std_err,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    results: tuple
    exit_status: str  # "pass" | "fail" | "error"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": [r.to_json() for r in self.results],
            "exit_status": self.exit_status,
        }


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
        i = flows.current_flow(net, _unit_div(net))
        perturbed = i + cyc
        gap = flows.thomson_gap(net, perturbed, {0}, {net.vertex_count - 1}, check=False)
        worst_gap = max(worst_gap, abs(gap - flows.energy(net, cyc)))
    rows.append(_row("flow/adjointness_residual", 0.0, worst_adj, tol=1e-10))
    rows.append(_row("flow/decomposition_recombine", 0.0, worst_recombine, tol=1e-10))
    rows.append(_row("flow/decomposition_orthogonality", 0.0, worst_ortho, tol=1e-9))
    rows.append(_row("flow/thomson_gap_pythagoras", 0.0, worst_gap, tol=1e-9))
    return rows


def _unit_div(net):
    div = np.zeros(net.vertex_count)
    div[0] = 1.0
    div[-1] = -1.0
    return div


def run_battery(
    q: int = 2,
    levels: int = 8,
    walks: int = 100_000,
    seed: int = 42,
    tol: float = 1e-9,
    shell: int | None = None,
) -> RunReport:
    """Full concordance battery at the given scale."""
    rows: list[CheckRow] = []
    gen = TreeGenerator(q)
    # comparisons honor the raw tol (tol=0 demonstrates the fail path);
    # the linear solver itself still needs an achievable residual target
    stol = max(tol, 1e-12)

    # resistance ladder: closed form vs ladder arithmetic vs Dirichlet solver
    for n in range(1, levels + 1):
        closed = tree.oracle_resistance(q, n)
        ladder = tree.ladder_resistance(q, n)
        t = build_tree(TreeSpec(q, n - 1, contract_boundary=True))
        solver = effective(t.net, 0, {t.z}, tol=stol).resistance
        rows.append(_row(f"resistance/n={n}", closed, ladder, tol=1e-12))
        rows.append(_row(f"resistance_solver/n={n}", closed, solver, tol=tol))

    # escape probability from the root to the deepest level
    t = build_tree(TreeSpec(q, levels, contract_boundary=False))
    z_set = level_slice(t, levels)
    closed = tree.oracle_finite_escape("a", q, n=levels)
    solver = effective(t.net, 0, z_set.tolist(), tol=stol).escape_probability
    rows.append(_row(f"escape/root_to_level_{levels}", closed, solver, tol=tol))

    # limits via exhaustion: green function and hitting probability
    for d in (0, 1, 2):
        g_closed, h_closed, _ = tree.oracle_green_hitting(q, d)
        x = tree.first_at_depth(q, d)
        rows.append(
            _row(f"green/d={d}", g_closed, green_function(gen, x, tol=1e-8), tol=1e-6)
        )
        if d:
            rows.append(
                _row(
                    f"hitting/d={d}",
                    h_closed,
                    hitting_probability(gen, x, tol=1e-8),
                    tol=1e-6,
                )
            )

    # Monte Carlo concordance on the shell-truncated tree
    if walks > 0:
        L = shell if shell is not None else (20 if q == 2 else 12)
        big = build_tree(TreeSpec(q, L, contract_boundary=False))
        shell_ids = level_slice(big, L)
        bias = float(q) ** (-L)

        x1 = tree.first_at_depth(q, 1)
        cfg = WalkConfig(
            seed=seed,
            num_walks=walks,
            start=0,
            absorbing=shell_ids,
            watch_vertices=(0,),
            watch_edges=((0, x1),),
        )
        stats = run_walks(big.net, cfg)
        g_closed, _, _ = tree.oracle_green_hitting(q, 0)
        est, se = stats.visit_estimate(0)
        rows.append(_row("mc/green_d0", g_closed, mc=est, se=se, bias=bias))
        _, _, s_closed = tree.oracle_green_hitting(q, 0)
        est, se = stats.transition_estimate(0, x1)
        rows.append(_row("mc/transitions_root_edge", s_closed, mc=est, se=se, bias=bias))

        cfg_hit = WalkConfig(
            seed=seed + 1,
            num_walks=walks,
            start=x1,
            absorbing=np.concatenate([[0], shell_ids]),
        )
        stats_hit = run_walks(big.net, cfg_hit)
        _, h_closed, _ = tree.oracle_green_hitting(q, 1)
        est, se = stats_hit.hit_fraction(0)
        rows.append(_row("mc/hitting_d1", h_closed, mc=est, se=se, bias=bias))

    rows.extend(_random_flow_rows(seed, tol))

    status = "pass" if all(r.verdict == "pass" for r in rows) else "fail"
    return RunReport(
        command="verify",
        inputs={"q": q, "levels": levels, "walks": walks, "seed": seed, "tol": tol},
        results=tuple(rows),
        exit_status=status,
    )
