"""The four benchmark workloads: their seeded inputs, reference values and runs.

Every random input derives from the workload seed through :func:`derive`.
A workload run returns nothing; it reports each operation it attempted,
with the problems its checks found, to a :class:`Recorder`, and feeds the
bytes of its seeded outputs into the recorder's digest.

Checks use plain numpy on the returned values, never the library's own
helpers, so a traced run records spans only for the work being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from resistive_walks import cli, flows, harmonic, network, tree, walks
from resistive_walks.generators import FiniteBallGenerator

NAMES = ("tree_cli", "solve", "limits", "walk_dense")

# solve: one grid on each side of harmonic.DIRECT_LIMIT (50k free vertices)
CG_GRID = 300
LU_GRID = 200
TREE_SOLVE = (2, 16)
# tree_cli: the simulate half of the end-to-end path
TREE_SIM = (2, 20)
TREE_SIM_WALKS = 100_000
# limits
GREEN_TOL = 1e-5
BALL_GRID = 80
# walk_dense: K_200 from vertex 1, absorbed at 0, so absorption time is
# geometric with p = 1/199.  The step budget censors ~0.6% of the walks;
# without it the run time would follow the seed-dependent longest walk.
DENSE_N = 200
DENSE_WALKS = 2000
DENSE_MAX_STEPS = 1000


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for one input, a pure function of (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def grid_edges(n: int, seed: int, label: str):
    """(u, v, c) of an n x n grid with seeded conductances in [0.5, 2)."""
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    c = np.random.default_rng(derive(seed, label)).uniform(0.5, 2.0, size=len(u))
    return u, v, c


def _write_grid_json(path: Path, n: int, u, v, c) -> None:
    edges = [{"u": a, "v": b, "c": w} for a, b, w in zip(u.tolist(), v.tolist(), c.tolist())]
    path.write_text(json.dumps({"vertices": n * n, "edges": edges}))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate a workload's inputs: grid JSON files and in-memory networks."""
    workdir.mkdir(parents=True, exist_ok=True)
    inp = {"seed": seed}
    if workload == "tree_cli":
        inp["verify_seed"] = derive(seed, "verify")
        inp["simulate_seed"] = derive(seed, "simulate")
    elif workload == "solve":
        for n in (CG_GRID, LU_GRID):
            u, v, c = grid_edges(n, seed, f"grid{n}")
            path = workdir / f"grid{n}.json"
            _write_grid_json(path, n, u, v, c)
            inp[f"grid{n}"] = str(path)
        u, v, c = grid_edges(LU_GRID, seed, f"grid{LU_GRID}")
        inp["net"] = network.build_network(zip(u.tolist(), v.tolist(), c.tolist()))
        rng = np.random.default_rng(derive(seed, "theta"))
        inp["theta"] = rng.normal(size=inp["net"].edge_count)
    elif workload == "limits":
        u, v, c = grid_edges(BALL_GRID, seed, "ball")
        inp["net"] = network.build_network(zip(u.tolist(), v.tolist(), c.tolist()))
        inp["centre"] = (BALL_GRID // 2) * BALL_GRID + BALL_GRID // 2
    elif workload == "walk_dense":
        iu, iv = np.triu_indices(DENSE_N, 1)
        inp["net"] = network.build_network(zip(iu.tolist(), iv.tolist(), [1.0] * len(iu)))
        inp["walk_seed"] = derive(seed, "walks")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


def two_point_resistance(n_vertices: int, u, v, c, a: int, z: int) -> float:
    """R(a <-> z) by a direct scipy solve, independent of the library."""
    lap = sp.coo_matrix(
        (np.concatenate([-c, -c, c, c]),
         (np.concatenate([u, v, u, v]), np.concatenate([v, u, u, v]))),
        shape=(n_vertices, n_vertices),
    ).tocsc()
    keep = np.flatnonzero(np.arange(n_vertices) != z)
    rhs = (keep == a).astype(float)
    volts = spla.spsolve(lap[keep][:, keep], rhs)
    return float(volts[np.searchsorted(keep, a)])


def expected_values(workload: str, seed: int) -> dict:
    """Reference values the checks compare against (computed untimed)."""
    if workload == "solve":
        out = {"tree": tree.oracle_resistance(*TREE_SOLVE)}
        for n in (CG_GRID, LU_GRID):
            u, v, c = grid_edges(n, seed, f"grid{n}")
            out[f"grid{n}"] = two_point_resistance(n * n, u, v, c, 0, n * n - 1)
        return out
    if workload == "limits":
        u, v, c = grid_edges(BALL_GRID, seed, "ball")
        centre = (BALL_GRID // 2) * BALL_GRID + BALL_GRID // 2
        # vertex 0 is the one vertex farthest (distance BALL_GRID) from the
        # centre, so the last exhaustion before the ball covers the grid is
        # the two-point problem centre <-> 0
        return {
            "green": tree.oracle_green_hitting(2, 1)[0],
            "r_far": two_point_resistance(BALL_GRID**2, u, v, c, centre, 0),
            "n_used": BALL_GRID,
        }
    if workload == "walk_dense":
        p = 1.0 / (DENSE_N - 1)
        return {"mean_steps": (1.0 - (1.0 - p) ** DENSE_MAX_STEPS) / p}
    return {}


class Recorder:
    """Counts operations, collects their failures and digests their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.facts: dict = {}
        self._digest = hashlib.sha256()

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation; the body appends a message per failed check."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:  # a raising operation is a failure to record, not to stop on
            problems.append(traceback.format_exc(limit=3))
        if problems:
            self.failures.append({"op": name, "problems": problems})

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part).tobytes()
            elif isinstance(part, str):
                part = part.encode()
            else:
                part = repr(part).encode()
            self._digest.update(part)

    def take_digest(self) -> str:
        """Digest of everything fed since the last call."""
        out = self._digest.hexdigest()
        self._digest = hashlib.sha256()
        return out


def run_cli(rec: Recorder, argv: list[str], problems: list[str]) -> dict | None:
    """Run ``resistive_walks.cli.main(argv)``; returns its JSON output on exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    rec.feed(out.getvalue())
    if code != 0:
        problems.append(f"exit {code}: {err.getvalue().strip()[-500:]}")
        return None
    return json.loads(out.getvalue())


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def run_tree_cli(inp: dict, exp: dict, rec: Recorder) -> None:
    with rec.op("cli verify") as problems:
        doc = run_cli(rec, ["verify", "--seed", str(inp["verify_seed"])], problems)
        if doc is not None:
            bad = [r["quantity"] for r in doc["results"] if r["verdict"] != "pass"]
            if bad or doc["exit_status"] != "pass":
                problems.append(f"rows not passing: {bad}")
    q, levels = TREE_SIM
    argv = ["simulate", "--tree", f"{q},{levels}", "--absorb-level", str(levels),
            "--walks", str(TREE_SIM_WALKS), "--seed", str(inp["simulate_seed"])]
    with rec.op("cli simulate") as problems:
        doc = run_cli(rec, argv, problems)
        if doc is not None:
            hits = sum(doc["hits"].values())
            if hits != TREE_SIM_WALKS or doc["censored"] != 0:
                problems.append(f"hits {hits}, censored {doc['censored']}")


def run_solve(inp: dict, exp: dict, rec: Recorder) -> None:
    q, levels = TREE_SOLVE
    cases = [
        ("tree", ["--tree", f"{q},{levels}", "--source", "0", "--target-set", f"level:{levels}"]),
    ]
    for n in (CG_GRID, LU_GRID):
        cases.append((f"grid{n}", ["--network", inp[f"grid{n}"], "--source", "0",
                                    "--target-set", str(n * n - 1)]))
    for key, args in cases:
        with rec.op(f"cli resist {key}") as problems:
            doc = run_cli(rec, ["resist", *args], problems)
            if doc is not None and not _close(doc["resistance"], exp[key], 1e-6):
                problems.append(f"resistance {doc['resistance']!r} != {exp[key]!r}")

    net, theta = inp["net"], inp["theta"]
    a, z = 0, net.vertex_count - 1
    u, v, c = net.edge_u, net.edge_v, net.edge_c

    def div_of(flow):
        n = net.vertex_count
        return np.bincount(u, flow, n) - np.bincount(v, flow, n)

    cyc = current = None
    with rec.op("decompose_star_cycle") as problems:
        star, cyc = flows.decompose_star_cycle(net, theta)
        rec.feed(star, cyc)
        if np.max(np.abs(star + cyc - theta)) > 1e-9:
            problems.append("star + cycle != theta")
        if abs(np.sum(star * cyc / c)) > 1e-9 * np.sum(theta * theta / c):
            problems.append("star and cycle parts not r-orthogonal")
    with rec.op("current_flow") as problems:
        unit = np.zeros(net.vertex_count)
        unit[a], unit[z] = 1.0, -1.0
        current = flows.current_flow(net, unit)
        rec.feed(current)
        if np.max(np.abs(div_of(current) - unit)) > 1e-9:
            problems.append("divergence of the current flow is not the unit source")
        if not _close(np.sum(current * current / c), exp[f"grid{LU_GRID}"], 1e-6):
            problems.append("energy of the unit current != reference resistance")
    with rec.op("verify_kirchhoff") as problems:
        rep = flows.verify_kirchhoff(net, current, exempt=(a, z))
        rec.feed(rep.node_residual, rep.cycle_residual)
        if rep.node_residual > 1e-9 or rep.cycle_residual > 1e-9:
            problems.append(f"Kirchhoff residuals {rep}")
    with rec.op("validate_flow") as problems:
        report = flows.validate_flow(net, current, {a}, {z}, tol=1e-9)
        if not report.ok:
            problems.append(f"violations {report.violations[:3]}")
    with rec.op("thomson_gap") as problems:
        gap = flows.thomson_gap(net, current + cyc, {a}, {z})
        rec.feed(gap)
        cyc_energy = float(np.sum(cyc * cyc / c))
        if not _close(gap, cyc_energy, 1e-9):
            problems.append(f"gap {gap!r} != cycle energy {cyc_energy!r}")


def run_limits(inp: dict, exp: dict, rec: Recorder) -> None:
    with rec.op("green_function") as problems:
        gen = tree.TreeGenerator(2, symmetric=False)
        g = harmonic.green_function(gen, tree.first_at_depth(2, 1), tol=GREEN_TOL)
        rec.feed(g)
        if abs(g - exp["green"]) > GREEN_TOL:
            problems.append(f"green {g!r} != {exp['green']!r}")
    with rec.op("resistance_to_infinity") as problems:
        gen = FiniteBallGenerator(inp["net"], inp["centre"])
        lim = harmonic.resistance_to_infinity(gen, n_max=400, tol=1e-9)
        rec.feed(lim.value, lim.converged, lim.n_used)
        if lim.n_used != exp["n_used"] or lim.converged:
            problems.append(f"exhaustion stopped at {lim}")
        if not _close(lim.value, exp["r_far"], 1e-7):
            problems.append(f"resistance {lim.value!r} != {exp['r_far']!r}")


def run_walk_dense(inp: dict, exp: dict, rec: Recorder) -> None:
    cfg = walks.WalkConfig(
        seed=inp["walk_seed"], num_walks=DENSE_WALKS, start=1, absorbing=(0,),
        max_steps=DENSE_MAX_STEPS, watch_edges=((1, 0),),
        track_visits=True, track_transitions=True,
    )
    with rec.op("run_walks") as problems:
        stats = walks.run_walks(inp["net"], cfg)
        rec.feed(stats.absorbed_at, stats.steps, stats.transition_pairs,
                 stats.transition_counts, stats.visits, stats.watch_edge_counts)
        total = int(stats.steps.sum())
        rec.facts["walk_steps"] = total
        mean = total / DENSE_WALKS
        se = float(np.std(stats.steps, ddof=1)) / math.sqrt(DENSE_WALKS)
        if abs(mean - exp["mean_steps"]) > 4.0 * se:
            problems.append(f"mean absorption time {mean} vs {exp['mean_steps']} (se {se})")
        if int(stats.transition_counts.sum()) != total:
            problems.append("transition counts do not sum to the steps taken")
        if int(stats.visits.sum()) != total + DENSE_WALKS:
            problems.append("visits do not sum to steps plus walks")


RUNS = {
    "tree_cli": run_tree_cli,
    "solve": run_solve,
    "limits": run_limits,
    "walk_dense": run_walk_dense,
}


def sizes(workload: str, inp: dict) -> dict:
    """Problem sizes recorded with every result."""
    if workload == "tree_cli":
        q, levels = TREE_SIM
        n = tree.tree_vertex_count(q, levels)
        return {"simulate_tree_vertices": n, "simulate_tree_edges": n - 1,
                "simulate_walks": TREE_SIM_WALKS, "verify_walks": 2 * 100_000}
    if workload == "solve":
        q, levels = TREE_SOLVE
        n_tree = tree.tree_vertex_count(q, levels)
        level = (q + 1) * q ** (levels - 1)
        out = {"tree_vertices": n_tree, "tree_free_vertices": n_tree - level - 1}
        for n in (CG_GRID, LU_GRID):
            out[f"grid{n}_vertices"] = n * n
            out[f"grid{n}_edges"] = 2 * n * (n - 1)
            out[f"grid{n}_free_vertices"] = n * n - 2
        return out
    if workload == "limits":
        net = inp["net"]
        return {"ball_grid_vertices": net.vertex_count, "ball_grid_edges": net.edge_count}
    net = inp["net"]
    return {"vertices": net.vertex_count, "edges": net.edge_count,
            "walks": DENSE_WALKS, "max_steps": DENSE_MAX_STEPS}
