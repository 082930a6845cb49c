"""End-to-end acceptance battery.

Each test checks one published criterion at its stated tolerance and
prints a single pass/fail line.  The suite cross-validates three
independent routes to the same numbers: closed-form arithmetic, the
Dirichlet solver, and the seeded Monte Carlo engine.
"""

import time

import numpy as np

from oracles import absorbing_hit_probability, connected_unit_graphs
from resistive_walks import (
    BoundarySpec,
    TreeGenerator,
    TreeSpec,
    WalkConfig,
    build_network,
    build_tree,
    current_flow,
    decompose_star_cycle,
    effective,
    energy,
    estimate_green,
    estimate_hitting,
    estimate_transitions,
    first_at_depth,
    green_function,
    inner_r,
    ladder_resistance,
    level_slice,
    ohm_current,
    oracle_finite_escape,
    oracle_potential_current,
    oracle_resistance,
    solve_dirichlet,
    thomson_gap,
)
from resistive_walks import harmonic
from resistive_walks.flows import adjointness_residual
from test_tree import outside_branch


def _report(name, ok, detail=""):
    line = f"{name}: {'pass' if ok else 'fail'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_net(rng, n):
    triples = [(i, i + 1, float(rng.uniform(0.1, 10.0))) for i in range(n - 1)]
    extra = rng.integers(0, n, size=(2 * n, 2))
    triples += [
        (int(a), int(b), float(rng.uniform(0.1, 10.0))) for a, b in extra if a != b
    ]
    return build_network(triples)


def test_01_resistance_ladder():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            t = build_tree(TreeSpec(q, n - 1, contract_boundary=True))
            solver = effective(t.net, 0, {t.z}).resistance
            worst = max(worst, abs(solver - oracle_resistance(q, n)))
    elapsed = time.perf_counter() - t0
    _report(
        "1 resistance ladder q=2..5 n=1..8",
        worst < 1e-9 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_02_ladder_limits():
    e2 = abs(ladder_resistance(2, 21) - 2.0 / 3.0)
    e3 = abs(ladder_resistance(3, 13) - 3.0 / 8.0)
    _report("2 ladder limit values", e2 < 1e-6 and e3 < 1e-6, f"{e2:.2e}, {e3:.2e}")


def test_03_unit_currents_exact():
    q, n = 2, 6
    t = build_tree(TreeSpec(q, n))
    z = {int(x) for x in level_slice(t, n)}
    bc = BoundarySpec({0: 1.0, **{x: 0.0 for x in z}})
    v = solve_dirichlet(t.net, bc, tol=1e-12)
    i = ohm_current(t.net, v) * effective(t.net, 0, z).resistance
    depth_top = np.minimum(t.depth_of(t.net.edge_u), t.depth_of(t.net.edge_v))
    expected = np.array([oracle_potential_current(q, int(d))[1] for d in depth_top])
    worst = float(np.max(np.abs(np.abs(i) - expected)))
    _report("3 unit currents on the 6-level tree", worst < 1e-9, f"worst={worst:.2e}")


def test_04_green_function_limits():
    worst = 0.0
    for q in (2, 3):
        gen = TreeGenerator(q)
        for d in range(4):
            got = green_function(gen, first_at_depth(q, d), tol=1e-8)
            want = q / (q - 1) * q ** (-float(d))
            worst = max(worst, abs(got - want))
    _report("4 green function q=2,3 d=0..3", worst < 1e-6, f"worst={worst:.2e}")


def test_05_hitting_vector_surrogate():
    q, L = 2, 20
    t = build_tree(TreeSpec(q, L))
    z = {int(x) for x in level_slice(t, L)}
    bc = BoundarySpec({0: 1.0, **{x: 0.0 for x in z}})
    v = solve_dirichlet(t.net, bc, tol=1e-9)
    worst = 0.0
    for d in (1, 2, 3):
        got = float(v[first_at_depth(q, d)])
        worst = max(worst, abs(got - q ** (-float(d))))
    _report("5 hitting vector surrogate d=1..3", worst < 1e-4, f"worst={worst:.2e}")


def test_06_escape_probabilities():
    q = 2
    worst = 0.0
    # a: root against the full level-n set
    for n in (2, 3, 4):
        t = build_tree(TreeSpec(q, n))
        z = {int(x) for x in level_slice(t, n)}
        got = effective(t.net, 0, z).escape_probability
        worst = max(worst, abs(got - oracle_finite_escape("a", q, n=n)))
    # b: level-n leaf against everything outside its branch
    for n in (2, 3, 4):
        t = build_tree(TreeSpec(q, n))
        a = first_at_depth(q, n)
        got = effective(t.net, a, outside_branch(t, a)).escape_probability
        worst = max(worst, abs(got - oracle_finite_escape("b", q, n=n)))
    # c: same target set, but with levels below a
    for n in (2, 3, 4):
        t = build_tree(TreeSpec(q, n + 3))
        a = first_at_depth(q, n)
        got = effective(t.net, a, outside_branch(t, a)).escape_probability
        worst = max(worst, abs(got - oracle_finite_escape("c", q, n=n)))
    # d/e: single-vertex targets at distances 1..4 from a leaf / an interior vertex
    t = build_tree(TreeSpec(q, 4))
    leaf = int(t.net.vertex_count - 1)
    x1 = first_at_depth(q, 1)
    for target, dist in [
        (int(t.parent_of(leaf)), 1),
        (int(t.parent_of(t.parent_of(leaf))), 2),
        (3, 3),
        (0, 4),
    ]:
        got = effective(t.net, leaf, {target}).escape_probability
        worst = max(worst, abs(got - oracle_finite_escape("d", q, dist=dist)))
    for target, dist in [
        (0, 1),
        (2, 2),
        (first_at_depth(q, 3), 2),
        (first_at_depth(q, 4), 3),
    ]:
        got = effective(t.net, x1, {target}).escape_probability
        worst = max(worst, abs(got - oracle_finite_escape("e", q, dist=dist)))
    _report("6 escape probabilities cases a-e", worst < 1e-9, f"worst={worst:.2e}")


def test_07_monte_carlo_concordance():
    t0 = time.perf_counter()
    q, L, walks, seed = 2, 20, 100_000, 42
    t = build_tree(TreeSpec(q, L))
    shell = tuple(int(x) for x in level_slice(t, L))
    x1 = first_at_depth(q, 1)

    cfg = WalkConfig(seed=seed, num_walks=walks, start=x1, absorbing=shell)
    hit, hit_se = estimate_hitting(t.net, cfg, 0)
    cfg = WalkConfig(seed=seed, num_walks=walks, start=0, absorbing=shell)
    green, green_se = estimate_green(t.net, cfg, 0)
    trans, trans_se = estimate_transitions(t.net, cfg, x1, 0)

    ok_hit = abs(hit - 0.5) < 3 * hit_se
    ok_green = abs(green - 2.0) < 3 * green_se
    ok_trans = abs(trans - 1.0 / 3.0) < 3 * trans_se
    elapsed = time.perf_counter() - t0
    _report(
        "7 Monte Carlo concordance (seed 42, 1e5 walks, L=20)",
        ok_hit and ok_green and ok_trans and elapsed < 60.0,
        f"hit={hit:.4f}±{hit_se:.4f}, green={green:.4f}±{green_se:.4f}, "
        f"trans={trans:.4f}±{trans_se:.4f}, {elapsed:.1f}s",
    )


def test_08_flow_calculus_properties():
    rng = np.random.default_rng(2024)
    worst_adj = worst_rec = worst_ortho = 0.0
    nets = [_random_net(rng, int(rng.integers(4, 13))) for _ in range(50)]
    for net in nets:
        theta = rng.normal(size=net.edge_count)
        f = rng.normal(size=net.vertex_count)
        worst_adj = max(worst_adj, adjointness_residual(net, theta, f))
        star, cyc = decompose_star_cycle(net, theta)
        worst_rec = max(worst_rec, float(np.max(np.abs(star + cyc - theta))))
        worst_ortho = max(worst_ortho, abs(inner_r(net, star, cyc)))

    min_gap = np.inf
    strict_ok = True
    for k in range(100):
        net = nets[k % len(nets)]
        div = np.zeros(net.vertex_count)
        div[0], div[-1] = 1.0, -1.0
        i = current_flow(net, div)
        _, cyc = decompose_star_cycle(net, rng.normal(size=net.edge_count))
        gap = thomson_gap(net, i + cyc, {0}, {net.vertex_count - 1}, check=False)
        min_gap = min(min_gap, gap)
        if energy(net, cyc) > 1e-4 and gap <= 1e-6:
            strict_ok = False
    ok = (
        worst_adj < 1e-10
        and worst_rec < 1e-10
        and worst_ortho < 1e-10
        and min_gap >= -1e-10
        and strict_ok
    )
    _report(
        "8 flow calculus on 50 random graphs",
        ok,
        f"adj={worst_adj:.1e}, rec={worst_rec:.1e}, "
        f"ortho={worst_ortho:.1e}, min_gap={min_gap:.1e}",
    )


def test_09_maximum_and_uniqueness(monkeypatch):
    rng = np.random.default_rng(2024)
    ok = True
    tol = 1e-9
    for _ in range(50):
        n = int(rng.integers(4, 13))
        net = _random_net(rng, n)
        clamped = {0: float(rng.uniform(-1, 1)), n - 1: float(rng.uniform(-1, 1))}
        bc = BoundarySpec(clamped)
        v = solve_dirichlet(net, bc, tol=tol)  # sparse LU at this size
        lo, hi = min(clamped.values()), max(clamped.values())
        ok &= v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12
        with monkeypatch.context() as m:
            m.setattr(harmonic, "DIRECT_LIMIT", 0)  # CG at every size
            v_cg = solve_dirichlet(net, bc, tol=tol)
        ok &= float(np.max(np.abs(v - v_cg))) < 2 * tol
    _report("9 maximum principle and uniqueness", ok)


def test_10_brute_force_oracle_equivalence():
    worst = 0.0
    count = 0
    for net in connected_unit_graphs(5):
        n = net.vertex_count
        a, z = 0, {n - 1}
        if a in z:
            continue
        bc = BoundarySpec({a: 1.0, **{x: 0.0 for x in z}})
        v = solve_dirichlet(net, bc, tol=1e-11)
        h = absorbing_hit_probability(net, a, z)
        worst = max(worst, float(np.max(np.abs(v - h))))
        count += 1
    _report(
        "10 brute-force equivalence on all graphs <= 5 vertices",
        worst < 1e-9 and count > 0,
        f"{count} graphs, worst={worst:.2e}",
    )
