import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import absorbing_hit_probability
from resistive_walks import harmonic
from resistive_walks import (
    BoundarySpec,
    HalfLineGenerator,
    Network,
    Transience,
    TreeGenerator,
    TreeSpec,
    build_network,
    build_tree,
    classify_transience,
    current_flow,
    effective,
    first_at_depth,
    green_function,
    hitting_probability,
    ohm_current,
    oracle_resistance,
    resistance_to_infinity,
    solve_dirichlet,
)
from resistive_walks.errors import (
    BudgetExceededWithoutConvergence,
    EmptyBoundary,
    EmptyTarget,
    InvalidVertex,
    NotTransient,
    SolverDivergence,
    VertexInTarget,
)
from test_network import random_connected_net


def use_solver(monkeypatch, method):
    """Route solves of any size to LU ("direct") or to CG ("cg")."""
    if method == "cg":
        monkeypatch.setattr(harmonic, "DIRECT_LIMIT", 0)


def contracted_tree(q, n):
    """Truncation whose z plays the level-n set: explicit levels 0..n-1."""
    return build_tree(TreeSpec(q, n - 1, contract_boundary=True))


class TestSolveDirichlet:
    def test_path_midpoint(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        v = solve_dirichlet(net, BoundarySpec({0: 1.0, 2: 0.0}))
        assert abs(v[1] - 0.5) < 1e-12

    def test_constant_boundary_gives_constant(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)])
        v = solve_dirichlet(net, BoundarySpec({0: 7.0, 3: 7.0}))
        assert np.allclose(v, 7.0)

    def test_contracted_tree_level1_third(self):
        # 3x3 system solved by hand: v(level 1) = 1/3
        t = contracted_tree(2, 2)
        v = solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}))
        assert abs(v[1] - 1.0 / 3.0) < 1e-12

    def test_empty_boundary(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(EmptyBoundary):
            solve_dirichlet(net, BoundarySpec({}))

    def test_all_clamped(self):
        net = build_network([(0, 1, 1.0)])
        v = solve_dirichlet(net, BoundarySpec({0: 2.0, 1: 5.0}))
        assert list(v) == [2.0, 5.0]

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_unreachable_tol_diverges(self, monkeypatch, method):
        # the residual reached is round-off, ~4e-17, far above this tol
        use_solver(monkeypatch, method)
        t = contracted_tree(2, 4)
        with pytest.raises(SolverDivergence, match="exceeds tol"):
            solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}), tol=1e-300)

    def test_direct_and_cg_agree(self, monkeypatch):
        rng = np.random.default_rng(7)
        net = random_connected_net(rng, 40)
        bc = BoundarySpec({0: 1.0, 39: 0.0})
        tol = 1e-9
        v1 = solve_dirichlet(net, bc, tol=tol)
        use_solver(monkeypatch, "cg")
        v2 = solve_dirichlet(net, bc, tol=tol)
        assert np.max(np.abs(v1 - v2)) < 2 * tol

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_residual_relative_to_voltage_scale(self, monkeypatch, method):
        # an absolute 1e-9 residual is below round-off at 1e9 volts
        use_solver(monkeypatch, method)
        t = build_tree(TreeSpec(2, 8, contract_boundary=True))
        unit = solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}))
        big = solve_dirichlet(t.net, BoundarySpec({0: 1e9, t.z: 0.0}))
        assert np.allclose(big, 1e9 * unit, rtol=1e-9, atol=0.0)

    def test_cg_iterations_scale_invariant(self, monkeypatch):
        # CG stops on the relative target: scaling the boundary values by
        # 1e9 scales the iterates and costs no extra iteration
        iters = []
        cg = spla.cg

        def counted(*args, **kwargs):
            iters.append(0)

            def callback(xk):
                iters[-1] += 1

            return cg(*args, callback=callback, **kwargs)

        monkeypatch.setattr(spla, "cg", counted)
        use_solver(monkeypatch, "cg")
        t = build_tree(TreeSpec(2, 8, contract_boundary=True))
        for scale in (1.0, 1e9):
            solve_dirichlet(t.net, BoundarySpec({0: scale, t.z: 0.0}))
        assert iters[0] == iters[1] > 0

    @pytest.mark.parametrize("x", [-1, "V"])
    def test_clamped_id_out_of_range(self, x):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        x = net.vertex_count if x == "V" else x
        with pytest.raises(InvalidVertex):
            solve_dirichlet(net, BoundarySpec({0: 1.0, x: 0.0}))

    def test_one_laplacian_per_solve(self, monkeypatch):
        calls = []
        laplacian = Network.laplacian

        def counted(net):
            calls.append(net)
            return laplacian(net)

        monkeypatch.setattr(Network, "laplacian", counted)
        t = contracted_tree(2, 4)
        solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}))
        assert len(calls) == 1
        div = np.zeros(t.net.vertex_count)
        div[0], div[t.z] = 1.0, -1.0
        current_flow(t.net, div)
        assert len(calls) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_maximum_principle(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        clamped = {0: float(rng.uniform(-1, 1)), n - 1: float(rng.uniform(-1, 1))}
        v = solve_dirichlet(net, BoundarySpec(clamped))
        lo, hi = min(clamped.values()), max(clamped.values())
        assert v.min() >= lo - 1e-12
        assert v.max() <= hi + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_voltage_is_hit_probability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        net = random_connected_net(rng, n)
        a, z = 0, {n - 1}
        v = solve_dirichlet(net, BoundarySpec({a: 1.0, **{x: 0.0 for x in z}}))
        h = absorbing_hit_probability(net, a, z)
        assert np.max(np.abs(v - h)) < 1e-9


@st.composite
def dirichlet_problems(draw):
    """A connected graph of at most 12 vertices with conductances
    10^U(-3, 3), a proper clamped subset and boundary values up to 1e9."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 12))
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(draw(st.integers(0, 2 * n)), 2))
    pairs += [(int(a), int(b)) for a, b in extra if a != b]
    net = build_network([(a, b, float(10.0 ** rng.uniform(-3, 3))) for a, b in pairs])
    k = draw(st.integers(1, n - 1))
    clamped = rng.choice(n, size=k, replace=False)
    scale = 10.0 ** draw(st.floats(0, 9))
    bc = BoundarySpec({int(x): float(scale * rng.uniform(-1, 1)) for x in clamped})
    return net, bc


def dense_dirichlet(net, bc):
    """The Dirichlet solution by numpy.linalg.solve on a dense Laplacian
    built from the edge list."""
    n = net.vertex_count
    lap = np.zeros((n, n))
    np.add.at(lap, (net.edge_u, net.edge_v), -net.edge_c)
    np.add.at(lap, (net.edge_v, net.edge_u), -net.edge_c)
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    values = np.zeros(n)
    clamped = list(bc.clamped)
    values[clamped] = list(bc.clamped.values())
    free = np.setdiff1d(np.arange(n), clamped)
    rhs = -lap[np.ix_(free, clamped)] @ values[clamped]
    values[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs)
    return values


class TestDenseOracle:
    @pytest.mark.parametrize("method", ["direct", "cg"])
    @given(problem=dirichlet_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve(self, method, problem):
        net, bc = problem
        with pytest.MonkeyPatch.context() as m:
            use_solver(m, method)
            got = solve_dirichlet(net, bc)
        want = dense_dirichlet(net, bc)
        scale = max(1.0, float(np.max(np.abs(want))))
        # the residual is at most 1e-9 * scale; the error may exceed it by
        # the free block's condition number (worst seen in 3000 draws:
        # 1.1e-10 * scale by LU, 5.5e-10 * scale by CG)
        assert np.max(np.abs(got - want)) <= 1e-7 * scale


class TestOhmCurrent:
    def test_single_edge(self):
        net = build_network([(0, 1, 1.0)])
        i = ohm_current(net, np.array([1.0, 0.0]))
        assert i[0] == 1.0

    def test_constant_potential_zero_current(self):
        net = build_network([(0, 1, 2.0), (1, 2, 3.0)])
        assert np.allclose(ohm_current(net, np.full(3, 4.0)), 0.0)

    def test_tree_root_edges_third(self):
        t = contracted_tree(2, 2)
        v = solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}))
        i = ohm_current(net=t.net, values=v)
        strength = effective(t.net, 0, {t.z}).conductance
        unit = i / strength
        for k in t.net.incident_edges(0):
            assert abs(abs(unit[k]) - 1.0 / 3.0) < 1e-12


class TestEffective:
    def test_single_edge(self):
        net = build_network([(0, 1, 1.0)])
        eq = effective(net, 0, {1})
        assert abs(eq.conductance - 1.0) < 1e-12
        assert abs(eq.resistance - 1.0) < 1e-12
        assert abs(eq.escape_probability - 1.0) < 1e-12

    def test_leaf_to_vertex_is_distance(self):
        t = build_tree(TreeSpec(2, 3))
        leaf = int(t.net.vertex_count - 1)
        eq = effective(t.net, leaf, {0})
        assert abs(eq.resistance - 3.0) < 1e-9

    def test_escape_root_to_level2(self):
        t = build_tree(TreeSpec(2, 2))
        from resistive_walks import level_slice

        z = set(int(x) for x in level_slice(t, 2))
        eq = effective(t.net, 0, z)
        assert abs(eq.escape_probability - 2.0 / 3.0) < 1e-12

    def test_errors(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(EmptyTarget):
            effective(net, 0, set())
        with pytest.raises(VertexInTarget):
            effective(net, 0, {0, 1})
        for a in (-1, 2):
            with pytest.raises(InvalidVertex):
                effective(net, a, {1})

    @given(st.integers(0, 2**32 - 1), st.integers(3, 9))
    @settings(max_examples=20, deadline=None)
    def test_reciprocity(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        r1 = effective(net, 0, {n - 1}).resistance
        r2 = effective(net, n - 1, {0}).resistance
        assert abs(r1 - r2) < 1e-9


class TestLimits:
    def test_tree_resistance_to_infinity(self):
        res = resistance_to_infinity(TreeGenerator(2), tol=1e-6)
        assert res.converged
        assert abs(res.value - 2.0 / 3.0) < 1e-5

    def test_tree_q3(self):
        res = resistance_to_infinity(TreeGenerator(3), tol=1e-6)
        assert res.converged
        assert abs(res.value - 3.0 / 8.0) < 1e-5

    def test_half_line_diverges(self):
        res = resistance_to_infinity(HalfLineGenerator(), n_max=50, tol=1e-6)
        assert not res.converged

    def test_monotone_in_radius(self):
        gen = TreeGenerator(2, symmetric=False)
        from resistive_walks.harmonic import _exhaustion_resistance

        rs = [_exhaustion_resistance(gen, n, 1e-9) for n in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))

    def test_classify_tree_transient(self):
        assert classify_transience(TreeGenerator(2)) is Transience.TRANSIENT

    def test_classify_half_line_recurrent(self):
        verdict = classify_transience(HalfLineGenerator(), n_max=300, eps=0.01)
        assert verdict is Transience.RECURRENT_HEURISTIC

    def test_classify_no_trend_inconclusive(self):
        assert classify_transience(HalfLineGenerator(), n_max=1) is Transience.INCONCLUSIVE

    def test_green_values(self):
        gen = TreeGenerator(2)
        assert abs(green_function(gen, 0) - 2.0) < 1e-6
        x2 = first_at_depth(2, 2)
        assert abs(green_function(gen, x2) - 0.5) < 1e-6
        gen3 = TreeGenerator(3)
        assert abs(green_function(gen3, first_at_depth(3, 1)) - 0.5) < 1e-6

    def test_green_requires_transience(self):
        with pytest.raises(NotTransient):
            green_function(HalfLineGenerator(), 0, n_max=40)

    def test_hitting_values(self):
        gen = TreeGenerator(2)
        assert hitting_probability(gen, 0) == 1.0
        assert abs(hitting_probability(gen, first_at_depth(2, 1)) - 0.5) < 1e-6
        gen3 = TreeGenerator(3)
        assert abs(hitting_probability(gen3, first_at_depth(3, 2)) - 1.0 / 9.0) < 1e-6

    def test_generic_route_matches_ladder(self):
        x = first_at_depth(2, 1)
        ladder = green_function(TreeGenerator(2), x, tol=1e-4)
        generic = green_function(TreeGenerator(2, symmetric=False), x, tol=1e-4)
        assert abs(ladder - generic) < 1e-3

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededWithoutConvergence):
            green_function(TreeGenerator(2), 0, n_max=3, tol=1e-12)

    def test_ball_budget_stops_nonsymmetric_limits(self, monkeypatch):
        # at the defaults this climbs to radius ~27 (4e8 vertices) unbudgeted
        monkeypatch.setattr(harmonic, "EXHAUSTION_LIMIT", 5_000)
        built = []
        exhaust = harmonic.exhaustion

        def recording(gen, n):
            built.append(gen.ball_size(n))
            return exhaust(gen, n)

        monkeypatch.setattr(harmonic, "exhaustion", recording)
        gen = TreeGenerator(2, symmetric=False)
        with pytest.raises(BudgetExceededWithoutConvergence):
            green_function(gen, first_at_depth(2, 1))
        # radius 10 (3,070 vertices) is the last ball within the budget
        assert max(built) == 3_070
        built.clear()
        res = resistance_to_infinity(gen, tol=1e-12)
        assert (res.converged, res.n_used, max(built)) == (False, 10, 3_070)
