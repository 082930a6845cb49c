import gc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import absorbing_hit_probability
from resistive_walks import harmonic
from resistive_walks import (
    BoundarySpec,
    FiniteBallGenerator,
    HalfLineGenerator,
    Network,
    TreeGenerator,
    TreeSpec,
    build_network,
    build_tree,
    current_flow,
    decompose_star_cycle,
    effective,
    exhaustion,
    first_at_depth,
    green_function,
    level_slice,
    hitting_probability,
    ohm_current,
    oracle_green_hitting,
    oracle_resistance,
    resistance_to_infinity,
    solve_dirichlet,
    thomson_gap,
    unit_voltage,
)
from resistive_walks.errors import (
    BudgetExceededWithoutConvergence,
    DisconnectedGraph,
    EmptyInput,
    InvalidSpec,
    InvalidVertex,
    NetworkError,
    NotTransient,
    SolverDivergence,
    VertexInTarget,
)
from resistive_walks.network import _assemble
from test_network import random_connected_net


def record_radii(monkeypatch, gen):
    """The radii whose edges ``gen`` is asked for, by an exhaustion or by
    the shell recursion, in a list that grows as they are asked for."""
    radii = []
    ball_edges = gen.ball_edges

    def recording(n):
        radii.append(n)
        return ball_edges(n)

    monkeypatch.setattr(gen, "ball_edges", recording)
    return radii


def grid_net(n, seed):
    """An n x n grid with conductances U(0.5, 2) drawn from ``seed``."""
    idx = np.arange(n * n).reshape(n, n)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    c = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(u))
    return build_network(zip(u.tolist(), v.tolist(), c.tolist()))


def contracted_tree(q, n):
    """``(net, z)`` of the truncation whose z plays the level-n set:
    explicit levels 0..n-1."""
    return exhaustion(TreeGenerator(q), n - 1)


class TestSolveDirichlet:
    def test_path_midpoint(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        v = solve_dirichlet(net, BoundarySpec([0, 2], [1.0, 0.0]))
        assert abs(v[1] - 0.5) < 1e-12

    def test_constant_boundary_gives_constant(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)])
        v = solve_dirichlet(net, BoundarySpec([0, 3], [7.0, 7.0]))
        assert np.allclose(v, 7.0)

    def test_contracted_tree_level1_third(self):
        # 3x3 system solved by hand: v(level 1) = 1/3
        net, z = contracted_tree(2, 2)
        v = solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
        assert abs(v[1] - 1.0 / 3.0) < 1e-12

    def test_empty_boundary(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(EmptyInput):
            solve_dirichlet(net, BoundarySpec([], []))

    def test_repeated_id_with_one_voltage(self):
        net = build_network([(0, 1, 1.0), (1, 2, 2.0)])
        once = solve_dirichlet(net, BoundarySpec([0, 2], [1.0, 0.0]))
        twice = solve_dirichlet(net, BoundarySpec([0, 0, 2], [1.0, 1.0, 0.0]))
        assert np.array_equal(twice, once)

    def test_dict_alone_is_refused(self):
        # the ids and their voltages are two arguments; a dict of both is not
        with pytest.raises(TypeError, match="values"):
            BoundarySpec({0: 1.0, 2: 0.0})

    def test_all_clamped(self):
        net = build_network([(0, 1, 1.0)])
        v = solve_dirichlet(net, BoundarySpec([0, 1], [2.0, 5.0]))
        assert list(v) == [2.0, 5.0]

    def test_unreachable_tol_diverges(self):
        # the residual reached is round-off, ~4e-17, far above this tol
        net, z = contracted_tree(2, 4)
        with pytest.raises(SolverDivergence, match="exceeds tol"):
            solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]), tol=1e-300)

    def test_residual_relative_to_voltage_scale(self):
        # an absolute 1e-9 residual is below round-off at 1e9 volts
        net, z = contracted_tree(2, 9)
        unit = solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
        big = solve_dirichlet(net, BoundarySpec([0, z], [1e9, 0.0]))
        assert np.allclose(big, 1e9 * unit, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("x", [-1, "V", 1.5])
    def test_clamped_id_out_of_range(self, x):
        # 1.5 is not an id at all, where int64 conversion would make it 1
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        x = net.vertex_count if x == "V" else x
        with pytest.raises(InvalidVertex):
            solve_dirichlet(net, BoundarySpec([0, x], [1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["clamped", "source"])
    def test_nonfinite_input_refused(self, where, bad):
        # a NaN boundary value used to come back as NaN voltages
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        bc = BoundarySpec([0, 2], [bad if where == "clamped" else 1.0, 0.0])
        source = np.array([0.0, bad, 0.0]) if where == "source" else None
        with pytest.raises(InvalidSpec, match="finite"):
            solve_dirichlet(net, bc, source=source)

    def test_nan_residual_raises(self, monkeypatch):
        class NanLU:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: NanLU())
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(SolverDivergence):
            solve_dirichlet(net, BoundarySpec([0, 2], [1.0, 0.0]))

    def test_factor_out_of_memory_diverges(self, monkeypatch):
        # SuperLU's exit when it cannot allocate the factor
        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(spla, "splu", oom)
        net = build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(SolverDivergence, match="2 free vertices"):
            solve_dirichlet(net, BoundarySpec([0, 3], [1.0, 0.0]))

    def test_unclamped_component_is_disconnected(self):
        # the free block of {1} + {2, 3} is singular; SuperLU says so with
        # a bare RuntimeError
        u, v = np.array([0, 2]), np.array([1, 3])
        net = _assemble(u, v, np.ones(2), 4, check_connected=False)
        with pytest.raises(DisconnectedGraph, match="singular"):
            solve_dirichlet(net, BoundarySpec([0], [1.0]))

    def test_numerically_singular_block_diverges(self):
        # pi(1) = 1e9 + 1e-8 rounds to 1e9, so the connected network's free
        # block {1, 2} is singular in float64
        net = build_network([(0, 1, 1e-8), (1, 2, 1e9)])
        with pytest.raises(SolverDivergence, match="numerically singular"):
            solve_dirichlet(net, BoundarySpec([0], [1.0]))

    def test_one_laplacian_per_solve(self, monkeypatch):
        calls = []
        laplacian = Network.laplacian

        def counted(net):
            calls.append(net)
            return laplacian(net)

        monkeypatch.setattr(Network, "laplacian", counted)
        net, z = contracted_tree(2, 4)
        solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
        assert len(calls) == 1
        div = np.zeros(net.vertex_count)
        div[0], div[z] = 1.0, -1.0
        current_flow(net, div)
        assert len(calls) == 2
        current_flow(net, -div)  # the same free block: no Laplacian
        assert len(calls) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_maximum_principle(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        voltages = [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
        v = solve_dirichlet(net, BoundarySpec([0, n - 1], voltages))
        lo, hi = min(voltages), max(voltages)
        assert v.min() >= lo - 1e-12
        assert v.max() <= hi + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_voltage_is_hit_probability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        net = random_connected_net(rng, n)
        a, z = 0, {n - 1}
        v = solve_dirichlet(net, BoundarySpec([a, *z], [1.0] + [0.0] * len(z)))
        h = absorbing_hit_probability(net, a, z)
        assert np.max(np.abs(v - h)) < 1e-9


@pytest.fixture
def factorizations(monkeypatch):
    """The networks each ``splu`` call factorizes a free block of, in order,
    recorded by the free-vertex count; the slot starts empty."""
    calls = []
    splu = spla.splu

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(harmonic.spla, "splu", counted)
    harmonic._drop_factor()
    yield calls
    harmonic._drop_factor()


def unit_div(net):
    div = np.zeros(net.vertex_count)
    div[0], div[-1] = 1.0, -1.0
    return div


class TestFactorReuse:
    """solve_dirichlet keeps the last free block's factor, keyed by the
    network and the set of clamped ids."""

    def test_flow_calls_factorize_once(self, factorizations):
        net = grid_net(6, 1)
        theta = np.random.default_rng(2).normal(size=net.edge_count)
        star, cyc = decompose_star_cycle(net, theta)
        current = current_flow(net, unit_div(net))
        thomson_gap(net, current + cyc, [0], [net.vertex_count - 1])
        assert factorizations == [net.vertex_count - 1]

    def test_voltages_and_source_share_the_factor(self, factorizations):
        net = grid_net(5, 3)
        solve_dirichlet(net, BoundarySpec([0, 24], [1.0, 0.0]))
        solve_dirichlet(net, BoundarySpec([24, 0], [-2.0, 3.0]))
        solve_dirichlet(net, BoundarySpec([0, 24, 0], [1.0, 0.0, 1.0]), source=unit_div(net))
        assert factorizations == [23]

    def test_new_block_factorizes_again(self, factorizations):
        net, other = grid_net(5, 3), grid_net(5, 4)
        solve_dirichlet(net, BoundarySpec([0], [0.0]), source=unit_div(net))
        solve_dirichlet(net, BoundarySpec([0, 24], [1.0, 0.0]))  # another clamped set
        solve_dirichlet(other, BoundarySpec([0, 24], [1.0, 0.0]))  # another network
        solve_dirichlet(net, BoundarySpec([0, 24], [1.0, 0.0]))  # the slot holds one
        assert factorizations == [24, 23, 23, 23]

    def test_building_a_network_empties_the_slot(self, factorizations):
        net = grid_net(4, 5)
        solve_dirichlet(net, BoundarySpec([0, 15], [1.0, 0.0]))
        assert harmonic._factor is not None
        build_network([(0, 1, 1.0)])
        assert harmonic._factor is None
        solve_dirichlet(net, BoundarySpec([0, 15], [1.0, 0.0]))
        assert factorizations == [14, 14]

    def test_dead_network_empties_the_slot(self, factorizations):
        net = grid_net(4, 5)
        solve_dirichlet(net, BoundarySpec([0, 15], [1.0, 0.0]))
        assert harmonic._factor.net() is net
        del net
        gc.collect()
        assert harmonic._factor is None

    def test_dead_network_keeps_another_entry(self, factorizations):
        # the first network's entry outlives the slot, as in a thread still
        # solving with it; its callback then finds the second's entry
        net, other = grid_net(4, 5), grid_net(4, 6)
        solve_dirichlet(net, BoundarySpec([0, 15], [1.0, 0.0]))
        held = harmonic._factor
        solve_dirichlet(other, BoundarySpec([0, 15], [1.0, 0.0]))
        del net
        gc.collect()
        assert held.net() is None
        assert harmonic._factor.net() is other

    @pytest.mark.parametrize("case", ["disconnected", "numerically singular"])
    def test_failed_factorization_leaves_the_slot_empty(self, factorizations, case):
        if case == "disconnected":  # {0, 1} and {2, 3}
            net = _assemble(np.array([0, 2]), np.array([1, 3]), np.ones(2), 4,
                            check_connected=False)
            good, bad, error = [0, 2], [0], DisconnectedGraph
        else:  # pi(1) = 1e9 + 1e-8 rounds to 1e9
            net = build_network([(0, 1, 1e-8), (1, 2, 1e9)])
            good, bad, error = [0, 2], [0], SolverDivergence
        solve_dirichlet(net, BoundarySpec(good, [1.0, 0.0]))
        assert harmonic._factor is not None
        for _ in range(2):
            with pytest.raises(error):
                solve_dirichlet(net, BoundarySpec(bad, [1.0]))
            assert harmonic._factor is None
        assert len(factorizations) == 3

    def test_cached_solve_equals_a_fresh_one(self, factorizations):
        net = grid_net(7, 8)
        rng = np.random.default_rng(9)
        sources = [rng.normal(size=net.vertex_count) for _ in range(3)]
        bc = BoundarySpec([0, 10, 48], [0.5, -1.0, 2.0])
        cached = [solve_dirichlet(net, bc, source=s) for s in sources]
        assert len(factorizations) == 1
        for s, got in zip(sources, cached):
            harmonic._drop_factor()
            assert solve_dirichlet(net, bc, source=s).tobytes() == got.tobytes()
        assert len(factorizations) == 4

    def test_cached_solve_checks_its_residual(self, factorizations):
        net, z = contracted_tree(2, 4)
        bc = BoundarySpec([0, z], [1.0, 0.0])
        solve_dirichlet(net, bc)
        with pytest.raises(SolverDivergence, match="exceeds tol"):
            solve_dirichlet(net, bc, tol=1e-300)
        assert len(factorizations) == 1


@st.composite
def dirichlet_problems(draw, decades=3):
    """A connected graph of at most 12 vertices with conductances
    10^U(-decades, decades), a proper clamped subset and boundary values up
    to 1e9."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 12))
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(draw(st.integers(0, 2 * n)), 2))
    pairs += [(int(a), int(b)) for a, b in extra if a != b]
    net = build_network(
        [(a, b, float(10.0 ** rng.uniform(-decades, decades))) for a, b in pairs]
    )
    k = draw(st.integers(1, n - 1))
    clamped = rng.choice(n, size=k, replace=False)
    scale = 10.0 ** draw(st.floats(0, 9))
    bc = BoundarySpec(clamped, [float(scale * rng.uniform(-1, 1)) for _ in clamped])
    return net, bc


def dense_laplacian(net):
    """The Laplacian as a dense array, built from the edge list."""
    n = net.vertex_count
    lap = np.zeros((n, n))
    np.add.at(lap, (net.edge_u, net.edge_v), -net.edge_c)
    np.add.at(lap, (net.edge_v, net.edge_u), -net.edge_c)
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    return lap


def dense_dirichlet(net, bc):
    """The Dirichlet solution by numpy.linalg.solve on a dense Laplacian."""
    lap = dense_laplacian(net)
    values = np.zeros(net.vertex_count)
    values[list(bc.clamped)] = bc.values
    clamped = np.unique(list(bc.clamped))
    free = np.setdiff1d(np.arange(net.vertex_count), clamped)
    rhs = -lap[np.ix_(free, clamped)] @ values[clamped]
    values[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs)
    return values


def escape_problem(net, bc):
    """(a, z, unit): escape from the first free vertex a to the clamped set
    z, and the boundary values v(a) = 1, v|z = 0 that give it."""
    z = sorted(bc.clamped)
    a = int(np.setdiff1d(np.arange(net.vertex_count), z)[0])
    return a, z, BoundarySpec([a, *z], [1.0] + [0.0] * len(z))


def dense_escape(net, a, unit):
    """1 - sum_y p(a, y) v(y) for the dense unit voltage v; an error of at
    most max |v error| in v moves it by at most as much."""
    lap = dense_laplacian(net)
    return lap[a] @ dense_dirichlet(net, unit) / lap[a, a]


def condition_number(net, bc):
    """Condition number of the free block of the dense Laplacian."""
    lap = dense_laplacian(net)
    free = np.setdiff1d(np.arange(net.vertex_count), list(bc.clamped))
    if not len(free):
        return 1.0
    eig = np.linalg.eigvalsh(lap[np.ix_(free, free)])
    # eigvalsh errs by about eps * eig[-1]
    return eig[-1] / max(eig[0], np.finfo(float).eps * eig[-1])


def lu_error_bound(net, bc):
    """Bound on max |solved - dense| / max(1, max |v|) for the LU solve.

    LU with diagonal pivots on a symmetric positive definite block and the
    dense oracle are both backward stable, so each errs by a few eps times
    the condition number of the free block (worst seen in 40000 draws at
    10^U(-8, 8): 0.17 of this bound).
    """
    return 16 * net.vertex_count * np.finfo(float).eps * condition_number(net, bc)


# a free block that float64 barely resolves may be refused with
# SolverDivergence instead of solved (seen only at condition numbers near
# 4.5e15); below this condition number a refusal is a fault
REFUSABLE_CONDITION = 1e10


class TestDenseOracle:
    # conductances 10^U(-3, 3): the residual is at most 1e-9 * scale and the
    # error may exceed it by the free block's condition number (worst seen in
    # 20000 draws: 2.5e-10 * scale)
    NARROW = 1e-7

    @given(problem=dirichlet_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve(self, problem):
        net, bc = problem
        got = solve_dirichlet(net, bc)
        want = dense_dirichlet(net, bc)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= self.NARROW * scale

    @given(problem=dirichlet_problems())
    @settings(max_examples=60, deadline=None)
    def test_escape_matches_dense_solve(self, problem):
        net, bc = problem
        a, z, unit = escape_problem(net, bc)
        got = effective(net, a, z).escape_probability
        assert abs(got - dense_escape(net, a, unit)) <= self.NARROW

    @given(problem=dirichlet_problems(decades=8))
    @settings(max_examples=60, deadline=None)
    def test_lu_matches_dense_solve_wide_range(self, problem):
        # conductances 10^U(-8, 8) make free blocks with condition numbers
        # up to 1/eps, where no fixed bound holds
        net, bc = problem
        try:
            got = solve_dirichlet(net, bc)
        except SolverDivergence:
            assert condition_number(net, bc) > REFUSABLE_CONDITION
            return
        want = dense_dirichlet(net, bc)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= lu_error_bound(net, bc) * scale

    @given(problem=dirichlet_problems(decades=8))
    @settings(max_examples=60, deadline=None)
    def test_lu_escape_wide_range(self, problem):
        net, bc = problem
        a, z, unit = escape_problem(net, bc)
        try:
            got = effective(net, a, z).escape_probability
        except SolverDivergence:
            assert condition_number(net, unit) > REFUSABLE_CONDITION
            return
        assert abs(got - dense_escape(net, a, unit)) <= lu_error_bound(net, unit)

    def test_weakly_tied_vertex(self):
        # the answer is 1 everywhere; vertex 1 reaches the boundary only
        # through c = 1e-3 against pi(1) = 1e8, so the zero vector already
        # has a residual of 1e-11 * pi: a stop on the residual alone would
        # return it
        net = build_network([(0, 1, 1e-3), (1, 2, 1e8)])
        bc = BoundarySpec([0], [1.0])
        got = solve_dirichlet(net, bc)
        assert np.max(np.abs(got - dense_dirichlet(net, bc))) <= lu_error_bound(net, bc)


class TestOhmCurrent:
    def test_single_edge(self):
        net = build_network([(0, 1, 1.0)])
        i = ohm_current(net, np.array([1.0, 0.0]))
        assert i[0] == 1.0

    def test_constant_potential_zero_current(self):
        net = build_network([(0, 1, 2.0), (1, 2, 3.0)])
        assert np.allclose(ohm_current(net, np.full(3, 4.0)), 0.0)

    def test_tree_root_edges_third(self):
        net, z = contracted_tree(2, 2)
        v = solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
        i = ohm_current(net=net, values=v)
        strength = effective(net, 0, {z}).conductance
        unit = i / strength
        for k in net.incident_edges(0):
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

        z = set(int(x) for x in level_slice(t.spec, 2))
        eq = effective(t.net, 0, z)
        assert abs(eq.escape_probability - 2.0 / 3.0) < 1e-12

    def test_unit_voltage_gives_effective(self):
        # the level-3 tree, the root at 1 and level 3 at 0: level n carries
        # 1 - R(root <-> level n) C, and the quantities are effective's
        t = build_tree(TreeSpec(2, 3))
        z = level_slice(t.spec, 3)
        values, eq = unit_voltage(t.net, 0, z)
        assert eq == effective(t.net, 0, z)
        assert values[0] == 1.0 and not values[z].any()
        for n in (1, 2):
            level = values[first_at_depth(2, n) : first_at_depth(2, n + 1)]
            assert np.allclose(level, 1.0 - oracle_resistance(2, n) * eq.conductance, atol=1e-12)

    def test_errors(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(EmptyInput):
            effective(net, 0, set())
        with pytest.raises(EmptyInput):  # the target set is checked first
            effective(net, 5, np.array([], dtype=np.int64))
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

    @given(dirichlet_problems())
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx_resistance_distance(self, problem):
        # an independent oracle: networkx works from the Laplacian's
        # pseudo-inverse, not from a Dirichlet solve
        nx = pytest.importorskip("networkx")
        net, _ = problem
        g = nx.Graph()
        g.add_weighted_edges_from(
            zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_c.tolist()), weight="c"
        )
        a, z = 0, net.vertex_count - 1
        want = nx.resistance_distance(g, a, z, weight="c", invert_weight=False)
        assert abs(effective(net, a, {z}).resistance - want) <= 1e-8 * want


class VanishingLine(HalfLineGenerator):
    """The half-line with conductance 10^-k between k and k + 1: C_n falls
    below ``TRANSIENCE_EPS`` within a few radii."""

    def ball_edges(self, n):
        u, v, _ = super().ball_edges(n)
        return u, v, 10.0**-u


class ScaledTree(TreeGenerator):
    """The tree of degree q + 1 with every conductance ``c``: its Green
    function and hitting probabilities are the unit tree's, while ``R_n``
    and ``v_n(x)`` scale by 1/c."""

    def __init__(self, q, c):
        super().__init__(q)
        self.c = c

    def ball_edges(self, n):
        u, v, c = super().ball_edges(n)
        return u, v, self.c * c


class GenericTree(TreeGenerator):
    """The tree of degree q + 1 without the homogeneous-tree route: a
    vertex's limits come from the exhaustions around it, and a deep one's
    take the ball budget's exits, as any generator's do."""

    homogeneous_tree = False


class TestLimits:
    def test_tree_resistance_to_infinity(self):
        # R_n = (2/3)(1 - 2^-(n+1)) is geometric, so Aitken's value is exact
        res = resistance_to_infinity(TreeGenerator(2), tol=1e-6)
        assert res.converged
        assert abs(res.value - 2.0 / 3.0) < 1e-12
        assert res.n_used == 3

    def test_tree_q3(self):
        res = resistance_to_infinity(TreeGenerator(3), tol=1e-6)
        assert res.converged
        assert abs(res.value - 3.0 / 8.0) < 1e-5

    def test_half_line_diverges(self):
        # R_n = n + 1: equal differences, so no Aitken estimate is formed and
        # the value is the raw R_50, exact by the shell recursion and within
        # rounding of 51 by a solve
        gen = HalfLineGenerator()
        res = resistance_to_infinity(gen, n_max=50, tol=1e-6)
        raw = harmonic._unit_current_voltage(gen, [gen.root], 50, 1e-6)[0][0]
        assert not res.converged
        assert res.value == (51.0 if harmonic.DENSE_SHELL_LIMIT else raw)
        assert abs(raw - 51.0) <= 1e-12 * 51.0

    def test_finite_grid_exhausts_without_false_convergence(self):
        # the grid's R_n grows like log n; successive Aitken estimates stay
        # far apart, so the loop runs until the ball covers the grid and
        # returns the last raw term, R(centre <-> corner 0)
        n = 80
        net = grid_net(n, 31)
        centre = (n // 2) * n + n // 2
        res = resistance_to_infinity(FiniteBallGenerator(net, centre), n_max=400, tol=1e-9)
        assert (res.converged, res.n_used) == (False, n)
        want = effective(net, centre, {0}).resistance
        assert abs(res.value - want) <= 1e-9 * want

    def test_nonsymmetric_green_at_defaults(self, monkeypatch):
        # the raw sequence cannot meet tol=1e-8 within the ball budget;
        # the transience verdict sets the largest radius built
        gen = TreeGenerator(2)
        radii = record_radii(monkeypatch, gen)
        got = green_function(gen, first_at_depth(2, 1))
        assert abs(got - oracle_green_hitting(2, 1)[0]) <= 1e-12
        assert max(radii) <= 10

    def test_monotone_in_radius(self):
        gen = TreeGenerator(2)
        from resistive_walks.harmonic import _unit_current_voltage

        rs = [_unit_current_voltage(gen, [gen.root], n, 1e-9)[0][0] for n in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))

    def test_green_values(self):
        gen = TreeGenerator(2)
        assert abs(green_function(gen, 0) - 2.0) < 1e-6
        x2 = first_at_depth(2, 2)
        assert abs(green_function(gen, x2) - 0.5) < 1e-6
        gen3 = TreeGenerator(3)
        assert abs(green_function(gen3, first_at_depth(3, 1)) - 0.5) < 1e-6

    def test_green_at_the_last_id(self):
        # the levels around id 2**63 - 1 (depth 62) start beyond int64
        x = 2**63 - 1
        assert TreeGenerator(2).depth_of(x) == 62
        got = green_function(TreeGenerator(2), x)
        assert abs(got - oracle_green_hitting(2, 62)[0]) <= 1e-8

    def test_limits_far_below_tol_stop_on_a_relative_step(self):
        # both limits are near 4e-19, far below tol=1e-8: an absolute step
        # stopped them 12% short of the closed form
        x = 2**63 - 1
        green, hitting, _ = oracle_green_hitting(2, 62)
        got = green_function(TreeGenerator(2), x)
        assert abs(got - green) <= 1e-12 * green
        got = hitting_probability(TreeGenerator(2), x)
        assert abs(got - hitting) <= 1e-12 * hitting

    def test_scaled_limits_far_below_tol_stop_on_a_relative_step(self):
        # with conductances 1e19, R_n and v_n(x) are near 1e-19, far below
        # tol=1e-8: an absolute step stops the limit of R_n at its second raw
        # term, 25% short; the Green and hitting limits, whose transience
        # verdict takes them on to radius 9, keep their closed forms
        gen, x = ScaledTree(2, 1e19), first_at_depth(2, 2)
        green, hitting, _ = oracle_green_hitting(2, 2)
        assert abs(green_function(gen, x) - green) <= 1e-12 * green
        assert abs(hitting_probability(gen, x) - hitting) <= 1e-12 * hitting
        res = resistance_to_infinity(gen, tol=1e-8)
        assert res.converged and abs(res.value - 2e-19 / 3) <= 1e-12 * 2e-19 / 3

    def test_deep_vertex_of_any_other_generator_stops_at_the_budget(self):
        # without the homogeneous-tree route, the limit at depth 62 needs
        # radii 63 and 64, past the ball budget's 20, and says so without
        # exhausting a ball past the budget
        with pytest.raises(BudgetExceededWithoutConvergence,
                           match="radius 64 exceeds EXHAUSTION_LIMIT"):
            green_function(GenericTree(2), 2**63 - 1)

    def test_hitting_is_exact_from_its_parts(self):
        # v_n(x) and R_n are each a geometric partial sum, on which Aitken's
        # value is exact; their ratio is not, and an estimate of the ratio
        # erred by 7e-10 here
        got = hitting_probability(TreeGenerator(2), first_at_depth(2, 2))
        assert abs(got - 0.25) <= 1e-14

    def test_green_requires_transience(self):
        with pytest.raises(NotTransient):
            green_function(HalfLineGenerator(), 0, n_max=40)

    def test_vanishing_conductance_is_recurrent(self):
        with pytest.raises(NotTransient, match="recurrent-heuristic"):
            green_function(VanishingLine(), 1)

    def test_hitting_values(self):
        gen = TreeGenerator(2)
        assert hitting_probability(gen, 0) == 1.0
        assert abs(hitting_probability(gen, first_at_depth(2, 1)) - 0.5) < 1e-6
        gen3 = TreeGenerator(3)
        assert abs(hitting_probability(gen3, first_at_depth(3, 2)) - 1.0 / 9.0) < 1e-6

    def test_generic_route_matches_ladder(self):
        # the ladder: levels k and k + 1 joined by (q + 1) q^k unit edges, so
        # v(x) = sum over k >= depth(x) of 1 / ((q + 1) q^k), and G = pi(x) v(x)
        x = first_at_depth(2, 1)
        ladder = 3 * sum(1.0 / (3 * 2**k) for k in range(1, 60))
        generic = green_function(TreeGenerator(2), x, tol=1e-4)
        assert abs(ladder - generic) < 1e-3
        # the keyword selects nothing
        assert green_function(TreeGenerator(2, symmetric=False), x, tol=1e-4) == generic

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("call", [
        lambda bad: solve_dirichlet(
            build_network([(0, 1, 1.0)]), BoundarySpec([0], [1.0]), tol=bad
        ),
        lambda bad: resistance_to_infinity(TreeGenerator(2), tol=bad),
        lambda bad: green_function(TreeGenerator(2), 1, tol=bad),
        lambda bad: hitting_probability(TreeGenerator(2), 0, tol=bad),
    ], ids=["solve_dirichlet", "resistance_to_infinity", "green_function",
            "hitting_probability-root"])
    def test_nonpositive_tolerance_refused(self, call, bad):
        # InvalidSpec is also a ValueError, which callers may still catch
        # an infinite tolerance would pass every check: refused as well
        with pytest.raises(InvalidSpec, match="must be positive and finite") as info:
            call(bad)
        assert isinstance(info.value, ValueError)

    def test_budget_exceeded(self):
        # the message names the radius, n_max and both last estimates
        with pytest.raises(BudgetExceededWithoutConvergence,
                           match=r"radius 3 \(n_max=3, last estimates v=0\.66.*, R=0\.66"):
            green_function(TreeGenerator(2), 0, n_max=3, tol=1e-12)

    def test_deep_vertex_budget_is_not_a_verdict(self, monkeypatch):
        # the transience verdict needs radii depth(x) + 1 and depth(x) + 2;
        # a budget that runs out first raises the budget error, which a
        # caller may retry with a larger budget, not NotTransient.  Depth 40
        # takes the route through depth 1, whose radii n_max keeps as few
        with pytest.raises(BudgetExceededWithoutConvergence):
            green_function(TreeGenerator(2), first_at_depth(2, 40), n_max=10)
        monkeypatch.setattr(harmonic, "EXHAUSTION_LIMIT", 5_000)
        gen = GenericTree(2)
        for depth in (9, 10):  # radius 10 is the last ball within the budget
            with pytest.raises(BudgetExceededWithoutConvergence, match="transience verdict"):
                green_function(gen, first_at_depth(2, depth))

    def test_ball_budget_stops_nonsymmetric_limits(self, monkeypatch):
        # the raw sequence would climb to radius ~27 (4e8 vertices) at the
        # defaults; two Aitken estimates need four radii, so budgets that
        # allow fewer must take the n_max exit
        monkeypatch.setattr(harmonic, "EXHAUSTION_LIMIT", 5_000)
        gen = GenericTree(2)
        radii = record_radii(monkeypatch, gen)
        # depth 8 leaves radii 9 and 10, enough for the transience verdict
        with pytest.raises(BudgetExceededWithoutConvergence):
            green_function(gen, first_at_depth(2, 8))
        # radius 10 (3,070 vertices) is the last ball within the budget
        assert gen.ball_size(max(radii)) == 3_070
        radii.clear()
        monkeypatch.setattr(harmonic, "EXHAUSTION_LIMIT", 20)
        res = resistance_to_infinity(gen, tol=1e-12)
        # radius 2 (10 vertices) is the last ball within the budget
        assert (res.converged, res.n_used, gen.ball_size(max(radii))) == (False, 2, 10)


def test_hitting_stops_early_at_q6(monkeypatch):
    # radii 3..6 give two equal Aitken values of each part; the radius-6 ball
    # has 65,318 vertices, the radius-8 one 2.35M.  Not a TestLimits case:
    # with every shell dense, shell 6's block alone would take 24 GB
    gen = TreeGenerator(6)
    radii = record_radii(monkeypatch, gen)
    got = hitting_probability(gen, first_at_depth(6, 2))
    assert abs(got - 1.0 / 36.0) <= 1e-15
    assert max(radii) <= 6


def test_depth_twelve_takes_the_depth_one_route(monkeypatch):
    # the limits at depth 12 come from those at depth 1, whose radii stay
    # small; exhausting around depth 12 itself took balls of radius 13 and
    # more, and 0.17 s
    x = first_at_depth(2, 12)
    green, hitting, _ = oracle_green_hitting(2, 12)
    gen = TreeGenerator(2)
    radii = record_radii(monkeypatch, gen)
    assert abs(green_function(gen, x) - green) <= 1e-13 * green
    assert abs(hitting_probability(gen, x) - hitting) <= 1e-13 * hitting
    assert max(radii) <= 10


@pytest.mark.parametrize("q, depth", [(2, 8), (3, 4)])
def test_deep_route_matches_the_exhaustions(q, depth):
    # the homogeneous tree's route through depth 1 and the direct sweep
    # around the vertex, on the same tree without the route, agree with the
    # closed forms.  Not a TestLimits case: with every shell dense, radius 8
    # at q=3 takes 600 MB
    x = first_at_depth(q, depth)
    green, hitting, _ = oracle_green_hitting(q, depth)
    for gen in (TreeGenerator(q), GenericTree(q)):
        assert abs(green_function(gen, x) - green) <= 1e-13 * green
        assert abs(hitting_probability(gen, x) - hitting) <= 1e-13 * hitting


@pytest.fixture(params=[0, 2_048], ids=["solves", "shells"])
def shell_limit(request, monkeypatch):
    """Every radius by a fresh exhaustion solve, or every shell in the
    recursion: no TestLimits case builds a shell of more than 1,536
    vertices, and a dense block of 2,048 takes 32 MiB."""
    monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", request.param)
    return request.param


@pytest.mark.usefixtures("shell_limit")
class TestLimitsEitherWay(TestLimits):
    """Every TestLimits case on both sides of ``DENSE_SHELL_LIMIT``."""


def limit_outcome(gen, ids, n_max=80, tol=1e-8):
    """``_limit``'s limits for ``ids``, or the type and message of its error."""
    try:
        return harmonic._limit(gen, ids, n_max, tol)
    except NetworkError as exc:
        return type(exc), str(exc)


@pytest.mark.usefixtures("shell_limit")
class TestSeveralIds:
    """One sweep for several ids gives each id the limits of its own call."""

    @pytest.mark.parametrize("gen, ids", [
        (TreeGenerator(2), [0, 1, 4, 11]),
        (TreeGenerator(3), [0, 1, 5]),
        (GenericTree(2), [0, 1, 4]),
    ], ids=["tree2", "tree3", "generic2"])
    @pytest.mark.parametrize("n_max", [80, 5])
    def test_limits_equal_one_id_calls(self, gen, ids, n_max):
        # ids 4 and 11 of the binary tree take the route through depth 1,
        # mixed with the root and id 1; at n_max=5 some ids fail alone, and
        # the first failing id's error is the sweep's
        alone = [limit_outcome(gen, [x], n_max) for x in ids]
        failed = [a for a in alone if isinstance(a, tuple)]
        want = failed[0] if failed else [a[0] for a in alone]
        assert limit_outcome(gen, ids, n_max) == want

    @pytest.mark.parametrize("gen, ids", [
        (FiniteBallGenerator(grid_net(20, 7), 10 * 20 + 10), [0, 1, 27, 286]),
        # shells of up to 257 vertices and random conductances, on which one
        # gemm for all columns rounded some differently from a sweep of two
        (FiniteBallGenerator(random_connected_net(np.random.default_rng(0), 600)),
         [0, 1, 11, 55]),
    ], ids=["grid", "random"])
    def test_columns_equal_one_id_sweeps(self, gen, ids):
        # a finite graph has no limit (NotTransient), so its terms are
        # compared: each id's column, and the root's column 0, R_n, are
        # those of a sweep of the root and that id, bit for bit
        together = list(harmonic._terms(gen, ids, 0, 10**6, 1e-12))
        for i, x in enumerate(ids):
            alone = list(harmonic._terms(gen, [gen.root, x], 0, 10**6, 1e-12))
            assert len(alone) == len(together)
            for a, t in zip(alone, together):
                assert (a.n, a.v[0], a.by_shells) == (t.n, t.v[0], t.by_shells)
                assert a.v[1] == t.v[i]
                assert np.array_equal(a.pi[1], t.pi[i], equal_nan=True)
        assert limit_outcome(gen, ids) == limit_outcome(gen, [gen.root])


@st.composite
def ball_problems(draw):
    """A FiniteBallGenerator on a connected graph of at most 30 vertices
    with conductances 10^U(-3, 3), rooted at a drawn vertex, and a drawn
    vertex x (a generator id)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(draw(st.integers(0, 2 * n)), 2))
    pairs += [(int(a), int(b)) for a, b in extra if a != b]
    net = build_network([(a, b, float(10.0 ** rng.uniform(-3, 3))) for a, b in pairs])
    return FiniteBallGenerator(net, draw(st.integers(0, n - 1))), draw(st.integers(0, n - 1))


def terms_and_solves(gen, x, end=10**6):
    """Each term of ``_terms`` over the columns of the root and x from radius
    depth(x) on, with the ``(v_n, pi)`` of a fresh exhaustion solve at its
    radius over the same columns."""
    start, cols = gen.depth_of(x), [gen.root, x]
    terms = list(harmonic._terms(gen, cols, start, end, 1e-12))
    assert [t.n for t in terms] == list(range(start, start + len(terms)))
    return [(t, harmonic._unit_current_voltage(gen, cols, t.n, 1e-12)) for t in terms]


class NegativePath(HalfLineGenerator):
    """The half-line with conductance -1: no Schur complement of it is
    positive definite."""

    def ball_edges(self, n):
        u, v, c = super().ball_edges(n)
        return u, v, -c


class BrokenLine(HalfLineGenerator):
    """The unit half-line with conductance ``c`` on every edge from vertex
    ``k`` on: shell k, pi(k) = 1 + c, is the first shell it enters."""

    def __init__(self, k, c):
        self.k, self.c = k, c

    def ball_edges(self, n):
        u, v, c = super().ball_edges(n)
        return u, v, np.where(u >= self.k, self.c, c)


class DoublingLine(HalfLineGenerator):
    """The half-line with conductance 2**k on the edge k -> k + 1, so that
    R_n = 2 - 2**-n; it gives no edges past radius 10."""

    def ball_edges(self, n):
        if n > 10:
            raise AssertionError(f"ball of radius {n} fetched")
        u, v, _ = super().ball_edges(n)
        return u, v, 2.0**u


class TestShellRecursion:
    def assert_matches_solves(self, pairs, rel):
        # v_n(x) <= R_n = v_n(root) by the maximum principle, so both
        # compare to R_n
        for term, (v, pi) in pairs:
            r = v[0]
            assert term.by_shells
            assert abs(term.v[0] - r) <= rel * r
            assert abs(term.v[1] - v[1]) <= rel * r
            assert abs(term.pi[1] - pi[1]) <= 1e-15 * pi[1]

    def test_grid_matches_solves(self):
        net = grid_net(30, 7)
        gen = FiniteBallGenerator(net, 15 * 30 + 15)
        for x in (gen.root, gen.ball_size(2), gen.ball_size(20) - 1):
            pairs = terms_and_solves(gen, x)
            # the farthest corner is at distance 30, where the ball covers the grid
            assert pairs[-1][0].n == 29
            self.assert_matches_solves(pairs, 1e-12)

    @pytest.mark.parametrize("q, depth, end", [(2, 2, 8), (3, 1, 5)])
    def test_tree_matches_solves(self, monkeypatch, q, depth, end):
        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", 10**6)
        gen = TreeGenerator(q)
        for x in (gen.root, first_at_depth(q, depth)):
            pairs = terms_and_solves(gen, x, end)
            assert pairs[-1][0].n == end
            self.assert_matches_solves(pairs, 1e-12)

    @given(problem=ball_problems())
    @settings(max_examples=60, deadline=None)
    def test_random_nets_match_solves(self, problem):
        # both sides are backward stable, so on these badly scaled graphs
        # each errs by up to a few eps times the condition number of the
        # exhaustion's grounded Laplacian (up to 4e-10 relative seen against
        # exact rational solves, by either side)
        gen, x = problem
        for term, solved in terms_and_solves(gen, x):
            net, z = harmonic.exhaustion(gen, term.n)
            rel = max(1e-12, lu_error_bound(net, BoundarySpec([z], [0.0])))
            self.assert_matches_solves([(term, solved)], rel)

    @given(problem=ball_problems(), budget=st.integers(1, 30), end=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_fetches_follow_the_sweep(self, problem, budget, end):
        # by the time _terms gives radius n it has fetched no ball past radius
        # 4n + 3, and none past the ball budget; it stops at end, at the
        # first ball over the budget or at the ball covering the graph
        gen, x = problem
        start = gen.depth_of(x)
        fetched = []
        edges = gen.ball_edges
        gen.ball_edges = lambda n: fetched.append(n) or edges(n)
        stop = start
        while stop <= end and gen.ball_size(stop) <= budget and (
            gen.ball_size(stop + 1) > gen.ball_size(stop)
        ):
            stop += 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harmonic, "EXHAUSTION_LIMIT", budget)
            radii = []
            for term in harmonic._terms(gen, [gen.root, x], start, end, 1e-12):
                assert max(fetched, default=0) <= 4 * term.n + 3
                radii.append(term.n)
        assert radii == list(range(start, stop))
        assert all(gen.ball_size(n) <= budget for n in fetched)

    @pytest.mark.parametrize("limit", [0, 10])
    def test_recursion_is_not_resumed(self, monkeypatch, limit):
        # from a corner of the 30x30 grid shell k has min(k, 58 - k) + 1
        # vertices: above 10 from radius 10 to 48, then at most 10 again
        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", limit)
        gen = FiniteBallGenerator(grid_net(30, 7), 0)
        terms = list(harmonic._terms(gen, [gen.root], 0, 10**6, 1e-12))
        assert [t.by_shells for t in terms] == [n < limit for n in range(58)]
        for t in terms:
            (r,), _ = harmonic._unit_current_voltage(gen, [gen.root], t.n, 1e-12)
            assert abs(t.v[0] - r) <= 1e-12 * r

    @pytest.mark.parametrize("gen", [
        TreeGenerator(2),
        TreeGenerator(3),
        FiniteBallGenerator(grid_net(30, 7), 15 * 30 + 15),
    ], ids=["tree2", "tree3", "grid"])
    def test_same_limit_result_either_way(self, monkeypatch, gen):
        # a ball budget of 3,000 vertices keeps every dense shell small
        # (768 vertices at most); some tree limits exhaust it
        monkeypatch.setattr(harmonic, "EXHAUSTION_LIMIT", 3_000)

        def outcome(call, *args, **kwargs):
            try:
                return call(gen, *args, **kwargs)
            except NetworkError as exc:
                return type(exc)

        def limits():
            x = gen.ball_size(0)  # a neighbour of the root
            return [outcome(resistance_to_infinity, n_max=100, tol=1e-9),
                    outcome(resistance_to_infinity, n_max=4, tol=1e-12)] + [
                outcome(call, x, tol=tol)
                for call in (green_function, hitting_probability)
                for tol in (1e-5, 1e-8)
                if isinstance(gen, TreeGenerator)
            ]

        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", 0)
        solved = limits()
        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", 10**6)
        by_shells = limits()
        for a, b in zip(solved, by_shells):
            if isinstance(a, harmonic.LimitResult):
                assert (a.converged, a.n_used) == (b.converged, b.n_used)
                a, b = a.value, b.value
            if isinstance(a, float):
                assert abs(a - b) <= 1e-12 * abs(a)
            else:
                assert a is b

    def test_one_confirming_solve(self, monkeypatch):
        # every radius comes from the recursion; the limit's last term,
        # radius 29, is solved once more
        calls = []
        unit = harmonic._unit_current_voltage

        def counted(gen, x, n, tol):
            calls.append(n)
            return unit(gen, x, n, tol)

        monkeypatch.setattr(harmonic, "_unit_current_voltage", counted)
        gen = FiniteBallGenerator(grid_net(30, 7), 15 * 30 + 15)
        res = resistance_to_infinity(gen, n_max=100, tol=1e-9)
        assert (res.converged, res.n_used, calls) == (False, 30, [29])

    @pytest.mark.parametrize("call", [
        lambda gen: resistance_to_infinity(gen, n_max=100, tol=1e-9),
        lambda gen: green_function(gen, 1, tol=1e-5),
        lambda gen: hitting_probability(gen, 1, tol=1e-5),
    ], ids=["resistance_to_infinity", "green_function", "hitting_probability"])
    def test_disagreeing_confirmation_diverges(self, monkeypatch, call):
        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", 10**6)
        unit = harmonic._unit_current_voltage

        def off(gen, cols, n, tol):
            v, pi = unit(gen, cols, n, tol)
            return np.concatenate([v[:1] * (1 + 1e-3), v[1:]]), pi

        monkeypatch.setattr(harmonic, "_unit_current_voltage", off)
        with pytest.raises(SolverDivergence, match="shell recursion"):
            call(TreeGenerator(2))

    def test_disagreement_names_every_id_in_plain_numbers(self, monkeypatch):
        # a sweep for two ids, the root and a neighbour, whose solves read
        # each v_n(x) 0.1% high: the message lists both columns as numbers,
        # R_n = v_n(root) first
        monkeypatch.setattr(harmonic, "DENSE_SHELL_LIMIT", 10**6)
        unit = harmonic._unit_current_voltage

        def off(gen, cols, n, tol):
            v, pi = unit(gen, cols, n, tol)
            return v * (1 + 1e-3), pi

        monkeypatch.setattr(harmonic, "_unit_current_voltage", off)
        pair = r"\[0\.6\d+, 0\.3\d+\]"
        with pytest.raises(SolverDivergence, match=(
            rf"^shell recursion at radius \d+ gives v_n\(x\)={pair}, R_n first; "
            rf"a solve gives {pair}$"
        )):
            harmonic._limit(TreeGenerator(2), [0, 1], 80, 1e-5)

    def test_indefinite_schur_complement_diverges(self):
        with pytest.raises(SolverDivergence, match="Schur complement of shell 0:"):
            resistance_to_infinity(NegativePath())
        # S_0 = S_1 = S_2 = 1, and S_3 = pi(3) - 1 / S_2 = (1 - 1) - 1 = -1
        with pytest.raises(SolverDivergence, match="Schur complement of shell 3:"):
            resistance_to_infinity(BrokenLine(3, -1.0))

    @pytest.mark.parametrize("c", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_schur_complement_diverges(self, c):
        # neither a LAPACK error nor a NaN limit: the recursion names the
        # first shell whose Schur complement holds the bad conductance
        with pytest.raises(SolverDivergence, match="Schur complement of shell 2:"):
            resistance_to_infinity(BrokenLine(2, c))

    @pytest.mark.parametrize("gen", [
        TreeGenerator(3),
        ScaledTree(2, 0.1),
        FiniteBallGenerator(grid_net(12, 7), 6 * 12 + 6),
    ], ids=["tree3", "scaled_tree", "grid"])
    def test_shell_blocks_from_a_larger_ball(self, gen):
        # a tree's ball_edges(k) merges each level-k vertex's edges into
        # level k + 1, which a larger ball lists one by one: both give shell
        # k the same blocks, pi(x) on the diagonal up to its rounding
        prev_lo = lo = 0
        for k in range(5):
            hi = gen.ball_size(k)
            own = harmonic._shell_blocks(harmonic._half_edges(gen, k), prev_lo, lo, hi)
            wide = harmonic._shell_blocks(harmonic._half_edges(gen, k + 2), prev_lo, lo, hi)
            for a, b in zip(own, wide):
                assert a.shape == b.shape
                assert np.allclose(a, b, rtol=1e-15, atol=0)
            prev_lo, lo = lo, hi

    @pytest.mark.parametrize("n_max", [64, 10**4, 10**5])
    def test_limit_fetches_no_ball_far_past_its_stop(self, n_max):
        # R_n = 2 - 2**-n is geometric, so the limit converges at radius 3;
        # fetching the ball at n_max overflowed 2.0**u, and took 30 ms at
        # n_max=10**5
        res = resistance_to_infinity(DoublingLine(), n_max=n_max, tol=1e-9)
        assert (res.value, res.converged, res.n_used) == (2.0, True, 3)

    def test_few_edge_fetches(self, monkeypatch):
        # from the centre of the 30x30 grid no shell has more than 60
        # vertices, so the 30 radii up to 29 are cut from three balls: those
        # of radius 3 and 19, fetched as the sweep reaches radius 0 and 4,
        # and that of radius 30, which covers the grid
        gen = FiniteBallGenerator(grid_net(30, 7), 15 * 30 + 15)
        fetched = []
        edges = gen.ball_edges
        monkeypatch.setattr(gen, "ball_edges", lambda n: fetched.append(n) or edges(n))
        assert len(list(harmonic._terms(gen, [gen.root], 0, 10**6, 1e-12))) == 30
        assert fetched == [3, 19, 30]
