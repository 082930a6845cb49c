import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import project_cycle_space, reference_kirchhoff, reference_validate_flow
from resistive_walks import (
    BoundarySpec,
    TreeGenerator,
    TreeSpec,
    adjointness_residual,
    apply_d,
    apply_d_star,
    build_network,
    build_tree,
    chi,
    current_flow,
    decompose_star_cycle,
    effective,
    energy,
    exhaustion,
    inner_r,
    ohm_current,
    oracle_resistance,
    solve_dirichlet,
    thomson_gap,
    validate_flow,
    verify_kirchhoff,
)
from resistive_walks.errors import InvalidVertex, NotAFlow, VertexInTarget
from test_network import random_connected_net


def k4():
    return build_network([(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)])


def triangle():
    return build_network([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


def triangle_cycle_flow(net, scale=1.0):
    return scale * (chi(net, 0, 1) + chi(net, 1, 2) + chi(net, 2, 0))


def unit_tree_current(q, levels):
    """``(net, z, i)``: the unit current flow ``i`` from the root to z on the
    tree with everything past level ``levels`` contracted to z."""
    net, z = exhaustion(TreeGenerator(q), levels)
    v = solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
    i = ohm_current(net, v)
    return net, z, i / effective(net, 0, {z}).conductance


class TestOperators:
    def test_d_indicator(self):
        net = build_network([(0, 1, 1.0)])
        f = np.array([1.0, 0.0])
        assert apply_d(net, f)[0] == 1.0

    def test_d_kills_constants(self):
        net = k4()
        assert np.allclose(apply_d(net, np.full(4, 3.3)), 0.0)

    def test_d_of_voltage_is_ir(self):
        net, z, i = unit_tree_current(2, 2)
        v = solve_dirichlet(net, BoundarySpec([0, z], [1.0, 0.0]))
        scale = effective(net, 0, {z}).conductance
        assert np.allclose(apply_d(net, v / scale), i / net.edge_c)

    def test_d_star_single_edge(self):
        net = build_network([(0, 1, 1.0)])
        div = apply_d_star(net, chi(net, 0, 1))
        assert div[0] == 1.0 and div[1] == -1.0

    def test_d_star_cycle_flow_vanishes(self):
        net = triangle()
        assert np.allclose(apply_d_star(net, triangle_cycle_flow(net)), 0.0)

    def test_d_star_unit_current_is_root_indicator(self):
        net, z, i = unit_tree_current(2, 3)
        div = apply_d_star(net, i)
        expected = np.zeros(net.vertex_count)
        expected[0], expected[z] = 1.0, -1.0
        assert np.max(np.abs(div - expected)) < 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_global_conservation(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        theta = rng.normal(size=net.edge_count)
        assert abs(apply_d_star(net, theta).sum()) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        net = k4()
        theta = rng.normal(size=net.edge_count)
        f = rng.normal(size=4)
        assert adjointness_residual(net, theta, f) < 1e-12

    def test_adjointness_zero_flow(self):
        net = k4()
        assert adjointness_residual(net, np.zeros(net.edge_count), np.ones(4)) == 0.0


class TestFlows:
    def test_chi_is_valid_flow(self):
        net = build_network([(0, 1, 1.0)])
        report = validate_flow(net, chi(net, 0, 1), {0}, {1})
        assert report.ok

    def test_zero_fails_strictness(self):
        net = build_network([(0, 1, 1.0)])
        report = validate_flow(net, np.zeros(1), {0}, {1})
        assert not report.ok

    def test_tree_current_is_flow(self):
        net, z, i = unit_tree_current(2, 3)
        assert validate_flow(net, i, {0}, {z}, tol=1e-9).ok

    def test_overlap_rejected(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(VertexInTarget):
            validate_flow(net, chi(net, 0, 1), {0}, {0, 1})

    def test_out_of_range_ids_rejected(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(InvalidVertex):
            validate_flow(net, chi(net, 0, 1), {0}, {2})
        with pytest.raises(InvalidVertex):
            validate_flow(net, chi(net, 0, 1), {-1}, {1})

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_violations_match_vertex_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        theta = rng.normal(size=net.edge_count)
        theta[rng.random(net.edge_count) < 0.3] = 0.0  # some zero divergences
        ids = rng.permutation(n)
        k = int(rng.integers(0, n + 1))
        a, z = set(ids[: k // 2].tolist()), set(ids[k // 2 : k].tolist())
        tol = float(rng.choice([0.0, 1e-12, 0.5]))
        report = validate_flow(net, theta, a, z, tol=tol)
        assert report.violations == reference_validate_flow(net, theta, a, z, tol=tol)
        assert report.ok == (not report.violations)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 9))
    @settings(max_examples=20, deadline=None)
    def test_pairing_with_two_sided_constant(self, seed, n):
        # (theta, dF) = strength * (F(A) - F(Z)) for F constant on A and Z,
        # the strength being the divergence at the source
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        i = current_flow(net, _unit_div(net))
        fa, fz = rng.normal(), rng.normal()
        f = np.full(n, fa)
        f[n - 1] = fz
        f[1 : n - 1] = rng.normal(size=n - 2)
        f[0] = fa
        lhs = float(np.sum(i * apply_d(net, f)))
        rhs = apply_d_star(net, i)[0] * (fa - fz)
        # F need not be constant between A and Z, only on them; use the
        # adjoint identity instead of an arbitrary interior
        lhs2 = float(np.dot(apply_d_star(net, i), f))
        assert abs(lhs - lhs2) < 1e-9
        assert abs(lhs2 - rhs) < 1e-9


def _unit_div(net):
    div = np.zeros(net.vertex_count)
    div[0], div[-1] = 1.0, -1.0
    return div


class TestEnergy:
    def test_unit_flow_unit_resistor(self):
        net = build_network([(0, 1, 1.0)])
        assert energy(net, chi(net, 0, 1)) == 1.0

    def test_tree_unit_current_energy_is_resistance(self):
        for n in (1, 2, 3, 4):
            net, _, i = unit_tree_current(2, n - 1)
            assert abs(energy(net, i) - oracle_resistance(2, n)) < 1e-9

    def test_quadratic_scaling(self):
        net = triangle()
        theta = triangle_cycle_flow(net)
        assert abs(energy(net, 2 * theta) - 4 * energy(net, theta)) < 1e-12


class TestDecomposition:
    def test_cycle_flow_has_no_star_part(self):
        net = triangle()
        star, cyc = decompose_star_cycle(net, triangle_cycle_flow(net))
        assert np.max(np.abs(star)) < 1e-12

    def test_gradient_on_tree_has_no_cycle_part(self):
        t = build_tree(TreeSpec(2, 2))
        rng = np.random.default_rng(3)
        theta = t.net.edge_c * apply_d(t.net, rng.normal(size=t.net.vertex_count))
        star, cyc = decompose_star_cycle(t.net, theta)
        assert np.max(np.abs(cyc)) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_recombine_orthogonal_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net = k4()
        theta = rng.normal(size=net.edge_count)
        star, cyc = decompose_star_cycle(net, theta)
        assert np.max(np.abs(star + cyc - theta)) < 1e-10
        assert abs(inner_r(net, star, cyc)) < 1e-10
        cyc_oracle = project_cycle_space(net, theta)
        assert np.max(np.abs(cyc - cyc_oracle)) < 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_pythagoras(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        theta = rng.normal(size=net.edge_count)
        star, cyc = decompose_star_cycle(net, theta)
        total = energy(net, theta)
        assert abs(total - energy(net, star) - energy(net, cyc)) < 1e-9 * max(1, total)


class TestKirchhoff:
    def test_solved_current_clean(self):
        net, z, i = unit_tree_current(2, 3)
        report = verify_kirchhoff(net, i, exempt={0, z})
        assert report.node_residual < 1e-9
        assert report.cycle_residual < 1e-9

    def test_exempt_one_pass_iterator(self):
        # the ids are read once: a second pass over the iterator would find
        # it empty and leave the battery vertices' divergence in
        net, z, i = unit_tree_current(2, 3)
        assert verify_kirchhoff(net, i, exempt=iter([0, z])) == verify_kirchhoff(
            net, i, exempt={0, z}
        )

    def test_chi_violates_node_law(self):
        net = triangle()
        report = verify_kirchhoff(net, chi(net, 0, 1), exempt=set())
        assert report.node_residual == 1.0

    def test_triangle_circulation_cycle_residual(self):
        net = triangle()
        report = verify_kirchhoff(net, triangle_cycle_flow(net), exempt=set())
        assert report.node_residual == 0.0
        assert report.cycle_residual == 3.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 14))
    @settings(max_examples=60, deadline=None)
    def test_matches_vertex_by_vertex_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        theta = rng.normal(size=net.edge_count)
        exempt = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        report = verify_kirchhoff(net, theta, exempt=exempt)
        node, cycle = reference_kirchhoff(net, theta, exempt=exempt)
        assert report.node_residual == node
        # path sums are added in another order: each differs by at most
        # n rounding errors of the largest partial sum
        bound = n * np.finfo(float).eps * float(np.sum(np.abs(theta / net.edge_c)))
        assert abs(report.cycle_residual - cycle) <= bound

    def test_long_path_cycle(self):
        # a 1000-cycle: the one non-tree edge closes a path of depth 500
        n = 1000
        net = build_network([(i, (i + 1) % n, 1.0 + (i % 7)) for i in range(n)])
        theta = np.zeros(net.edge_count)
        for i in range(n):
            theta += chi(net, i, (i + 1) % n)
        report = verify_kirchhoff(net, theta)
        assert abs(report.cycle_residual - float(np.sum(1.0 / net.edge_c))) < 1e-9

    def test_gradients_satisfy_cycle_law(self):
        rng = np.random.default_rng(5)
        net = k4()
        theta = net.edge_c * apply_d(net, rng.normal(size=4))
        report = verify_kirchhoff(net, theta, exempt=set(range(4)))
        assert report.cycle_residual < 1e-12


class TestThomson:
    def test_current_has_zero_gap(self):
        net = k4()
        i = current_flow(net, _unit_div(net))
        assert abs(thomson_gap(net, i, {0}, {3})) < 1e-10

    def test_cycle_perturbation_gap_is_cycle_energy(self):
        net = k4()
        i = current_flow(net, _unit_div(net))
        cyc = triangle_cycle_flow_on_k4(net)
        gap = thomson_gap(net, i + cyc, {0}, {3})
        assert abs(gap - energy(net, cyc)) < 1e-10

    def test_single_branch_routing_loses(self):
        net, z = exhaustion(TreeGenerator(2), 2)
        # push the whole unit flow down the leftmost branch: 0 -> 1 -> 4 -> z
        theta = chi(net, 0, 1) + chi(net, 1, 4) + chi(net, 4, z)
        i = current_flow(net, _ab_div(net, 0, z))
        assert validate_flow(net, theta, {0}, {z}).ok
        gap = thomson_gap(net, theta, {0}, {z})
        brute = energy(net, theta) - energy(net, i)
        assert gap > 1e-3
        assert abs(gap - brute) < 1e-12

    def test_not_a_flow_rejected(self):
        net = k4()
        with pytest.raises(NotAFlow):
            thomson_gap(net, triangle_cycle_flow_on_k4(net), {0}, {3})

    def test_not_a_flow_message_shows_plain_numbers(self):
        # int64 id arrays and the divergences printed as np.int64(0) and
        # np.float64(0.0) under numpy 2
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(NotAFlow) as info:
            thomson_gap(net, np.zeros(2), np.array([0]), np.array([2]))
        message = str(info.value)
        assert "np." not in message
        assert message.startswith("not a flow from [0] to [2]: [(0, ")
        (x, _, d), _ = validate_flow(net, np.zeros(2), [0], [2]).violations
        assert type(x) is int and type(d) is float

    @given(st.integers(0, 2**32 - 1), st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_gap_nonnegative_for_random_flows(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_connected_net(rng, n)
        i = current_flow(net, _unit_div(net))
        _, cyc = decompose_star_cycle(net, rng.normal(size=net.edge_count))
        theta = i + cyc
        assert thomson_gap(net, theta, {0}, {n - 1}) >= -1e-10


def _ab_div(net, a, z):
    div = np.zeros(net.vertex_count)
    div[a], div[z] = 1.0, -1.0
    return div


def triangle_cycle_flow_on_k4(net):
    return chi(net, 0, 1) + chi(net, 1, 2) + chi(net, 2, 0)
