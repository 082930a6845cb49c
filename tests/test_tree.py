import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from oracles import assert_same_network, reference_build_tree, reference_tree_edges
from scipy.sparse.csgraph import shortest_path

import resistive_walks.tree as tree_mod

from resistive_walks import (
    BoundarySpec,
    TreeGenerator,
    TreeSpec,
    build_tree,
    effective,
    finite_tree_pair_resistance,
    first_at_depth,
    ladder_resistance,
    level_slice,
    ohm_current,
    oracle_finite_escape,
    oracle_green_hitting,
    oracle_potential_current,
    oracle_resistance,
    oracle_table,
    solve_dirichlet,
    tree_distance,
    tree_vertex_count,
    vertex_weight,
)
from resistive_walks.errors import InvalidCase, InvalidQ, InvalidSpec, InvalidVertex, SameVertex


def branch_root(tree, x):
    """Level-1 ancestor of x (x itself when at level 1)."""
    while tree.depth_of(x) > 1:
        x = int(tree.parent_of(x))
    return x


def outside_branch(tree, a):
    """Root plus every vertex not in a's level-1 subtree."""
    b = branch_root(tree, a)
    out = {0}
    for x in range(tree.net.vertex_count):
        if tree.depth_of(x) >= 1 and branch_root(tree, x) != b:
            out.add(x)
    return out


class TestBuild:
    def test_counts(self):
        assert tree_vertex_count(2, 2) == 10
        assert tree_vertex_count(3, 1) == 5
        t = build_tree(TreeSpec(2, 2))
        assert t.net.vertex_count == 10
        assert t.net.edge_count == 9

    def test_root_degree(self):
        t = build_tree(TreeSpec(2, 1))
        assert t.net.vertex_count == 4
        assert t.net.degree(0) == 3

    def test_unit_conductances(self):
        t = build_tree(TreeSpec(3, 2))
        assert np.all(t.net.edge_c == 1.0)

    def test_contracted_zero_levels(self):
        t = build_tree(TreeSpec(3, 0, contract_boundary=True))
        assert t.net.vertex_count == 2
        assert t.net.edge_c[0] == 4.0

    def test_contracted_boundary_edges(self):
        t = build_tree(TreeSpec(2, 2, contract_boundary=True))
        assert t.z == 10
        zc = t.net.edge_c[t.net.incident_edges(t.z)]
        assert np.allclose(zc, 2.0)
        assert len(zc) == 6

    def test_depths_and_parents(self):
        t = build_tree(TreeSpec(2, 3))
        assert t.depth_of(0) == 0
        assert list(t.depth_of([1, 2, 3])) == [1, 1, 1]
        kid = first_at_depth(2, 2)
        assert t.parent_of(kid) == 1

    def test_level_slice(self):
        t = build_tree(TreeSpec(2, 2))
        assert list(level_slice(t, 1)) == [1, 2, 3]
        assert len(level_slice(t, 2)) == 6
        with pytest.raises(InvalidSpec):
            level_slice(t, 3)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            TreeSpec(1, 2)
        with pytest.raises(InvalidSpec):
            TreeSpec(2, -1)
        with pytest.raises(InvalidSpec):
            build_tree(TreeSpec(2, 0))

    def test_peak_memory_at_most_twice_the_result(self):
        # assembly's temporaries must stay below the arrays it returns
        tracemalloc.start()
        try:
            t = build_tree(TreeSpec(2, 14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [getattr(t.net, f.name) for f in fields(t.net)]
        kept = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert peak <= 2 * kept

    def test_distance(self):
        t = build_tree(TreeSpec(2, 3))
        a = first_at_depth(2, 3)
        assert tree_distance(t, a, 0) == 3
        assert tree_distance(t, a, a) == 0
        # siblings share a parent
        assert tree_distance(t, 1, 2) == 2
        # leftmost depth-3 leaf to a leaf under a different level-1 branch
        far = int(t.net.vertex_count - 1)
        assert tree_distance(t, a, far) == 6
        tc = build_tree(TreeSpec(2, 3, contract_boundary=True))
        for tree, bad in ((t, -1), (t, t.net.vertex_count), (tc, tc.z)):
            with pytest.raises(InvalidVertex):
                tree_distance(tree, 0, bad)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("levels", range(7))
class TestLabelArithmetic:
    """The closed-form labels against the level-by-level reference."""

    def test_edges(self, q, levels):
        for new, ref in zip(tree_mod._tree_edges(q, levels), reference_tree_edges(q, levels)):
            assert new.dtype == ref.dtype
            assert np.array_equal(new, ref)

    @pytest.mark.parametrize("contract", [False, True])
    def test_build_depth_parent(self, q, levels, contract):
        if levels == 0 and not contract:
            with pytest.raises(InvalidSpec):
                build_tree(TreeSpec(q, 0))
            return
        net, depth, parent, z = reference_build_tree(q, levels, contract)
        t = build_tree(TreeSpec(q, levels, contract_boundary=contract))
        assert_same_network(t.net, net)
        assert t.z == z
        ids = np.arange(t.net.vertex_count)
        assert np.array_equal(t.depth_of(ids), depth)
        assert np.array_equal(t.parent_of(ids), parent)
        for x in (0, ids[-1]):  # scalars: the root and the last id (z when contracted)
            assert (t.depth_of(x), t.parent_of(x)) == (depth[x], parent[x])

    def test_generator_depth(self, q, levels):
        _, depth, _, _ = reference_build_tree(q, levels, True)  # z is level levels + 1
        gen = TreeGenerator(q)
        assert [gen.depth_of(x) for x in range(len(depth))] == depth.tolist()


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("levels", range(1, 7))
def test_distance_is_bfs_distance(q, levels):
    t = build_tree(TreeSpec(q, levels))
    n = t.net.vertex_count
    rng = np.random.default_rng(q * 10 + levels)
    sources = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, 3)]))
    bfs = shortest_path(t.net.conductance_matrix(), unweighted=True, indices=sources)
    for a, row in zip(sources.tolist(), bfs):
        for x in np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, 30)])).tolist():
            assert tree_distance(t, a, x) == row[x]


class TestClosedForms:
    def test_resistance_series(self):
        assert abs(oracle_resistance(2, 1) - 1.0 / 3.0) < 1e-15
        assert abs(oracle_resistance(2, 2) - 0.5) < 1e-15
        assert abs(oracle_resistance(2, None) - 2.0 / 3.0) < 1e-15
        assert abs(oracle_resistance(3, None) - 3.0 / 8.0) < 1e-15

    def test_resistance_matches_ladder(self):
        for q in (2, 3, 4, 5):
            for n in range(1, 12):
                assert abs(oracle_resistance(q, n) - ladder_resistance(q, n)) < 1e-12

    def test_ladder_q5(self):
        assert abs(ladder_resistance(5, 2) - 1.0 / 5.0) < 1e-15

    def test_potential_current(self):
        v0, i0 = oracle_potential_current(2, 0)
        assert abs(v0 - 2.0 / 3.0) < 1e-15
        assert abs(i0 - 1.0 / 3.0) < 1e-15
        v1, i1 = oracle_potential_current(2, 1)
        assert abs(v1 - 1.0 / 3.0) < 1e-15
        assert abs(i1 - 1.0 / 6.0) < 1e-15

    def test_green_hitting_transitions(self):
        g, h, s = oracle_green_hitting(2, 0)
        assert abs(g - 2.0) < 1e-15
        assert h == 1.0
        assert abs(s - 2.0 / 3.0) < 1e-15
        g, h, s = oracle_green_hitting(2, 1)
        assert abs(g - 1.0) < 1e-15
        assert abs(h - 0.5) < 1e-15
        assert abs(s - 1.0 / 3.0) < 1e-15
        g, h, s = oracle_green_hitting(3, 2)
        assert abs(g - 1.0 / 6.0) < 1e-15
        assert abs(h - 1.0 / 9.0) < 1e-15

    def test_finite_escape_values(self):
        assert abs(oracle_finite_escape("a", 2, n=2) - 2.0 / 3.0) < 1e-15
        assert abs(oracle_finite_escape("b", 2, n=4) - 0.25) < 1e-15
        assert abs(oracle_finite_escape("c", 2, n=2) - 1.0 / 6.0) < 1e-15
        assert abs(oracle_finite_escape("d", 2, dist=3) - 1.0 / 3.0) < 1e-15
        assert abs(oracle_finite_escape("e", 2, dist=3) - 1.0 / 9.0) < 1e-15

    def test_errors(self):
        with pytest.raises(InvalidQ):
            oracle_resistance(1, 2)
        with pytest.raises(InvalidQ):
            oracle_resistance(2, 0)
        with pytest.raises(InvalidQ):
            ladder_resistance(2, 0)
        with pytest.raises(InvalidCase):
            oracle_finite_escape("f", 2, n=2)

    def test_table_rows(self):
        rows = oracle_table(2, 3)
        assert len(rows) == 4
        assert rows[0]["green"] == 2.0
        assert rows[1]["hitting"] == 0.5


class TestSolverAgreement:
    def test_resistance_vs_solver(self):
        for q in (2, 3):
            for n in (1, 2, 3, 4):
                t = build_tree(TreeSpec(q, n - 1, contract_boundary=True))
                r = effective(t.net, 0, {t.z}).resistance
                assert abs(r - oracle_resistance(q, n)) < 1e-9

    def test_voltages_and_currents_vs_solver(self):
        q, n = 2, 6
        t = build_tree(TreeSpec(q, n - 1, contract_boundary=True))
        v = solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}), tol=1e-11)
        eq = effective(t.net, 0, {t.z})
        v_unit = v * eq.resistance
        i_unit = ohm_current(t.net, v_unit)
        rn = oracle_resistance(q, n)
        r_inf = oracle_resistance(q, None)
        # stop above the deepest level, whose boundary edges are merged
        for d in range(n - 1):
            x = first_at_depth(q, d)
            v_cf, i_cf = oracle_potential_current(q, d)
            # truncation shifts the potential by R_inf - R_n
            assert abs(v_unit[x] - (v_cf - (r_inf - rn))) < 1e-9
            down = [
                k
                for k in t.net.incident_edges(x)
                if t.depth_of(t.net.edge_u[k] + t.net.edge_v[k] - x) == d + 1
            ]
            for k in down:
                assert abs(abs(i_unit[k]) - i_cf) < 1e-9

    def test_level_symmetry(self):
        t = build_tree(TreeSpec(2, 4, contract_boundary=True))
        v = solve_dirichlet(t.net, BoundarySpec({0: 1.0, t.z: 0.0}), tol=1e-11)
        for k in range(1, 5):
            lv = v[level_slice(t, k)]
            assert np.max(lv) - np.min(lv) < 1e-10

    def test_pair_resistance_is_distance(self):
        t = build_tree(TreeSpec(2, 3))
        a = first_at_depth(2, 3)
        far = int(t.net.vertex_count - 1)
        assert finite_tree_pair_resistance(t, a, 0) == 3.0
        assert abs(effective(t.net, a, {0}).resistance - 3.0) < 1e-9
        assert abs(effective(t.net, a, {far}).resistance - 6.0) < 1e-9
        with pytest.raises(SameVertex):
            finite_tree_pair_resistance(t, a, a)
        tc = build_tree(TreeSpec(2, 2, contract_boundary=True))
        with pytest.raises(InvalidSpec):
            finite_tree_pair_resistance(tc, 0, 1)


class TestEscapeCases:
    def test_case_a(self):
        for q, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
            t = build_tree(TreeSpec(q, n))
            z = {int(x) for x in level_slice(t, n)}
            esc = effective(t.net, 0, z).escape_probability
            assert abs(esc - oracle_finite_escape("a", q, n=n)) < 1e-9

    def test_case_b(self):
        for q, n in [(2, 2), (2, 4), (3, 3)]:
            t = build_tree(TreeSpec(q, n))
            a = first_at_depth(q, n)
            assert vertex_weight(t.net, a) == 1.0
            z = outside_branch(t, a)
            esc = effective(t.net, a, z).escape_probability
            assert abs(esc - oracle_finite_escape("b", q, n=n)) < 1e-9

    def test_case_c(self):
        for q, n in [(2, 2), (2, 3), (3, 2)]:
            t = build_tree(TreeSpec(q, n + 3))
            a = first_at_depth(q, n)
            assert vertex_weight(t.net, a) == float(q + 1)
            z = outside_branch(t, a)
            esc = effective(t.net, a, z).escape_probability
            assert abs(esc - oracle_finite_escape("c", q, n=n)) < 1e-9

    def test_case_d(self):
        t = build_tree(TreeSpec(2, 3))
        a = first_at_depth(2, 3)
        for x, dist in [(0, 3), (1, 2), (int(t.net.vertex_count - 1), 6)]:
            esc = effective(t.net, a, {x}).escape_probability
            assert abs(esc - oracle_finite_escape("d", 2, dist=dist)) < 1e-9

    def test_case_e(self):
        t = build_tree(TreeSpec(2, 3))
        a = first_at_depth(2, 1)
        for x, dist in [(0, 1), (2, 2), (first_at_depth(2, 3), 2)]:
            esc = effective(t.net, a, {x}).escape_probability
            assert abs(esc - oracle_finite_escape("e", 2, dist=dist)) < 1e-9


class TestGenerator:
    def test_depth_of(self):
        gen = TreeGenerator(2)
        assert gen.depth_of(0) == 0
        assert gen.depth_of(1) == 1
        assert gen.depth_of(3) == 1
        assert gen.depth_of(4) == 2
        assert gen.depth_of(9) == 2
        assert gen.depth_of(10) == 3

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_depth_of_deep_levels(self, q):
        gen = TreeGenerator(q)
        for d in range(1, 21):
            first = first_at_depth(q, d)
            assert (gen.depth_of(first - 1), gen.depth_of(first)) == (d - 1, d)

    def test_shell_conductance(self):
        gen = TreeGenerator(3)
        assert gen.shell_conductance(0) == 4.0
        assert gen.shell_conductance(2) == 36.0

    def test_invalid_q(self):
        with pytest.raises(InvalidQ):
            TreeGenerator(1)
