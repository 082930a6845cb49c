import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_network,
    reference_assemble,
    reference_build_network,
    reference_network_from_json,
)
from resistive_walks import (
    HalfLineGenerator,
    TreeGenerator,
    TreeSpec,
    build_network,
    build_tree,
    contract_vertices,
    effective,
    exhaustion,
    markov_view,
    network_from_json,
    network_to_json,
    series_parallel_reduce,
    vertex_weight,
)
from resistive_walks.errors import (
    ComplementDisconnected,
    DisconnectedGraph,
    EmptyContractionSet,
    EmptyInput,
    InvalidRadius,
    InvalidVertex,
    NonpositiveConductance,
)
from resistive_walks.network import Network, _assemble


def random_connected_net(rng, n):
    triples = [(i, rng.integers(0, i), float(rng.uniform(0.1, 10))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(n, 2))
    triples += [
        (int(a), int(b), float(rng.uniform(0.1, 10))) for a, b in extra if a != b
    ]
    return build_network(triples)


class TestBuildNetwork:
    def test_single_unit_edge(self):
        net = build_network([(0, 1, 1.0)])
        assert net.vertex_count == 2
        assert vertex_weight(net, 0) == 1.0
        assert vertex_weight(net, 1) == 1.0

    def test_parallel_edges_merge(self):
        net = build_network([(0, 1, 1.0), (0, 1, 1.0)])
        assert net.edge_count == 1
        assert net.edge_c[0] == 2.0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_network([(0, 1, 1.0), (2, 3, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            build_network([])

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(NonpositiveConductance):
            build_network([(0, 1, -1.0)])
        with pytest.raises(NonpositiveConductance):
            build_network([(0, 1, 0.0)])

    def test_self_loops_dropped(self):
        net = build_network([(0, 0, 5.0), (0, 1, 1.0)])
        assert net.edge_count == 1

    def test_labels_remapped_dense(self):
        net = build_network([("a", "c", 1.0), ("c", "b", 2.0)])
        assert net.vertex_count == 3
        assert net.labels == ("a", "b", "c")
        assert net.index_of("c") == 2

    def test_index_of_unknown_label(self):
        net = build_network([("a", "c", 1.0), ("c", "b", 2.0)])
        for bad in ("z", 0, ["a"]):
            with pytest.raises(InvalidVertex):
                net.index_of(bad)

    def test_index_of_unlabelled(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        assert net.index_of(2) == 2 and net.index_of(np.int64(0)) == 0
        for bad in (7, 3, -1, "1", 1.5):
            with pytest.raises(InvalidVertex):
                net.index_of(bad)

    def test_index_of_repeated_label_is_first(self):
        net = dataclasses.replace(
            build_network([(0, 1, 1.0), (1, 2, 1.0)]), labels=("a", "b", "a")
        )
        assert [net.index_of(lab) for lab in "ab"] == [0, 1]

    def test_vertex_weight_sums_incident(self):
        net = build_network([(0, 1, 0.5), (0, 2, 1.5), (1, 2, 1.0)])
        assert vertex_weight(net, 0) == 2.0

    def test_invalid_vertex(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(InvalidVertex):
            vertex_weight(net, 7)


class TestMarkovView:
    def test_single_edge_sole_neighbor(self):
        mv = markov_view(build_network([(0, 1, 3.0)]))
        assert mv.p[0, 1] == 1.0
        assert mv.p[1, 0] == 1.0

    def test_star_normalization(self):
        net = build_network([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 1.0)])
        mv = markov_view(net)
        assert mv.p[0, 1] == 0.25
        assert mv.p[0, 2] == 0.5
        assert mv.p[0, 3] == 0.25

    def test_tree_uniform_rows(self):
        t = build_tree(TreeSpec(2, 2))
        mv = markov_view(t.net)
        row = mv.p[0].toarray().ravel()
        assert np.allclose(row[row > 0], 1.0 / 3.0)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_stochastic_and_detailed_balance(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        mv = markov_view(net)
        rows = np.asarray(mv.p.sum(axis=1)).ravel()
        assert np.max(np.abs(rows - 1.0)) < 1e-12
        flux = mv.p.multiply(mv.pi[:, None])
        assert abs(flux - flux.T).max() < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_handshake_identity(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        assert np.isclose(net.pi.sum(), 2.0 * net.edge_c.sum(), rtol=1e-14)


class TestContraction:
    def test_path_tail_contracts_to_single_edge(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        out, z = contract_vertices(net, {1, 2})
        assert out.vertex_count == 2
        assert out.edge_count == 1
        assert out.edge_c[0] == 1.0

    def test_tree_leaves_merge(self):
        t = build_tree(TreeSpec(2, 1))
        out, z = contract_vertices(t.net, {1, 2, 3})
        assert out.vertex_count == 2
        assert out.edge_c[0] == 3.0

    def test_result_owns_its_conductances(self):
        net = build_network([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        out, z = contract_vertices(net, {3})
        assert out.edge_c.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(out.edge_c, net.edge_c)

    def test_contract_everything_rejected(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(ComplementDisconnected):
            contract_vertices(net, {0, 1})

    def test_empty_set_rejected(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(EmptyContractionSet):
            contract_vertices(net, set())

    def test_disconnected_complement_rejected(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ComplementDisconnected):
            contract_vertices(net, {1})

    def test_dead_end_contraction_preserves_resistance(self):
        # hanging branch carries no current between 0 and 2
        net = build_network([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)])
        r_before = effective(net, 0, {2}).resistance
        out, z = contract_vertices(net, {3, 4})
        r_after = effective(out, 0, {2}).resistance
        assert abs(r_before - r_after) < 1e-12


class TestExhaustion:
    def test_radius_zero_tree(self):
        net, z = exhaustion(TreeGenerator(2), 0)
        assert net.vertex_count == 2
        assert net.edge_c[0] == 3.0

    def test_radius_one_tree(self):
        net, z = exhaustion(TreeGenerator(2), 1)
        assert net.vertex_count == 5
        assert z == 4
        # each level-1 vertex carries a merged conductance-2 edge to z
        zc = net.edge_c[net.incident_edges(z)]
        assert np.allclose(zc, 2.0)

    def test_nested_vertex_sets(self):
        gen = TreeGenerator(2)
        sizes = [exhaustion(gen, n)[0].vertex_count for n in range(4)]
        assert sizes == sorted(sizes)

    def test_negative_radius(self):
        with pytest.raises(InvalidRadius):
            exhaustion(HalfLineGenerator(), -1)


class TestSeriesParallelReduce:
    def test_series_unit_resistors(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        out = series_parallel_reduce(net, {0, 2})
        assert out.vertex_count == 2
        assert abs(1.0 / out.edge_c[0] - 2.0) < 1e-15

    def test_parallel_merge(self):
        net = build_network([(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)])
        out = series_parallel_reduce(net, {0, 1})
        assert out.edge_count == 1
        assert out.edge_c[0] == 3.0

    def test_contracted_tree_ladder(self):
        t = build_tree(TreeSpec(2, 1, contract_boundary=True))
        out = series_parallel_reduce(t.net, {0, t.z})
        assert out.vertex_count == 2
        assert abs(1.0 / out.edge_c[0] - 0.5) < 1e-12

    def test_irreducible_left_alone(self):
        # K4 has no degree-2 vertices; fixed point is the input
        edges = [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]
        net = build_network(edges)
        out = series_parallel_reduce(net, {0, 3})
        assert out.vertex_count == 4

    @given(st.integers(0, 2**32 - 1), st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_preserves_effective_resistance(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        keep = {0, n - 1}
        out = series_parallel_reduce(net, keep)
        a, z = out.index_of(0), out.index_of(n - 1)
        r_full = effective(net, 0, {n - 1}).resistance
        r_red = effective(out, a, {z}).resistance
        assert abs(r_full - r_red) < 1e-10


class TestJsonFormat:
    def test_roundtrip(self):
        net = build_network([(0, 1, 1.5), (1, 2, 0.5)])
        doc = json.loads(json.dumps(network_to_json(net)))
        back = network_from_json(doc)
        assert back.vertex_count == net.vertex_count
        assert np.allclose(back.edge_c, net.edge_c)

    def test_rejects_bad_conductance(self):
        doc = {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": -1.0}]}
        with pytest.raises(NonpositiveConductance):
            network_from_json(doc)

    def test_rejects_out_of_range_id(self):
        doc = {"vertices": 2, "edges": [{"u": 0, "v": 5, "c": 1.0}]}
        with pytest.raises(InvalidVertex):
            network_from_json(doc)


def outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the class of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(new, ref):
    if isinstance(ref, type):
        assert new is ref
    else:
        assert isinstance(new, Network)
        assert_same_network(new, ref)


def random_multigraph(seed, n, m, order, spanning):
    """(u, v, c) with self-loops, parallel edges and c = 10^U(-8, 8).

    ``order`` is "shuffled" (raw), "sorted" (u < v, sorted, parallel edges
    kept) or "canonical" (u < v, sorted, no parallel edges).
    """
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    if spanning:
        kids = rng.permutation(n)
        u = np.concatenate([u, kids[1:]])
        v = np.concatenate([v, kids[rng.integers(0, np.arange(1, n))]])
    u = np.concatenate([u, u[: m // 4]])  # parallel edges
    v = np.concatenate([v, v[: m // 4]])
    if order != "shuffled":
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        if order == "canonical":
            lo, hi = np.divmod(np.unique(lo * n + hi), n)
        else:
            idx = np.lexsort((hi, lo))
            lo, hi = lo[idx], hi[idx]
        u, v = lo, hi
    c = 10.0 ** rng.uniform(-8, 8, size=len(u))
    return u, v, c


class TestAssemblyReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 40),
        st.sampled_from(["shuffled", "sorted", "canonical"]),
        st.sampled_from([np.int32, np.int64]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, n, m, order, dtype, spanning, check):
        u, v, c = random_multigraph(seed, n, m, order, spanning)
        u, v = u.astype(dtype), v.astype(dtype)
        ref = outcome(reference_assemble, u.copy(), v.copy(), c.copy(), n,
                      check_connected=check)
        new = outcome(_assemble, u.copy(), v.copy(), c.copy(), n, check_connected=check)
        assert_same_outcome(new, ref)

    @pytest.mark.parametrize("edges, n, check", [
        ([(0, 0), (1, 1)], 2, True),  # all self-loops
        ([(0, 1), (1, 2)], 4, False),  # isolated vertex
        ([(0, 1), (2, 3)], 4, True),  # disconnected
        ([(0, 1), (2, 3)], 4, False),  # disconnected, not checked
        ([(0, 1), (0, 1), (1, 2)], 3, True),  # sorted with a parallel pair
        ([(1, 0), (1, 2)], 3, True),  # sorted keys, one pair reversed
    ])
    def test_edge_cases_match_reference(self, edges, n, check):
        u, v = (np.array(x, dtype=np.int64) for x in zip(*edges))
        c = np.linspace(0.5, 2.0, len(u))
        ref = outcome(reference_assemble, u.copy(), v.copy(), c.copy(), n,
                      check_connected=check)
        new = outcome(_assemble, u, v, c, n, check_connected=check)
        assert_same_outcome(new, ref)

    @pytest.mark.parametrize("spec", [
        TreeSpec(2, 6), TreeSpec(3, 4), TreeSpec(2, 5, contract_boundary=True),
        TreeSpec(3, 0, contract_boundary=True),
    ])
    def test_tree_matches_reference(self, spec, monkeypatch):
        import resistive_walks.generators as generators_mod
        import resistive_walks.tree as tree_mod

        new = build_tree(spec).net
        # a contracted tree is assembled by the exhaustion in generators
        monkeypatch.setattr(tree_mod, "_assemble", reference_assemble)
        monkeypatch.setattr(generators_mod, "_assemble", reference_assemble)
        assert_same_network(new, build_tree(spec).net)


# labels of vertex ids 0..n-1, by kind: the first four take build_network's
# integer path, the rest (beyond int64, bools, mixed types) its general one
_LABELS = {
    "dense": lambda ids: ids.tolist(),
    "sparse": lambda ids: (7 * ids - 20).tolist(),
    "int32": lambda ids: list(ids.astype(np.int32)),
    "uint64": lambda ids: list(ids.astype(np.uint64) + np.uint64(2**63)),
    "huge": lambda ids: [x + 2**64 for x in ids.tolist()],
    "wide": lambda ids: [x * 2**61 - 1 for x in ids.tolist()],
    "bool": lambda ids: [bool(x) if x < 2 else x for x in ids.tolist()],
    "mixed": lambda ids: [str(x) if x % 3 == 0 else x for x in ids.tolist()],
}


class TestBuildNetworkReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 40),
        st.sampled_from(["shuffled", "sorted", "canonical"]),
        st.sampled_from(sorted(_LABELS)),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, n, m, order, kind, spanning, check):
        u, v, c = random_multigraph(seed, n, m, order, spanning)
        label = _LABELS[kind](np.arange(n))
        triples = [(label[a], label[b], w) for a, b, w in zip(u.tolist(), v.tolist(), c.tolist())]
        ref = outcome(reference_build_network, triples, check_connected=check)
        new = outcome(build_network, triples, check_connected=check)
        assert_same_outcome(new, ref)

    def test_integer_labels_keep_their_order(self):
        net = build_network([(10, -3, 1.0), (np.int64(-3), 2**40, 2.0)])
        assert net.labels == (-3, 10, 2**40)
        assert (net.edge_u.tolist(), net.edge_v.tolist()) == ([0, 0], [1, 2])

    def test_bool_labels_stay_bools(self):
        assert [type(x) for x in build_network([(True, 5, 1.0)]).labels] == [bool, int]


def edge_doc(u, v, c, n, labels=None):
    doc = {
        "vertices": n,
        "edges": [{"u": a, "v": b, "c": w} for a, b, w in zip(u.tolist(), v.tolist(), c.tolist())],
    }
    if labels is not None:
        doc["labels"] = labels
    return doc


class TestJsonReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 30),
        st.sampled_from(["shuffled", "sorted", "canonical"]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, seed, n, m, order, spanning, labelled):
        u, v, c = random_multigraph(seed, n, m, order, spanning)
        labels = {str(i): f"x{i}" for i in range(n)} if labelled else None
        doc = json.loads(json.dumps(edge_doc(u, v, c, n, labels)))
        assert_same_outcome(outcome(network_from_json, doc),
                            outcome(reference_network_from_json, doc))

    @pytest.mark.parametrize("doc", [
        {"vertices": 3, "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 3, "c": 1.0}]},
        {"vertices": 3, "edges": [{"u": -1, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 10**30, "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 0.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": -2.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": float("inf")}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": float("nan")}]},
        {"vertices": 4, "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}]},
        {"vertices": 10**12, "edges": [{"u": 0, "v": 1, "c": 1.0}]},
        {"vertices": 2, "edges": []},
        {"vertices": 2, "edges": [{"u": 0, "v": 0, "c": 1.0}, {"u": 1, "v": 1, "c": 1.0}]},
        {"vertices": 3, "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 2, "v": 2, "c": 1.0}]},
        {"vertices": 4, "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 2, "v": 3, "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1}]},
        {"vertices": 2, "edges": [{"u": 0, "v": "x", "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": None, "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": "heavy"}]},
        {"vertices": 2, "edges": [[0, 1, 1.0]]},
        {"vertices": 2, "edges": None},
        {"edges": [{"u": 0, "v": 1, "c": 1.0}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 1.0}], "labels": {"0": "a"}},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 1.0}], "labels": ["a", "b"]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 1.0}], "labels": {"0": "a", "1": "b"}},
        {"vertices": "2", "edges": [{"u": "0", "v": 1.0, "c": "2.5"}, {"u": True, "v": 0, "c": 1}]},
    ])
    def test_documents_match_reference(self, doc):
        assert_same_outcome(outcome(network_from_json, doc),
                            outcome(reference_network_from_json, doc))
