import io
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_network,
    reference_assemble,
    reference_build_network,
    reference_conductance_matrix,
    reference_network_from_json,
)
from resistive_walks import (
    HalfLineGenerator,
    TreeGenerator,
    TreeSpec,
    build_network,
    build_tree,
    exhaustion,
    network_from_json,
    network_to_json,
)
from resistive_walks.errors import (
    DisconnectedGraph,
    EmptyInput,
    InvalidRadius,
    InvalidVertex,
    NonpositiveConductance,
)
from resistive_walks.network import Network, _assemble, _network_from_file
from test_cli import BAD_NETWORK_FILES


def random_connected_net(rng, n):
    triples = [(i, rng.integers(0, i), float(rng.uniform(0.1, 10))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(n, 2))
    triples += [
        (int(a), int(b), float(rng.uniform(0.1, 10))) for a, b in extra if a != b
    ]
    return build_network(triples)


def transition_matrix(net):
    """The chain's p(x, y) = c(x, y) / pi(x), from the network's own arrays."""
    return sp.diags(1.0 / net.pi) @ net.conductance_matrix()


class TestBuildNetwork:
    def test_single_unit_edge(self):
        net = build_network([(0, 1, 1.0)])
        assert net.vertex_count == 2
        assert net.pi.tolist() == [1.0, 1.0]

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

    def test_check_ids_refuses_non_integers(self):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        for bad in ([1.7], [0, np.float64(2.0)], ["1"], [2, True], [np.True_]):
            with pytest.raises(InvalidVertex, match="not an integer"):
                net._check_ids(bad)
        assert net._check_ids([np.int32(2), 1]).tolist() == [2, 1]

    def test_vertex_weight_sums_incident(self):
        net = build_network([(0, 1, 0.5), (0, 2, 1.5), (1, 2, 1.0)])
        assert net.pi[0] == 2.0

    def test_invalid_vertex(self):
        net = build_network([(0, 1, 1.0)])
        with pytest.raises(InvalidVertex):
            net.neighbors(7)


class TestConductanceMatrix:
    @pytest.mark.parametrize("make", [
        lambda: random_connected_net(np.random.default_rng(5), 40),
        lambda: build_tree(TreeSpec(3, 4)).net,
        lambda: exhaustion(TreeGenerator(2), 5)[0],
    ])
    def test_matches_reference_and_keeps_adjacency(self, make):
        net = make()
        nbr = net.adj_neighbor.copy()
        got, want = net.conductance_matrix(), reference_conductance_matrix(net)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # sorting the matrix's indices must not reorder the walker's slots
        assert np.array_equal(net.adj_neighbor, nbr)


class TestMarkovView:
    """The network read as a reversible chain, through ``transition_matrix``."""

    def test_single_edge_sole_neighbor(self):
        p = transition_matrix(build_network([(0, 1, 3.0)]))
        assert p[0, 1] == 1.0
        assert p[1, 0] == 1.0

    def test_star_normalization(self):
        p = transition_matrix(build_network([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 1.0)]))
        assert p[0, 1] == 0.25
        assert p[0, 2] == 0.5
        assert p[0, 3] == 0.25

    def test_tree_uniform_rows(self):
        row = transition_matrix(build_tree(TreeSpec(2, 2)).net)[0].toarray().ravel()
        assert np.allclose(row[row > 0], 1.0 / 3.0)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_stochastic_and_detailed_balance(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        p = transition_matrix(net)
        rows = np.asarray(p.sum(axis=1)).ravel()
        assert np.max(np.abs(rows - 1.0)) < 1e-12
        flux = p.multiply(net.pi[:, None])
        assert abs(flux - flux.T).max() < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_handshake_identity(self, seed, n):
        net = random_connected_net(np.random.default_rng(seed), n)
        assert np.isclose(net.pi.sum(), 2.0 * net.edge_c.sum(), rtol=1e-14)


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


class TestJsonFormat:
    def test_roundtrip(self):
        net = build_network([(0, 1, 1.5), (1, 2, 0.5)])
        doc = json.loads(json.dumps(network_to_json(net)))
        back = network_from_json(doc)
        assert back.vertex_count == net.vertex_count
        assert np.allclose(back.edge_c, net.edge_c)

    def test_labels_roundtrip(self):
        net = build_network([("a", "c", 1.0), ("c", "b", 2.0)])
        doc = json.loads(json.dumps(network_to_json(net)))
        assert doc["labels"] == {"0": "a", "1": "b", "2": "c"}
        assert network_from_json(doc).labels == ("a", "b", "c")

    def test_rejects_bad_conductance(self):
        doc = {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": -1.0}]}
        with pytest.raises(NonpositiveConductance):
            network_from_json(doc)

    def test_rejects_out_of_range_id(self):
        doc = {"vertices": 2, "edges": [{"u": 0, "v": 5, "c": 1.0}]}
        with pytest.raises(InvalidVertex):
            network_from_json(doc)

    @pytest.mark.parametrize("count", [2.7, 2.0, " 2 ", True])
    def test_rejects_vertex_count_not_an_int(self, count):
        # the id rule: a float, string or boolean is not a count either
        doc = {"vertices": count, "edges": [{"u": 0, "v": 1, "c": 1.0}]}
        with pytest.raises(InvalidVertex, match="vertex count"):
            network_from_json(doc)
        with pytest.raises(InvalidVertex, match="vertex count"):
            read_text(json.dumps(doc))

    def test_numpy_vertex_count(self):
        doc = {"vertices": np.int32(2), "edges": [{"u": 0, "v": 1, "c": 1.0}]}
        assert network_from_json(doc).vertex_count == 2


_ARRAYS = ("edge_u", "edge_v", "edge_c", "adj_indptr", "adj_neighbor", "adj_edge", "pi")


class TestReadOnly:
    """Every builder's network refuses an in-place write to its arrays, so
    that nothing keyed by a network's identity can go stale."""

    @pytest.mark.parametrize("build", [
        lambda: build_network([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)]),
        lambda: build_network([("a", "b", 1.0), ("b", "c", 2.0)]),
        lambda: build_tree(TreeSpec(2, 3)).net,
        lambda: exhaustion(TreeGenerator(3), 2)[0],
        lambda: network_from_json({"vertices": 3, "edges": [
            {"u": 0, "v": 1, "c": 1.0}, {"u": 2, "v": 1, "c": 3.0}], "labels": {
                "0": "x", "1": "y", "2": "z"}}),
        lambda: read_text('{"vertices": 3, "edges": [{"u": 0, "v": 1, "c": 1.0}, '
                          '{"u": 1, "v": 2, "c": 2}]}'),
    ], ids=["build_network", "labelled", "build_tree", "exhaustion", "json", "file"])
    @pytest.mark.parametrize("name", _ARRAYS)
    def test_in_place_write_raises(self, build, name):
        net = build()
        arr = getattr(net, name)
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            arr += 1
        assert np.array_equal(arr, before)


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

    def test_result_owns_its_conductances(self):
        # a canonical list's u and v may be kept, but c may be a
        # generator's own edge array
        u, v, c = np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
        net = _assemble(u, v, c, 4)
        assert net.edge_c.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(net.edge_c, c)

    # (q, levels, contracted): a contracted tree is assembled by the
    # exhaustion in generators, an uncontracted one by build_tree
    @pytest.mark.parametrize("spec", [(2, 6, False), (3, 4, False), (2, 5, True), (3, 0, True)])
    def test_tree_matches_reference(self, spec, monkeypatch):
        import resistive_walks.generators as generators_mod
        import resistive_walks.tree as tree_mod

        q, levels, contracted = spec

        def build():
            if contracted:
                return exhaustion(TreeGenerator(q), levels)[0]
            return build_tree(TreeSpec(q, levels)).net

        new = build()
        monkeypatch.setattr(tree_mod, "_assemble", reference_assemble)
        monkeypatch.setattr(generators_mod, "_assemble", reference_assemble)
        assert_same_network(new, build())


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
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, n, m, order, kind, spanning):
        u, v, c = random_multigraph(seed, n, m, order, spanning)
        label = _LABELS[kind](np.arange(n))
        triples = [(label[a], label[b], w) for a, b, w in zip(u.tolist(), v.tolist(), c.tolist())]
        ref = outcome(reference_build_network, triples)
        new = outcome(build_network, triples)
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
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 3}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": np.float32(1.5)}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": True}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": "1.5"}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": " 2 "}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": "0x10"}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 10**400}]},
        {"vertices": 3, "edges": [{"u": 0, "v": 1, "c": "x"}, {"u": 1, "v": 3, "c": 1.0}]},
        *({"vertices": n, "edges": [{"u": 0, "v": 1, "c": 1.0}]}
          for n in (2.7, 2.0, " 2 ", True, np.int64(2))),
    ])
    def test_documents_match_reference(self, doc):
        assert_same_outcome(outcome(network_from_json, doc),
                            outcome(reference_network_from_json, doc))


def read_text(text):
    """The file reader's network of a document's text."""
    return _network_from_file(io.StringIO(text))


# field values a drawn document may put in one edge record: each is either
# refused by both readers or leaves the record to network_from_json
_ODD_FIELDS = [True, False, None, "1", " 2 ", "0x10", 1.5, 0.0, -1, 10**30, 10**400, [0], {}]
# labels that are JSON objects, some shaped like an edge record
_ODD_LABELS = [{"u": 0, "v": 1, "c": 1.0}, {"u": "a"}, {"w": 1}, [1, 2], None, 3]


class TestFileReader:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 30),
        st.sampled_from(["shuffled", "sorted", "canonical"]),
        st.booleans(),
        st.sampled_from([None, "text", "odd"]),
        st.one_of(st.none(), st.tuples(
            st.integers(0, 10**6), st.sampled_from("uvc"), st.sampled_from(_ODD_FIELDS + ["drop"])
        )),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_network_from_json(self, seed, n, m, order, spanning, labelled, odd):
        u, v, c = random_multigraph(seed, n, m, order, spanning)
        labels = None
        if labelled == "text":
            labels = {str(i): f"x{i}" for i in range(n)}
        elif labelled == "odd":
            labels = {str(i): _ODD_LABELS[i % len(_ODD_LABELS)] for i in range(n)}
        doc = edge_doc(u, v, c, n, labels)
        if odd is not None and doc["edges"]:
            k, key, value = odd
            record = doc["edges"][k % len(doc["edges"])]
            if value == "drop":
                del record[key]
            else:
                record[key] = value
        text = json.dumps(doc)
        assert_same_outcome(outcome(read_text, text),
                            outcome(network_from_json, json.loads(text)))

    def test_bad_files_raise_the_same_class(self):
        for name, text in BAD_NETWORK_FILES.items():
            got = outcome(read_text, text)
            want = outcome(lambda: network_from_json(json.loads(text)))
            assert isinstance(got, type) and got is want, name

    def test_peak_memory_per_edge(self, tmp_path):
        # a dict per edge record peaks at about 430 B per edge
        n = 100
        idx = np.arange(n * n).reshape(n, n)
        u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        c = np.random.default_rng(0).uniform(0.5, 2.0, size=len(u))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(network_to_json(_assemble(u, v, c, n * n))))

        def read():
            with open(path) as fh:
                return _network_from_file(fh)

        read()  # first-call allocations (imports, caches) are not the reader's
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(u) < 200
