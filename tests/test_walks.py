import functools
import hashlib
import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from oracles import absorbing_hit_probability, expected_visits, reference_tree_step
from resistive_walks import (
    GraphGenerator,
    Network,
    TreeGenerator,
    TreeSpec,
    WalkConfig,
    build_network,
    build_tree,
    effective,
    estimate_escape,
    exhaustion,
    first_at_depth,
    level_slice,
    oracle_green_hitting,
    run_walks,
    tree_vertex_count,
)
from resistive_walks import network, walks
from resistive_walks.errors import InvalidSpec, InvalidVertex, NotAdjacent, VertexInTarget
from resistive_walks.walks import _pick_slots, _row_prefix_sums, _unit_slots
from test_network import random_connected_net, transition_matrix


def path3():
    return build_network([(0, 1, 1.0), (1, 2, 1.0)])


class TestDeterminism:
    def test_bit_identical_reruns(self):
        net = random_connected_net(np.random.default_rng(0), 12)
        cfg = WalkConfig(
            seed=123,
            num_walks=500,
            start=0,
            absorbing=(11,),
            watch_vertices=(0, 5),
            watch_edges=((0, int(net.neighbors(0)[0])),),
            track_visits=True,
            track_transitions=True,
        )
        s1 = run_walks(net, cfg)
        s2 = run_walks(net, cfg)
        assert np.array_equal(s1.absorbed_at, s2.absorbed_at)
        assert np.array_equal(s1.steps, s2.steps)
        assert np.array_equal(s1.watch_visit_counts, s2.watch_visit_counts)
        assert np.array_equal(s1.watch_edge_counts, s2.watch_edge_counts)
        assert np.array_equal(s1.visits, s2.visits)
        assert np.array_equal(s1.transition_counts, s2.transition_counts)

    def test_seed_changes_output(self):
        net = path3()
        a = run_walks(net, WalkConfig(seed=1, num_walks=200, start=1, absorbing=(0, 2)))
        b = run_walks(net, WalkConfig(seed=2, num_walks=200, start=1, absorbing=(0, 2)))
        assert not np.array_equal(a.absorbed_at, b.absorbed_at)

    def test_prefix_stability(self):
        # the per-walk stream depends only on (seed, walk index, step)
        net = path3()
        small = run_walks(net, WalkConfig(seed=9, num_walks=100, start=1, absorbing=(0, 2)))
        big = run_walks(net, WalkConfig(seed=9, num_walks=300, start=1, absorbing=(0, 2)))
        assert np.array_equal(small.absorbed_at, big.absorbed_at[:100])
        assert np.array_equal(small.steps, big.steps[:100])

    def test_numpy_integer_fields(self):
        # a numpy seed used to overflow the 64-bit mask of the seed
        fields = dict(seed=7, num_walks=50, max_steps=30, min_absorb_step=1)
        common = dict(start=1, absorbing=(0, 2), track_visits=True, track_transitions=True)
        want = run_walks(path3(), WalkConfig(**common, **fields))
        cfg = WalkConfig(**common, **{k: np.int64(v) for k, v in fields.items()})
        assert all(type(getattr(cfg, k)) is int for k in fields)
        _assert_same_tallies(run_walks(path3(), cfg), want)


class TestTrivialCases:
    def test_single_edge_one_step(self):
        net = build_network([(0, 1, 1.0)])
        stats = run_walks(net, WalkConfig(seed=0, num_walks=50, start=0, absorbing=(1,)))
        assert np.count_nonzero(stats.absorbed_at == 1) == 50
        assert np.all(stats.steps == 1)
        assert stats.censored == 0

    def test_censoring_without_absorbing(self):
        net = path3()
        stats = run_walks(net, WalkConfig(seed=0, num_walks=20, start=1, max_steps=10))
        assert stats.censored == 20
        assert np.all(stats.absorbed_at == -1)
        assert np.all(stats.steps == 10)

    def test_start_equals_target(self):
        net = path3()
        cfg = WalkConfig(seed=0, num_walks=40, start=1, absorbing=(1,))
        est, se = run_walks(net, cfg).hit_fraction(1)
        assert est == 1.0 and se == 0.0

    def test_green_absorbing_start_is_one(self):
        net = path3()
        cfg = WalkConfig(seed=0, num_walks=40, start=1, absorbing=(1,), watch_vertices=(1,))
        est, se = run_walks(net, cfg).visit_estimate(1)
        assert est == 1.0 and se == 0.0

    def test_escape_single_edge_certain(self):
        net = build_network([(0, 1, 1.0)])
        cfg = WalkConfig(seed=0, num_walks=30, start=0)
        est, se = estimate_escape(net, cfg, 0, {1})
        assert est == 1.0 and se == 0.0

    def test_errors(self):
        net = path3()
        with pytest.raises(InvalidVertex):
            run_walks(net, WalkConfig(seed=0, num_walks=1, start=9, absorbing=(0,)))
        with pytest.raises(NotAdjacent):
            run_walks(net, WalkConfig(seed=0, num_walks=1, start=0, absorbing=(2,),
                                      watch_edges=((0, 2),)))
        with pytest.raises(VertexInTarget):
            estimate_escape(net, WalkConfig(seed=0, num_walks=1, start=0), 0, {0, 2})
        with pytest.raises(ValueError):
            WalkConfig(seed=0, num_walks=0, start=0)
        for bad in (
            dict(absorbing=(-1,)),
            dict(absorbing=(999,)),
            dict(absorbing=np.array([0, 3])),
            dict(absorbing=(2,), watch_vertices=(3,)),
            dict(absorbing=(2,), watch_vertices=(-1,)),
            dict(absorbing=(2,), watch_edges=((1, 3),)),
            dict(absorbing=(2,), watch_edges=((-1, 0),)),
            # ids beyond int64
            dict(absorbing=(2**70,)),
            dict(absorbing=(2,), watch_vertices=(2**70,)),
            dict(absorbing=(2,), watch_edges=((0, 2**70),)),
            # a float id, which int64 conversion would truncate to 1
            dict(absorbing=(1.7,)),
        ):
            with pytest.raises(InvalidVertex):
                run_walks(net, WalkConfig(seed=0, num_walks=1, start=0, **bad))

    def test_int64_ids_checked_without_fromiter(self, monkeypatch):
        # a per-element pass over a deep level's ids costs more than the walks
        fromiter = np.fromiter

        def no_arrays(it, *args, **kwargs):
            assert not isinstance(it, np.ndarray), "fromiter over an id array"
            return fromiter(it, *args, **kwargs)

        monkeypatch.setattr(np, "fromiter", no_arrays)
        tree = build_tree(TreeSpec(2, 6))
        cfg = WalkConfig(seed=3, num_walks=200, start=0, absorbing=level_slice(tree.spec, 6))
        assert np.count_nonzero(run_walks(tree.net, cfg).absorbed_at >= 0) == 200


def _scan(c, first, last, r):
    """The linear neighbour scan: first slot whose running sum exceeds r."""
    s, acc = first, c[first]
    while r >= acc and s < last:
        s += 1
        acc += c[s]
    return s


def _hub_net(seed: int):
    """Random tree plus 24 hubs of degree 20..300, conductances 10^U(-8, 8)."""
    rng = np.random.default_rng(seed)
    n = 400
    ends = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    for h in range(24):
        size = int(rng.integers(20, 300))
        ends += [(h, int(x)) for x in rng.choice(np.arange(24, n), size=size, replace=False)]
    c = 10.0 ** rng.uniform(-8.0, 8.0, size=len(ends))
    return build_network([(a, b, float(w)) for (a, b), w in zip(ends, c)])


class TestSlotSelection:
    """Prefix sums and bisection against the linear scan, bit for bit."""

    NETS = [
        _hub_net(1),
        exhaustion(TreeGenerator(2), 6)[0],
        build_network([(0, 1, 1.0)]),
    ]

    @pytest.mark.parametrize("net", NETS)
    def test_prefix_sums_are_running_sums(self, net):
        c = net.edge_c[net.adj_edge]
        want = c.copy()
        for x in range(net.vertex_count):
            for s in range(net.adj_indptr[x] + 1, net.adj_indptr[x + 1]):
                want[s] = want[s - 1] + c[s]
        assert np.array_equal(_row_prefix_sums(net), want)

    @pytest.mark.parametrize("net", NETS)
    def test_pick_matches_scan(self, net):
        rng = np.random.default_rng(5)
        indptr, c = net.adj_indptr, net.edge_c[net.adj_edge]
        cum = _row_prefix_sums(net)
        x = rng.integers(0, net.vertex_count, size=3000)
        first, last = indptr[x], indptr[x + 1] - 1
        tie = cum[rng.integers(first, last + 1)]
        # random variates, exact ties, and r at or past the row sum
        r = np.concatenate([
            rng.random(len(x)) * net.pi[x], tie, cum[last],
            np.nextafter(cum[last], np.inf), net.pi[x],
        ])
        first, last = np.tile(first, 5), np.tile(last, 5)
        want = [_scan(c, f, l, v) for f, l, v in zip(first, last, r)]
        assert np.array_equal(_pick_slots(cum, first, last, r), want)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1 - 2.0**-30, 1 - 2.0**-53])
    def test_unit_shortcut_matches_bisection_and_scan(self, u):
        # one unit row of every degree 1..199, laid end to end
        deg = np.arange(1, 200)
        first = np.concatenate([[0], np.cumsum(deg)[:-1]])
        last = first + deg - 1
        c = np.ones(int(deg.sum()))
        cum = np.concatenate([np.arange(1.0, d + 1) for d in deg])
        r = u * deg.astype(np.float64)  # u * pi(x)
        got = _unit_slots(first, r)
        assert np.array_equal(got, _pick_slots(cum, first, last, r))
        assert np.array_equal(got, [_scan(c, f, l, v) for f, l, v in zip(first, last, r)])

    def test_unit_slot_stays_in_row(self):
        # the largest variate, 1 - 2**-53, times a degree rounds below the
        # degree, so _unit_slots needs no clamp to the row's last slot
        k = np.arange(1, 53, dtype=np.float64)
        deg = np.concatenate([np.arange(1.0, 2.0**20), 2**k - 1, 2**k, 2**k + 1])
        assert np.all(np.floor((1 - 2.0**-53) * deg) == deg - 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_conductance_casts_nothing_out_of_range(self):
        # u * pi(1) reaches 1e300, far beyond int64; only bisection sees it
        net = build_network([(0, 1, 1.0), (1, 2, 1e300), (2, 3, 1.0)])
        stats = run_walks(net, WalkConfig(seed=3, num_walks=200, start=0,
                                          absorbing=(3,), max_steps=50))
        assert np.count_nonzero(stats.absorbed_at == 3) + stats.censored == 200

    def test_unit_network_builds_no_prefix_sums(self, monkeypatch):
        def refuse(net):
            raise AssertionError("prefix sums built")

        monkeypatch.setattr(walks, "_row_prefix_sums", refuse)
        for kind in ("tree8", "k200"):
            net, fields = _golden_case(kind)
            run_walks(net, WalkConfig(seed=1, num_walks=300, **fields))
        net, fields = _golden_case("mixed")  # its odd rows need the sums
        with pytest.raises(AssertionError, match="prefix sums built"):
            run_walks(net, WalkConfig(seed=1, num_walks=300, **fields))


class TestAccounting:
    def test_hits_plus_censored(self):
        net = random_connected_net(np.random.default_rng(4), 15)
        cfg = WalkConfig(seed=7, num_walks=400, start=0, absorbing=(13, 14), max_steps=30)
        stats = run_walks(net, cfg)
        done = stats.absorbed_at[stats.absorbed_at >= 0]
        assert np.isin(done, cfg.absorbing).all() and len(done) + stats.censored == 400

    def test_hit_fraction_and_escape_read_the_hits(self):
        # 11 walks are censored (absorbed_at -1); 12, 13 and 14 are reached
        net = random_connected_net(np.random.default_rng(4), 15)
        cfg = WalkConfig(seed=7, num_walks=400, start=0, absorbing=(12, 13, 14), max_steps=30)
        stats = run_walks(net, cfg)
        assert stats.censored > 0
        n = cfg.num_walks
        for target in (12, 13, np.int64(14)):
            p = np.count_nonzero(stats.absorbed_at == target) / n
            assert p > 0 and stats.hit_fraction(target) == (p, math.sqrt(p * (1 - p) / n)), target
        # 0 and 5 are not absorbing, 15 and 10**6 are not vertices, -1 marks
        # a censored walk, and a bool or a float is not a vertex id
        for target in (0, 5, -1, 15, 10**6, True, 1.5, 12.0):
            with pytest.raises(InvalidSpec, match="not an absorbing vertex"):
                stats.hit_fraction(target)
        z = [3, 9, 14]
        escape = replace(cfg, absorbing=(0, 3, 9, 14), min_absorb_step=1)
        p = np.count_nonzero(np.isin(run_walks(net, escape).absorbed_at, z)) / cfg.num_walks
        assert estimate_escape(net, cfg, 0, z) == (p, math.sqrt(p * (1 - p) / cfg.num_walks))

    def test_visits_match_steps(self):
        # total visit tally = one per walk per time 0..T
        net = path3()
        cfg = WalkConfig(
            seed=3, num_walks=100, start=1, absorbing=(0, 2), track_visits=True
        )
        stats = run_walks(net, cfg)
        assert stats.visits.sum() == stats.steps.sum() + 100

    def test_transitions_match_steps(self):
        net = path3()
        cfg = WalkConfig(
            seed=3, num_walks=100, start=1, absorbing=(0, 2), track_transitions=True
        )
        stats = run_walks(net, cfg)
        assert stats.transition_counts.sum() == stats.steps.sum()

    def test_watch_equals_global_tally(self):
        net = random_connected_net(np.random.default_rng(8), 10)
        cfg = WalkConfig(
            seed=5,
            num_walks=300,
            start=0,
            absorbing=(9,),
            watch_vertices=(3,),
            track_visits=True,
        )
        stats = run_walks(net, cfg)
        assert stats.watch_visit_counts[:, 0].sum() == stats.visits[3]


class TestStatisticalAgreement:
    def test_hitting_vs_dense_oracle(self):
        net = random_connected_net(np.random.default_rng(12), 8)
        cfg = WalkConfig(seed=42, num_walks=40_000, start=3, absorbing=(0, 7))
        est, se = run_walks(net, cfg).hit_fraction(0)
        exact = absorbing_hit_probability(net, 0, {7})[3]
        assert abs(est - exact) < 4 * se

    def test_green_vs_fundamental_matrix(self):
        net = random_connected_net(np.random.default_rng(13), 8)
        cfg = WalkConfig(seed=42, num_walks=40_000, start=0, absorbing=(7,),
                         watch_vertices=(2,))
        est, se = run_walks(net, cfg).visit_estimate(2)
        exact = expected_visits(net, 0, {7})[2]
        assert abs(est - exact) < 4 * se

    def test_escape_vs_solver(self):
        t = build_tree(TreeSpec(2, 2))
        z = {4, 5, 6, 7, 8, 9}
        cfg = WalkConfig(seed=42, num_walks=40_000, start=0)
        est, se = estimate_escape(net=t.net, cfg=cfg, a=0, z=z)
        exact = effective(t.net, 0, z).escape_probability
        assert abs(est - exact) < 4 * se

    def test_transitions_vs_green_times_p(self):
        # E[# of steps x -> y] = G(a, x) p(x, y)
        net = random_connected_net(np.random.default_rng(14), 8)
        x = 2
        y = int(net.neighbors(x)[0])
        cfg = WalkConfig(seed=42, num_walks=40_000, start=0, absorbing=(7,),
                         watch_edges=((x, y),))
        est, se = run_walks(net, cfg).transition_estimate(x, y)
        exact = expected_visits(net, 0, {7})[x] * transition_matrix(net)[x, y]
        assert abs(est - exact) < 4 * se

    def test_infinite_tree_surrogate(self):
        # deep truncation stands in for the infinite tree at the root
        net, z = exhaustion(TreeGenerator(2), 12)
        cfg = WalkConfig(seed=42, num_walks=20_000, start=0, absorbing=(z,),
                         watch_vertices=(0,))
        est, se = run_walks(net, cfg).visit_estimate(0)
        exact, _, _ = oracle_green_hitting(2, 0)
        assert abs(est - exact) < 4 * se + 1e-3


@functools.cache
def _golden_case(kind: str):
    """(network or TreeSpec, WalkConfig fields) of one golden-stream graph
    kind; ``kind/m/T`` is kind's case with min_absorb_step m and max_steps T."""
    kind, *budget = kind.split("/")
    if budget:
        net, fields = _golden_case(kind)
        m, t = map(int, budget)
        return net, {**fields, "min_absorb_step": m, "max_steps": t}
    if kind == "leaf":
        # the tree's arithmetic rows, from an absorbing, watched level-4 leaf
        spec = TreeSpec(2, 4)
        leaf = first_at_depth(2, 4) + 5
        up = (leaf - 2) // 2
        return spec, dict(start=leaf, absorbing=level_slice(spec, 4), watch_vertices=(leaf, up),
                          watch_edges=((leaf, up), (up, leaf)))
    if kind == "path":
        c = np.random.default_rng(3).uniform(0.5, 2.0, size=11)
        net = build_network([(i, i + 1, float(c[i])) for i in range(11)])
        # escape-style: starts on an absorbing vertex, which counts only as a return
        return net, dict(start=5, absorbing=(0, 5, 11), min_absorb_step=1,
                         watch_vertices=(5, 6), watch_edges=((5, 6), (6, 5)))
    if kind == "tree8":
        t = build_tree(TreeSpec(2, 8))
        return t.net, dict(start=0, absorbing=level_slice(t.spec, 8),
                           watch_vertices=(0, 1), watch_edges=((0, 1), (1, 0)))
    if kind == "contracted":
        # the deepest level's edges to z carry c = q, so those rows are not unit
        net, z = exhaustion(TreeGenerator(2), 8)
        deep = int(net.neighbors(z)[0])
        return net, dict(start=0, absorbing=(z,), watch_vertices=(0, deep),
                         watch_edges=((0, 1), (deep, z)))
    if kind == "mixed":
        # a unit tree with about 5% of its conductances changed, plus one
        # parallel edge merged into its twin
        t = build_tree(TreeSpec(2, 8))
        rng = np.random.default_rng(11)
        c = np.ones(t.net.edge_count)
        odd = rng.random(len(c)) < 0.05
        c[odd] = rng.choice([0.5, 2.0, 3.0], size=int(odd.sum()))
        u, v = t.net.edge_u.tolist(), t.net.edge_v.tolist()
        net = build_network(list(zip(u, v, c.tolist())) + [(u[3], v[3], 1.0)])
        return net, dict(start=0, absorbing=level_slice(t.spec, 8),
                         watch_vertices=(0, u[3]), watch_edges=((u[3], v[3]), (0, 1)))
    if kind == "k200":
        iu, iv = np.triu_indices(200, 1)
        net = build_network(zip(iu.tolist(), iv.tolist(), [1.0] * len(iu)))
        return net, dict(start=199, absorbing=tuple(range(10)), max_steps=60,
                         watch_vertices=(199,), watch_edges=((199, 0), (0, 199)))
    # conductances spanning 1e-8..1e8 exercise the round-off of the selection
    rng = np.random.default_rng(2024)
    n = 40
    ends = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    ends += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b]
    c = 10.0 ** rng.uniform(-8.0, 8.0, size=len(ends))
    net = build_network([(a, b, float(w)) for (a, b), w in zip(ends, c)])
    # no walk leaves the absorbing vertex, so its edge's column stays zero
    out = int(net.neighbors(n - 1)[0])
    return net, dict(start=0, absorbing=(n - 1,), max_steps=500,
                     watch_vertices=(0, n - 1),
                     watch_edges=((0, int(net.neighbors(0)[0])), (n - 1, out)))


def _tallies(stats):
    return (stats.absorbed_at, stats.steps, stats.watch_visit_counts,
            stats.watch_edge_counts, stats.visits, stats.transition_pairs,
            stats.transition_counts)


def _golden_digest(kind: str, seed: int, walks: int) -> str:
    net, fields = _golden_case(kind)
    track = isinstance(net, Network)  # a TreeSpec keeps no visit or transition tallies
    cfg = WalkConfig(seed=seed, num_walks=walks, track_visits=track,
                     track_transitions=track, **fields)
    stats = run_walks(net, cfg)
    h = hashlib.sha256()
    for arr in _tallies(stats) if track else _tallies(stats)[:4]:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 of every tally.  They pin the variate stream and the map from
# variate to neighbour; TestChunks checks those of seed 7 and 9000 walks on
# nine chunks.  A change to either is a new, versioned stream and re-records
# these.
_GOLDEN = {
    ("path", 1, 1): "51bafc793efbdc51103474933127ffdf5929f696816d486b7c45e99c937da1ab",
    ("path", 1, 300): "97c2bc16940ffe86d36ebd8eca9cb42ef259da58ca10ded3a3c0dfefda8a69f9",
    ("path", 1, 9000): "751071f677e7eef229c1b34e6a2193fa1c5e754ed0ccc6d7edf3877a0bba893b",
    ("path", 7, 1): "38eb54daf1b1c7e76da128020838222bc5b6b24f31b59ba8e7b9f65b72a9c5b3",
    ("path", 7, 300): "12ecbdfd91717354973d4abf605559073284622d6058cec601770f1f99b1e61a",
    ("path", 7, 9000): "75cd1c40050ed8e7d6f91373abdbd96a759836aebc597399e5aa766532cb0cc0",
    ("path", 12345, 1): "80d35dcdecc0736bb18226e4df2728630fc9b45c8fb0783241d8d9fb29631f18",
    ("path", 12345, 300): "594aeb93fdf92c0fb4090e9089702bfe42b9a69d210cae028f3bd2d645667137",
    ("path", 12345, 9000): "712615d15313076cf2fce03880ce0cd3a80fa622a02143731c22e17a5e3fc666",
    # a start on an absorbing vertex, absorbed at time 0 or counted as a
    # return, and walks censored at max_steps 1 or 2, on both row sources
    ("path/0/1", 7, 9000): "762ef8a51165e8ecfe806ecb1629a6356382143120a0c32ec4de9c38714f5ea2",
    ("path/0/2", 7, 9000): "762ef8a51165e8ecfe806ecb1629a6356382143120a0c32ec4de9c38714f5ea2",
    ("path/2/1", 7, 9000): "df2d8a12713dfd75a3507f3c30f6e557b3bb159b4c60eb0a7c9eec08d0471bfd",
    ("path/2/2", 7, 9000): "d5eaf1e2066d6369dff9c9d3602407e9ff5efd0c309868272b0c14299ad9b2e4",
    ("leaf/0/1", 7, 9000): "dff7089e2c3052fb80b21694a003e5b684782b5645df6540c36f4eb0c34ab427",
    ("leaf/0/2", 7, 9000): "dff7089e2c3052fb80b21694a003e5b684782b5645df6540c36f4eb0c34ab427",
    ("leaf/2/1", 7, 9000): "aabf5e9fd2d5cd320205c7d4c07cfe54d33150e10fb3566b635abc9d652ff3fb",
    ("leaf/2/2", 7, 9000): "76a8d1bbe20a1b8309315aceffce531b154ee52c0a0360fc4faa02b949b89dc4",
    ("tree8", 1, 1): "6c158e8f0f63dcf26cfd88e6607f164bd07545bf8c99622cd7f2d9bc54aaece1",
    ("tree8", 1, 300): "604a922cb260bca64239310c062c3907bf0c11ab4e3eded65eb0b896fecd502d",
    ("tree8", 1, 9000): "5887a4bf6ec43ce1fca17a30d3ec7c24e4b5560116372b5898914262d7317e94",
    ("tree8", 7, 1): "25b38dc2b21a75f42bda3eff3301c972b73294d88af150f74cbfdcb60bb645bd",
    ("tree8", 7, 300): "091642b2416b95833690ffcc9972a742dc7b65ceff1dee5c42a6063339fbd191",
    ("tree8", 7, 9000): "da9aeb22a6e25945a29514ea7687be45676669766f580277d1fd642435788d94",
    ("tree8", 12345, 1): "97dca8456cd4b097b3d55ef7c06154187e5dbd2d112a4ab9f8923fe1d9ebb7d1",
    ("tree8", 12345, 300): "491d3c97fab7f5e647f54f48c03aace19fde280bd1b625a3fc2eb58a26329e29",
    ("tree8", 12345, 9000): "922c4eb1639db6cb64d3946eb289b70b1288f33864ad227db15210863ffffe3c",
    ("contracted", 7, 9000): "81106ac2a57c8cfcebcc5f83447c000ea007c51c0d3a4ac7dd3cec595e648c82",
    ("mixed", 7, 9000): "a287a5a584c044dfd56fbf0064e81172209836bfd2bca428fa7c24083772792a",
    ("k200", 1, 1): "2e376164bb5b3177f2349b37c732c7f8a14462c83801fc8fa6d9406d7481fc9a",
    ("k200", 1, 300): "c1176a33b8332d2e2bac151c65d63bde0216a0b31e3999e6de5ee3cb9a2e2d4d",
    ("k200", 1, 9000): "66b2130fff461e7afe5e5e0670cf6271a6cd881e0627dc71153a88e47821430e",
    ("k200", 7, 1): "fff44a368b642bf3e5f9a7c19c2edc6a90354813c1e46e50dc3496e6dd772716",
    ("k200", 7, 300): "346ad43963ab97a9e0c7fb36881a2696416ec001dece61e245c3f926d4cf0816",
    ("k200", 7, 9000): "979776689cfb1bfd5beee3ada8fae7618486944af5f6354677c9fb8a42cf7109",
    ("k200", 12345, 1): "7645bdb8440d3d156be3fa5e2379253dbbbc58dfec456b2ef4e1d3840a74c246",
    ("k200", 12345, 300): "37a07d76b1e1b479666cfd00b16e2518ad3ae7cb6f66c4d97e82590f442e7c52",
    ("k200", 12345, 9000): "169746f82d49d180fdfc0ab5ec3dad6ece937832424c50f924a1c679dae8c45e",
    ("random", 1, 1): "94517d91355e8d6d917772eefac219a242517839792bbcda03caab367a00f906",
    ("random", 1, 300): "0763e6cb50dd5b4c930211670fd3541c476db9dddba2be418d0a34aa43d66360",
    ("random", 1, 9000): "fb1a7b659356a92b380fa372f0e81355450c40e750380c7bad9e157effa59826",
    ("random", 7, 1): "c11e731703b7a6626b77d77dda7a1e0c6cdc6ad2aa0e7690dd53682f55e7ba12",
    ("random", 7, 300): "22bc06a02f7087e4b1ff710834a789c5d7773636fbb2439bbe3322b5f8099e27",
    ("random", 7, 9000): "8ba22174b0fff7328ac5b25c450263871e8c9c87aec7a290ea37cb1106e9fdd2",
    ("random", 12345, 1): "ad8388a76b7f639faf47e791cbfb4a9ffef74bfc7632b7f73919b53b2ddf565b",
    ("random", 12345, 300): "c2b6434aa260508d3f62a83ac386c6b0515d601294927ce19dbd6fd97329c88f",
    ("random", 12345, 9000): "e7530abd3cd303e3bcd75ac176d467793e69dd4a7950ca13bccba7748f236161",
}


class TestGoldenStream:
    @pytest.mark.parametrize("kind, seed, walks", sorted(_GOLDEN))
    def test_digest(self, kind, seed, walks):
        assert _golden_digest(kind, seed, walks) == _GOLDEN[kind, seed, walks]


def _assert_same_tallies(got, want):
    for a, b in zip(_tallies(got), _tallies(want), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestChunks:
    """Chunks stepped one after another give the one-chunk tallies, bit for bit."""

    def test_stress_matches_one_chunk(self, monkeypatch):
        cases = []
        for kind, seed in (("tree8", 5), ("k200", 6), ("random", 7), ("path", 8)):
            net, fields = _golden_case(kind)
            cfg = WalkConfig(seed=seed, num_walks=1000, track_visits=True,
                             track_transitions=True, **{**fields, "max_steps": 60})
            cases.append((net, cfg, run_walks(net, cfg)))  # one chunk
        # 16 chunks of 62 or 63 walks, every variate drawn on the calling thread
        monkeypatch.setattr(walks, "_CHUNK", 97)
        threads = set()
        uniforms = walks._uniforms

        def recording(base, step):
            threads.add(threading.get_ident())
            return uniforms(base, step)

        monkeypatch.setattr(walks, "_uniforms", recording)
        for net, cfg, want in cases:
            _assert_same_tallies(run_walks(net, cfg), want)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("key", [k for k in sorted(_GOLDEN) if k[1:] == (7, 9000)])
    def test_golden_digest_on_nine_chunks(self, monkeypatch, key):
        monkeypatch.setattr(walks, "_CHUNK", 1000)
        assert _golden_digest(*key) == _GOLDEN[key]

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_error_while_stepping_propagates(self, monkeypatch, exc):
        # no absorbing vertex: 8 chunks of 100 walks, failing in the third
        cfg = WalkConfig(seed=3, num_walks=800, start=1, max_steps=50)
        monkeypatch.setattr(walks, "_CHUNK", 100)
        uniforms = walks._uniforms
        calls = []

        def failing(base, step):
            calls.append(step)
            if len(calls) == 2 * cfg.max_steps + 20:
                raise exc("stepping failed")
            return uniforms(base, step)

        monkeypatch.setattr(walks, "_uniforms", failing)
        with pytest.raises(exc, match="stepping failed"):
            run_walks(path3(), cfg)
        assert calls[-1] == 19


def _tree_cases(q: int, levels: int):
    """(network, WalkConfig fields) of walks on the (q, levels) tree: from
    the root, an inner vertex and a leaf; absorbed at the deepest level, at
    it and the root, at a few arbitrary ids, or nowhere (censored); watching
    vertices and edges in both directions."""
    t = build_tree(TreeSpec(q, levels))
    shell = level_slice(t.spec, levels)
    leaf = t.net.vertex_count - 1
    inner = int(t.spec.parent_of(leaf))  # the root when levels == 1
    arbitrary = np.random.default_rng(levels).integers(0, leaf + 1, size=3).tolist()
    absorbing = [(shell, 10**6), (np.concatenate([[0], shell]), 10**6),
                 (tuple(arbitrary), 30), ((), 30)]
    edges = [(0, 1), (1, 0), (leaf, inner), (inner, leaf)]
    if inner:
        edges.append((inner, int(t.spec.parent_of(inner))))
    for start in sorted({0, inner, leaf}):
        for (ids, max_steps), min_absorb_step in itertools.product(absorbing, (0, 1)):
            yield t.net, dict(start=start, absorbing=ids, max_steps=max_steps,
                              min_absorb_step=min_absorb_step,
                              watch_vertices=(0, inner, leaf), watch_edges=tuple(edges))


class TestTreeSource:
    """A TreeSpec walked by arithmetic equals its built network, bit for bit."""

    @pytest.mark.parametrize("q, levels", itertools.product((2, 3, 5), range(1, 8)))
    @pytest.mark.parametrize("chunks", (1, 3))
    def test_matches_csr(self, monkeypatch, q, levels, chunks):
        walks_ = 150
        if chunks > 1:
            monkeypatch.setattr(walks, "_CHUNK", -(-walks_ // chunks))
        for net, fields in _tree_cases(q, levels):
            cfg = WalkConfig(seed=q * levels, num_walks=walks_, **fields)
            got, want = run_walks(TreeSpec(q, levels), cfg), run_walks(net, cfg)
            for a, b in zip(_tallies(got)[:4], _tallies(want)[:4], strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), fields

    # the (2, 3) tree: root 0, levels 1..3 at ids 1-3, 4-9 and 10-21
    @pytest.mark.parametrize("fields, error", [
        (dict(start=22), InvalidVertex), (dict(start=-1), InvalidVertex),
        (dict(start=1.5), InvalidVertex), (dict(absorbing=(22,)), InvalidVertex),
        (dict(absorbing=(21, -1)), InvalidVertex), (dict(watch_vertices=(22,)), InvalidVertex),
        (dict(watch_edges=((0, 22),)), InvalidVertex), (dict(watch_edges=((0, 4),)), NotAdjacent),
        (dict(watch_edges=((7, 7),)), NotAdjacent), (dict(watch_edges=((7, 1),)), NotAdjacent),
        (dict(watch_edges=((21, 20),)), NotAdjacent), (dict(watch_edges=((3, 10),)), NotAdjacent),
        (dict(watch_edges=((0, 3), (3, 0), (9, 20), (9, 21), (21, 9))), None),
    ])
    def test_refuses_what_csr_refuses(self, fields, error):
        spec = TreeSpec(2, 3)
        cfg = WalkConfig(seed=0, num_walks=5, **{"start": 0, "absorbing": (21,), **fields})
        for net in (build_tree(spec).net, spec):
            if error is None:
                run_walks(net, cfg)
            else:
                with pytest.raises(error):
                    run_walks(net, cfg)

    def test_escape_ids_as_array_or_set(self):
        # the same ids as an int64 array (reversed, one repeated) or a set
        t = build_tree(TreeSpec(2, 5))
        cfg = WalkConfig(seed=11, num_walks=5000, start=0)
        z = level_slice(t.spec, 5)
        got = estimate_escape(t.net, cfg, 0, np.append(z[::-1], z[0]))
        assert got == estimate_escape(t.net, cfg, 0, set(z.tolist()))
        assert 0 < got[0] < 1

    @pytest.mark.parametrize("q, levels", [(2, 3), (3, 4)])
    def test_escape_matches_csr(self, q, levels):
        # a spec's escape walks, with no network built, equal the CSR walks
        spec = TreeSpec(q, levels)
        cfg = WalkConfig(seed=q + levels, num_walks=3000, start=0)
        z = level_slice(spec, levels)
        got = estimate_escape(spec, cfg, 0, z)
        assert got == estimate_escape(build_tree(spec).net, cfg, 0, z)
        assert 0 < got[0] < 1

    def test_one_vertex_check(self):
        for cls in (TreeSpec, GraphGenerator):
            assert cls._check_vertex is Network._check_vertex
            assert cls._check_ids is Network._check_ids

    @pytest.mark.parametrize("spec, fields", [
        (TreeSpec(2, 3), dict(track_visits=True)),
        (TreeSpec(2, 3), dict(track_transitions=True)),
        (TreeSpec(2, 60), {}),  # (q + 1) * vertex_count exceeds int64
    ])
    def test_invalid_spec(self, monkeypatch, spec, fields):
        def no_arrays(*args, **kwargs):
            raise AssertionError("allocated before the spec was refused")

        for name in ("zeros", "full", "empty"):
            monkeypatch.setattr(np, name, no_arrays)
        cfg = WalkConfig(seed=0, num_walks=5, start=0, absorbing=(1,), **fields)
        with pytest.raises(InvalidSpec):
            run_walks(spec, cfg)

    def test_deep_tree_flags_cover_reachable_levels(self, monkeypatch):
        # ten steps from the root stay above level 11, so the level-40 tree
        # walks as the level-12 one; its absorbing id 2**40 is out of reach,
        # and its flags cover levels 0..10 (3,070 ids), not 3.3e12 vertices
        sizes = []
        zeros = np.zeros

        def recording(shape, *args, **kwargs):
            sizes.append(shape)
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", recording)
        cfg = WalkConfig(seed=3, num_walks=200, start=0, absorbing=(1, 5, 2**40),
                         max_steps=10, watch_vertices=(4,), watch_edges=((0, 2),))
        got = run_walks(TreeSpec(2, 40), cfg)
        assert sizes[0] == tree_vertex_count(2, 10)
        want = run_walks(TreeSpec(2, 12), replace(cfg, absorbing=(1, 5)))
        assert got.censored > 0
        for a, b in zip(_tallies(got)[:4], _tallies(want)[:4], strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("q, levels", itertools.product((2, 3, 5), (1, 2, 3, 6)))
    def test_step_matches_reference(self, q, levels):
        # every vertex at 0, 1 - 2**-53 and on and one ulp either side of each
        # slot boundary j / (q + 1); the (q, 1) trees have no common row
        # (leaf - 2 < 0), the others all three kinds of rare row
        spec = TreeSpec(q, levels)
        leaf = first_at_depth(q, levels)
        edges = np.arange(1, q + 1) / (q + 1.0)
        u = np.concatenate([[0.0, 1 - 2.0**-53], edges,
                            np.nextafter(edges, 0), np.nextafter(edges, 1)])
        cur, u = (a.ravel() for a in np.meshgrid(np.arange(spec.vertex_count), u))
        k, nxt = walks._tree_step(q, leaf, cur, u)
        slot, want = reference_tree_step(q, leaf, cur, u)
        assert np.array_equal((q + 1) * cur + k, slot)
        assert np.array_equal(nxt, want)
        net = build_tree(spec).net  # the reference's slots hold its CSR neighbours
        assert np.array_equal(net.adj_neighbor[net.adj_indptr[cur] + slot - (q + 1) * cur], want)

    def test_step_at_the_int64_edge(self):
        # the largest binary tree whose slots fit int64: its last inner
        # vertex and its last leaf step with no overflow
        n, leaf = tree_vertex_count(2, 59), first_at_depth(2, 59)
        x = leaf - 1
        assert 3 * n > 2**62
        cur = np.array([x, x, x, n - 1])
        k, nxt = walks._tree_step(2, leaf, cur, np.array([0.0, 0.5, 0.99, 0.7]))
        assert nxt.tolist() == [n - 2, n - 1, (x - 2) // 2, (n - 3) // 2]
        assert (3 * cur + k).tolist() == [3 * x, 3 * x + 1, 3 * x + 2, 3 * (n - 1)]


@pytest.mark.parametrize("call", ["effective", "estimate_escape"])
def test_target_ids_reach_the_checks_as_int64_arrays(monkeypatch, call):
    # a level's ids go to the solver's clamp and the walker's absorbing set
    # as int64 arrays, each checked in place, with no dict, set or tuple
    t = build_tree(TreeSpec(2, 6))
    z = level_slice(t.spec, 6)
    seen = []
    check_ids = network._VertexIds._check_ids

    def spy(self, ids):
        seen.append(ids)
        return check_ids(self, ids)

    monkeypatch.setattr(network._VertexIds, "_check_ids", spy)
    if call == "effective":
        effective(t.net, 0, z)
    else:
        estimate_escape(t.net, WalkConfig(seed=1, num_walks=200, start=0), 0, z)
    ids = [x for x in seen if len(x)]  # the default config's empty watch list aside
    assert len(ids) == 2, seen
    for x in ids:
        assert isinstance(x, np.ndarray) and x.dtype == np.int64 and x.ndim == 1, x
