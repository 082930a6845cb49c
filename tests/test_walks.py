import collections
import functools
import hashlib
import signal
import sys
import threading
import time

import numpy as np
import pytest

from oracles import absorbing_hit_probability, expected_visits
from resistive_walks import (
    TreeSpec,
    WalkConfig,
    build_network,
    build_tree,
    effective,
    estimate_escape,
    estimate_green,
    estimate_hitting,
    estimate_transitions,
    level_slice,
    markov_view,
    oracle_green_hitting,
    run_walks,
)
from resistive_walks import walks
from resistive_walks.errors import InvalidStart, InvalidVertex, NotAdjacent, VertexInTarget
from resistive_walks.walks import _pick_slots, _row_prefix_sums, _unit_slots
from test_network import random_connected_net


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


class TestTrivialCases:
    def test_single_edge_one_step(self):
        net = build_network([(0, 1, 1.0)])
        stats = run_walks(net, WalkConfig(seed=0, num_walks=50, start=0, absorbing=(1,)))
        assert stats.hit_count(1) == 50
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
        est, se = estimate_hitting(net, cfg, 1)
        assert est == 1.0 and se == 0.0

    def test_green_absorbing_start_is_one(self):
        net = path3()
        cfg = WalkConfig(seed=0, num_walks=40, start=1, absorbing=(1,))
        est, se = estimate_green(net, cfg, 1)
        assert est == 1.0 and se == 0.0

    def test_escape_single_edge_certain(self):
        net = build_network([(0, 1, 1.0)])
        cfg = WalkConfig(seed=0, num_walks=30, start=0)
        est, se = estimate_escape(net, cfg, 0, {1})
        assert est == 1.0 and se == 0.0

    def test_errors(self):
        net = path3()
        with pytest.raises(InvalidStart):
            run_walks(net, WalkConfig(seed=0, num_walks=1, start=9, absorbing=(0,)))
        with pytest.raises(NotAdjacent):
            estimate_transitions(
                net, WalkConfig(seed=0, num_walks=1, start=0, absorbing=(2,)), 0, 2
            )
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
        ):
            with pytest.raises(InvalidVertex):
                run_walks(net, WalkConfig(seed=0, num_walks=1, start=0, **bad))


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
        build_tree(TreeSpec(2, 6, contract_boundary=True)).net,
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
        assert sum(stats.hits.values()) + stats.censored == 200

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
        assert sum(stats.hits.values()) + stats.censored == 400

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
        est, se = estimate_hitting(net, cfg, 0)
        exact = absorbing_hit_probability(net, 0, {7})[3]
        assert abs(est - exact) < 4 * se

    def test_green_vs_fundamental_matrix(self):
        net = random_connected_net(np.random.default_rng(13), 8)
        cfg = WalkConfig(seed=42, num_walks=40_000, start=0, absorbing=(7,))
        est, se = estimate_green(net, cfg, 2)
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
        cfg = WalkConfig(seed=42, num_walks=40_000, start=0, absorbing=(7,))
        est, se = estimate_transitions(net, cfg, x, y)
        mv = markov_view(net)
        exact = expected_visits(net, 0, {7})[x] * mv.p[x, y]
        assert abs(est - exact) < 4 * se

    def test_infinite_tree_surrogate(self):
        # deep truncation stands in for the infinite tree at the root
        t = build_tree(TreeSpec(2, 12, contract_boundary=True))
        cfg = WalkConfig(seed=42, num_walks=20_000, start=0, absorbing=(t.z,))
        est, se = estimate_green(t.net, cfg, 0)
        exact, _, _ = oracle_green_hitting(2, 0)
        assert abs(est - exact) < 4 * se + 1e-3


@functools.cache
def _golden_case(kind: str):
    """(network, WalkConfig fields) of one golden-stream graph kind."""
    if kind == "path":
        c = np.random.default_rng(3).uniform(0.5, 2.0, size=11)
        net = build_network([(i, i + 1, float(c[i])) for i in range(11)])
        # escape-style: starts on an absorbing vertex, which counts only as a return
        return net, dict(start=5, absorbing=(0, 5, 11), min_absorb_step=1,
                         watch_vertices=(5, 6), watch_edges=((5, 6), (6, 5)))
    if kind == "tree8":
        t = build_tree(TreeSpec(2, 8))
        return t.net, dict(start=0, absorbing=level_slice(t, 8),
                           watch_vertices=(0, 1), watch_edges=((0, 1), (1, 0)))
    if kind == "contracted":
        # the deepest level's edges to z carry c = q, so those rows are not unit
        t = build_tree(TreeSpec(2, 8, contract_boundary=True))
        deep = int(t.net.neighbors(t.z)[0])
        return t.net, dict(start=0, absorbing=(t.z,), watch_vertices=(0, deep),
                           watch_edges=((0, 1), (deep, t.z)))
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
        return net, dict(start=0, absorbing=level_slice(t, 8),
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
    far = next(y for y in range(n) if y not in set(net.neighbors(0).tolist()) | {0})
    return net, dict(start=0, absorbing=(n - 1,), max_steps=500,
                     watch_vertices=(0, n - 1),
                     watch_edges=((0, int(net.neighbors(0)[0])), (0, far)))


def _tallies(stats):
    return (stats.absorbed_at, stats.steps, stats.watch_visit_counts,
            stats.watch_edge_counts, stats.visits, stats.transition_pairs,
            stats.transition_counts)


def _golden_digest(kind: str, seed: int, walks: int) -> str:
    net, fields = _golden_case(kind)
    cfg = WalkConfig(seed=seed, num_walks=walks, track_visits=True,
                     track_transitions=True, **fields)
    stats = run_walks(net, cfg)
    h = hashlib.sha256()
    for arr in _tallies(stats):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 of every tally.  They pin the variate stream and the map from
# variate to neighbour; TestThreadedChunks checks those of seed 7 and 9000
# walks on nine chunks and three workers.  A change to
# either is a new, versioned stream and re-records these.
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


def _capture_stop(monkeypatch):
    """Wrap ``walks._step_chunks`` to record its run's stop event; returns
    the list it goes into and a per-thread tally for ``_count_after_stop``."""
    stops, after_stop = [], collections.Counter()
    step_chunks = walks._step_chunks

    def capturing(run, bounds, track):
        stops.append(run.stop)
        return step_chunks(run, bounds, track)

    monkeypatch.setattr(walks, "_step_chunks", capturing)
    return stops, after_stop


def _count_after_stop(stops, after_stop):
    """Count a ``_uniforms`` call against its thread if the stop is set."""
    if stops[0].is_set():
        after_stop[threading.get_ident()] += 1


def _assert_stopped_within_a_step(stops, after_stop):
    # a worker checks the stop once per step, so it draws at most one more
    # step's variates after the stop is set, however the threads are scheduled
    assert stops and all(stop.is_set() for stop in stops)
    assert max(after_stop.values(), default=0) <= 1, after_stop


class TestThreadedChunks:
    """Chunks stepped on a thread pool give the one-chunk tallies, bit for bit."""

    def test_stress_matches_one_chunk(self, monkeypatch):
        cases = []
        for kind, seed in (("tree8", 5), ("k200", 6), ("random", 7), ("path", 8)):
            net, fields = _golden_case(kind)
            cfg = WalkConfig(seed=seed, num_walks=1000, track_visits=True,
                             track_transitions=True, **{**fields, "max_steps": 60})
            cases.append((net, cfg, run_walks(net, cfg)))  # one chunk, one thread
        # 16 chunks of 62 or 63 walks on 8 workers, more than there are
        # cores, with the GIL handed over as often as the interpreter can
        monkeypatch.setattr(walks, "_CHUNK", 97)
        monkeypatch.setattr(walks, "_usable_cpus", lambda: 8)
        errors = []

        def stress():
            try:
                deadline = time.monotonic() + 1.5
                while True:
                    for net, cfg, want in cases:
                        _assert_same_tallies(run_walks(net, cfg), want)
                    if time.monotonic() > deadline:
                        return
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "threaded run_walks did not finish"
        if errors:
            raise errors[0]

    @pytest.mark.parametrize("key", [k for k in sorted(_GOLDEN) if k[1:] == (7, 9000)])
    def test_golden_digest_on_three_workers(self, monkeypatch, key):
        monkeypatch.setattr(walks, "_CHUNK", 1000)
        monkeypatch.setattr(walks, "_usable_cpus", lambda: 3)
        assert _golden_digest(*key) == _GOLDEN[key]

    @pytest.mark.parametrize("where, exc", [
        ("worker", RuntimeError), ("worker", KeyboardInterrupt), ("caller", KeyboardInterrupt),
    ])
    def test_error_stops_every_worker(self, monkeypatch, where, exc):
        # no absorbing vertex: each of 4 workers steps 2 chunks for 20000 steps
        cfg = WalkConfig(seed=3, num_walks=800, start=1, max_steps=20_000)
        monkeypatch.setattr(walks, "_CHUNK", 100)
        monkeypatch.setattr(walks, "_usable_cpus", lambda: 4)
        fired = threading.Event()
        uniforms = walks._uniforms
        stops, after_stop = _capture_stop(monkeypatch)

        def failing(base, step):
            _count_after_stop(stops, after_stop)
            in_caller = threading.current_thread() is threading.main_thread()
            if step == 20 and in_caller == (where == "caller") and not fired.is_set():
                fired.set()
                raise exc("stepping failed")
            return uniforms(base, step)

        monkeypatch.setattr(walks, "_uniforms", failing)
        before = threading.active_count()
        with pytest.raises(exc, match="stepping failed"):
            run_walks(path3(), cfg)
        assert threading.active_count() == before
        _assert_stopped_within_a_step(stops, after_stop)

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_interrupt_while_waiting_stops_every_worker(self, monkeypatch):
        if signal.getsignal(signal.SIGINT) is not signal.default_int_handler:
            pytest.skip("SIGINT does not raise KeyboardInterrupt here")
        cfg = WalkConfig(seed=3, num_walks=800, start=1, max_steps=20_000)
        monkeypatch.setattr(walks, "_CHUNK", 100)
        monkeypatch.setattr(walks, "_usable_cpus", lambda: 4)
        main = threading.main_thread()
        waiting, sent = threading.Event(), threading.Event()
        uniforms = walks._uniforms
        stops, after_stop = _capture_stop(monkeypatch)
        step_chunks = walks._step_chunks  # the capturing wrapper

        def interrupting(base, step):
            _count_after_stop(stops, after_stop)
            if waiting.is_set() and not sent.is_set():
                sent.set()
                signal.pthread_kill(main.ident, signal.SIGINT)  # Ctrl-C
            return uniforms(base, step)

        def caller_share_done_at_once(run, bounds, track):
            if threading.current_thread() is not main:
                return step_chunks(run, bounds, track)
            waiting.set()  # the caller goes on to wait for the workers
            return None

        monkeypatch.setattr(walks, "_uniforms", interrupting)
        monkeypatch.setattr(walks, "_step_chunks", caller_share_done_at_once)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_walks(path3(), cfg)
        assert sent.is_set()
        assert threading.active_count() == before
        _assert_stopped_within_a_step(stops, after_stop)
