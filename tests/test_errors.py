"""The error contract: every NetworkError subclass is raised by some public
call, and each input rule refuses what it should with its one class."""

import numpy as np
import pytest

from resistive_walks import (
    BoundarySpec,
    FiniteBallGenerator,
    HalfLineGenerator,
    TreeGenerator,
    TreeSpec,
    WalkConfig,
    build_network,
    build_tree,
    chi,
    effective,
    estimate_escape,
    exhaustion,
    first_at_depth,
    green_function,
    hitting_probability,
    level_slice,
    network_from_json,
    oracle_finite_escape,
    oracle_green_hitting,
    oracle_potential_current,
    oracle_resistance,
    oracle_table,
    resistance_to_infinity,
    run_battery,
    run_walks,
    solve_dirichlet,
    thomson_gap,
    tree_distance,
)
from resistive_walks.errors import (
    BudgetExceededWithoutConvergence,
    DisconnectedGraph,
    EmptyInput,
    InvalidRadius,
    InvalidSpec,
    InvalidVertex,
    NetworkError,
    NonpositiveConductance,
    NotAdjacent,
    NotAFlow,
    NotTransient,
    SolverDivergence,
    VertexInTarget,
)


def path3():
    return build_network([(0, 1, 1.0), (1, 2, 1.0)])


def walk(start=0, seed=0, num_walks=1, **fields):
    return WalkConfig(seed=seed, num_walks=num_walks, start=start, absorbing=(2,), **fields)


# one public call per class that raises it
TRIGGERS = {
    EmptyInput: lambda: build_network([]),
    NonpositiveConductance: lambda: build_network([(0, 1, 0.0)]),
    DisconnectedGraph: lambda: build_network([(0, 1, 1.0), (2, 3, 1.0)]),
    InvalidVertex: lambda: path3().neighbors(3),
    InvalidRadius: lambda: exhaustion(HalfLineGenerator(), -1),
    VertexInTarget: lambda: effective(path3(), 0, {0, 2}),
    # a connected network whose pi(1) rounds away the conductance 1e-8
    SolverDivergence: lambda: solve_dirichlet(
        build_network([(0, 1, 1e-8), (1, 2, 1e9)]), BoundarySpec([0], [1.0])
    ),
    NotTransient: lambda: green_function(HalfLineGenerator(), 1),
    # n_max = 10 leaves depth 40's route through depth 1 a single radius:
    # a verdict, but too few for a limit
    BudgetExceededWithoutConvergence: lambda: green_function(
        TreeGenerator(2), first_at_depth(2, 40), n_max=10
    ),
    NotAFlow: lambda: thomson_gap(path3(), np.zeros(2), {0}, {2}),
    InvalidSpec: lambda: TreeSpec(1, 2),
    NotAdjacent: lambda: chi(path3(), 0, 2),
}


def test_every_error_class_has_a_trigger():
    assert set(TRIGGERS) == set(NetworkError.__subclasses__())


@pytest.mark.parametrize("cls", sorted(TRIGGERS, key=lambda c: c.__name__))
def test_trigger_raises_its_class(cls):
    with pytest.raises(cls) as info:
        TRIGGERS[cls]()
    assert type(info.value) is cls


def _json_edge(u, v):
    return {"vertices": 2, "edges": [{"u": u, "v": v, "c": 1.0}]}


def _json_c(c):
    return {"vertices": 2, "edges": [{"u": 0, "v": 1, "c": c}]}


def _tree3():
    return build_tree(TreeSpec(2, 3))


def _watched(**fields):
    """The stats of three walks on the path 0-1-2 from 0, absorbed at 2."""
    return run_walks(path3(), walk(num_walks=3, **fields))


def _hit_fraction(target):
    """``hit_fraction(target)`` of ten walks on the path 0-1-2 from 1,
    absorbed at 0 and 2."""
    cfg = WalkConfig(seed=0, num_walks=10, start=1, absorbing=(0, 2))
    return run_walks(path3(), cfg).hit_fraction(target)


# inputs each rule used to let through, to a wrong value or another exception
REFUSED = {
    "run_walks-start-float": (InvalidVertex, lambda: run_walks(path3(), walk(start=1.7))),
    "run_walks-start-text": (InvalidVertex, lambda: run_walks(path3(), walk(start="1"))),
    "degree-float": (InvalidVertex, lambda: len(path3().neighbors(1.5))),
    "tree_distance-float": (InvalidVertex, lambda: tree_distance(TreeSpec(2, 3), 1.5, 0)),
    "estimate_escape-float": (
        InvalidVertex, lambda: estimate_escape(path3(), walk(), 0, {1.5})
    ),
    "run_walks-watch-non-edge": (
        NotAdjacent,
        lambda: run_walks(_tree3().net, WalkConfig(
            seed=0, num_walks=1, start=0, absorbing=(1,), watch_edges=((0, 7),)
        )),
    ),
    "green_hitting-negative-d": (InvalidSpec, lambda: oracle_green_hitting(2, -3)),
    "potential_current-negative-depth": (
        InvalidSpec, lambda: oracle_potential_current(2, -1)
    ),
    "finite_escape-a-n0": (InvalidSpec, lambda: oracle_finite_escape("a", 2, n=0)),
    "finite_escape-a-no-n": (InvalidSpec, lambda: oracle_finite_escape("a", 2)),
    "finite_escape-d-dist0": (InvalidSpec, lambda: oracle_finite_escape("d", 2, dist=0)),
    "finite_escape-e-negative-dist": (
        InvalidSpec, lambda: oracle_finite_escape("e", 2, dist=-1)
    ),
    "first_at_depth-negative-d": (InvalidSpec, lambda: first_at_depth(2, -1)),
    "first_at_depth-q1": (InvalidSpec, lambda: first_at_depth(1, 2)),
    # green_function returned vertex 1's value, or died in math.log
    "green_function-float": (InvalidVertex, lambda: green_function(TreeGenerator(2), 1.5)),
    "green_function-negative": (InvalidVertex, lambda: green_function(TreeGenerator(2), -1)),
    "green_function-half-line-float": (
        InvalidVertex, lambda: green_function(HalfLineGenerator(), 0.5)
    ),
    "hitting_probability-float-root": (
        InvalidVertex, lambda: hitting_probability(TreeGenerator(2), 0.0)
    ),
    "hitting_probability-beyond-finite-ball": (
        InvalidVertex, lambda: hitting_probability(FiniteBallGenerator(path3()), 3)
    ),
    # a bool passed as vertex 1 (or 0), as operator.index allows
    "degree-bool": (InvalidVertex, lambda: len(path3().neighbors(True))),
    "degree-numpy-bool": (InvalidVertex, lambda: len(path3().neighbors(np.True_))),
    "run_walks-start-bool": (InvalidVertex, lambda: run_walks(path3(), walk(start=True))),
    "run_walks-absorbing-bool": (
        InvalidVertex,
        lambda: run_walks(path3(), WalkConfig(seed=0, num_walks=1, start=0, absorbing=(2, True))),
    ),
    "run_walks-absorbing-numpy-bool": (
        InvalidVertex,
        lambda: run_walks(path3(), WalkConfig(seed=0, num_walks=1, start=0,
                                              absorbing=np.array([False, True]))),
    ),
    "solve_dirichlet-bool-clamped": (
        InvalidVertex, lambda: solve_dirichlet(path3(), BoundarySpec([True], [1.0]))
    ),
    # a voltage per clamped id, and one voltage per vertex
    "solve_dirichlet-values-short": (
        InvalidSpec, lambda: solve_dirichlet(path3(), BoundarySpec([0, 2], [1.0]))
    ),
    "solve_dirichlet-two-voltages": (
        InvalidSpec, lambda: solve_dirichlet(path3(), BoundarySpec([0, 0, 2], [1.0, 0.5, 0.0]))
    ),
    "green_function-bool": (InvalidVertex, lambda: green_function(TreeGenerator(2), True)),
    # the flags of every vertex a walk on the level-59 tree can reach (1.7e18)
    # fit no address space
    "run_walks-tree-flags-unallocatable": (
        InvalidSpec,
        lambda: run_walks(TreeSpec(2, 59), WalkConfig(
            seed=0, num_walks=1, start=0, absorbing=(1,), max_steps=100)),
    ),
    # network_from_json read a float id through int() and took strings and booleans
    "network_from_json-float-id": (InvalidVertex, lambda: network_from_json(_json_edge(0.7, 1))),
    "network_from_json-text-id": (InvalidVertex, lambda: network_from_json(_json_edge("0", 1))),
    "network_from_json-bool-id": (InvalidVertex, lambda: network_from_json(_json_edge(0, True))),
    # conductances were read through float(): true as 1.0, text as its number,
    # "0x10" as a bare ValueError and an int beyond float64 as an OverflowError
    "network_from_json-bool-c": (NonpositiveConductance, lambda: network_from_json(_json_c(True))),
    "network_from_json-text-c": (NonpositiveConductance, lambda: network_from_json(_json_c("1.5"))),
    "network_from_json-padded-text-c": (
        NonpositiveConductance, lambda: network_from_json(_json_c(" 2 "))
    ),
    "network_from_json-hex-text-c": (
        NonpositiveConductance, lambda: network_from_json(_json_c("0x10"))
    ),
    "network_from_json-huge-int-c": (
        NonpositiveConductance, lambda: network_from_json(_json_c(10**400))
    ),
    "build_network-text-c": (NonpositiveConductance, lambda: build_network([(0, 1, "1.5")])),
    "build_network-numpy-bool-c": (NonpositiveConductance, lambda: build_network([(0, 1, np.True_)])),
    # WalkConfig took any value: max_steps=2.5 censored after 3 steps but
    # recorded 2, min_absorb_step=-1 ran as 0, and a float or text seed or
    # walk count died in a bare TypeError
    "WalkConfig-seed-float": (InvalidSpec, lambda: walk(seed=1.5)),
    "WalkConfig-seed-text": (InvalidSpec, lambda: walk(seed="7")),
    "WalkConfig-num_walks-float": (InvalidSpec, lambda: walk(num_walks=2.5)),
    "WalkConfig-num_walks-bool": (InvalidSpec, lambda: walk(num_walks=True)),
    "WalkConfig-max_steps-float": (InvalidSpec, lambda: walk(max_steps=2.5)),
    "WalkConfig-min_absorb_step-float": (InvalidSpec, lambda: walk(min_absorb_step=1.0)),
    "WalkConfig-min_absorb_step-negative": (InvalidSpec, lambda: walk(min_absorb_step=-1)),
    # one integer rule for every count, level, depth, radius and n_max: a
    # bool counted as 1 (or 0), and a float ran, or died in a bare TypeError
    "TreeSpec-levels-bool": (InvalidSpec, lambda: TreeSpec(2, True)),
    "oracle_resistance-bool": (InvalidSpec, lambda: oracle_resistance(2, True)),
    "oracle_table-bool": (InvalidSpec, lambda: oracle_table(2, True)),
    "level_slice-bool": (InvalidSpec, lambda: level_slice(TreeSpec(2, 3), True)),
    "first_at_depth-bool": (InvalidSpec, lambda: first_at_depth(2, True)),
    "resistance_to_infinity-n_max-float": (
        InvalidSpec, lambda: resistance_to_infinity(TreeGenerator(2), n_max=2.5)
    ),
    "resistance_to_infinity-non-symmetric-n_max-float": (
        InvalidSpec,
        lambda: resistance_to_infinity(TreeGenerator(2, symmetric=False), n_max=2.5),
    ),
    "green_function-n_max-float": (
        InvalidSpec, lambda: green_function(TreeGenerator(2), 1, n_max=2.5)
    ),
    "green_function-n_max-bool": (
        InvalidSpec, lambda: green_function(TreeGenerator(2), 1, n_max=True)
    ),
    "exhaustion-radius-float": (
        InvalidSpec, lambda: exhaustion(FiniteBallGenerator(path3()), 2.5)
    ),
    "exhaustion-radius-bool": (
        InvalidSpec, lambda: exhaustion(FiniteBallGenerator(path3()), True)
    ),
    # the ball of radius 2 about 0 is the whole path: no boundary to contract
    "exhaustion-ball-covers-graph": (
        InvalidRadius, lambda: exhaustion(FiniteBallGenerator(path3(), 0), 2)
    ),
    # dropped the Monte Carlo rows and passed
    "run_battery-zero-walks": (InvalidSpec, lambda: run_battery(levels=2, walks=0)),
    # ended in scipy's bare ValueError, or took a float root
    "FiniteBallGenerator-root-out-of-range": (
        InvalidVertex, lambda: FiniteBallGenerator(path3(), 5)
    ),
    "FiniteBallGenerator-root-float": (InvalidVertex, lambda: FiniteBallGenerator(path3(), 1.5)),
    # a bare ValueError from tuple.index, or an AttributeError for an array
    "visit_estimate-unwatched": (
        InvalidSpec, lambda: _watched(watch_vertices=(0,)).visit_estimate(1)
    ),
    "visit_estimate-unwatched-array": (
        InvalidSpec,
        lambda: _watched(watch_vertices=np.array([0], dtype=np.int64)).visit_estimate(1),
    ),
    "transition_estimate-unwatched": (
        InvalidSpec, lambda: _watched(watch_edges=((0, 1),)).transition_estimate(1, 0)
    ),
    # read (0.0, 0.0) for no vertex; False read the hits at vertex 0
    "hit_fraction-not-a-vertex": (InvalidSpec, lambda: _hit_fraction(7)),
    "hit_fraction-bool": (InvalidSpec, lambda: _hit_fraction(False)),
    # the 22-vertex tree answered from its closed forms for any number:
    # parent_of read 499999 at 10**6 and 0 at -1 and 1.5, depth_of 4 at
    # 10**6 and -1 at -1
    "parent_of-out-of-range": (InvalidVertex, lambda: TreeSpec(2, 3).parent_of(10**6)),
    "parent_of-negative": (InvalidVertex, lambda: TreeSpec(2, 3).parent_of(-1)),
    "parent_of-float": (InvalidVertex, lambda: TreeSpec(2, 3).parent_of(1.5)),
    "parent_of-bool": (InvalidVertex, lambda: TreeSpec(2, 3).parent_of(True)),
    "parent_of-array-one-bad": (InvalidVertex, lambda: TreeSpec(2, 3).parent_of(np.array([0, 22]))),
    "depth_of-out-of-range": (InvalidVertex, lambda: TreeSpec(2, 3).depth_of(10**6)),
    "depth_of-negative": (InvalidVertex, lambda: TreeSpec(2, 3).depth_of(-1)),
    "depth_of-bool": (InvalidVertex, lambda: TreeSpec(2, 3).depth_of(True)),
    "depth_of-array-one-bad": (InvalidVertex, lambda: TreeSpec(2, 3).depth_of([1, -1, 2])),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input(case):
    cls, call = REFUSED[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls


def test_exhaustion_below_covering_radius():
    # radius 1 about 0 leaves vertex 2 outside, contracted to z
    net, z = exhaustion(FiniteBallGenerator(path3(), 0), 1)
    assert z == 2 and net.vertex_count == 3
