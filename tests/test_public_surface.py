"""The public surface: each module's ``__all__`` and the package's
re-exports agree, and names removed from the API stay removed."""

import dataclasses
import importlib
import inspect
import types

import pytest

import resistive_walks

# the modules whose __all__ a traced benchmark run wraps, name by name
MODULES = ("cli", "verify", "network", "tree", "generators", "harmonic", "flows", "walks")

REMOVED = ("MarkovView", "markov_view", "series_parallel_reduce", "contract_vertices",
           "vertex_weight", "estimate_hitting", "estimate_green", "estimate_transitions",
           "strength", "index_of", "to_json",
           # the spherically symmetric ladder path: every limit runs the exhaustions
           "ladder_resistance", "shell_conductance", "depth_weight", "spherically_symmetric",
           # outputs no caller read: the limits give the one transience verdict
           "classify_transience", "Transience", "accelerated", "hits", "hit_count", "degree")


@pytest.mark.parametrize("layer", MODULES)
def test_every_all_name_resolves(layer):
    mod = importlib.import_module(f"resistive_walks.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_reexports_are_in_their_modules_all():
    outside = []
    for name in dir(resistive_walks):
        obj = getattr(resistive_walks, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        if name not in home.__all__:
            outside.append(f"{obj.__module__}.{name}")
    assert not outside


def test_removed_names_stay_removed():
    network = importlib.import_module("resistive_walks.network")
    walks = importlib.import_module("resistive_walks.walks")
    flows = importlib.import_module("resistive_walks.flows")
    verify = importlib.import_module("resistive_walks.verify")
    tree = importlib.import_module("resistive_walks.tree")
    generators = importlib.import_module("resistive_walks.generators")
    harmonic = importlib.import_module("resistive_walks.harmonic")
    for mod in (resistive_walks, network, walks, flows, network.Network, verify.CheckRow,
                verify.RunReport, tree, generators, harmonic, tree.TreeGenerator,
                generators.GraphGenerator, generators.HalfLineGenerator,
                harmonic.LimitResult, walks.WalkStats):
        assert not set(REMOVED) & set(dir(mod))
    for record in (harmonic.LimitResult, walks.WalkStats):  # fields with no default
        assert not set(REMOVED) & {f.name for f in dataclasses.fields(record)}
    assert "check_connected" not in inspect.signature(resistive_walks.build_network).parameters
    assert "check" not in inspect.signature(resistive_walks.thomson_gap).parameters


def test_one_contracted_tree():
    # the tree contracted past level n is exhaustion(TreeGenerator(q), n) alone
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(resistive_walks.TreeSpec) == ("q", "levels")
    assert names(resistive_walks.TreeNetwork) == ("net", "spec")
    for mod in MODULES:
        source = inspect.getsource(importlib.import_module(f"resistive_walks.{mod}"))
        assert "contract_boundary" not in source, mod
        assert "_TreeRows" not in source, mod  # the spec is the walker's tree
    # a TreeSpec answers every label question; a TreeNetwork is a plain record
    record = resistive_walks.TreeNetwork
    assert not hasattr(record, "depth_of") and not hasattr(record, "parent_of")
    assert not [k for k, v in vars(record).items() if callable(v) and not k.startswith("__")]


def test_one_id_set_format():
    # a boundary is an id array and its voltages; the solver and the walker
    # make no dict, set or sorted tuple of a vertex set
    names = tuple(f.name for f in dataclasses.fields(resistive_walks.BoundarySpec))
    assert names == ("clamped", "values")
    for mod in ("harmonic", "walks"):
        source = inspect.getsource(importlib.import_module(f"resistive_walks.{mod}"))
        for word in ("dict.fromkeys", "np.fromiter", "frozenset"):
            assert word not in source, (mod, word)
