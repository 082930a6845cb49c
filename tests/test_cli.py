import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resistive_walks
from resistive_walks import (
    TreeSpec,
    WalkConfig,
    build_network,
    build_tree,
    level_slice,
    network_to_json,
    run_battery,
    run_walks,
    tree_vertex_count,
)
from resistive_walks import cli, generators, harmonic, network, tree, verify
from resistive_walks.cli import main
from resistive_walks.errors import (
    BudgetExceededWithoutConvergence,
    NotTransient,
    SolverDivergence,
)
from resistive_walks.harmonic import EXHAUSTION_LIMIT


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResist:
    def test_tree_level_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "resist", "--tree", "2,2", "--source", "0", "--target-set", "level:2"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["resistance"] - 0.5) < 1e-9
        assert abs(doc["escape_probability"] - 2.0 / 3.0) < 1e-9

    def test_to_infinity_converged(self, capsys):
        code, out, _ = run_cli(capsys, "resist", "--tree", "2,8", "--to-infinity")
        assert code == 0
        doc = json.loads(out)
        assert doc["flag"] == "converged"
        assert abs(doc["resistance"] - 2.0 / 3.0) < 1e-3

    def test_to_infinity_builds_no_tree(self, capsys, monkeypatch):
        argv = ["resist", "--tree", "2,8", "--to-infinity"]
        _, want, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "build_tree", _raising(AssertionError))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("tree", ["1,8", "2,-1", "2,0", "2"])
    def test_to_infinity_validates_tree_spec(self, capsys, tree):
        code, out, err = run_cli(capsys, "resist", "--tree", tree, "--to-infinity")
        assert code == 2
        assert out == ""
        assert "bad --tree spec" in err

    def test_to_infinity_refuses_network_unread(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "resist", "--network", str(tmp_path / "missing.json"), "--to-infinity"
        )
        assert code == 2
        assert "--to-infinity currently needs --tree" in err

    def test_network_file(self, capsys, tmp_path):
        net = build_network([(0, 1, 1.0), (1, 2, 1.0)])
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_to_json(net)))
        code, out, _ = run_cli(
            capsys, "resist", "--network", str(path), "--source", "0", "--target-set", "2"
        )
        assert code == 0
        assert abs(json.loads(out)["resistance"] - 2.0) < 1e-9

    def test_target_set_honours_tol(self, capsys):
        code, out, err = run_cli(
            capsys, "resist", "--tree", "2,4", "--source", "0",
            "--target-set", "level:4", "--tol", "1e-300",
        )
        assert code == 1
        assert "exceeds tol" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [("--target-set", "level:2"), ("--to-infinity",)])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_nonpositive_tol_exits_2(self, capsys, mode, tol):
        code, _, err = run_cli(
            capsys, "resist", "--tree", "2,2", "--source", "0", *mode, "--tol", tol
        )
        assert code == 2
        assert "Traceback" not in err

    def test_missing_source_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "resist", "--tree", "2,2", "--target-set", "level:2"
        )
        assert code == 2

    @pytest.mark.parametrize("target", ["1,x", "level:x", "level:3"])
    def test_bad_target_set_exits_2(self, capsys, target):
        code, _, err = run_cli(
            capsys, "resist", "--tree", "2,2", "--source", "0", "--target-set", target
        )
        assert code == 2
        assert "Traceback" not in err

    def test_bad_tree_spec_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "resist", "--tree", "nope", "--source", "0", "--target-set", "1"
        )
        assert code == 2

    def test_level_target_stdout_digest(self, capsys):
        # pins the echoed list of the 384 level-8 ids with the quantities
        code, out, _ = run_cli(
            capsys, "resist", "--tree", "2,8", "--source", "0", "--target-set", "level:8"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b2016ec383cdf90b6c7f2ffd875bed30019fa3c6ca407a5deb9db93e3d25c418"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resist", "--tree", "2,2", "--source", "0",
            "--target-set", "level:2", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "conductance,resistance,escape_probability"
        assert abs(float(row.split(",")[1]) - 0.5) < 1e-9


BAD_NETWORK_FILES = {
    "not_json": "{",
    "no_c": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1}]}),
    "bad_id": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 5, "c": 1.0}]}),
    "bad_c": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 0.0}]}),
    "id_text": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": "one", "c": 1.0}]}),
    "id_float": json.dumps({"vertices": 2, "edges": [{"u": 0.7, "v": 1, "c": 1.0}]}),
    "id_bool": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": True, "c": 1.0}]}),
    "not_a_doc": json.dumps([1, 2]),
    "uncovered": json.dumps({"vertices": 3, "edges": [{"u": 0, "v": 1, "c": 1.0}]}),
    "huge_c": '{"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 1' + "0" * 400 + "}]}",
    "c_bool": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1, "c": True}]}),
    "c_text": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1, "c": "1.5"}]}),
    "c_hex_text": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1, "c": "0x10"}]}),
    "vertices_float": json.dumps({"vertices": 2.7, "edges": [{"u": 0, "v": 1, "c": 1.0}]}),
    "vertices_text": json.dumps({"vertices": " 2 ", "edges": [{"u": 0, "v": 1, "c": 1.0}]}),
    "vertices_bool": json.dumps({"vertices": True, "edges": [{"u": 0, "v": 1, "c": 1.0}]}),
}


@pytest.mark.parametrize("command", [
    ["resist", "--source", "0", "--target-set", "1"],
    ["simulate", "--walks", "10", "--absorbing", "1"],
])
class TestNetworkFileErrors:
    def test_missing_file_exits_2(self, capsys, tmp_path, command):
        code, _, err = run_cli(capsys, *command, "--network", str(tmp_path / "missing.json"))
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(BAD_NETWORK_FILES))
    def test_malformed_file_exits_2(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.json"
        path.write_text(BAD_NETWORK_FILES[name])
        code, _, err = run_cli(capsys, *command, "--network", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert "--network" in err


@pytest.mark.parametrize("argv, flag", [
    (["resist", "--source", "0", "--target-set", "level:2"], "--target-set"),
    (["simulate", "--walks", "10", "--absorb-level", "2"], "--absorb-level"),
])
def test_tree_level_needs_tree(capsys, tmp_path, argv, flag):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_json(build_network([(0, 1, 1.0), (1, 2, 1.0)]))))
    code, _, err = run_cli(capsys, *argv, "--network", str(path))
    assert code == 2
    assert f"{flag} needs --tree" in err


class TestSolverDivergence:
    def test_resist_exits_1(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergence("residual too large")

        monkeypatch.setattr(cli, "effective", diverge)
        code, out, err = run_cli(
            capsys, "resist", "--tree", "2,2", "--source", "0", "--target-set", "level:2"
        )
        assert code == 1
        assert out == ""
        assert "error: residual too large" in err

    def test_factor_out_of_memory_exits_1(self, capsys, monkeypatch):
        import scipy.sparse.linalg as spla

        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(spla, "splu", oom)
        code, out, err = run_cli(
            capsys, "resist", "--tree", "2,3", "--source", "0", "--target-set", "level:3"
        )
        assert code == 1
        assert out == ""
        assert "ran out of memory" in err
        assert "Traceback" not in err

    def test_verify_exits_1(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergence("residual too large")

        monkeypatch.setattr(cli, "run_battery", diverge)
        code, _, err = run_cli(capsys, "verify", "--levels", "2", "--walks", "10")
        assert code == 1
        assert "error: residual too large" in err


class TestOracle:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--q", "2", "--max-depth", "2")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert abs(rows[0]["green"] - 2.0) < 1e-12
        assert abs(rows[1]["hitting"] - 0.5) < 1e-12

    def test_q1_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--q", "1")
        assert code == 2

    def test_depth_zero_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--q", "2", "--max-depth", "0")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "--tree", "2,62", "--absorb-level", "62", "--walks", "10"),
    ("resist", "--tree", "2,62", "--source", "0", "--target-set", "1"),
])
def test_tree_ids_beyond_int64_exit_2(capsys, argv):
    # these ended in an OverflowError and a numpy ValueError
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "bad --tree spec '2,62'" in err and "Traceback" not in err


class TestSimulate:
    def test_tree_absorb_level(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--tree", "2,2", "--start", "0",
            "--walks", "500", "--absorb-level", "2", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 7
        assert doc["censored"] == 0
        assert sum(doc["hits"].values()) == 500

    def test_byte_stable(self, capsys):
        argv = [
            "simulate", "--tree", "2,3", "--start", "0",
            "--walks", "300", "--absorb-level", "3", "--seed", "5",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_seeded_stdout_digest(self, capsys):
        # pins the walker's tallies together with the JSON formatting of hits
        code, out, _ = run_cli(
            capsys,
            "simulate", "--tree", "2,12", "--absorb-level", "12",
            "--walks", "20000", "--seed", "42",
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "91ea72c0d7a1a11a83c93e3a802c08cae965a2224b1c110b3ccf56191d8200c5"

    @pytest.mark.parametrize("argv, want", [
        # the benchmark's walks: two chunks of 50,000, stepped one after the other
        (("--tree", "2,20", "--absorb-level", "20", "--walks", "100000", "--seed", "42"),
         "fd57d6b29bada45df0c659795df54bd873130ab5610d8336eeffae2aecbf94a0"),
        # the parent (x - 2) // q at a divisor other than 2
        (("--tree", "3,12", "--absorb-level", "12", "--walks", "20000", "--seed", "7"),
         "ab04469d52b6058dc2e9ddf579481a9b9ac5aa9cb0239d52f6cf6fd264b98d9c"),
    ])
    def test_tree_walk_stdout_digest(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_tree_builds_no_network(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_tree", _raising(AssertionError))
        code, out, _ = run_cli(
            capsys, "simulate", "--tree", "2,3", "--absorbing", "0,14", "--start", "7",
            "--walks", "300", "--seed", "5",
        )
        assert code == 0
        assert sum(json.loads(out)["hits"].values()) == 300

    def test_tree_equals_its_network_file(self, capsys, tmp_path):
        # the document names no network, so the arithmetic tree walk and the
        # CSR walk of the same tree written to a file print the same bytes
        t = build_tree(TreeSpec(2, 12))
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(network_to_json(t.net)))
        level = ",".join(map(str, level_slice(t.spec, 12).tolist()))
        common = ("--walks", "20000", "--seed", "42")
        _, by_file, _ = run_cli(
            capsys, "simulate", "--network", str(path), "--absorbing", level, *common
        )
        _, by_tree, _ = run_cli(
            capsys, "simulate", "--tree", "2,12", "--absorb-level", "12", *common
        )
        assert by_file == by_tree and json.loads(by_tree)["censored"] == 0

    def test_arguments_from_file(self, capsys, tmp_path, monkeypatch):
        # @FILE reads one argument per line, so an id list longer than the
        # kernel takes as one argument reaches --absorbing from a file
        t = build_tree(TreeSpec(2, 6))
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(network_to_json(t.net)))
        level = ",".join(map(str, level_slice(t.spec, 6).tolist()))
        argv = ["simulate", "--network", str(path), "--absorbing", level,
                "--walks", "2000", "--seed", "7"]
        (tmp_path / "args").write_text("\n".join(argv) + "\n")
        direct = run_cli(capsys, *argv)
        monkeypatch.chdir(tmp_path)
        assert direct[0] == 0 and run_cli(capsys, "@args") == direct

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RESISTIVE_WALKS_SEED", "99")
        code, out, _ = run_cli(
            capsys,
            "simulate", "--tree", "2,2", "--start", "0",
            "--walks", "10", "--absorb-level", "2",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RESISTIVE_WALKS_SEED", "abc")
        code, _, err = run_cli(
            capsys, "simulate", "--tree", "2,2", "--absorb-level", "2", "--walks", "10"
        )
        assert code == 2 and "--seed" in err and "Traceback" not in err

    def test_zero_walks_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--tree", "2,2", "--walks", "0", "--absorb-level", "2"
        )
        assert code == 2

    def test_deep_tree_short_walks(self, capsys):
        # ten steps from the root reach level 10 of the level-40 tree, so its
        # absorption flags cover 3,070 ids, not 3.3e12
        code, out, err = run_cli(
            capsys, "simulate", "--tree", "2,40", "--absorbing", "1", "--max-steps", "10",
            "--walks", "10",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["num_walks"] == 10

    def test_unallocatable_tree_flags_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--tree", "2,59", "--absorbing", "1", "--max-steps", "100",
            "--walks", "10",
        )
        assert code == 2
        assert "absorption flags" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--absorbing", "999"),
        ("--absorbing", "-1"),
        ("--absorbing", "1,y"),
        ("--absorb-level", "3"),
    ])
    def test_bad_absorbing_exits_2(self, capsys, flags):
        code, _, err = run_cli(
            capsys, "simulate", "--tree", "2,2", "--walks", "10", *flags
        )
        assert code == 2
        assert "Traceback" not in err


class TestVerify:
    def test_small_scale_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--levels", "4", "--walks", "4000", "--seed", "42"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exit_status"] == "pass"
        assert all(r["verdict"] == "pass" for r in doc["results"])

    def test_default_stdout_digest(self, capsys):
        # pins every row at the default scale, the Monte Carlo batch on the
        # level-20 tree included; the Green and hitting rows' solver values
        # come from one sweep of the exhaustions, with v_n(x) and R_n
        # accelerated apart, those at depth 2 through the limits at depth 1
        code, out, _ = run_cli(capsys, "verify", "--seed", "42")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "f66434f5b2b0a5f2b5ac513042071f66cede2e251213285b795c202bb1cd6441"

    @pytest.mark.parametrize("argv, want", [
        ("--q 3 --levels 5 --walks 2000",
         "5866d2c6b3b5143855099afcfc6c50da5726b030c3d1bdb4a40ec778f1e0befc"),
        ("--q 6 --walks 2000",
         "0bbde4935820d8da4e045f4663290029f7fe6a778c6afdbee475cfd58c9739cd"),
        ("--levels 10 --walks 2000",
         "4c7099217c99b8c0f0609b4350373842da58624f16dc5852d8906f63f8fe0ca1"),
    ])
    def test_stdout_digest(self, capsys, argv, want):
        # the resistance and escape rows of other trees, at seed 42
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want

    @staticmethod
    def _largest_assembled(monkeypatch, **kwargs):
        sizes = []

        def recording(u, v, c, vertex_count, *args, **kw):
            sizes.append(vertex_count)
            return assemble(u, v, c, vertex_count, *args, **kw)

        assemble = network._assemble
        for module in (network, tree, generators):
            monkeypatch.setattr(module, "_assemble", recording)
        assert run_battery(**kwargs).exit_status == "pass"
        return max(sizes)

    def test_default_battery_assembles_no_big_network(self, monkeypatch):
        # the level-20 walks need no network; the largest one assembled is
        # the radius-9 exhaustion that confirms the Green function's limit,
        # which its transience verdict reaches
        assert self._largest_assembled(monkeypatch) <= tree_vertex_count(2, 9) + 1

    @pytest.mark.parametrize("q", [2, 3, 6])
    def test_one_limit_sweep_per_battery(self, monkeypatch, q):
        # one exhaustion, of radius L - 1, is built for the resistance and
        # escape rows; the other resistance_solver rows read the root's
        # column of one sweep, and the five Green and hitting rows one sweep
        # of the columns [0, 1] (the depth-2 id routes to id 1).  Every
        # other build is a sparse-LU solve of a radius whose shell is too
        # large for the recursion: none of the root sweep's radii 0..6 at
        # q = 2, 5 and 6 at q = 3, 4..6 at q = 6, and the limit sweep's last
        # two radii
        calls = {"exhaustion": 0, "_terms": 0, "_unit_current_voltage": 0}
        columns = []
        for module in (harmonic, verify):
            for name in filter(lambda name: hasattr(module, name), calls):
                def counted(*args, _real=getattr(module, name), _name=name):
                    calls[_name] += 1
                    if _name == "_terms":
                        columns.append(list(args[1]))
                    return _real(*args)
                monkeypatch.setattr(module, name, counted)
        assert run_battery(q=q, walks=2000).exit_status == "pass"
        builds, solves = {2: (3, 2), 3: (5, 4), 6: (6, 5)}[q]
        assert calls == {"exhaustion": builds, "_terms": 2, "_unit_current_voltage": solves}
        assert columns == [[0], [0, 1]]

    @pytest.mark.parametrize("levels", [1, 2])
    def test_shallow_batteries_pass(self, levels):
        # at levels=1 the root's sweep is empty, so resistance_solver/n=1 is
        # the one solve's; at levels=2 it is the sweep's radius 0
        report = run_battery(levels=levels, walks=2000)
        assert report.exit_status == "pass"
        assert [r.quantity for r in report.results][: 2 * levels + 1] == [
            f"{name}/n={n}" for n in range(1, levels + 1)
            for name in ("resistance", "resistance_solver")
        ] + [f"escape/root_to_level_{levels}"]

    def test_level_l_rows_come_from_the_exhaustions(self, monkeypatch):
        # the escape and resistance rows read the exhaustion of radius L - 1,
        # whose shorted level L is one vertex: the level-L tree is never built
        largest = self._largest_assembled(monkeypatch, levels=10, walks=2000)
        assert largest <= tree_vertex_count(2, 9) + 1

    @pytest.mark.parametrize("q, deepest", [(2, 20), (3, 13), (4, 10), (5, 9), (6, 8)])
    def test_one_batch_on_the_deepest_tree_within_the_limit(self, monkeypatch, q, deepest):
        specs = []

        def recording(spec, cfg):
            specs.append(spec)
            return walk(spec, cfg)

        walk = verify.run_walks
        monkeypatch.setattr(verify, "run_walks", recording)
        assert run_battery(q=q, levels=2, walks=100).exit_status == "pass"
        assert specs == [TreeSpec(q, deepest)]
        assert tree_vertex_count(q, deepest) <= EXHAUSTION_LIMIT
        assert tree_vertex_count(q, deepest + 1) > EXHAUSTION_LIMIT

    def test_hitting_row_reads_the_root_visits(self):
        # a second visit to the root is the depth-1 vertex hitting the root
        (row,) = [r for r in run_battery(levels=3, walks=2000).results
                  if r.quantity == "mc/hitting_d1"]
        spec = TreeSpec(2, 20)
        cfg = WalkConfig(seed=42, num_walks=2000, start=0,
                         absorbing=level_slice(spec, 20), watch_vertices=(0,))
        p = np.count_nonzero(run_walks(spec, cfg).watch_visit_counts[:, 0] >= 2) / 2000
        assert row.mc_estimate == p
        assert row.mc_std_err == math.sqrt(p * (1 - p) / 2000)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--levels", "3", "--walks", "100", "--tol", "0"
        )
        assert code == 1
        assert json.loads(out)["exit_status"] == "fail"
        assert "check failed" in err

    def test_zero_walks_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--walks", "0")
        assert code == 2

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--levels", "2", "--walks", "200", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("quantity,closed_form")
        assert len(lines) > 5


@pytest.mark.parametrize("argv, want", [
    ("verify --levels 3 --walks 2000 --seed 42",
     "af942f6961d4b50b39a0e1e91ee3eac741becfd3a19639da8d9077f571b45064"),
    ("oracle --q 3", "9ef91b37b1dbe030db37adeb9c48f2f83b9a0e92df017ead33a902a232fb6d6c"),
    ("resist --tree 2,8 --to-infinity",
     "f83505aa201d7ab7f45c65510e810fc5712192a5e1eaa2414970973c059e7f64"),
    ("resist --tree 2,8 --source 0 --target-set level:8",
     "2481a271f446dcd45c5db343f6ddd8d0a9641558a8a9bb8a875231d33b813a51"),
    ("simulate --tree 2,6 --absorb-level 6 --walks 500 --seed 42",
     "e3a472cc5f073b2e9f82868d10833d02ddc0d008cc5c01ff194955b2479e553f"),
])
def test_csv_stdout_digest(capsys, argv, want):
    # pins every command's CSV header, column order and number formatting
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc("stubbed failure")

    return fail


_RESIST_MODES = {"target": ("--target-set", "level:2"), "infinity": ("--to-infinity",)}

# (argv, (cli attribute, error it raises) or None, exit code)
EXIT_CODES = {
    "simulate-max-steps-0": (
        ["simulate", "--tree", "2,2", "--absorb-level", "2", "--max-steps", "0"], None, 2
    ),
    "simulate-no-absorbing-huge-budget": (
        ["simulate", "--tree", "2,2", "--max-steps", "20000000"], None, 2
    ),
    "simulate-absorbing-beyond-int64": (
        ["simulate", "--tree", "2,2", "--absorbing", "99999999999999999999999"], None, 2
    ),
    "resist-n-max-0": (["resist", "--tree", "2,4", "--to-infinity", "--n-max", "0"], None, 2),
    "oracle-negative-depth": (["oracle", "--q", "2", "--max-depth", "-1"], None, 2),
    # only simulate and verify take a seed
    "oracle-seed": (["oracle", "--q", "2", "--seed", "1"], None, 2),
    "resist-seed": (
        ["resist", "--tree", "2,2", "--source", "0", "--target-set", "level:2", "--seed", "1"],
        None,
        2,
    ),
    # numpy's generators take no negative seed: a ValueError traceback
    "verify-negative-seed": (
        ["verify", "--levels", "2", "--walks", "10", "--seed", "-1"], None, 2
    ),
    **{
        f"resist-{mode}-tol-{tol}": (
            ["resist", "--tree", "2,2", "--source", "0", *flags, "--tol", tol], None, 2
        )
        for mode, flags in _RESIST_MODES.items()
        for tol in ("0", "-1", "nan", "inf")
    },
    # an infinite tolerance would pass every check; 0 is the fail path, exit 1
    **{
        f"verify-tol-{tol}": (["verify", "--levels", "2", "--walks", "10", "--tol", tol], None, 2)
        for tol in ("-1", "nan", "inf")
    },
    # trees past EXHAUSTION_LIMIT are refused before anything is built
    "verify-levels-40": (["verify", "--levels", "40", "--walks", "10"], None, 2),
    "verify-q-40": (["verify", "--q", "40", "--walks", "10"], None, 2),
    "solver-divergence": (
        ["resist", "--tree", "2,2", "--source", "0", "--target-set", "level:2"],
        ("effective", SolverDivergence),
        1,
    ),
    "budget-exceeded": (
        ["verify", "--levels", "2", "--walks", "10"],
        ("run_battery", BudgetExceededWithoutConvergence),
        1,
    ),
    "not-transient": (
        ["resist", "--tree", "2,2", "--to-infinity"],
        ("resistance_to_infinity", NotTransient),
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code(capsys, monkeypatch, case):
    """Each bad input or failure ends in its exit code, never a traceback."""
    argv, stub, want = EXIT_CODES[case]
    if stub is not None:
        monkeypatch.setattr(cli, stub[0], _raising(stub[1]))
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    assert "Traceback" not in err
    if want == 1:
        assert out == ""
        assert err.startswith("error: stubbed failure")


def _cli_env() -> dict:
    """The environment of a ``python -m resistive_walks.cli`` subprocess,
    its stdout block-buffered as by default."""
    src = str(Path(resistive_walks.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


# a child that caps its own address space at 1 GiB, then runs main: an
# allocation past the cap fails at once, as one past the machine's memory
# would, without taking the memory first
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from resistive_walks.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_capped(*argv):
    env = {**_cli_env(), "OPENBLAS_NUM_THREADS": "1"}  # one thread's buffers under the cap
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ("simulate", "--tree", "2,40", "--absorb-level", "40", "--walks", "10"),  # 12 TiB of ids
    ("resist", "--tree", "2,40", "--source", "0", "--target-set", "1"),  # a 24 TiB build
    ("resist", "--tree", "40,8", "--source", "0", "--target-set", "level:8"),  # 50 TiB
])
def test_input_too_large_for_memory_exits_2(argv):
    # each ended in a numpy _ArrayMemoryError traceback and exit 1
    proc = _run_capped(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "input too large for memory" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_beyond_exhaustion_limit_exits_2():
    # refused by its size before the first build; it used to build trees
    # until an 821 MiB array failed
    proc = _run_capped("verify", "--q", "40", "--walks", "10")
    assert proc.returncode == 2, proc.stderr
    assert f"EXHAUSTION_LIMIT = {EXHAUSTION_LIMIT}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("q", [5, 6])
def test_verify_walks_within_the_limit(q):
    # the walks' tree holds at most EXHAUSTION_LIMIT vertices; a level-12
    # tree asked 2.18 GiB at q=5 and 18.9 GiB at q=6
    proc = _run_capped("verify", "--q", str(q), "--levels", "4", "--walks", "2000")
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_quietly():
    # about 91 KB of output, more than a pipe holds, so a write really fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "resistive_walks.cli", "simulate", "--tree", "2,12",
         "--absorb-level", "12", "--walks", "20000", "--seed", "42"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    try:
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""


@pytest.mark.parametrize("levels, walks, read", [
    (12, 20_000, 300), (12, 20_000, 5_000), (20, 100_000, 300)
], ids=["91KB-300", "91KB-5000", "1.7MB-300"])
def test_reader_that_stops_early_exits_1(levels, walks, read):
    # as ``| head -c 300``: ``read`` bytes are read, then the pipe is closed.
    # With stdout unbuffered, a document written in one call went out in one
    # write(2), which returned after the part the pipe took in; the text
    # layer dropped the rest unreported, and the command exited 0.  Reading
    # 5,000 bytes frees room in a full 64 KiB pipe, so the write(2) that
    # ends the document is cut short too, not refused
    proc = subprocess.Popen(
        [sys.executable, "-m", "resistive_walks.cli", "simulate", "--tree", f"2,{levels}",
         "--absorb-level", str(levels), "--walks", str(walks), "--seed", "42"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**_cli_env(), "PYTHONUNBUFFERED": "1"},
        bufsize=0,
    )
    try:
        got = b""
        while len(got) < read:
            chunk = os.read(proc.stdout.fileno(), read - len(got))
            assert chunk
            got += chunk
        time.sleep(0.5)  # so the writer waits in its next write(2) when the pipe closes
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""


def test_stdout_closed_before_output_exits_quietly():
    # a short document waits in stdout's buffer; main flushes it, so the
    # failed write ends in exit 1 there and not in an error at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "resistive_walks.cli", "oracle", "--q", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def plain(value):
    """``value`` with the emitter's array members as the dicts and lists
    ``json.dumps`` takes."""
    if isinstance(value, cli._IdCounts):
        return {str(k): c for k, c in zip(value.ids.tolist(), value.counts.tolist())}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def emitted(doc) -> str:
    out = io.StringIO()
    cli._write_json(doc, out)
    return out.getvalue()


def dumped(doc) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


# ids on both sides of every digit-count step, and the int64 extremes
EDGE_IDS = sorted({0, 2**63 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0, 1))})

ids_st = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**63 - 1), st.integers(0, 2000))
id_counts_st = st.lists(ids_st, unique=True, max_size=40).flatmap(
    lambda ids: st.lists(
        st.integers(0, 2**63 - 1), min_size=len(ids), max_size=len(ids)
    ).map(lambda counts: cli._IdCounts(np.array(ids, np.int64), np.array(counts, np.int64)))
)
int_array_st = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40).map(
    lambda xs: np.array(xs, np.int64)
)
scalar_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(),
    st.sampled_from(["é", "\u2028", "\x00", '"', "\\", "\n\t", "\U0001f600", "\ud800"]),
)
plain_st = st.recursive(
    scalar_st,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=30,
)
# the flat members only on a path of dicts from the top, where the CLI's
# documents hold them; lists and tuples hold plain JSON
json_st = st.recursive(
    st.one_of(plain_st, id_counts_st, int_array_st),
    lambda children: st.dictionaries(st.text(), children, max_size=5),
    max_leaves=10,
)


class TestJsonEmitter:
    @given(json_st)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert emitted(doc) == dumped(doc)

    def test_hit_ids_in_string_order(self):
        # ids at 10^k - 1 and 10^k sort far apart as strings: "99" > "100"
        ids = np.array(EDGE_IDS, np.int64)
        counts = np.arange(len(ids), dtype=np.int64)
        doc = {"hits": cli._IdCounts(ids, counts)}
        assert emitted(doc) == dumped(doc)
        got = list(json.loads(emitted(doc))["hits"])
        assert got == sorted(map(str, EDGE_IDS)) and got != list(map(str, EDGE_IDS))

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 1e300, np.float64(0.1),
        "é – ✓", "\u2028\x1f", 'a "quoted" \\ path\n', "\U0001f600",
        [], {}, [[]], {"": {}}, [{}, [[], {"a": []}]], (1, (2,)),
        np.array([], np.int64), cli._IdCounts(np.array([], np.int64), np.array([], np.int64)),
    ])
    def test_single_values(self, value):
        doc = {"z": value, "a": {"k": value}}
        assert emitted(doc) == dumped(doc)
        assert emitted(value) == dumped(value)

    def test_refuses_non_str_keys(self):
        with pytest.raises(TypeError):
            emitted({1: 2})

    @pytest.mark.parametrize("value", [
        np.array([1, 2], np.int64),
        cli._IdCounts(np.array([3], np.int64), np.array([1], np.int64)),
    ])
    def test_refuses_flat_members_in_lists(self, value):
        # json.dumps renders lists; no CLI document holds an id array in one
        for doc in ([value], {"a": [value]}, {"a": ({"b": value},)}):
            with pytest.raises(TypeError):
                emitted(doc)

    @staticmethod
    def _simulate_sized_doc():
        rng = np.random.default_rng(16)
        ids = np.unique(rng.integers(0, 3_000_000, size=100_000))
        return {
            "command": "simulate",
            "hits": cli._IdCounts(ids, rng.integers(1, 50, size=len(ids))),
            "target_set": ids,
            "label": "x" * 200_000,
        }

    def test_writes_are_bounded(self):
        class Sink:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        doc = self._simulate_sized_doc()
        sink = Sink()
        cli._write_json(doc, sink)
        # a simulate-sized document goes out whole, in one write
        assert len(sink.writes) == 1
        assert sink.writes[0] == dumped(doc)

    def test_short_writes_are_sent_again(self):
        # an unbuffered stdout's binary layer is the file itself, whose
        # write(2) into a pipe may take only part of what it is given; the
        # text layer above it drops the rest, so _write_json sends it again
        class Pipe(io.RawIOBase):
            def __init__(self):
                self.got = bytearray()

            def writable(self):
                return True

            def write(self, data):
                self.got += bytes(data[:4096])
                return min(len(data), 4096)

        doc = self._simulate_sized_doc()
        pipe = Pipe()
        out = io.TextIOWrapper(pipe, encoding="utf-8", write_through=True)
        out.write("{")  # text already written goes out first
        cli._write_json(doc, out)
        assert pipe.got.decode() == "{" + dumped(doc)
