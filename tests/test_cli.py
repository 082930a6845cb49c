import hashlib
import json

import pytest

from resistive_walks import build_network, network_to_json
from resistive_walks import cli
from resistive_walks.cli import main
from resistive_walks.errors import SolverDivergence


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
    "not_a_doc": json.dumps([1, 2]),
    "uncovered": json.dumps({"vertices": 3, "edges": [{"u": 0, "v": 1, "c": 1.0}]}),
    "huge_c": '{"vertices": 2, "edges": [{"u": 0, "v": 1, "c": 1' + "0" * 400 + "}]}",
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

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RESISTIVE_WALKS_SEED", "99")
        code, out, _ = run_cli(
            capsys,
            "simulate", "--tree", "2,2", "--start", "0",
            "--walks", "10", "--absorb-level", "2",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_zero_walks_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--tree", "2,2", "--walks", "0", "--absorb-level", "2"
        )
        assert code == 2

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
