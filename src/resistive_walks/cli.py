"""Command-line surface: resist / oracle / simulate / verify.

Exit codes are a stable contract: 0 pass, 1 check or solver failure,
2 usage or input error.  Randomized commands echo their seed so every
published number can be replayed; the ``RESISTIVE_WALKS_SEED`` environment
variable is the fallback when ``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .errors import NetworkError, SolverDivergence
from .harmonic import effective, resistance_to_infinity
from .network import network_from_json
from .tree import TreeGenerator, TreeSpec, build_tree, level_slice, oracle_table
from .verify import run_battery
from .walks import WalkConfig, run_walks

__all__ = ["main"]


def _default_seed() -> int:
    return int(os.environ.get("RESISTIVE_WALKS_SEED", "42"))


def _emit(doc, fmt: str, csv_rows=None, csv_fields=None) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=csv_fields, lineterminator="\n")
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())


def _load_network(args, parser):
    """The network of ``--network`` or ``--tree``, plus the tree (or None)."""
    if args.network:
        # ValueError covers malformed JSON; KeyError, TypeError and
        # OverflowError, records with a missing, mistyped or huge field
        try:
            with open(args.network) as fh:
                return network_from_json(json.load(fh)), None
        except (OSError, ValueError, KeyError, TypeError, OverflowError, NetworkError) as exc:
            parser.error(f"bad --network {args.network!r}: {exc}")
    try:
        q_str, n_str = args.tree.split(",")
        tree = build_tree(TreeSpec(int(q_str), int(n_str)))
    except (ValueError, NetworkError) as exc:
        parser.error(f"bad --tree spec {args.tree!r}: {exc}")
    return tree.net, tree


def _parse_ids(text: str, flag: str, parser) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        parser.error(f"bad {flag} {text!r}: expected comma-separated vertex ids")


def _tree_level(tree, k, flag: str, parser) -> np.ndarray:
    """Vertex ids of level ``k`` (an int or its text) of the ``--tree``."""
    if tree is None:
        parser.error(f"{flag} needs --tree")
    try:
        return level_slice(tree, int(k))
    except (ValueError, NetworkError) as exc:
        parser.error(f"bad {flag} {k!r}: {exc}")


def _parse_target_set(spec: str, tree, parser):
    if spec.startswith("level:"):
        return set(_tree_level(tree, spec.split(":", 1)[1], "--target-set", parser).tolist())
    return set(_parse_ids(spec, "--target-set", parser))


def _cmd_resist(args, parser) -> int:
    net, tree = _load_network(args, parser)
    if args.tol is not None and not args.tol > 0:
        parser.error("--tol must be positive")
    if args.to_infinity:
        if tree is None:
            parser.error("--to-infinity currently needs --tree")
        limit = resistance_to_infinity(
            TreeGenerator(tree.spec.q), n_max=args.n_max, tol=args.tol or 1e-6
        )
        doc = {
            "command": "resist",
            "inputs": {"tree": f"{tree.spec.q},{tree.spec.levels}", "mode": "to-infinity"},
            "resistance": limit.value,
            "conductance": 1.0 / limit.value,
            "flag": "converged" if limit.converged else "not-converged",
            "n_used": limit.n_used,
        }
        rows = [{k: doc[k] for k in ("resistance", "conductance", "flag", "n_used")}]
        _emit(doc, args.format, rows, ["resistance", "conductance", "flag", "n_used"])
        return 0 if limit.converged else 1

    targets = _parse_target_set(args.target_set, tree, parser)
    try:
        eq = effective(net, args.source, targets, tol=args.tol or 1e-9)
    except SolverDivergence:
        raise
    except NetworkError as exc:
        parser.error(str(exc))
    doc = {
        "command": "resist",
        "inputs": {
            "source": args.source,
            "target_set": sorted(targets),
            "network": args.network or f"tree:{args.tree}",
        },
        "conductance": eq.conductance,
        "resistance": eq.resistance,
        "escape_probability": eq.escape_probability,
    }
    fields = ["conductance", "resistance", "escape_probability"]
    _emit(doc, args.format, [{k: doc[k] for k in fields}], fields)
    return 0


def _cmd_oracle(args, parser) -> int:
    if args.q < 2:
        parser.error("--q must be >= 2")
    rows = oracle_table(args.q, args.max_depth)
    doc = {"command": "oracle", "inputs": {"q": args.q, "max_depth": args.max_depth}, "rows": rows}
    _emit(doc, args.format, rows, list(rows[0].keys()))
    return 0


def _cmd_simulate(args, parser) -> int:
    net, tree = _load_network(args, parser)
    if args.walks < 1:
        parser.error("--walks must be >= 1")
    absorbing = ()
    if args.absorb_level is not None:
        absorbing = _tree_level(tree, args.absorb_level, "--absorb-level", parser)
    elif args.absorbing:
        absorbing = tuple(_parse_ids(args.absorbing, "--absorbing", parser))
    cfg = WalkConfig(
        seed=args.seed,
        num_walks=args.walks,
        start=args.start,
        absorbing=absorbing,
        max_steps=args.max_steps,
    )
    try:
        stats = run_walks(net, cfg)
    except NetworkError as exc:
        parser.error(str(exc))
    doc = {"command": "simulate", **stats.to_json()}
    fields = ["seed", "num_walks", "start", "censored"]
    _emit(doc, args.format, [{k: doc[k] for k in fields}], fields)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.walks < 1:
        parser.error("--walks must be >= 1")
    if args.levels < 1:
        parser.error("--levels must be >= 1")
    try:
        report = run_battery(
            q=args.q, levels=args.levels, walks=args.walks, seed=args.seed, tol=args.tol
        )
    except SolverDivergence:
        raise
    except NetworkError as exc:
        parser.error(str(exc))
    if args.format == "json":
        _emit(report.to_json(), "json")
    else:
        rows = [r.to_json() for r in report.results]
        _emit(None, "csv", rows, list(rows[0].keys()))
    for r in report.results:
        if r.verdict != "pass":
            print(f"check failed: {r.quantity}", file=sys.stderr)
    return 0 if report.exit_status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resistive-walks",
        description="Harmonic solving, flow calculus and random-walk "
        "simulation on resistor networks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("resist", help="effective conductance / resistance / escape")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network JSON file")
    src.add_argument("--tree", help="homogeneous tree shorthand q,n")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--target-set", help="comma ids or level:k (trees)")
    mode.add_argument("--to-infinity", action="store_true")
    p.add_argument("--source", type=int, default=None)
    p.add_argument(
        "--tol",
        type=float,
        help="with --to-infinity, the limit tolerance (default 1e-6); with "
        "--target-set, the solver's residual tolerance (default 1e-9)",
    )
    p.add_argument("--n-max", type=int, default=64)
    add_common(p)

    p = sub.add_parser("oracle", help="closed-form table for the homogeneous tree")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=4)
    add_common(p)

    p = sub.add_parser("simulate", help="seeded random-walk batch")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network JSON file")
    src.add_argument("--tree", help="homogeneous tree shorthand q,n")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--walks", type=int, default=10_000)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--absorbing", help="comma-separated vertex ids")
    p.add_argument("--absorb-level", type=int, help="absorb at tree level k")
    add_common(p)

    p = sub.add_parser("verify", help="closed form vs solver vs Monte Carlo battery")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--walks", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-9)
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "resist" and not args.to_infinity and args.source is None:
        parser.error("--source is required with --target-set")
    handlers = {
        "resist": _cmd_resist,
        "oracle": _cmd_oracle,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args, parser)
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
