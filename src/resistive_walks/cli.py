"""Command-line surface: resist / oracle / simulate / verify.

Exit codes are a stable contract: 0 pass, 1 check or solver failure,
2 usage or input error.  The library judges every input and raises a typed
:class:`~resistive_walks.errors.NetworkError`; :func:`main` is the one
place that maps an error to an exit code.  The randomized commands,
``simulate`` and ``verify``, take ``--seed`` and echo it so every published
number can be replayed; the ``RESISTIVE_WALKS_SEED`` environment variable is
the fallback when ``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BudgetExceededWithoutConvergence,
    NetworkError,
    NotTransient,
    SolverDivergence,
)
from .harmonic import effective, resistance_to_infinity
from .network import _network_from_file
from .tree import TreeGenerator, TreeSpec, build_tree, level_slice, oracle_table
from .verify import run_battery
from .walks import WalkConfig, run_walks

__all__ = ["main"]


_BATCH = 1024  # flat members formatted at a time, so no whole int list is held
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 1, 10, ..., 10**19


@dataclass(frozen=True)
class _IdCounts:
    """A JSON object mapping each id, as its decimal string, to a count:
    two int arrays of the same length, the ids non-negative and distinct."""

    ids: np.ndarray
    counts: np.ndarray


def _decimal_order(ids: np.ndarray) -> np.ndarray:
    """The permutation that sorts non-negative int64 ids as their decimal
    strings sort.  Each id is padded with zeros to 19 digits, its exact digit
    count (by searchsorted over powers of ten, not log10) breaking ties: a
    string sorts before every longer string it is a prefix of."""
    u = ids.astype(np.uint64)
    digits = np.searchsorted(_POW10[1:], u, side="right") + 1
    return np.lexsort((digits, u * _POW10[19 - digits]))


def _members(fmt: str, columns, brackets: str, nl: str):
    """Chunks of a JSON list or object whose members are ``fmt`` filled from
    ``columns`` (arrays of one length), laid out as ``indent=2`` lays them."""
    n = len(columns[0])
    if n == 0:
        yield brackets
        return
    sep = "," + nl + "  "
    for i in range(0, n, _BATCH):
        texts = map(fmt.format, *(col[i : i + _BATCH].tolist() for col in columns))
        yield (brackets[0] + nl + "  " if i == 0 else sep) + sep.join(texts)
    yield nl + brackets[1]


def _chunks(value, nl: str):
    """Chunks of ``json.dumps(value, sort_keys=True, indent=2)``; ``nl`` is a
    newline and the indent of the line ``value`` starts on.  Only dicts (str
    keys) and the flat members they hold, an int ndarray as a list and an
    :class:`_IdCounts` as an object, are laid out here; any other value is
    ``json.dumps``' text re-indented, exact as JSON text has no raw newline."""
    if isinstance(value, dict) and value:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):  # json.dumps would sort an int key as an int
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            yield sep + json.dumps(key) + ": "
            yield from _chunks(value[key], inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        yield from _members("{}", (value,), "[]", nl)
    elif isinstance(value, _IdCounts):
        order = _decimal_order(value.ids)
        yield from _members('"{}": {}', (value.ids[order], value.counts[order]), "{}", nl)
    else:
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _write_json(doc, out) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline to
    ``out``: encoded, to its binary layer when it has one, sending again
    whatever a short write left, so a reader that goes away part way fails
    the next write.  On an unbuffered stdout (``python -u``,
    ``PYTHONUNBUFFERED``) the text layer would drop that rest unreported."""
    text = "".join([*_chunks(doc, "\n"), "\n"])
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text)
        return
    out.flush()
    view = memoryview(text.encode(out.encoding, out.errors))
    while view:
        view = view[binary.write(view) :]
    binary.flush()


def _emit(doc, fmt: str, rows) -> None:
    """Write ``doc`` as JSON, or ``rows`` (dicts with the keys of the first,
    in its order) as CSV with a header."""
    if fmt == "json":
        _write_json(doc, sys.stdout)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _load_network(args, parser):
    """The network of ``--network`` or ``--tree``, plus the TreeSpec (or None)."""
    if args.network:
        # ValueError covers malformed JSON; KeyError, TypeError and
        # OverflowError, records with a missing, mistyped or huge field
        try:
            with open(args.network) as fh:
                return _network_from_file(fh), None
        except (OSError, ValueError, KeyError, TypeError, OverflowError, NetworkError) as exc:
            parser.error(f"bad --network {args.network!r}: {exc}")
    spec = _tree_spec(args, parser)
    return build_tree(spec).net, spec


def _tree_spec(args, parser) -> TreeSpec:
    """The validated TreeSpec of ``--tree q,n``; nothing is built."""
    try:
        q_str, n_str = args.tree.split(",")
        return TreeSpec(int(q_str), int(n_str))
    except (ValueError, NetworkError) as exc:
        parser.error(f"bad --tree spec {args.tree!r}: {exc}")


def _parse_ids(text: str, flag: str, parser) -> np.ndarray:
    """The comma-separated ids of ``text`` as one int64 array."""
    try:
        return np.array([int(x) for x in text.split(",")], dtype=np.int64)
    except (ValueError, OverflowError):  # OverflowError: an id beyond int64
        parser.error(f"bad {flag} {text!r}: expected comma-separated int64 vertex ids")


def _tree_level(tree, k, flag: str, parser) -> np.ndarray:
    """Vertex ids of level ``k`` (an int or its text) of the ``--tree``."""
    if tree is None:
        parser.error(f"{flag} needs --tree")
    try:
        return level_slice(tree, int(k))
    except (ValueError, NetworkError) as exc:
        parser.error(f"bad {flag} {k!r}: {exc}")


def _parse_target_set(spec: str, tree, parser) -> np.ndarray:
    """The ids of ``--target-set`` as one array, distinct and ascending."""
    if spec.startswith("level:"):
        return _tree_level(tree, spec.split(":", 1)[1], "--target-set", parser)
    return np.unique(_parse_ids(spec, "--target-set", parser))


def _cmd_resist(args, parser) -> int:
    if args.to_infinity:  # needs only the tree's q
        if args.network:
            parser.error("--to-infinity currently needs --tree")
        spec = _tree_spec(args, parser)
        limit = resistance_to_infinity(
            TreeGenerator(spec.q),
            n_max=args.n_max,
            tol=1e-6 if args.tol is None else args.tol,
        )
        doc = {
            "command": "resist",
            "inputs": {"tree": f"{spec.q},{spec.levels}", "mode": "to-infinity"},
            "resistance": limit.value,
            "conductance": 1.0 / limit.value,
            "flag": "converged" if limit.converged else "not-converged",
            "n_used": limit.n_used,
        }
        row = {k: doc[k] for k in ("resistance", "conductance", "flag", "n_used")}
        _emit(doc, args.format, [row])
        return 0 if limit.converged else 1

    net, tree = _load_network(args, parser)
    targets = _parse_target_set(args.target_set, tree, parser)
    eq = effective(net, args.source, targets, tol=1e-9 if args.tol is None else args.tol)
    doc = {
        "command": "resist",
        "inputs": {
            "source": args.source,
            "target_set": targets,
            "network": args.network or f"tree:{args.tree}",
        },
        "conductance": eq.conductance,
        "resistance": eq.resistance,
        "escape_probability": eq.escape_probability,
    }
    row = {k: doc[k] for k in ("conductance", "resistance", "escape_probability")}
    _emit(doc, args.format, [row])
    return 0


def _cmd_oracle(args, parser) -> int:
    rows = oracle_table(args.q, args.max_depth)
    doc = {"command": "oracle", "inputs": {"q": args.q, "max_depth": args.max_depth}, "rows": rows}
    _emit(doc, args.format, rows)
    return 0


def _cmd_simulate(args, parser) -> int:
    if args.network:
        net, tree = _load_network(args, parser)
    else:  # a --tree is walked by arithmetic, never built
        net = tree = _tree_spec(args, parser)
    absorbing = ()
    if args.absorb_level is not None:
        absorbing = _tree_level(tree, args.absorb_level, "--absorb-level", parser)
    elif args.absorbing:
        absorbing = _parse_ids(args.absorbing, "--absorbing", parser)
    cfg = WalkConfig(
        seed=args.seed,
        num_walks=args.walks,
        start=args.start,
        absorbing=absorbing,
        max_steps=args.max_steps,
    )
    stats = run_walks(net, cfg)
    done = stats.absorbed_at[stats.absorbed_at >= 0]
    doc = {
        "command": "simulate",
        "seed": cfg.seed,
        "num_walks": cfg.num_walks,
        "start": cfg.start,
        "censored": stats.censored,
        "hits": _IdCounts(*np.unique(done, return_counts=True)),
    }
    row = {k: doc[k] for k in ("seed", "num_walks", "start", "censored")}
    _emit(doc, args.format, [row])
    return 0


def _cmd_verify(args, parser) -> int:
    report = run_battery(
        q=args.q, levels=args.levels, walks=args.walks, seed=args.seed, tol=args.tol
    )
    doc = asdict(report)
    _emit(doc, args.format, doc["results"])
    for r in report.results:
        if r.verdict != "pass":
            print(f"check failed: {r.quantity}", file=sys.stderr)
    return 0 if report.exit_status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resistive-walks",
        description="Harmonic solving, flow calculus and random-walk simulation on "
        "resistor networks.  @FILE reads further arguments from FILE, one per line.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, seeded=False):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if seeded:
            # a string default goes through type=int, so a bad value is a usage error
            p.add_argument("--seed", type=int,
                           default=os.environ.get("RESISTIVE_WALKS_SEED", "42"))

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
    add_common(p, seeded=True)

    p = sub.add_parser("verify", help="closed form vs solver vs Monte Carlo battery")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--walks", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-9)
    add_common(p, seeded=True)

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
        code = handlers[args.cmd](args, parser)
        # a reader that closed stdout fails this flush here, not at exit
        sys.stdout.flush()
        return code
    except (SolverDivergence, BudgetExceededWithoutConvergence, NotTransient) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NetworkError as exc:
        parser.error(str(exc))
    except MemoryError as exc:  # an input whose arrays no memory holds
        parser.error(f"input too large for memory: {exc}")
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull so the
        # interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
