"""Benchmark of resistive-walks: four seeded workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 benchmark/run.py --workload tree_cli --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``tree_cli``: ``verify`` at its defaults, then ``simulate`` on the
  level-20 binary tree, both through ``resistive_walks.cli.main``;
- ``solve``: three ``resist`` calls (a level-16 tree, a 300x300 grid solved
  by CG, a 200x200 grid solved by LU) and the flow calculus on the 200x200 grid;
- ``limits``: Green function and resistance to infinity by exhaustion on
  non-symmetric generators;
- ``walk_dense``: ``run_walks`` on the complete graph K_200.

All work runs in one worker process (``worker.py``) at a time, with
BLAS/OpenMP pinned to one thread.  This process has a worker compute the
reference values, times a few set-up-only workers for ``setup_s``, then has
a worker measure.  With ``--trace 0`` the last line of output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  A line
before it holds the run facts; both, and the spans of the last traced
iteration, are kept in ``.bench_work/results/``.  Generated inputs are
deleted when the run ends.

Every iteration's seeded outputs are digested.  A digest that differs from
an earlier iteration, or from an earlier run of the same sources, workload
and seed, counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, including set-up

PINNED = {
    k: "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(Exception):
    pass


def _worker(role: str, args, workdir: Path, deadline: float) -> str:
    """Run one worker to completion and return its standard output; kills it
    if the run's deadline passes.  Reading its output until the pipe closes
    times its exit to the millisecond (waiting alone polls every 50 ms)."""
    cmd = [sys.executable, str(WORKER), role, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **PINNED, "PYTHONDONTWRITEBYTECODE": "1"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {role} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, text=True,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{role} worker exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}")
    return proc.stdout


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_digests(digests: list[str], store: Path) -> tuple[int, int]:
    """(attempted, failed) digest comparisons: every iteration against the
    first, and the first against the stored digest of an earlier run."""
    failed = sum(d != digests[0] for d in digests[1:])
    attempted = len(digests) - 1
    if store.exists():
        attempted += 1
        failed += store.read_text() != digests[0]
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(digests[0])
    return attempted, failed


def _low_quartile(values) -> float:
    """First quartile of one run's iteration times.

    Every iteration does the same work.  On a shared host, other tenants
    slow some iterations by 10-50% in bursts of seconds to minutes, now and
    then leaving a short quiet spell.  The median follows the bursts and the
    minimum follows the quiet spells; the first quartile is steadier from
    run to run than either.  Medians stay in the run facts.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-seed{args.seed}"  # generated inputs
    try:
        _worker("reference", args, workdir, deadline)
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                _worker("setup", args, workdir, deadline)
                setup.append(time.perf_counter() - t0)
        lines = _worker("measure", args, workdir, deadline).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not lines:
        raise BenchError("measure worker printed no result")
    res = json.loads(lines[-1])

    its = res["iterations"]
    store = work / "digests" / f"{args.workload}-seed{args.seed}-{_source_digest()[:16]}"
    d_attempted, d_failed = _check_digests([it["digest"] for it in its], store)
    attempted = res["attempted"] + d_attempted
    failed = len(res["failures"]) + d_failed

    # iteration 0 warms allocator and caches: it is checked but not timed
    timed = [it for it in its[1:] if not it["traced"]] or its[:1]
    wall = _low_quartile(it["wall"] for it in timed)
    if args.trace:
        traced = _low_quartile(it["wall"] for it in its if it["traced"])
        metrics = {
            **res["layer_metrics"],
            "trace.wall_s": _metric(traced, "s"),
            "trace.untraced_wall_s": _metric(wall, "s"),
            "trace.overhead_ratio": _metric(traced / wall, "ratio"),
        }
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(_low_quartile(it["cpu"] for it in timed), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mib": _metric(res["peak_rss_kib"] / 1024.0, "MiB"),
            "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }

    facts = {
        **res["facts"],
        "trace": args.trace,
        "seconds": args.seconds,
        "iterations": its,
        "median_wall_s": statistics.median(it["wall"] for it in timed),
        "median_cpu_s": statistics.median(it["cpu"] for it in timed),
        "setup_samples_s": setup,
        "failures": res["failures"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"facts": facts, "result": result, "spans": res.get("spans")}))
    print(json.dumps({"facts": facts}))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="tree_cli, solve, limits or walk_dense")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "resistive_walks" / "__init__.py").is_file():
        print(f"no resistive_walks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
