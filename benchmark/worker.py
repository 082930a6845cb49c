"""One benchmark process: sets up, computes references for, or measures a workload.

``run.py`` starts it with BLAS/OpenMP pinned to one thread.  Roles:

- ``setup``: import the package and generate the workload's inputs, then exit
  (``run.py`` times the whole process);
- ``reference``: compute the values the checks compare against and write
  them to ``expected.json`` in the work directory;
- ``measure``: repeat the workload until ``--seconds`` is used up and print
  one JSON line with per-iteration times and digests, operations and
  failures.  With ``--trace 1`` every odd iteration runs with tracing
  installed, so traced and untraced iterations interleave in one process
  and their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import resistive_walks  # noqa: E402
import workloads  # noqa: E402


def _iterate(run, inp, exp, rec, seconds: float, tracer=None) -> list[dict]:
    """Run iterations until the next one would overrun ``seconds``.

    Iteration 0 is untraced; with a tracer, odd iterations are traced and
    the loop does not stop before one of them has run.
    """
    its: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(its) % 2 == 1
        uninstall = tracer.install() if traced else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            run(inp, exp, rec)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if uninstall is not None:
                uninstall()
        it = {"wall": wall, "cpu": cpu, "digest": rec.take_digest(), "traced": traced}
        if traced:
            it["layers"] = tracer.end_iteration()
        its.append(it)
        elapsed = time.perf_counter() - start
        need_traced = tracer is not None and len(its) < 2
        if not need_traced and elapsed + statistics.median(i["wall"] for i in its) > seconds:
            return its


def _facts(workload: str, seed: int, inp: dict) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "sizes": workloads.sizes(workload, inp),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "reference", "measure"))
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path(resistive_walks.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"resistive_walks imported from {resistive_walks.__file__}", file=sys.stderr)
        return 2
    inp = workloads.make_inputs(args.workload, args.seed, args.workdir)
    if args.role == "setup":
        return 0
    if args.role == "reference":
        exp = workloads.expected_values(args.workload, args.seed)
        (args.workdir / "expected.json").write_text(json.dumps(exp))
        return 0

    exp = json.loads((args.workdir / "expected.json").read_text())
    rec = workloads.Recorder()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    its = _iterate(workloads.RUNS[args.workload], inp, exp, rec, args.seconds, tracer)
    out = {
        "iterations": [{k: v for k, v in it.items() if k != "layers"} for it in its],
        "attempted": rec.attempted,
        "failures": rec.failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": {**_facts(args.workload, args.seed, inp), **rec.facts},
    }
    if tracer is not None:
        layers = [it["layers"] for it in its if it["traced"]]
        out["layer_metrics"] = {
            name: {"value": statistics.median(it[name] for it in layers), "unit": unit}
            for name, unit in tracing.METRICS
        }
        out["spans"] = tracer.last
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
