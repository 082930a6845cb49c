"""Spans around the library's public functions, for the traced run only.

:meth:`Tracer.install` replaces every public function of each package module
(and ``Network.laplacian``, ``scipy.sparse.linalg.splu`` and ``cg``) with
a wrapper that records a span: name, start, end and the span open when it
was called.  Spans stay in memory; :func:`layer_metrics` reduces one
iteration's spans to the per-layer metrics.  Nothing is edited in the
package's source; untraced runs never import this module, and a traced
run installs the wrappers only around its traced iterations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import scipy.sparse.linalg as spla

from resistive_walks.network import Network

LAYERS = ("cli", "verify", "network", "tree", "generators", "harmonic", "flows", "walks")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("walks.run_s", "s"), ("walks.steps", "count"), ("walks.walks", "count"),
    ("walks.ns_per_step", "ns"), ("walks.censored_ratio", "ratio"),
    ("tree.build_calls", "count"), ("tree.build_s", "s"), ("tree.vertices_built", "count"),
    ("harmonic.solve_calls", "count"), ("harmonic.solve_s", "s"),
    ("harmonic.free_vertices", "count"), ("harmonic.factor_calls", "count"),
    ("harmonic.factor_s", "s"), ("harmonic.cg_calls", "count"), ("harmonic.cg_s", "s"),
    ("harmonic.cg_iters", "count"), ("harmonic.residual_s", "s"),
    ("harmonic.limit_s", "s"), ("harmonic.classify_calls", "count"),
    ("generators.exhaustion_calls", "count"), ("generators.exhaustion_s", "s"),
    ("generators.exhaustion_vertices", "count"),
    ("network.laplacian_calls", "count"), ("network.laplacian_s", "s"),
    ("network.build_calls", "count"), ("network.build_s", "s"),
    ("flows.current_flow_calls", "count"), ("flows.current_flow_s", "s"),
    ("flows.factor_s", "s"), ("flows.kirchhoff_s", "s"), ("flows.validate_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("verify.rows", "count"), ("verify.rows_failed", "count"), ("verify.self_s", "s"),
)

_LIMITS = ("harmonic.resistance_to_infinity", "harmonic.green_function",
           "harmonic.hitting_probability")
_BUILDS = ("network.build_network", "network.network_from_json")

# what a span records about its call, beyond its times
_INFO = {
    "walks.run_walks": lambda args, kw, out: (
        out.config.num_walks, int(out.steps.sum()), out.censored),
    "tree.build_tree": lambda args, kw, out: out.net.vertex_count,
    "harmonic.solve_dirichlet": lambda args, kw, out: (
        args[0].vertex_count - len(args[1].clamped)),
    "generators.exhaustion": lambda args, kw, out: out[0].vertex_count,
    "verify.run_battery": lambda args, kw, out: (
        len(out.results), sum(r.verdict != "pass" for r in out.results)),
    "scipy.cg": lambda args, kw, out: kw["callback"].n,
}


class _IterCounter:
    """CG callback counting iterations."""

    def __init__(self):
        self.n = 0

    def __call__(self, xk):
        self.n += 1


class Tracer:
    """In-memory span recorder; each span is [name, start_ns, end_ns, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.last: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, info = self.spans, self._open, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                open_.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap the package's public functions; returns a function undoing it."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"resistive_walks.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))

        # every module holding a reference (re-exports, `from x import f`) is patched
        undo = []
        package = [m for n, m in sys.modules.items()
                   if n == "resistive_walks" or n.startswith("resistive_walks.")]
        for mod in package:
            for name, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
                    undo.append((mod, name, val))

        undo.append((Network, "laplacian", Network.laplacian))
        Network.laplacian = self.wrap("network.laplacian", Network.laplacian)
        undo.append((spla, "splu", spla.splu))
        spla.splu = self.wrap("scipy.splu", spla.splu)
        undo.append((spla, "cg", spla.cg))
        traced_cg = self.wrap("scipy.cg", spla.cg)

        def cg(*args, **kwargs):
            kwargs.setdefault("callback", _IterCounter())
            return traced_cg(*args, **kwargs)

        spla.cg = cg

        def uninstall():
            for obj, name, val in reversed(undo):
                setattr(obj, name, val)

        return uninstall

    def end_iteration(self) -> dict[str, float]:
        """Per-layer metrics of the spans since the last call; keeps those spans
        in ``last`` and starts a fresh list."""
        self.last = self.spans[:]
        self.spans.clear()
        return layer_metrics(self.last)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans.

    Times are inclusive span durations summed per function, except the
    ``self_s`` metrics: a span's duration minus its direct children's.
    A factorization counts for ``harmonic`` or ``flows`` by its nearest
    enclosing span from one of those layers.
    """
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    infos: dict[str, list] = {}
    for i, (name, _, _, parent, info) in enumerate(spans):
        if name == "scipy.splu":
            p = parent
            while p >= 0 and not spans[p][0].startswith(("harmonic.", "flows.")):
                p = spans[p][3]
            owner = spans[p][0].split(".")[0] if p >= 0 else "other"
            name = f"{owner}.splu"
        if name in _BUILDS and parent >= 0 and spans[parent][0] in _BUILDS:
            continue  # build_network inside network_from_json is the same build
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        if info is not None:
            infos.setdefault(name, []).append(info)

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(secs.get(x, 0.0) for x in names)

    def total(name, k=None):
        return sum(x if k is None else x[k] for x in infos.get(name, ()))

    walks, steps = total("walks.run_walks", 0), total("walks.run_walks", 1)
    rows = infos.get("verify.run_battery", ())
    return {
        "walks.run_s": t("walks.run_walks"),
        "walks.steps": steps,
        "walks.walks": walks,
        "walks.ns_per_step": t("walks.run_walks") * 1e9 / steps if steps else 0.0,
        "walks.censored_ratio": total("walks.run_walks", 2) / walks if walks else 0.0,
        "tree.build_calls": n("tree.build_tree"),
        "tree.build_s": t("tree.build_tree"),
        "tree.vertices_built": total("tree.build_tree"),
        "harmonic.solve_calls": n("harmonic.solve_dirichlet"),
        "harmonic.solve_s": t("harmonic.solve_dirichlet"),
        "harmonic.free_vertices": total("harmonic.solve_dirichlet"),
        "harmonic.factor_calls": n("harmonic.splu"),
        "harmonic.factor_s": t("harmonic.splu"),
        "harmonic.cg_calls": n("scipy.cg"),
        "harmonic.cg_s": t("scipy.cg"),
        "harmonic.cg_iters": total("scipy.cg"),
        "harmonic.residual_s": t("harmonic.harmonic_residual"),
        "harmonic.limit_s": t(*_LIMITS),
        "harmonic.classify_calls": n("harmonic.classify_transience"),
        "generators.exhaustion_calls": n("generators.exhaustion"),
        "generators.exhaustion_s": t("generators.exhaustion"),
        "generators.exhaustion_vertices": total("generators.exhaustion"),
        "network.laplacian_calls": n("network.laplacian"),
        "network.laplacian_s": t("network.laplacian"),
        "network.build_calls": sum(n(x) for x in _BUILDS),
        "network.build_s": t(*_BUILDS),
        "flows.current_flow_calls": n("flows.current_flow"),
        "flows.current_flow_s": t("flows.current_flow"),
        "flows.factor_s": t("flows.splu"),
        "flows.kirchhoff_s": t("flows.verify_kirchhoff"),
        "flows.validate_s": t("flows.validate_flow"),
        "cli.calls": n("cli.main"),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "verify.rows": sum(r[0] for r in rows),
        "verify.rows_failed": sum(r[1] for r in rows),
        "verify.self_s": self_s.get("verify.run_battery", 0.0),
    }
