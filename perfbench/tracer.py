"""Per-layer tracing of ``qmb`` installed at run time from outside the package.

The layers are the package's modules.  :meth:`Tracer.install` replaces the
public functions of each module (and the few private helpers a per-layer
metric needs) with wrappers, in every ``qmb`` namespace that holds them, so
no program file changes.  A wrapper

* counts every call, and
* records a span when the call crosses into another layer, or when it enters
  a *timed* function (one whose time a metric names) that is not already the
  innermost span.

A span is ``(id, parent id, call id, name, start, end)``; the call id is the
benchmark call that caused it.  Spans stay in memory until :meth:`Tracer.dump`.
A span's self time is its duration minus the durations of its child spans,
so the self times of all spans partition the traced wall time.

The scalar layer is counted but never spanned: its operations run millions
of times per workload and are far below the clock's useful resolution, so
their time stays in the self time of the caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "algebra", "minors", "identities", "linalg", "ore", "exprparse", "cli")

# Functions whose own time a metric names; they open a span even when called
# from their own layer.
TIMED = {
    "algebra.Element.__mul__",
    "algebra.Element.__rmul__",
    "minors.qcommutation_probe",
    "identities.check_centrality",
    "identities.check_qcommutation",
    "identities.check_muir",
    "identities.check_gap_one",
    "identities.check_gap_r",
    "identities.check_E0_membership",
    "linalg.solve_linear",
    "linalg.clear_denominators",
    "ore.OreWitness.certify",
    "ore._factor_scale",
    "exprparse.parse_element",
    "cli.main",
}

# Private helpers wrapped because a metric counts or times them.
PRIVATE = {"ore": ("_solve_at_power", "_factor_scale")}

# Methods wrapped as layer entry points: (layer, class, methods).
METHODS = (
    ("algebra", "Element", ("__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                            "__pow__", "scale", "transpose", "antitranspose")),
    ("ore", "OreWitness", ("certify", "residual")),
    ("ore", "ChainWitness", ("certify", "residual")),
)

# Scalar operations counted (never spanned): counter -> (class, methods).
# A subtraction is counted as the addition it delegates to.
SCALAR_COUNTERS = {
    "scalars.laurent_mul": ("LaurentQ", ("__mul__", "__rmul__")),
    "scalars.laurent_add": ("LaurentQ", ("__add__", "__radd__")),
    "scalars.laurent_divexact": ("LaurentQ", ("divexact",)),
    "scalars.qrational_ops": ("QRational", ("__add__", "__radd__", "__mul__", "__rmul__",
                                            "__truediv__", "__rtruediv__")),
}

CHECKS = tuple(n for n in TIMED if n.startswith("identities.check_"))


class Tracer:
    """Counters and spans for one traced process."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.call_id = 0
        self._stack: list[tuple] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self._hooks = {
            "linalg.solve_linear": self._on_solve,
            "algebra.basis_monomials": self._on_basis,
            "exprparse.parse_element": self._on_parse,
            **{name: self._on_check for name in CHECKS},
        }

    # -- spans ------------------------------------------------------------

    def call(self, call_id: int, fn, *args, **kwargs):
        """Run one benchmark call inside a root span tagged with ``call_id``."""
        self.call_id = call_id
        return self._wrap(fn, "bench", "bench.call")(*args, **kwargs)

    def _wrap(self, fn, layer: str, name: str):
        stack, spans, counts, ids, clock = self._stack, self.spans, self.counts, self._ids, time.perf_counter
        timed = name in TIMED
        hook = self._hooks.get(name)
        in_ore = layer == "ore"
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            top = stack[-1] if stack else None
            boundary = top is None or top[1] != layer
            if not boundary and not (timed and top[2] != name):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            sid = next(ids)
            stack.append((sid, layer, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, top[0] if top else 0, tracer.call_id, name, t0, t1))
            if hook is not None:
                hook(args, result)
            if boundary and in_ore and type(result).__name__ == "OreWitness":
                counts["ore.witnesses"] += 1
                counts["ore.power_sum"] += result.power
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_solve(self, args, result) -> None:
        A, b = args[0], args[1]
        rows = len(A)
        cols = len(A[0]) if rows else 0
        c = self.counts
        c["linalg.cells"] += rows * (cols + 1)
        c["linalg.nonzeros"] += sum(1 for row in A for v in row if v) + sum(1 for v in b if v)
        c["linalg.rank_sum"] += result.rank
        c["linalg.inconsistent"] += 0 if result.consistent else 1

    def _on_basis(self, args, result) -> None:
        self.counts["algebra.basis_words"] += len(result)

    def _on_parse(self, args, result) -> None:
        self.counts["exprparse.bytes"] += len(args[0].encode("utf-8"))

    def _on_check(self, args, result) -> None:
        if result.status == "failed":
            self.counts["identities.failed"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the already imported ``qmb`` package."""
        mods = {layer: importlib.import_module(f"qmb.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            if layer == "scalars":
                continue
            names = [a for a, v in vars(mod).items()
                     if not a.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__]
            for attr in names + list(PRIVATE.get(layer, ())):
                replace[id(vars(mod)[attr])] = self._wrap(vars(mod)[attr], layer, f"{layer}.{attr}")

        for layer, cls_name, methods in METHODS:
            cls = vars(mods[layer])[cls_name]
            for m in methods:
                self._patch(cls, m, self._wrap(vars(cls)[m], layer, f"{layer}.{cls_name}.{m}"))
        for counter, (cls_name, methods) in SCALAR_COUNTERS.items():
            cls = vars(mods["scalars"])[cls_name]
            for m in methods:
                self._patch(cls, m, self._counter(vars(cls)[m], counter))
        algebra = mods["algebra"]
        self._patch(algebra, "_word_mul", self._word_mul(algebra._word_mul, algebra._WORD_MUL_CACHE))

        # functions imported by name into other modules are replaced there too
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "qmb" or mod_name.startswith("qmb.")):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        self._patch(mod, attr, replace[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _counter(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _word_mul(self, fn, cache):
        counts = self.counts

        def wrapper(u, v):
            counts["algebra.word_mul_calls"] += 1
            if (u, v) in cache:
                counts["algebra.word_mul_hits"] += 1
            return fn(u, v)

        return wrapper

    # -- results ----------------------------------------------------------

    def record(self) -> dict:
        """Counters and per-name self and inclusive times of this process."""
        by_id = {s[0]: s for s in self.spans}
        child: dict[int, float] = defaultdict(float)
        for _sid, parent, _call, _name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for sid, parent, _call, name, t0, t1 in self.spans:
            self_s[name] += (t1 - t0) - child.get(sid, 0.0)
            p = by_id.get(parent)
            while p is not None and p[3] != name:
                p = by_id.get(p[1])
            if p is None:  # outermost span of this name
                incl_s[name] += t1 - t0
        return {"counts": dict(self.counts), "self_s": dict(self_s), "incl_s": dict(incl_s),
                "spans": len(self.spans)}

    def dump(self, path) -> None:
        """Write counters and spans (times in microseconds) as gzip-compressed JSON."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = min((s[4] for s in self.spans), default=0.0)
        data = {
            "counts": dict(sorted(self.counts.items())),
            "span_names": names,
            "spans": [[s[0], s[1], s[2], index[s[3]], round((s[4] - base) * 1e6), round((s[5] - base) * 1e6)]
                      for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def cache_state() -> dict:
    """Entries (and hit/miss totals) of the five process-global caches."""
    from qmb import algebra, minors, ore

    minor_info = minors._minor_columns_cached.cache_info()
    power_info = ore._minor_power.cache_info()
    return {
        "algebra._APPEND_CACHE": len(algebra._APPEND_CACHE),
        "algebra._WORD_MUL_CACHE": len(algebra._WORD_MUL_CACHE),
        "minors._minor_columns_cached": minor_info.currsize,
        "ore._minor_power": power_info.currsize,
        "ore._GEN_WITNESS_CACHE": len(ore._GEN_WITNESS_CACHE),
        "minors._minor_columns_cached.hits": minor_info.hits,
        "minors._minor_columns_cached.misses": minor_info.misses,
        "ore._minor_power.hits": power_info.hits,
        "ore._minor_power.misses": power_info.misses,
    }


CACHE_ENTRY_KEYS = ("algebra._APPEND_CACHE", "algebra._WORD_MUL_CACHE", "minors._minor_columns_cached",
                    "ore._minor_power", "ore._GEN_WITNESS_CACHE")


def merge(records: list[dict]) -> dict:
    """Combine the records of several traced processes (the CLI children).

    Counters and times add up; cache entries are per process, so the largest
    is kept, while cache hits and misses add up.
    """
    out = {"counts": defaultdict(int), "self_s": defaultdict(float), "incl_s": defaultdict(float),
           "caches": {}, "spans": 0}
    for rec in records:
        for key in ("counts", "self_s", "incl_s"):
            for k, v in rec[key].items():
                out[key][k] += v
        for k, v in rec["caches"].items():
            prev = out["caches"].get(k, 0)
            out["caches"][k] = max(prev, v) if k in CACHE_ENTRY_KEYS else prev + v
        out["spans"] += rec["spans"]
    return out


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("scalars.laurent_mul", "count", "lower"),
    ("scalars.laurent_add", "count", "lower"),
    ("scalars.laurent_divexact", "count", "lower"),
    ("scalars.qrational_ops", "count", "lower"),
    ("algebra.mul_calls", "count", "lower"),
    ("algebra.mul_self_s", "s", "lower"),
    ("algebra.word_mul_calls", "count", "lower"),
    ("algebra.word_mul_hit_ratio", "ratio", "higher"),
    ("algebra.append_cache_entries", "count", "lower"),
    ("algebra.word_mul_cache_entries", "count", "lower"),
    ("algebra.reduce_terms_calls", "count", "lower"),
    ("algebra.basis_words", "count", "lower"),
    ("minors.minor_builds", "count", "lower"),
    ("minors.minor_hits", "count", "higher"),
    ("minors.probe_calls", "count", "lower"),
    ("minors.probe_self_s", "s", "lower"),
    ("identities.checks", "count", "higher"),
    ("identities.check_self_s", "s", "lower"),
    ("identities.failed", "count", "lower"),
    ("linalg.solve_calls", "count", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.cells", "count", "lower"),
    ("linalg.nonzero_frac", "ratio", "higher"),
    ("linalg.rank_sum", "count", "higher"),
    ("linalg.inconsistent", "count", "lower"),
    ("linalg.clear_denominators_s", "s", "lower"),
    ("ore.witnesses", "count", "higher"),
    ("ore.certify_calls", "count", "lower"),
    ("ore.certify_s", "s", "lower"),
    ("ore.certify_per_witness", "ratio", "lower"),
    ("ore.powers_scanned", "count", "lower"),
    ("ore.power_sum", "count", "lower"),
    ("ore.factor_scale_s", "s", "lower"),
    ("ore.gen_witness_cache_entries", "count", "lower"),
    ("ore.minor_power_hits", "count", "higher"),
    ("ore.minor_power_misses", "count", "lower"),
    ("ore.self_s", "s", "lower"),
    ("exprparse.parse_calls", "count", "lower"),
    ("exprparse.parse_s", "s", "lower"),
    ("exprparse.bytes", "B", "lower"),
    ("cli.invocations", "count", "higher"),
    ("cli.nonzero_exits", "count", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    ("bench.call_tail_ms", "ms", "lower"),
)

# Ratios and the metric that is their base.
RATIO_BASE = {
    "algebra.word_mul_hit_ratio": "algebra.word_mul_calls",
    "linalg.nonzero_frac": "linalg.cells",
    "ore.certify_per_witness": "ore.witnesses",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: dict, outside: dict) -> dict[str, float]:
    """Every per-layer metric from a (merged) trace record.

    ``outside`` holds the values measured around processes rather than
    inside them: ``invocations``, ``nonzero_exits``, ``bytes_out``,
    ``tracing_overhead_s``, ``call_tail_ms`` of the untraced pass, and
    per-process samples ``interp_start_ms``, ``import_ms`` and ``main_ms``,
    of which the medians are reported.
    """
    c, self_s, incl_s, caches = rec["counts"], rec["self_s"], rec["incl_s"], rec["caches"]
    g = lambda key: c.get(key, 0)  # noqa: E731
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    layer_self = lambda layer: sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)  # noqa: E731
    return {
        "scalars.laurent_mul": g("scalars.laurent_mul"),
        "scalars.laurent_add": g("scalars.laurent_add"),
        "scalars.laurent_divexact": g("scalars.laurent_divexact"),
        "scalars.qrational_ops": g("scalars.qrational_ops"),
        "algebra.mul_calls": g("algebra.Element.__mul__") + g("algebra.Element.__rmul__"),
        "algebra.mul_self_s": self_s.get("algebra.Element.__mul__", 0.0) + self_s.get("algebra.Element.__rmul__", 0.0),
        "algebra.word_mul_calls": g("algebra.word_mul_calls"),
        "algebra.word_mul_hit_ratio": _ratio(g("algebra.word_mul_hits"), g("algebra.word_mul_calls")),
        "algebra.append_cache_entries": caches.get("algebra._APPEND_CACHE", 0),
        "algebra.word_mul_cache_entries": caches.get("algebra._WORD_MUL_CACHE", 0),
        "algebra.reduce_terms_calls": g("algebra.reduce_terms"),
        "algebra.basis_words": g("algebra.basis_words"),
        "minors.minor_builds": caches.get("minors._minor_columns_cached.misses", 0),
        "minors.minor_hits": caches.get("minors._minor_columns_cached.hits", 0),
        "minors.probe_calls": g("minors.qcommutation_probe"),
        "minors.probe_self_s": self_s.get("minors.qcommutation_probe", 0.0),
        "identities.checks": sum(g(n) for n in CHECKS),
        "identities.check_self_s": sum(self_s.get(n, 0.0) for n in CHECKS),
        "identities.failed": g("identities.failed"),
        "linalg.solve_calls": g("linalg.solve_linear"),
        "linalg.solve_s": incl_s.get("linalg.solve_linear", 0.0),
        "linalg.cells": g("linalg.cells"),
        "linalg.nonzero_frac": _ratio(g("linalg.nonzeros"), g("linalg.cells")),
        "linalg.rank_sum": g("linalg.rank_sum"),
        "linalg.inconsistent": g("linalg.inconsistent"),
        "linalg.clear_denominators_s": incl_s.get("linalg.clear_denominators", 0.0),
        "ore.witnesses": g("ore.witnesses"),
        "ore.certify_calls": g("ore.OreWitness.certify"),
        "ore.certify_s": incl_s.get("ore.OreWitness.certify", 0.0),
        "ore.certify_per_witness": _ratio(g("ore.OreWitness.certify"), g("ore.witnesses")),
        "ore.powers_scanned": g("ore._solve_at_power"),
        "ore.power_sum": g("ore.power_sum"),
        "ore.factor_scale_s": incl_s.get("ore._factor_scale", 0.0),
        "ore.gen_witness_cache_entries": caches.get("ore._GEN_WITNESS_CACHE", 0),
        "ore.minor_power_hits": caches.get("ore._minor_power.hits", 0),
        "ore.minor_power_misses": caches.get("ore._minor_power.misses", 0),
        "ore.self_s": layer_self("ore"),
        "exprparse.parse_calls": g("exprparse.parse_element"),
        "exprparse.parse_s": incl_s.get("exprparse.parse_element", 0.0),
        "exprparse.bytes": g("exprparse.bytes"),
        "cli.invocations": outside.get("invocations", 0),
        "cli.nonzero_exits": outside.get("nonzero_exits", 0),
        "cli.interp_start_ms": med(outside.get("interp_start_ms", [])),
        "cli.import_ms": med(outside.get("import_ms", [])),
        "cli.main_ms": med(outside.get("main_ms", [])),
        "cli.bytes_out": outside.get("bytes_out", 0),
        "bench.tracing_overhead_s": outside.get("tracing_overhead_s", 0.0),
        "bench.call_tail_ms": outside.get("call_tail_ms", 0.0),
    }
