"""Per-layer tracing of tdual, applied from outside the package.

The tracer replaces each public function and public method of the layer
modules with a timing wrapper, and restores the originals on
``uninstall``.  No file of the package is changed.

Python's ``from .exactalg import homology_at`` copies the binding into the
importing module, so patching ``tdual.exactalg`` alone would miss the
calls made from ``bundles``, ``complexes`` and the rest.  A wrapped
function is therefore rebound in every ``tdual.*`` namespace that holds
the same object.  Methods are wrapped on their classes, which every
caller reaches through attribute lookup.

A span's self time is its duration minus the time covered by the spans
it directly caused.  Spans are aggregated per function as they close;
nothing per call is kept.  The counters a few spans take as they close
(matrix sizes, entry bits, term counts) are timed and left out of every
self time, so they lower ``trace.coverage`` instead of inflating a layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exactalg", "complexes", "bundles", "tduality", "ktheory",
          "catalog", "fourier", "courant", "pipeline")

# Construction is wrapped only where a metric names it.
CONSTRUCTED = {"exactalg.IntMatrix", "fourier.FourierScalar"}
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__")
# Gaussian rationals are the innermost scalars of the fourier layer; a span
# per coefficient product would cost more than the product.  Their time
# counts as self time of the fourier method that calls them.
UNWRAPPED_CLASSES = {"fourier.GaussQ"}

SMITH = {"exactalg.solve_integer", "exactalg.kernel_basis",
         "exactalg.solve_mod", "exactalg.homology_rank_at",
         "exactalg.rank_of"}
# The calls that hand one matrix to the Smith factorization.
SMITH_ENTRY = {"exactalg.solve_integer", "exactalg.kernel_basis",
               "exactalg.rank_of"}
HOMOLOGY = {"exactalg.homology_at", "exactalg.homology_at_mod"}
ASSEMBLY = {"exactalg.IntMatrix.__init__", "exactalg.IntMatrix.from_rows",
            "exactalg.IntMatrix.zeros", "exactalg.IntMatrix.identity",
            "exactalg.IntMatrix.transpose", "exactalg.hstack",
            "exactalg.vstack", "exactalg.block_matrix"}
STAGES = ("total_cohomology", "construct_tdual", "verify_tduality",
          "ahss_k_groups", "duality_report")
STAGE_OF = {"bundles.total_cohomology": "total_cohomology",
            "tduality.construct_tdual": "construct_tdual",
            "tduality.verify_tduality": "verify_tduality",
            "ktheory.ahss_k_groups": "ahss_k_groups",
            "bundles.total_duality_report": "duality_report"}

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ["exactalg.self_s", "exactalg.calls", "exactalg.smith_s",
     "exactalg.smith_calls", "exactalg.smith_cells", "exactalg.smith_nnz",
     "exactalg.homology_at_s", "exactalg.matmul_s", "exactalg.assembly_s",
     "exactalg.snf_s", "exactalg.max_entry_bits", "exactalg.nosolution",
     "exactalg.cache_hit_ratio"]
    + [f"{layer}.{what}" for layer in LAYERS[1:] for what in ("self_s", "calls")]
    + [f"{m}.cache_hit_ratio" for m in
       ("complexes", "bundles", "tduality", "catalog", "pipeline")]
    + ["ktheory.ahss_calls", "ktheory.resolved_by_dual",
       "catalog.setup_self_s",
       "fourier.scalars_built", "fourier.mul_term_pairs",
       "courant.bracket_calls", "courant.checks"]
    + [f"stage.{s}_s" for s in STAGES]
    + ["trace.coverage", "trace.overhead"])

# The exact counts; they repeat for a given seed.
COUNTS = tuple(n for n in METRICS if not n.endswith("_s")
               and "ratio" not in n and not n.startswith("trace."))


def find_caches() -> dict:
    """Every lru_cache defined in a tdual module, keyed 'module.name'."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if not (modname == "tdual" or modname.startswith("tdual.")):
            continue
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == modname):
                out[f"{modname.removeprefix('tdual.')}.{name}"] = obj
    return out


def cache_stats(caches: dict) -> dict:
    return {key: c.cache_info() for key, c in caches.items()}


def cache_hit_ratios(intervals) -> dict:
    """hits / (hits + misses) per module over the (before, after) pairs of
    ``cache_stats``; 0 when the module's caches saw no lookup."""
    hits = defaultdict(int)
    lookups = defaultdict(int)
    for before, after in intervals:
        for key, info in after.items():
            module = key.split(".")[0]
            h = info.hits - before[key].hits
            hits[module] += h
            lookups[module] += h + info.misses - before[key].misses
    return {m: (hits[m] / lookups[m] if lookups[m] else 0.0) for m in lookups}


def _nnz(m) -> int:
    return sum(len(row) - row.count(0) for row in m.data)


def _max_bits(m) -> int:
    return max((max(map(abs, row)) for row in m.data if row), default=0).bit_length()


class Tracer:
    """Wraps the layer modules of an imported tdual; see the module doc."""

    def __init__(self):
        self._undo = []
        self._stack = [[None, 0.0]]
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stage_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.hook_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "tdual" or n.startswith("tdual.")]
        for layer in LAYERS:
            mod = sys.modules[f"tdual.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, obj, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo = []

    def _set(self, target, attr, original, replacement) -> None:
        self._undo.append((target, attr, original))
        setattr(target, attr, replacement)

    def _wrap_class(self, layer: str, cls) -> None:
        qual = f"{layer}.{cls.__name__}"
        if qual in UNWRAPPED_CLASSES:
            return
        names = [n for n in vars(cls) if not n.startswith("_")]
        names += [n for n in ARITHMETIC if n in vars(cls)]
        if qual in CONSTRUCTED:
            names.append("__init__")
        for name in names:
            raw = vars(cls)[name]
            key = f"{qual}.{name}"
            if isinstance(raw, staticmethod):
                self._set(cls, name, raw, staticmethod(self._wrap(raw.__func__, key)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, raw, classmethod(self._wrap(raw.__func__, key)))
            elif inspect.isfunction(raw):
                self._set(cls, name, raw, self._wrap(raw, key))

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, key: str):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        stage = STAGE_OF.get(key)
        hook = _HOOKS.get(key)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.self_s[key] += elapsed - frame[1]
                tracer.calls[key] += 1
                if hook is not None:
                    # A counter's own cost is nobody's self time.
                    began = clock()
                    hook(tracer.counts, args, result, exc)
                    hook_s = clock() - began
                    tracer.hook_s += hook_s
                    elapsed += hook_s
                parent[1] += elapsed
                if stage is not None and parent[0] == "pipeline.run_pipeline":
                    tracer.stage_s[stage] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float, ratios: dict, setup_catalog_s: float) -> dict:
        """The per-layer metrics of one traced run of the timed phase, all
        but ``trace.overhead``, which needs an untraced run."""
        def self_of(keys):
            return sum(self.self_s[k] for k in keys)

        def by_layer(table, layer):
            return sum(v for k, v in table.items() if k.split(".")[0] == layer)

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = by_layer(self.self_s, layer)
            m[f"{layer}.calls"] = by_layer(self.calls, layer)
        m["exactalg.smith_s"] = self_of(SMITH)
        m["exactalg.smith_calls"] = sum(self.calls[k] for k in SMITH_ENTRY)
        m["exactalg.homology_at_s"] = self_of(HOMOLOGY)
        m["exactalg.matmul_s"] = self.self_s["exactalg.IntMatrix.mul"]
        m["exactalg.assembly_s"] = self_of(ASSEMBLY)
        m["exactalg.snf_s"] = self.self_s["exactalg.smith_normal_form"]
        for key in ("exactalg.smith_cells", "exactalg.smith_nnz",
                    "exactalg.max_entry_bits", "exactalg.nosolution",
                    "fourier.mul_term_pairs", "courant.checks"):
            m[key] = self.counts[key]
        m["fourier.scalars_built"] = self.calls["fourier.FourierScalar.__init__"]
        m["ktheory.ahss_calls"] = self.calls["ktheory.ahss_k_groups"]
        m["ktheory.resolved_by_dual"] = self.calls["ktheory.resolve_by_tduality"]
        m["courant.bracket_calls"] = self.calls["courant.dorfman"]
        m["catalog.setup_self_s"] = setup_catalog_s
        for module in ("exactalg", "complexes", "bundles", "tduality", "catalog", "pipeline"):
            m[f"{module}.cache_hit_ratio"] = ratios.get(module, 0.0)
        for s in STAGES:
            m[f"stage.{s}_s"] = self.stage_s[s]
        m["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return {k: m[k] for k in METRICS if k != "trace.overhead"}


# Counters taken at span close: hook(counts, args, result, exception).

def _smith_input(counts, args, result, exc):
    a = args[0]
    counts["exactalg.smith_cells"] += a.rows * a.cols
    counts["exactalg.smith_nnz"] += _nnz(a)


def _solve_integer(counts, args, result, exc):
    _smith_input(counts, args, result, exc)
    if isinstance(exc, sys.modules["tdual.exactalg"].NoSolution):
        counts["exactalg.nosolution"] += 1


def _snf(counts, args, result, exc):
    if result is not None:
        u, _, v = result
        bits = max(_max_bits(u), _max_bits(v))
        counts["exactalg.max_entry_bits"] = max(counts["exactalg.max_entry_bits"], bits)


def _fourier_mul(counts, args, result, exc):
    a, b = args
    counts["fourier.mul_term_pairs"] += len(a.terms) * len(b.terms)


def _context_checks(counts, args, result, exc):
    if result is not None:
        counts["courant.checks"] += len(result.checks)


_HOOKS = {
    "exactalg.solve_integer": _solve_integer,
    "exactalg.kernel_basis": _smith_input,
    "exactalg.rank_of": _smith_input,
    "exactalg.smith_normal_form": _snf,
    "fourier.FourierScalar.__mul__": _fourier_mul,
    "courant.run_context_checks": _context_checks,
}
