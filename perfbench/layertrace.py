"""Per-layer metrics from outside the program, by profiling the traced region.

The traced region runs under ``cProfile``.  A layer is one module of the
``tangles`` package; its self time is the ``tottime`` of every function
whose code lives in that module's file.  Time spent in a function outside
the package (a built-in such as ``any``, a method that ``dataclasses``
generated, a standard-library helper) is charged to the layers that called
it, in proportion to the time each caller spent in it; code of the other
package modules (``suite``, ``sampling``) and of the benchmark is charged
to no layer.  Call counts and
inclusive times of single functions come straight from the profile; cProfile
counts a recursive function's inclusive time once.

Values the profile cannot see (sizes, periods, the lazy commitment log) come
from a handful of wrappers on class attributes, so nothing has to be rebound
across modules.  Modules are reached through ``sys.modules``:
``tangles/__init__`` binds the name ``components`` to the function, which
shadows the submodule of the same name as a package attribute.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
from pathlib import Path

# layer -> module
LAYERS = {
    "semilinear": "tangles.semilinear",
    "symsets": "tangles.symsets",
    "components": "tangles.components",
    "separations": "tangles.separations",
    "ultrafilters": "tangles.ultrafilters",
    "infinite_tangles": "tangles.infinite_tangles",
    "topology": "tangles.topology",
    "abstract": "tangles.abstract",
    "finite_tangles": "tangles.finite_tangles",
    "blocks": "tangles.blocks",
    "schema": "tangles.schema",
    "graphs": "tangles.graphs",
}

# (metric, unit, better); every traced run reports all of them
METRICS = (
    ("semilinear.calls", "count", "lower"),
    ("semilinear.self_s", "s", "lower"),
    ("semilinear.max_period", "count", "lower"),
    ("semilinear.progressions_mean", "count", "lower"),
    ("symsets.calls", "count", "lower"),
    ("symsets.self_s", "s", "lower"),
    ("symsets.union_all_sets_mean", "count", "lower"),
    ("components.calls", "count", "lower"),
    ("components.misses", "count", "lower"),
    ("components.hit_ratio", "ratio", "higher"),
    ("components.self_s", "s", "lower"),
    ("components.cache_entries", "count", "lower"),
    ("separations.calls", "count", "lower"),
    ("separations.self_s", "s", "lower"),
    ("separations.not_representable", "count", "lower"),
    ("ultrafilters.decides", "count", "lower"),
    ("ultrafilters.free_decides", "count", "lower"),
    ("ultrafilters.log_len_max", "count", "lower"),
    ("ultrafilters.self_s", "s", "lower"),
    ("infinite_tangles.orient_calls", "count", "lower"),
    ("infinite_tangles.self_s", "s", "lower"),
    ("topology.self_s", "s", "lower"),
    ("abstract.self_s", "s", "lower"),
    ("schema.truncate_calls", "count", "lower"),
    ("schema.truncate_s", "s", "lower"),
    ("graphs.components_calls", "count", "lower"),
    ("finite_tangles.separations", "count", "lower"),
    ("finite_tangles.covers_calls", "count", "lower"),
    ("finite_tangles.seps_s", "s", "lower"),
    ("finite_tangles.search_s", "s", "lower"),
    ("blocks.pair_checks", "count", "lower"),
    ("blocks.self_s", "s", "lower"),
)


def _mod(layer: str):
    return importlib.import_module(LAYERS[layer])


def _layer_files() -> dict[str, str]:
    """The file of each layer module, as the profile names it."""
    return {_mod(layer).__file__: layer for layer in LAYERS}


def _key(fn) -> tuple:
    """The profile's key of a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class Tracer:
    """Profile and value counters for the traced region of one process."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.counts = dict.fromkeys(
            (
                "semilinear.sets",
                "semilinear.progressions",
                "semilinear.max_period",
                "separations.not_representable",
                "ultrafilters.decides",
                "ultrafilters.free_decides",
                "ultrafilters.log_len_max",
                "finite_tangles.separations",
            ),
            0,
        )
        self.schemas: list = []  # schema graphs built in the traced region
        self._undo: list[tuple[type, str, object]] = []

    # -- value counters --------------------------------------------------------

    def _patch(self, cls: type, name: str, make):
        self._undo.append((cls, name, vars(cls).get(name)))
        setattr(cls, name, make(getattr(cls, name)))

    def _counters(self):
        c = self.counts

        def semilinear_init(init):
            def wrapper(sl, *args, **kwargs):
                init(sl, *args, **kwargs)
                c["semilinear.sets"] += 1
                c["semilinear.progressions"] += len(sl.progressions)
                for _, d in sl.progressions:
                    if d > c["semilinear.max_period"]:
                        c["semilinear.max_period"] = d

            return wrapper

        def not_representable_init(init):
            def wrapper(exc, *args):
                init(exc, *args)
                c["separations.not_representable"] += 1

            return wrapper

        def decide(fn):
            def wrapper(core, *args):
                answer = fn(core, *args)
                c["ultrafilters.decides"] += 1
                c["ultrafilters.free_decides"] += not core.log[-1][2]
                c["ultrafilters.log_len_max"] = max(c["ultrafilters.log_len_max"], len(core.log))
                return answer

            return wrapper

        def search_init(fn):
            def wrapper(search):
                fn(search)
                c["finite_tangles.separations"] += len(search.seps)

            return wrapper

        def schema_init(init):
            schemas = self.schemas

            def wrapper(schema, *args, **kwargs):
                init(schema, *args, **kwargs)
                schemas.append(schema)

            return wrapper

        return (
            (_mod("semilinear").SemilinearSet, "__init__", semilinear_init),
            (_mod("separations").NotRepresentable, "__init__", not_representable_init),
            (_mod("ultrafilters").LazyCore, "decide", decide),
            (_mod("finite_tangles")._Search, "__post_init__", search_init),
            (_mod("schema").SchemaGraph, "__init__", schema_init),
        )

    def install(self):
        """Start the counters and the profile; undo with :meth:`uninstall`."""
        for cls, name, make in self._counters():
            self._patch(cls, name, make)
        self.profile.enable()

    def uninstall(self):
        self.profile.disable()
        for cls, name, value in reversed(self._undo):
            if value is None:
                delattr(cls, name)
            else:
                setattr(cls, name, value)
        self._undo.clear()

    # -- reduction -------------------------------------------------------------

    def _self_times(self, stats: dict) -> dict[str, float]:
        """Per layer: its functions' own time plus its share of outside functions."""
        files = _layer_files()
        package = str(Path(importlib.import_module("tangles").__file__).parent)
        bench = str(Path(__file__).parent)

        def owner(key):
            """A layer, "pass" for code outside the package, None for the rest."""
            if key[0] in files:
                return files[key[0]]
            if key[0] == __file__:  # the counters' wrappers pass time on
                return "pass"
            if key[0].startswith((package, bench)):  # suite, sampling, the workloads
                return None
            return "pass"

        shares: dict = {}

        def share(key, seen=frozenset()) -> dict[str, float]:
            """How the time of a function splits over the layers that reach it."""
            who = owner(key)
            if who != "pass":
                return {} if who is None else {who: 1.0}
            if key in shares:
                return shares[key]
            callers = stats[key][4] if key in stats else {}
            total = sum(v[2] for v in callers.values())
            out: dict[str, float] = {}
            if key not in seen and total > 0:
                for caller, v in callers.items():
                    for layer, frac in share(caller, seen | {key}).items():
                        out[layer] = out.get(layer, 0.0) + frac * v[2] / total
            if not seen:  # a share cut short by a cycle is not kept
                shares[key] = out
            return out

        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, tt, _, _) in stats.items():
            if key[0] == __file__:  # the counters' own cost is charged to nobody
                continue
            for layer, frac in share(key).items():
                self_s[layer] += frac * tt
        return self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced region, keyed as in :data:`METRICS`."""
        stats = pstats.Stats(self.profile).stats
        self_s = self._self_times(stats)
        calls = dict.fromkeys(LAYERS, 0)
        files = _layer_files()
        for (filename, _, name), (_, nc, _, _, _) in stats.items():
            # named functions only: comprehensions and generator expressions
            # are code objects of their own, and every resumption counts
            if filename in files and not name.startswith("<"):
                calls[files[filename]] += nc

        def of(layer, path):
            fn = _mod(layer)
            for part in path.split("."):
                fn = getattr(fn, part)
            return stats.get(_key(fn), (0, 0, 0.0, 0.0, {}))

        def calls_of(layer, path):
            return of(layer, path)[1]

        def callers_calls(layer, path, caller_layer, caller_path):
            callers = of(layer, path)[4]
            caller = _key(getattr(_mod(caller_layer), caller_path))
            return callers.get(caller, (0,))[0]  # a caller's entry starts with its call count

        c = self.counts
        comp_calls = calls_of("components", "components")
        # every miss stores one entry in its schema's component cache
        caches = [len(s._component_cache) for s in self.schemas]
        misses = sum(caches)
        union_all_calls = calls_of("symsets", "union_all")
        m = {
            "semilinear.calls": calls["semilinear"],
            "semilinear.max_period": c["semilinear.max_period"],
            "semilinear.progressions_mean": c["semilinear.progressions"] / max(1, c["semilinear.sets"]),
            "symsets.calls": calls["symsets"],
            "symsets.union_all_sets_mean": callers_calls("symsets", "SymVertexSet.union", "symsets", "union_all")
            / max(1, union_all_calls),
            "components.calls": comp_calls,
            "components.misses": misses,
            "components.hit_ratio": (comp_calls - misses) / comp_calls if comp_calls else 0.0,
            "components.cache_entries": max(caches, default=0),
            "separations.calls": calls["separations"],
            "separations.not_representable": c["separations.not_representable"],
            "ultrafilters.decides": c["ultrafilters.decides"],
            "ultrafilters.free_decides": c["ultrafilters.free_decides"],
            "ultrafilters.log_len_max": c["ultrafilters.log_len_max"],
            "infinite_tangles.orient_calls": calls_of("infinite_tangles", "orient"),
            "schema.truncate_calls": calls_of("schema", "SchemaGraph.truncate"),
            "schema.truncate_s": of("schema", "SchemaGraph.truncate")[3],
            "graphs.components_calls": calls_of("graphs", "FiniteGraph.components"),
            "finite_tangles.separations": c["finite_tangles.separations"],
            "finite_tangles.covers_calls": calls_of("finite_tangles", "_Search.covers"),
            "finite_tangles.seps_s": of("finite_tangles", "separations_below_order")[3],
            "finite_tangles.search_s": of("finite_tangles", "_Search.search")[3],
            "blocks.pair_checks": calls_of("blocks", "pair_inseparable"),
        }
        for layer in ("semilinear", "symsets", "components", "separations", "ultrafilters",
                      "infinite_tangles", "topology", "abstract", "blocks"):
            m[f"{layer}.self_s"] = self_s[layer]
        return m
