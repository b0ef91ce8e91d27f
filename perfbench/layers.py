"""Per-layer tracing of ghostkit from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper on every
``ghostkit`` module attribute that holds it, so calls made inside the
package (``_simple_character`` looking up ``free_monomial_counts``,
``ext_dim`` looking up ``hom_dim``) go through the wrapper too.  Methods are
wrapped on their class.

A wrapper records a span (name, start, end, parent span, op id) only while
an op is running (``tracer.op`` is not None), so the benchmark's own checks
stay out of the layer numbers.  Self time is a span's duration minus the
time its child spans cover.  ``FormalSum.__init__`` runs millions of times,
so it is kept as a count plus self time instead of one span per call.

Cache hit ratios are derived from outside by reading the fusion caches'
sizes around the op loop: pair lookups are the sum of ``len(a) * len(b)``
over ``fuse_detailed`` calls, pair misses are the growth of
``len(_PAIR_CACHE)``, base lookups equal pair misses, and base misses are
the growth of ``len(_BASE_CACHE)``.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute) -> span name
FUNCTIONS = {
    ("grammar", "parse_module_expr"): "grammar.parse",
    ("modules", "composition_factors"): "modules.composition_factors",
    ("functors", "flow"): "functors",
    ("functors", "conjugate"): "functors",
    ("functors", "dual_restricted"): "functors",
    ("functors", "dual_star"): "functors",
    ("functors", "dual_tensor"): "functors",
    ("fusion", "fuse_detailed"): "fusion.fuse",
    ("homalg", "hom_dim"): "homalg.hom",
    ("homalg", "ext_dim"): "homalg.ext",
    ("homalg", "projective_cover"): "homalg.presentation",
    ("homalg", "injective_hull"): "homalg.presentation",
    ("homalg", "presentation_kernel"): "homalg.presentation",
    ("homalg", "presentation_cokernel"): "homalg.presentation",
    ("characters", "character"): "characters.character",
    ("characters", "free_monomial_counts"): "characters.fmc",
    ("characters", "char_flow"): "characters.transform",
    ("characters", "char_dual"): "characters.transform",
    ("characters", "pbw_character_oracle"): "characters.oracle",
    ("cli", "build_parser"): "cli.parser",
}
# (module, class, method) -> span name
METHODS = {
    ("modules", "FormalSum", "__init__"): "modules.formalsum",
    ("characters", "CharSeries", "__add__"): "characters.series",
}
AGGREGATED = {"modules.formalsum"}


def _ghostkit_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "ghostkit" or name.startswith("ghostkit.")]


def replace_everywhere(original, replacement) -> int:
    """Point every ghostkit module attribute holding ``original`` at
    ``replacement``; returns how many attributes changed."""
    count = 0
    for mod in _ghostkit_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def fusion_cache_sizes() -> tuple[int, int]:
    fusion = sys.modules.get("ghostkit.fusion")
    return (len(getattr(fusion, "_PAIR_CACHE", ())),
            len(getattr(fusion, "_BASE_CACHE", ())))


def _term_count(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, tuple) else 1


class Tracer:
    def __init__(self):
        self.op = None
        self.names: list[str] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, op)
        self.pair_products = 0
        self.fmc_weights: set = set()
        self.fmc_new = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def _wrap(self, name, fn, hook=None):
        if name not in self.stats:
            self.stats[name] = [0, 0]
            self.names.append(name)
        stats = self.stats[name]
        index = self.names.index(name)
        keep_spans = name not in AGGREGATED
        stack, spans, clock, tracer = self._stack, self.spans, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(*args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if keep_spans:
                    spans.append((span_id, index, start, end,
                                  parent[0] if parent else -1, tracer.op))

        return wrapper

    def _count_pairs(self, a, b, *_):
        self.pair_products += _term_count(a) * _term_count(b)

    def _count_weight(self, max_weight, *_):
        if max_weight not in self.fmc_weights:
            self.fmc_weights.add(max_weight)
            self.fmc_new += 1

    def install(self) -> None:
        hooks = {"fusion.fuse": self._count_pairs, "characters.fmc": self._count_weight}
        for (modname, attr), name in FUNCTIONS.items():
            module = sys.modules.get(f"ghostkit.{modname}")
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            replace_everywhere(original, self._wrap(name, original, hooks.get(name)))
        for (modname, cls, meth), name in METHODS.items():
            klass = getattr(sys.modules[f"ghostkit.{modname}"], cls)
            setattr(klass, meth, self._wrap(name, getattr(klass, meth)))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)


def raw_numbers(tracer: Tracer, cache_before, cache_after) -> dict[str, int]:
    """Counts and self times (ns) of one traced process, to be summed over
    processes before :func:`derive` turns them into metrics."""
    raw = {f"{name}.calls": stats[0] for name, stats in tracer.stats.items()}
    raw.update({f"{name}.self_ns": stats[1] for name, stats in tracer.stats.items()})
    raw.update({
        "pair_products": tracer.pair_products,
        "pair_misses": cache_after[0] - cache_before[0],
        "base_misses": cache_after[1] - cache_before[1],
        "pair_entries": cache_after[0],
        "fmc_new": tracer.fmc_new,
    })
    return raw


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def derive(raw: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from summed raw numbers.  A layer the workload
    does not reach reads 0, and so does a ratio whose base is 0."""
    def calls(name):
        return raw.get(f"{name}.calls", 0)

    def self_s(name):
        return raw.get(f"{name}.self_ns", 0) / 1e9

    lookups, pair_misses = raw["pair_products"], raw["pair_misses"]
    return {
        "modules.formalsum.calls": calls("modules.formalsum"),
        "modules.formalsum.self_s": self_s("modules.formalsum"),
        "modules.composition_factors.self_s": self_s("modules.composition_factors"),
        "fusion.fuse.calls": calls("fusion.fuse"),
        "fusion.fuse.self_s": self_s("fusion.fuse"),
        "fusion.pair_products": lookups,
        "fusion.pair_cache.hit_ratio": _ratio(lookups - pair_misses, lookups),
        "fusion.base_cache.lookups": pair_misses,
        "fusion.base_cache.hit_ratio": _ratio(pair_misses - raw["base_misses"], pair_misses),
        "fusion.pair_cache.entries": raw["pair_entries"],
        "functors.calls": calls("functors"),
        "functors.self_s": self_s("functors"),
        "grammar.parse.calls": calls("grammar.parse"),
        "grammar.parse.self_s": self_s("grammar.parse"),
        "homalg.hom.calls": calls("homalg.hom"),
        "homalg.hom.self_s": self_s("homalg.hom"),
        "homalg.ext.calls": calls("homalg.ext"),
        "homalg.ext.self_s": self_s("homalg.ext"),
        "homalg.presentation.self_s": self_s("homalg.presentation"),
        "characters.fmc.calls": calls("characters.fmc"),
        "characters.fmc.self_s": self_s("characters.fmc"),
        "characters.fmc.new_ratio": _ratio(raw["fmc_new"], calls("characters.fmc")),
        "characters.character.self_s": self_s("characters.character"),
        "characters.transform.self_s": self_s("characters.transform"),
        "characters.series.self_s": self_s("characters.series"),
        "characters.oracle.self_s": self_s("characters.oracle"),
    }
