"""Per-layer tracing of corank from outside, by wrapping public functions.

The corank modules import each other's functions with ``from .x import f``,
so one function can be bound under its name in several modules.  A
``Tracer`` therefore replaces every ``corank.*`` module attribute that *is*
an original target object, and puts every original back on ``uninstall``.
Nothing in ``src/corank`` is edited.

Hot kernels run about 5e5 times in one gap-table pass, so the tracer keeps
no per-call spans: each call updates aggregates keyed by layer name and by
(parent layer, layer).  A layer's self time is its span time minus the time
of the traced calls made inside it.
"""

import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

GAMMA = "criticalideals.gamma"

# Provenance methods gamma can report; anything else counts as "other".
CLOSED_BY = ("zero-forcing-certificate", "evaluation-rank", "unit-minor",
             "constant-minor", "zero-ideal", "point-certificate", "groebner")

# (module, attribute, kind).  kind "span" times the call; "points" counts
# the items a generator yields.
ENUMERATION_TARGETS = [
    ("enumeration", "enumerate_graphs", "span"),
    ("enumeration", "enumerate_connected_graphs", "span"),
    ("enumeration", "all_trees", "span"),
]
LAYER_TARGETS = [
    ("linalg", "exact_rank", "span"),
    ("linalg", "rank_mod_p", "span"),
    ("criticalideals", "gamma", "span"),
    ("criticalideals", "box_points", "points"),
    ("criticalideals", "field_points", "points"),
    ("criticalideals", "ideal_trivial", "span"),
    ("criticalideals", "minor_generators", "span"),
    ("criticalideals", "nontriviality_certificate", "span"),
    ("polyring", "buchberger", "span"),
    ("polyring", "is_trivial_over_field", "span"),
    ("polyring", "is_trivial_over_Z", "span"),
    ("graphs", "canonical_form", "span"),
    ("zeroforcing", "zero_forcing_number", "span"),
    ("zeroforcing", "closure", "span"),
    ("zeroforcing", "certificate_minor", "span"),
    ("minrank", "tree_suite", "span"),
    ("minrank", "delta_parameter", "span"),
    ("minrank", "path_cover_number", "span"),
]
# Methods of cache.DecisionCache, patched on the class.
CACHE_METHODS = ("get", "put")


def import_all_corank():
    """Import every corank submodule so that every binding can be patched."""
    import corank
    for info in pkgutil.iter_modules(corank.__path__):
        importlib.import_module(f"corank.{info.name}")


def _corank_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "corank" or name.startswith("corank."))]


class Tracer:
    """Aggregated spans and counters over the calls made while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.edges = defaultdict(lambda: [0, 0.0])   # (parent, name) -> [calls, s]
        self._stack = []        # frames: [name, child seconds, state]
        self._originals = {}    # id(original) -> (original, wrapper)
        self._patches = []      # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, state=None, after=None):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        perf = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, state(args) if state else None]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += dur
                if parent:
                    parent[1] += dur
            if after:
                after(result)
            return result
        return wrapper

    def _points(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for pt in fn(*args, **kwargs):
                counts[name] += 1
                yield pt
        return wrapper

    def _after_rank(self, rank_of):
        stack, counts = self._stack, self.counts

        def after(result):
            # A rank call made directly inside gamma is useful when it
            # lowers that gamma call's running minimum rank (its upper bound).
            if stack and stack[-1][0] == GAMMA:
                counts["gamma.rank_calls"] += 1
                rank = rank_of(result)
                if rank < stack[-1][2]:
                    counts["gamma.rank_useful"] += 1
                    stack[-1][2] = rank
        return after

    def _after_gamma(self, result):
        for method in result.provenance.values():
            key = method if method in CLOSED_BY else "other"
            self.counts[f"gamma.closed_by.{key}"] += 1

    def _wrapper_for(self, module, attr, kind, original):
        name = f"{module}.{attr}"
        if kind == "points":
            return self._points(name, original)
        if attr == "exact_rank":
            return self._span(name, original, after=self._after_rank(lambda r: r.rank))
        if attr == "rank_mod_p":
            return self._span(name, original, after=self._after_rank(lambda r: r))
        if name == GAMMA:
            return self._span(name, original, state=lambda args: args[0].n,
                              after=self._after_gamma)
        if attr == "minor_generators":
            return self._span(name, original, after=lambda r: self.counts.update(
                {"minor_generators.generators": len(r.generators)}))
        if attr == "buchberger":
            return self._span(name, original, after=lambda r: self.counts.update(
                {"buchberger.basis_len": len(r)}))
        return self._span(name, original)

    def _cache_wrapper(self, method, original):
        name = f"cache.{method}"
        if method != "get":
            return self._span(name, original)

        def after(result):
            if result is not None:
                self.counts["cache.get.hits"] += 1
        return self._span(name, original, after=after)

    # -- installation -----------------------------------------------------

    def install(self, targets):
        """Wrap the targets and rebind every corank attribute that is one."""
        new = {}
        for module, attr, kind in targets:
            original = getattr(sys.modules[f"corank.{module}"], attr)
            wrapper = self._wrapper_for(module, attr, kind, original)
            new[id(original)] = (original, wrapper)
        self._rebind(new)

    def install_cache(self):
        from corank.cache import DecisionCache
        for method in CACHE_METHODS:
            original = DecisionCache.__dict__[method]
            self._patches.append((DecisionCache, method, original))
            setattr(DecisionCache, method, self._cache_wrapper(method, original))

    def _rebind(self, new):
        self._originals.update(new)
        for module in _corank_modules():
            for attr, value in list(vars(module).items()):
                hit = new.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def unwrapped_bindings(self):
        """corank attributes still bound to an original target object."""
        left = []
        for module in _corank_modules():
            for attr, value in vars(module).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    left.append(f"{module.__name__}.{attr}")
        from corank.cache import DecisionCache
        for method in CACHE_METHODS:
            if not any(owner is DecisionCache and a == method
                       for owner, a, _ in self._patches):
                left.append(f"corank.cache.DecisionCache.{method}")
        return left

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        """Drop the aggregates collected so far (e.g. during set-up)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.edges.clear()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, enumeration_s):
        """The per-layer metrics of one pass, by the names BENCHMARK.json uses."""
        c, s, k = self.calls, self.self_s, self.counts
        out = {}
        for name in ("linalg.exact_rank", "linalg.rank_mod_p", GAMMA,
                     "criticalideals.ideal_trivial",
                     "criticalideals.nontriviality_certificate",
                     "criticalideals.minor_generators", "polyring.buchberger",
                     "polyring.is_trivial_over_field", "polyring.is_trivial_over_Z",
                     "graphs.canonical_form", "zeroforcing.zero_forcing_number",
                     "cache.get", "cache.put"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        for name in ("criticalideals.box_points", "criticalideals.field_points"):
            out[f"{name}.points"] = k[name]
        base = k["gamma.rank_calls"]
        out[f"{GAMMA}.rank_useful_ratio"] = k["gamma.rank_useful"] / base if base else 0.0
        for method in CLOSED_BY + ("other",):
            out[f"{GAMMA}.closed_by.{method}"] = k[f"gamma.closed_by.{method}"]
        out["criticalideals.minor_generators.generators"] = k["minor_generators.generators"]
        out["polyring.buchberger.basis_len"] = k["buchberger.basis_len"]
        out["zeroforcing.closure.calls"] = c["zeroforcing.closure"]
        out["zeroforcing.certificate_minor.self_s"] = s["zeroforcing.certificate_minor"]
        out["cache.get.hits"] = k["cache.get.hits"]
        out["cache.hit_ratio"] = k["cache.get.hits"] / c["cache.get"] if c["cache.get"] else 0.0
        for name in ("tree_suite", "delta_parameter", "path_cover_number"):
            out[f"minrank.{name}.self_s"] = s[f"minrank.{name}"]
        out["enumeration.self_s"] = enumeration_s
        return out

    def enumeration_seconds(self):
        return sum(v for name, v in self.self_s.items() if name.startswith("enumeration."))

    def edge_table(self):
        """(parent, layer) -> [calls, inclusive seconds], for the shares table."""
        return {f"{p or '-'} > {n}": [v[0], v[1]] for (p, n), v in self.edges.items()}
