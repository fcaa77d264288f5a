"""Layer spans recorded from outside the cuspidal package.

The tracer never edits the package.  It replaces each public function of
a layer module with a wrapper at every place the function object is bound:
the defining module and every other ``cuspidal`` module that imported it
by name (``glue.lll_reduce``, ``lattice.signature_of_symmetric``, ...), so a
nested call always lands inside its caller's span.  Spans stay in memory
until the run ends; ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "cuspidal"
LAYERS = ("exact", "lattice", "fqf", "glue", "cusps")

# Functions whose calls, self time and inclusive time are reported.
REPORTED = {
    "exact": ("lll_reduce", "smith_normal_form", "signature_of_symmetric",
              "rational_inverse", "hnf_rows", "kernel_basis"),
    "lattice": ("parse_name", "direct_sum", "make_standard", "orthogonal_complement"),
    "fqf": ("discriminant_form", "isotropic_elements", "mod_pm1", "isotropic_subgroups",
            "subgroup_span", "perp_quotient", "are_isometric", "orthogonal_group"),
    "glue": ("make_glue", "overlattice", "short_vectors", "root_system", "image_of_tau"),
    "cusps": ("nu", "orbit_reps", "one_dim_cusps"),
}
STATS = ("calls", "self_s", "incl_s")

# Counters read from a call's arguments and return value, by function.
HOOKS = {
    "fqf.isotropic_elements": lambda args, out: {
        "fqf.isotropic_elements.scanned": args[0].cardinality,
        "fqf.isotropic_elements.found": len(out)},
    "fqf.isotropic_subgroups": lambda args, out: {
        "fqf.isotropic_subgroups.found": len(out)},
    "glue.short_vectors": lambda args, out: {"glue.short_vectors.found": len(out)},
    "fqf.are_isometric": lambda args, out: {"fqf.are_isometric.true": int(out[0])},
    "glue.image_of_tau": lambda args, out: {"glue.image_of_tau.size_sum": out.size},
    "cusps.one_dim_cusps": lambda args, out: {
        "cusps.realised_rows": sum(1 for row in out if row.genus_ok)},
}
COUNTED = (
    "fqf.isotropic_elements.scanned",
    "fqf.isotropic_elements.found",
    "fqf.isotropic_subgroups.found",
    "glue.short_vectors.found",
    "fqf.are_isometric.true",
    "glue.image_of_tau.size_sum",
    "cusps.realised_rows",
)
DERIVED = (
    "fqf.isotropic_subgroups.inner_spans",
    "fqf.isotropic_subgroups.yield",
    "cusps.glue_yield",
    "cli.self_s",
    "trace.overhead_s",
)


class Tracer:
    """Spans as ``[name, start, end, parent_index, outermost]`` lists."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = [-1]
        self._depth = {}
        self.patched = []

    def wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        hook = HOOKS.get(name)
        counters = self.counters
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            level = depth[name]
            span = [name, 0.0, 0.0, stack[-1], level == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = level + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                depth[name] = level
            if hook is not None:
                counters.update(hook(args, result))
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer at all its bindings."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self.patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def restore(self):
        for ns, key, fn in reversed(self.patched):
            setattr(ns, key, fn)
        self.patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus its children's durations.  Spans come
    from one call stack in one thread, so children never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, wall_s: float) -> dict:
    """Per-layer metrics of one traced run, all named ``<layer>.<...>``."""
    calls = Counter()
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        if span[4]:
            incl_s[name] += span[2] - span[1]
    out = {}
    for layer, names in REPORTED.items():
        for fn in names:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.incl_s"] = incl_s[key]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    out["cli.self_s"] = wall_s - sum(s[2] - s[1] for s in spans if s[3] < 0)
    for key in COUNTED:
        out[key] = counters.get(key, 0)
    inner_spans = sum(1 for i, s in enumerate(spans)
                      if s[0] == "fqf.subgroup_span"
                      and _has_ancestor(spans, i, "fqf.isotropic_subgroups"))
    out["fqf.isotropic_subgroups.inner_spans"] = inner_spans
    out["fqf.isotropic_subgroups.yield"] = _ratio(out["fqf.isotropic_subgroups.found"],
                                                  inner_spans)
    out["cusps.glue_yield"] = _ratio(out["cusps.realised_rows"],
                                     out["glue.overlattice.calls"])
    return out


def per_layer_names() -> list:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    return ([f"{layer}.{fn}.{stat}" for layer, fns in REPORTED.items()
             for fn in fns for stat in STATS]
            + [f"{layer}.self_s" for layer in LAYERS] + list(COUNTED) + list(DERIVED))
