"""Per-layer tracing from outside the program.

`Tracer.install` replaces each function named in LAYERS by a timing wrapper
at every place it is bound: every `clusterlab` module attribute that holds
it (so `verify.explore` and `explore.explore` are separate binding sites of
one function) or the class attribute for a method.  Callers resolve those
names at call time, so every call made after installation goes through a
wrapper; the program's files are not changed.

Each call is a span with a parent: the innermost span open when it began.
A span's self time is its duration minus the durations of its child spans.
Generator functions are timed across their iteration: every resumption is a
segment of one span, counted as one call.  Spans are
folded into per-name totals and parent->child call counts as they close,
because one round of the `gentle` workload opens about a million of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer (= clusterlab module) -> qualified names of the functions timed there
LAYERS = {
    "verify": ("_canonical_bound_quiver", "enumerate_gentle_algebras",
               "_compatible_multisets", "_dim_collision", "_tau_rigid_pairs",
               "_dual_path_check", "verify_thm1", "verify_thm2",
               "verify_fvector_injectivity", "verify_denominator",
               "verify_denominator_duality",
               "verify_type_c_categorification"),
    "quiver": ("check_gentle", "letter_graph_acyclic",
               "detect_even_full_cycle", "cartan_matrix", "enumerate_strings"),
    "modules": ("enumerate_tau_rigid", "string_module", "minimal_presentation",
                "ar_translate", "hom_dim"),
    "linalg": ("rref", "nullspace", "solve", "column_space_projection",
               "rank", "det"),
    "tiling": ("DiscTiling.to_complex", "TilingComplex.classify_tiles",
               "TilingComplex.enumerate_permissible_arcs",
               "TilingComplex.arcs_compatible", "seg_profile",
               "ArcMultiset.intersection_vector", "geometric_disc_arcs"),
    "explore": ("explore", "enumerate_monomials", "monomial_vectors"),
    "tracking": ("mutate_tracked", "d_matrix"),
    "exchange": ("mutate_seed", "mutate_matrix", "find_skew_symmetrizer"),
    "laurent": ("LaurentPoly.__mul__", "LaurentPoly.__pow__", "divide_exact"),
}
# The CLI call itself is a span opened by the benchmark; its self time is
# click parsing plus report emission.
CLI_SPAN = "cli.main"
# Timed only to count StringInventory tau lookups; a lookup that calls
# ar_translate directly is a cache miss.
TAU_SPAN = "modules.StringInventory.tau"
TAU_MISS = (TAU_SPAN, "modules.ar_translate")


def span_names():
    return [f"{layer}.{q}" for layer, names in LAYERS.items() for q in names]


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, time covered by children]
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()  # (parent span name or None, span name) -> calls

    def _close(self, frame, duration, count):
        name = frame[0]
        stack = self._stack
        stack.pop()
        if count:
            self.calls[name] += 1
            self.edges[(stack[-1][0] if stack else None, name)] += 1
        self.self_s[name] += duration - frame[1]
        if stack:
            stack[-1][1] += duration

    def wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        stack, close, clock = self._stack, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock() - start, True)
        return traced

    def _wrap_generator(self, fn, name):
        stack, close, clock = self._stack, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, clock() - start, first)
                    first = False
                yield item
        return traced

    def install(self):
        """Wrap every LAYERS function at each of its binding sites."""
        program = [m for n, m in sys.modules.items()
                   if n == "clusterlab" or n.startswith("clusterlab.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"clusterlab.{layer}")
            for qualname in names:
                self._install_one(module, qualname, f"{layer}.{qualname}",
                                  program)
        modules = importlib.import_module("clusterlab.modules")
        self._install_one(modules, "StringInventory.tau", TAU_SPAN, program)

    def _install_one(self, module, qualname, name, program):
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owners = [getattr(module, owner_name)]
            original = owners[0].__dict__[attr]
        else:
            owners = program
            original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        sites = 0
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    sites += 1
        if not sites:
            raise RuntimeError(f"{name} has no binding site")

    def round_metrics(self):
        """The per-layer metrics of what was traced since the last reset."""
        out = {}
        layer_self = Counter()
        for span in span_names() + [CLI_SPAN]:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
            layer_self[span.split(".", 1)[0]] += self.self_s[span]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        lookups = self.calls[TAU_SPAN]
        out["modules.inventory.tau_lookups"] = lookups
        out["modules.inventory.tau_hit_ratio"] = (
            1 - self.edges[TAU_MISS] / lookups if lookups else 0.0)
        return out
