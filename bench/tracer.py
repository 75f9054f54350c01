"""Spans around the package's public functions, installed from outside.

``install`` rebinds each traced function in every ``cyclokit`` module
namespace that holds it, because ``from .numtheory import factorize``
gives ``quadcyclo``, ``moduli``, ``oracle`` and ``cli`` bindings of their
own.  ``FFElement`` multiplication is counted without spans: one
``verify`` makes hundreds of thousands of them.

A span records its id, its parent's id (-1 at the root), its name, its
start and end on ``time.perf_counter`` and the operation id.  Spans stay
in memory and ``Tracer.dump`` writes them out when the process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

#: Traced public functions, by module.  These names are also the layers.
TRACED = {
    "numtheory": ("factorize", "mult_order", "is_prime", "euler_phi"),
    "roots": ("canonical", "multiply"),
    "field_profile": ("n_F", "order_of_zeta", "contains_root"),
    "quadcyclo": ("yogh", "min_poly", "kappa_class", "is_quadratic", "nu",
                  "radical_generator", "artin_schreier_generator"),
    "moduli": ("s_max", "full_moduli", "g2", "m2_membership", "field_equal",
               "chi_rad", "chi_as"),
    "automorphisms": ("galois_image",),
    "oracle": ("build_field", "brute_order", "brute_min_poly", "evaluate_sum",
               "find_root_of_unity"),
}
#: Spans on ``RootSum`` construction carry this name.
ROOTSUM = "roots.RootSum"
#: Count-only wrapper on ``FFElement.__mul__`` and ``__rmul__``.
FFMUL = "oracle.ffelement_mul"
#: Functions whose distinct argument tuples are counted.
DISTINCT = ("numtheory.factorize", "oracle.build_field")


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
    return names + [ROOTSUM]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.op = 0
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Calls and self time per span name, counts, and distinct inputs."""
        calls, selfs = self_times(self.spans)
        return {
            "calls": dict(calls),
            "self_s": dict(selfs),
            "counts": dict(self.counts),
            "distinct": {name: len(args) for name, args in self.distinct.items()},
        }

    def dump(self, path: str, **extra) -> None:
        doc = {"spans": self.spans, "summary": self.summary(), **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> tuple[Counter, defaultdict]:
    """Calls and self time per name for the spans of one process.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest, so children never overlap.
    """
    covered: defaultdict = defaultdict(float)
    for _sid, parent, _name, start, end, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    selfs: defaultdict = defaultdict(float)
    for sid, _parent, name, start, end, _op in spans:
        calls[name] += 1
        selfs[name] += (end - start) - covered[sid]
    return calls, selfs


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported ``cyclokit`` modules."""
    import cyclokit  # noqa: F401  (loads every submodule the package uses)
    from cyclokit.oracle import FFElement
    from cyclokit.roots import RootSum

    modules = [m for name, m in list(sys.modules.items())
               if name == "cyclokit" or name.startswith("cyclokit.")]
    for module_name, functions in TRACED.items():
        home = sys.modules[f"cyclokit.{module_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    RootSum.__init__ = tracer.wrap(ROOTSUM, RootSum.__init__)
    FFElement.__mul__ = tracer.count(FFMUL, FFElement.__mul__)
    FFElement.__rmul__ = tracer.count(FFMUL, FFElement.__rmul__)
