"""Run one catfrac CLI invocation with spans around the public functions of each module.

Usage: ``PYTHONPATH=src python3 perfbench/trace_op.py <catfrac arguments...>``

Behaves like ``python -m catfrac <arguments...>`` (same stdout, same exit
code), and at exit writes one line ``PERFBENCH-TRACE <json>`` to stderr: for
every wrapped function its call count and self time, that is its span time
minus the spans of wrapped functions it called, plus a few work counters.

Imports happen before any wrapper is installed, so start-up stays outside
every span.  Spans are aggregated in memory and written once.  Each wrapped
name is rebound in every ``catfrac`` module that imported it, so calls
through any of those names are seen.  ``Monomial.times`` is left alone on
purpose: it runs ~10^8 times in the series workload and a span there would
dwarf the work.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter

import catfrac
import catfrac.cli
import catfrac.series

MARKER = "PERFBENCH-TRACE "

FUNCTIONS = {
    "contfrac": ("eval_cf",),
    "trees": ("encode", "decode", "level_profile", "level_sum", "binom_level_sum"),
    "paths": ("tree_to_path", "path_to_tree", "area", "parse_path"),
    "perms": ("tree_to_perm", "increasing_pattern_subsets", "root_to_leaf_subsets",
              "perm_to_tree", "has_132", "count_increasing", "parse_perm", "enumerate_132_avoiders"),
    "verify": ("check_level_census", "check_area_formula", "check_area_series",
               "check_word_concatenation", "check_chain_subsets", "check_pattern_counts",
               "check_pattern_series", "check_bijections"),
    "cli": ("main",),
}
GENERATORS = {"trees": ("generate_trees",), "paths": ("generate_paths",)}
SERIES_METHODS = ("mul", "geom_inverse")


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Self-time accounting with one accumulator per open span.

    ``stack[-1]`` collects the time spent in wrapped callees of the innermost
    open span, including their wrapper bookkeeping, so a parent's self time
    excludes the tracer's own cost for its children.
    """

    def __init__(self):
        self.stack = [0.0]
        self.stats: dict[str, Stat] = {}

    def wrap(self, key: str, fn, after=None):
        stat = self.stats[key] = Stat()
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stat.calls += 1
                stat.self_s += perf_counter() - t0 - stack.pop()
                if after is not None and result is not None:
                    after(stat, args, result)
                stack[-1] += perf_counter() - t0

        return wrapper

    def wrap_generator(self, key: str, fn):
        """Calls count generator creations; time and items are counted per next()."""
        stat = self.stats[key] = Stat()
        stack = self.stack

        def timed(iterator):
            while True:
                t0 = perf_counter()
                stack.append(0.0)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    stat.self_s += perf_counter() - t0 - stack.pop()
                    stack[-1] += perf_counter() - t0
                stat.count("items", 1)
                yield item

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def report(self) -> dict:
        return {key: {"calls": s.calls, "self_s": s.self_s, **s.counters} for key, s in self.stats.items()}


def _count_terms(stat: Stat, args, result) -> None:
    stat.count("terms_out", len(result.terms()))


def _count_subsets(stat: Stat, args, result) -> None:
    tree, k = args
    stat.count("scanned", comb(tree.n_edges, k))
    stat.count("hits", len(result))


def _count_checked(stat: Stat, args, result) -> None:
    stat.count("checked", result.checked)


AFTER = {
    "series.geom_inverse": _count_terms,
    "perms.root_to_leaf_subsets": _count_subsets,
    **{f"verify.{name}": _count_checked for name in FUNCTIONS["verify"]},
}


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "catfrac" or name.startswith("catfrac.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    cls = catfrac.series.TruncSeries
    for method in SERIES_METHODS:
        key = f"series.{method}"
        setattr(cls, method, tracer.wrap(key, getattr(cls, method), AFTER.get(key)))
    for table, is_generator in ((FUNCTIONS, False), (GENERATORS, True)):
        for module_name, names in table.items():
            module = sys.modules[f"catfrac.{module_name}"]
            for name in names:
                key = f"{module_name}.{name}"
                original = getattr(module, name)
                if is_generator:
                    _rebind(original, tracer.wrap_generator(key, original))
                else:
                    _rebind(original, tracer.wrap(key, original, AFTER.get(key)))


def main() -> None:
    tracer = Tracer()
    install(tracer)
    sys.argv = ["catfrac", *sys.argv[1:]]
    try:
        catfrac.cli.entry_point()
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.report()) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    main()
