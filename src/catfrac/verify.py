"""Exhaustive cross-checks: continued-fraction series against brute-force censuses.

Each check pairs two independent routes to the same numbers and compares them
exactly, reporting counterexamples in the canonical encodings.  The driver ``_run``
calls a check's unit per key (n, or one k); a unit yields ``(items counted, None
or a counterexample)`` and returns its detail line.  Counts join ``checked`` before
failures are recorded; the fifth failure stops the check mid-unit, without its line.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable

from .contfrac import AREA, MULTIVARIATE, eval_cf, increasing
from .paths import path_to_tree, tree_to_path
from .perms import (
    count_increasing_by_length,
    enumerate_132_avoiders,
    format_perm,
    increasing_pattern_subsets_by_length,
    perm_to_tree,
    root_to_leaf_subsets_by_length,
    tree_to_perm,
)
from .series import TruncSeries
from .trees import (
    area_lanes,
    binom_profile_sum,
    children,
    generate_trees,
    lane_batches,
    level_profile,
    level_profile_counts,
    level_sum_lanes,
)

_MAX_FAILURES = 5


class CheckResult:
    """One check's outcome, filled in as its scan runs."""

    __slots__ = ("name", "params", "checked", "detail_lines", "failures")

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.checked = 0
        self.detail_lines: list[str] = []
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> bool:
        """Record a counterexample; returns True while more should be collected."""
        self.failures.append(message)
        return len(self.failures) < _MAX_FAILURES


# -- brute-force oracles: lane scans of ``trees.lane_batches`` ----------------


def _census(n: int, scan: Callable) -> dict:
    """{key: count} that ``scan`` gives over every batch of words on n edges, keys in first-seen order."""
    census: Counter = Counter()
    for batch in lane_batches(n):
        census.update(scan(batch))
    return dict(census)


def area_polynomial(n: int) -> dict[int, int]:
    """{area: count} over all Dyck paths of semilength n: ``trees.area_lanes`` of every batch."""
    return _census(n, lambda batch: batch.values(area_lanes(batch)))


def level_profile_census(n: int) -> dict[tuple[int, ...], int]:
    """{level profile: trees} over all ordered trees on n edges: ``trees.level_profile_counts``."""
    return _census(n, level_profile_counts)


def area_from_level_sums(n: int, sums: int, ones: int = 1) -> int:
    """Lemma 2's formula side, C(n+1, 2) - level sum, of one tree or, given ``ones``, of every lane."""
    return comb(n + 1, 2) * ones - sums


# -- series slices ------------------------------------------------------------


def z_slice_q(series: TruncSeries, n: int) -> dict[int, int]:
    """The z^n coefficient as a {q exponent: coefficient} map (zq-mode series)."""
    out: dict[int, int] = {}
    for m, c in series.z_slice(n).items():
        if m.v_degs:
            raise ValueError("series has level variables; expected a z,q series")
        out[m.q_deg] = c
    return out


# -- checks -------------------------------------------------------------------


def _run(name: str, params: dict, unit: Callable, keys=None) -> CheckResult:
    """Run ``unit(key)`` for each key, by default n = 0 .. max_edges (see the module docstring)."""
    result = CheckResult(name, params)
    for key in range(params["max_edges"] + 1) if keys is None else keys:
        items = unit(key)
        try:
            while True:
                count, failure = next(items)
                result.checked += count
                if failure is not None and not result.fail(failure):
                    return result
        except StopIteration as done:
            result.detail_lines.append(done.value)
    return result


def _per_tree(compare, detail: str):
    """The unit over the trees on n edges: one item per value ``compare(t)`` yields."""

    def unit(n):
        for t in generate_trees(n):
            for failure in compare(t):
                yield 1, None if failure is None else f"n={n} {failure}"
        return f"n={n} {detail}"

    return unit


def _slice_item(got: dict, census: dict, key: str, label: str = "census"):
    """One series-slice-vs-census item, counted by the census total."""
    return sum(census.values()), None if got == census else f"{key}: series slice {got} != {label} {census}"


def check_level_census(max_edges: int) -> CheckResult:
    """Multivariate series coefficients == tree counts per level profile."""
    series = eval_cf(MULTIVARIATE, max(max_edges, 1), max_edges)

    def unit(n):
        census = level_profile_census(n)
        yield _slice_item({m.v_degs: c for m, c in series.z_slice(n).items()}, census, f"n={n}")
        return f"n={n} profiles={len(census)} trees={sum(census.values())}"

    return _run("level census vs multivariate series", {"max_edges": max_edges}, unit)


def check_area_formula(max_edges: int) -> CheckResult:
    """Per tree: path area == C(n+1,2) - level sum.

    Both sides are lane scans of a batch and are compared as whole batches;
    a batch that differs is compared again tree by tree, in word order, and
    only a differing tree builds its counterexample.
    """

    def unit(n):
        for batch in lane_batches(n):
            areas, sums = area_lanes(batch), level_sum_lanes(batch)
            if areas == area_from_level_sums(n, sums, batch.ones):
                yield len(batch.words), None
                continue
            for word, by_path, level_total in zip(batch.words, batch.values(areas), batch.values(sums)):
                by_levels = area_from_level_sums(n, level_total)
                yield 1, None if by_path == by_levels else (
                    f"n={n} tree={word!r} area={by_path} formula={by_levels}"
                )
        return f"n={n} trees checked"

    return _run("area vs level-sum formula", {"max_edges": max_edges}, unit)


def check_area_series(max_edges: int) -> CheckResult:
    """Path-census area polynomial, exponent-reversed, == area-preset series."""
    series = eval_cf(AREA, max(max_edges, 1), max_edges)

    def unit(n):
        poly = area_polynomial(n)
        reversed_poly = {comb(n + 1, 2) - a: c for a, c in poly.items()}
        yield _slice_item(z_slice_q(series, n), reversed_poly, f"n={n}", "reversed census")
        return f"n={n} paths={sum(poly.values())}"

    return _run("area polynomial vs series", {"max_edges": max_edges}, unit)


def check_word_concatenation(max_edges: int) -> CheckResult:
    """tree_to_perm == block-by-block reconstruction from the subtree words.

    For root subtrees on n_1, ..., n_s edges the offsets are N_0 = n and
    N_j = N_(j-1) - n_j - 1, ending at N_s = 0.  Block j is subtree j's word
    shifted by N_j, past the later subtrees, followed by N_(j-1), the label
    of subtree j's root.
    """

    def compare(t):
        direct = tree_to_perm(t)
        blocks: list[int] = []
        offset = len(t) // 2
        for sub in children(t):
            root_label = offset
            offset -= len(sub) // 2 + 1
            blocks.extend(x + offset for x in tree_to_perm(sub))
            blocks.append(root_label)
        split = tuple(blocks)
        yield None if split == direct else f"tree={t!r} split={split} direct={direct}"

    return _run("word concatenation recursion", {"max_edges": max_edges}, _per_tree(compare, "trees checked"))


def check_chain_subsets(max_edges: int, k_max: int) -> CheckResult:
    """Increasing-pattern value sets == root-to-leaf label sets (as sets).

    Each side is one pass per tree that serves every k <= k_max.
    """

    def compare(t):
        patterns_by_length = increasing_pattern_subsets_by_length(tree_to_perm(t), k_max)
        chains_by_length = root_to_leaf_subsets_by_length(t, k_max)
        for k in range(1, k_max + 1):
            patterns = patterns_by_length.get(k, set())
            chains = chains_by_length.get(k, set())
            yield None if patterns == chains else (
                f"k={k} tree={t!r} patterns={sorted(map(sorted, patterns))} "
                f"chains={sorted(map(sorted, chains))}"
            )

    unit = _per_tree(compare, f"trees checked for k <= {k_max}")
    return _run("increasing subsets vs ancestor chains", {"max_edges": max_edges, "k_max": k_max}, unit)


def check_pattern_counts(max_edges: int, k_max: int) -> CheckResult:
    """Increasing-pattern count of the word == level formula, for every k <= k_max.

    Two routes per tree: the DP count over the permutation word, and
    sum over vertices of C(level-1, k-1) read from the level profile.  The
    chain sets behind the formula are compared by ``check_chain_subsets``.
    """

    def compare(t):
        counts = count_increasing_by_length(tree_to_perm(t), k_max)
        profile = level_profile(t)
        for k in range(1, k_max + 1):
            by_word, by_levels = counts.get(k, 0), binom_profile_sum(profile, k)
            yield None if by_word == by_levels else (
                f"k={k} tree={t!r} word={by_word} levels={by_levels}"
            )

    unit = _per_tree(compare, f"trees checked for k <= {k_max}")
    return _run("pattern counts vs level formula", {"max_edges": max_edges, "k_max": k_max}, unit)


def check_pattern_series(max_edges: int, ks: tuple[int, ...]) -> CheckResult:
    """Tree census of the level formula == increasing-pattern preset series.

    The formula depends on a tree only through its level profile, so the
    trees on n edges are counted by profile once, and each k evaluates it
    once per profile, weighted by the profile's tree count.
    """
    censuses = [level_profile_census(n).items() for n in range(max_edges + 1)]

    def unit(k):
        series = eval_cf(increasing(k), max(max_edges, 1), max_edges)
        for n, profiles in enumerate(censuses):
            census: Counter[int] = Counter()
            for profile, count in profiles:
                census[binom_profile_sum(profile, k)] += count
            yield _slice_item(z_slice_q(series, n), dict(census), f"k={k} n={n}")
        return f"k={k} checked through n={max_edges}"

    return _run("pattern-count census vs series", {"max_edges": max_edges, "ks": list(ks)}, unit, ks)


def _round_trip(encode, decode, x) -> str | None:
    """None if ``decode(encode(x)) == x``, else the failure suffix, with a decoder error's text."""
    try:
        return None if decode(encode(x)) == x else ""
    except ValueError as exc:
        return f": {exc}"


def check_bijections(max_edges: int) -> CheckResult:
    """Round trips tree->path->tree on every tree and perm->tree->perm on every avoider.

    PASS certifies that ``path_to_tree`` inverts ``tree_to_path``, and that
    ``tree_to_perm`` is a bijection onto the (132)-avoiders with inverse
    ``perm_to_tree``: the avoiders, each greater than the one before, are
    distinct, their round trip makes ``perm_to_tree`` one-to-one on them, and
    as many avoiders as trees make it onto the trees.  A decoder error on its
    codec's output is a broken round trip, with the error text appended.  A
    tree counts once, with its path round trip; an avoider counts nothing.
    """

    def unit(n):
        trees, avoiders, last = 0, 0, ()
        for trees, t in enumerate(generate_trees(n), 1):
            err = _round_trip(tree_to_path, path_to_tree, t)
            yield 1, None if err is None else f"n={n} tree={t!r} path round trip broke{err}"
        for avoiders, word in enumerate(enumerate_132_avoiders(n), 1):
            if avoiders > 1 and word <= last:
                yield 0, f"n={n} perm={format_perm(word)!r} does not follow {format_perm(last)!r}"
            err = _round_trip(perm_to_tree, tree_to_perm, word)
            yield 0, None if err is None else f"n={n} perm={format_perm(word)!r} tree round trip broke{err}"
            last = word
        yield 0, None if trees == avoiders else f"n={n}: trees={trees} != avoiders={avoiders}"
        return f"n={n} trees={trees} avoiders={avoiders}"

    return _run("bijection round trips", {"max_edges": max_edges}, unit)


# Stable check ids: (routine of (max_edges, k or None), default max_edges, whether k applies).
# The routines look the checks up by module name at call time, so a rebound
# ``check_*`` attribute is the one that runs.
CHECKS: dict[str, tuple[Callable[[int, int | None], CheckResult], int, bool]] = {
    "theorem1": (lambda n, k: check_level_census(n), 7, False),
    "lemma2": (lambda n, k: check_area_formula(n), 10, False),
    "theorem3": (lambda n, k: check_area_series(n), 8, False),
    "lemma3": (lambda n, k: check_word_concatenation(n), 8, False),
    "lemma4": (lambda n, k: check_chain_subsets(n, k or 4), 7, True),
    "theorem5": (lambda n, k: check_pattern_counts(n, k or 5), 8, True),
    "corollary6": (lambda n, k: check_pattern_series(n, (k,) if k else (2, 3, 4)), 8, True),
    "bijections": (lambda n, k: check_bijections(n), 8, False),
}
