"""Exhaustive cross-checks: continued-fraction series against brute-force censuses.

Each check pairs two independent routes to the same numbers and compares them
exactly, reporting counterexamples in the canonical encodings.  Every check
stops once five failures have been collected.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable

from .contfrac import LevelWeights, eval_cf
from .paths import area, area_via_levels, generate_paths, path_to_tree, tree_to_path
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
from .trees import binom_profile_sum, encode, generate_trees, level_profile

_MAX_FAILURES = 5

# The avoider prefix search lists Catalan(n) words; past n = 12 (208 012) it is not desk-scale.
PERM_ORACLE_MAX = 12


class CheckResult:
    """One check's outcome, filled in as its scan runs."""

    __slots__ = ("name", "params", "ok", "checked", "detail_lines", "failures")

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.ok = True
        self.checked = 0
        self.detail_lines: list[str] = []
        self.failures: list[str] = []

    def fail(self, message: str) -> bool:
        """Record a counterexample; returns True while more should be collected."""
        self.ok = False
        self.failures.append(message)
        return len(self.failures) < _MAX_FAILURES


# -- brute-force oracles ----------------------------------------------------


def area_polynomial(n: int) -> dict[int, int]:
    """{area: count} over all Dyck paths of semilength n, by direct enumeration."""
    return dict(Counter(area(p) for p in generate_paths(n)))


def level_profile_census(n: int) -> dict[tuple[int, ...], int]:
    """{level profile: trees} over all ordered trees on n edges."""
    return dict(Counter(map(level_profile, generate_trees(n))))


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


def check_level_census(max_edges: int) -> CheckResult:
    """Multivariate series coefficients == tree counts per level profile."""
    result = CheckResult("level census vs multivariate series", {"max_edges": max_edges})
    series = eval_cf(LevelWeights.multivariate(), max(max_edges, 1), max_edges)
    for n in range(max_edges + 1):
        census = level_profile_census(n)
        got = {m.v_degs: c for m, c in series.z_slice(n).items()}
        result.checked += sum(census.values())
        if got != census and not result.fail(f"n={n}: series slice {got} != census {census}"):
            return result
        result.detail_lines.append(f"n={n} profiles={len(census)} trees={sum(census.values())}")
    return result


def _scan_trees(result: CheckResult, max_edges: int, compare, detail: str) -> CheckResult:
    """Run ``compare`` on every tree on at most ``max_edges`` edges.

    ``compare(t)`` yields, for each item it checks, None or a counterexample;
    each counts once in ``result.checked``.  A counterexample is recorded
    after an ``n=`` prefix, and the scan stops once enough are collected.
    After the trees on n edges, the line ``n=<n> <detail>`` is added.
    """
    for n in range(max_edges + 1):
        for t in generate_trees(n):
            for failure in compare(t):
                result.checked += 1
                if failure is not None and not result.fail(f"n={n} {failure}"):
                    return result
        result.detail_lines.append(f"n={n} {detail}")
    return result


def check_area_formula(max_edges: int) -> CheckResult:
    """Per tree: path area == C(n+1,2) - level sum."""

    def compare(t):
        by_path, by_levels = area(tree_to_path(t)), area_via_levels(t)
        yield None if by_path == by_levels else f"tree={encode(t)!r} area={by_path} formula={by_levels}"

    result = CheckResult("area vs level-sum formula", {"max_edges": max_edges})
    return _scan_trees(result, max_edges, compare, "trees checked")


def check_area_series(max_edges: int) -> CheckResult:
    """Path-census area polynomial, exponent-reversed, == area-preset series."""
    result = CheckResult("area polynomial vs series", {"max_edges": max_edges})
    series = eval_cf(LevelWeights.area(), max(max_edges, 1), max_edges)
    for n in range(max_edges + 1):
        poly = area_polynomial(n)
        reversed_poly = {comb(n + 1, 2) - a: c for a, c in poly.items()}
        got = z_slice_q(series, n)
        result.checked += sum(poly.values())
        if got != reversed_poly and not result.fail(
            f"n={n}: series slice {got} != reversed census {reversed_poly}"
        ):
            return result
        result.detail_lines.append(f"n={n} paths={sum(poly.values())}")
    return result


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
        offset = t.n_edges
        for sub in t.children:
            root_label = offset
            offset -= sub.n_edges + 1
            blocks.extend(x + offset for x in tree_to_perm(sub))
            blocks.append(root_label)
        split = tuple(blocks)
        yield None if split == direct else f"tree={encode(t)!r} split={split} direct={direct}"

    result = CheckResult("word concatenation recursion", {"max_edges": max_edges})
    return _scan_trees(result, max_edges, compare, "trees checked")


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
                f"k={k} tree={encode(t)!r} patterns={sorted(map(sorted, patterns))} "
                f"chains={sorted(map(sorted, chains))}"
            )

    result = CheckResult(
        "increasing subsets vs ancestor chains", {"max_edges": max_edges, "k_max": k_max}
    )
    return _scan_trees(result, max_edges, compare, f"trees checked for k <= {k_max}")


def check_pattern_counts(max_edges: int, k_max: int) -> CheckResult:
    """DP pattern count == level formula == ancestor-chain subset count.

    Each side is one pass per tree that serves every k <= k_max: the word
    count, the chain scan, and the level profile that the formula reads.
    """

    def compare(t):
        counts = count_increasing_by_length(tree_to_perm(t), k_max)
        chains = root_to_leaf_subsets_by_length(t, k_max)
        profile = level_profile(t)
        for k in range(1, k_max + 1):
            by_word = counts.get(k, 0)
            by_levels = binom_profile_sum(profile, k)
            by_chains = len(chains.get(k, ()))
            yield None if by_word == by_levels == by_chains else (
                f"k={k} tree={encode(t)!r} word={by_word} levels={by_levels} chains={by_chains}"
            )

    result = CheckResult(
        "pattern counts vs level formula", {"max_edges": max_edges, "k_max": k_max}
    )
    return _scan_trees(result, max_edges, compare, f"trees checked for k <= {k_max}")


def check_pattern_series(max_edges: int, ks: tuple[int, ...]) -> CheckResult:
    """Tree census of the level formula == increasing-pattern preset series.

    The formula depends on a tree only through its level profile, so the
    trees on n edges are counted by profile once, and each k evaluates it
    once per profile, weighted by the profile's tree count.
    """
    result = CheckResult(
        "pattern-count census vs series", {"max_edges": max_edges, "ks": list(ks)}
    )
    censuses = [level_profile_census(n).items() for n in range(max_edges + 1)]
    for k in ks:
        series = eval_cf(LevelWeights.increasing(k), max(max_edges, 1), max_edges)
        for n in range(max_edges + 1):
            census: Counter[int] = Counter()
            for profile, count in censuses[n]:
                census[binom_profile_sum(profile, k)] += count
            got = z_slice_q(series, n)
            result.checked += sum(census.values())
            if got != dict(census) and not result.fail(
                f"k={k} n={n}: series slice {got} != census {dict(census)}"
            ):
                return result
        result.detail_lines.append(f"k={k} checked through n={max_edges}")
    return result


def check_bijections(max_edges: int) -> CheckResult:
    """Round trips tree->path->tree and tree->perm->tree, plus the avoider-set image.

    PASS certifies that ``path_to_tree`` inverts ``tree_to_path``, and that
    ``tree_to_perm`` is a bijection onto the (132)-avoiders with inverse
    ``perm_to_tree``: the round trips make it one-to-one, and an image equal
    to the avoider set makes ``perm_to_tree`` its inverse on every avoider,
    so neither fact is tested again.  A decoder error on its codec's output
    is a broken round trip, with the error text appended.  The avoider-set
    comparison is capped at n = PERM_ORACLE_MAX.
    """
    result = CheckResult("bijection round trips", {"max_edges": max_edges})
    for n in range(max_edges + 1):
        count = 0
        images: set = set()
        for t in generate_trees(n):
            count += 1
            result.checked += 1
            word = tree_to_perm(t)
            for kind, image, inverse in (("path", tree_to_path(t), path_to_tree), ("perm", word, perm_to_tree)):
                try:
                    if inverse(image) == t:
                        continue
                    error = ""
                except ValueError as exc:
                    error = f": {exc}"
                if not result.fail(f"n={n} tree={encode(t)!r} {kind} round trip broke{error}"):
                    return result
            if n <= PERM_ORACLE_MAX:
                images.add(word)
        if n <= PERM_ORACLE_MAX:
            avoiders = set(enumerate_132_avoiders(n))
            if images != avoiders and not result.fail(
                f"n={n}: image != avoider set; extra={sorted(map(format_perm, images - avoiders))[:3]} "
                f"missing={sorted(map(format_perm, avoiders - images))[:3]}"
            ):
                return result
            result.detail_lines.append(f"n={n} trees={count} avoiders={len(avoiders)}")
        else:
            result.detail_lines.append(f"n={n} trees={count} (avoider scan skipped)")
    return result


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
