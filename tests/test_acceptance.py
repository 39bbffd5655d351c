"""Acceptance suite: every criterion exact, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All comparisons are exact integer equality; the only tolerances
are the stated wall-clock budgets, measured around the relevant computation.
"""

import time
from collections import Counter
from math import comb

from catfrac.contfrac import LevelWeights, eval_cf
from catfrac.paths import area, generate_paths, path_to_tree, tree_to_path
from catfrac.perms import (
    count_increasing,
    enumerate_132_avoiders,
    increasing_pattern_subsets,
    perm_to_tree,
    root_to_leaf_subsets,
    tree_to_perm,
)
from catfrac.series import Monomial, TruncSeries
from catfrac.trees import binom_level_sum, generate_trees, level_profile, level_sum
from catfrac.verify import area_polynomial, z_slice_q

from oracles import (
    area_polynomials,
    catalan_table,
    fixed_point_check,
    pattern_polynomial_by_scan,
    reference_eval_cf,
    specialize,
)


def report(number, name, ok, note=""):
    suffix = f" [{note}]" if note else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


# Catalan numbers as listed, C(0)..C(15); the recurrence must reproduce them.
CATALAN_LITERALS = [
    1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
    16796, 58786, 208012, 742900, 2674440, 9694845,
]

# Frozen from the naive triple-scan + subset-scan oracles (tests/oracles.py).
FROZEN_K3 = {
    3: {0: 4, 1: 1},
    4: {0: 8, 1: 4, 2: 1, 4: 1},
    5: {0: 16, 1: 12, 2: 5, 3: 1, 4: 4, 5: 2, 7: 1, 10: 1},
}
FROZEN_K2_N4 = {0: 1, 1: 3, 2: 3, 3: 3, 4: 2, 5: 1, 6: 1}
FROZEN_K4_N4 = {0: 13, 1: 1}

# Frozen from the prefix-feasibility Dyck generator + column-sum area oracle.
FROZEN_AREA = {
    2: {0: 1, 1: 1},
    3: {0: 1, 1: 1, 2: 2, 3: 1},
    4: {0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 1},
}


def test_criterion_1_catalan_specialization(capsys):
    import json

    from catfrac.cli import main

    table = catalan_table(15)
    assert table == CATALAN_LITERALS
    start = time.perf_counter()
    series = eval_cf(LevelWeights("catalan"), 15, 15)
    elapsed = time.perf_counter() - start
    got = [series.z_slice(n).get(Monomial(n, 0, ()), 0) for n in range(16)]
    ok = got == table and elapsed < 1.0
    # the same row through the command-line surface
    code = main(["series", "--weights", "catalan", "--order", "15", "--json"])
    doc = json.loads(capsys.readouterr().out)
    via_cli = [int(record["coeff"]) for record in doc["terms"]]
    ok = ok and code == 0 and via_cli == table
    report(1, "catalan specialization order 15", ok, f"{elapsed:.3f}s")


def test_criterion_2_increasing_k3_vs_permutation_scan():
    series = eval_cf(LevelWeights("increasing", 3), 9, 9)
    ok = z_slice_q(series, 3) == FROZEN_K3[3]
    scan_times = {}
    for n in range(10):
        start = time.perf_counter()
        scanned = pattern_polynomial_by_scan(n, 3)
        scan_times[n] = time.perf_counter() - start
        ok = ok and z_slice_q(series, n) == scanned
        if n in FROZEN_K3:
            ok = ok and scanned == FROZEN_K3[n]
    ok = ok and scan_times[9] < 30.0
    report(2, "k=3 series vs 9!-scan", ok, f"n=9 scan {scan_times[9]:.1f}s")


def test_criterion_3_general_k_vs_permutation_scan():
    ok = True
    for k in (2, 4, 5):
        series = eval_cf(LevelWeights("increasing", k), 8, 8)
        for n in range(9):
            ok = ok and z_slice_q(series, n) == pattern_polynomial_by_scan(n, k)
    k2 = eval_cf(LevelWeights("increasing", 2), 4, 4)
    k4 = eval_cf(LevelWeights("increasing", 4), 4, 4)
    ok = ok and z_slice_q(k2, 4) == FROZEN_K2_N4 and z_slice_q(k4, 4) == FROZEN_K4_N4
    report(3, "k in {2,4,5} series vs 8!-scan", ok)


def test_criterion_4_area_polynomial_reversal():
    series = eval_cf(LevelWeights("area"), 10, 10)
    ok = True
    for n in range(11):
        poly = area_polynomial(n)
        if n in FROZEN_AREA:
            ok = ok and poly == FROZEN_AREA[n]
        reversed_poly = {comb(n + 1, 2) - a: c for a, c in poly.items()}
        ok = ok and z_slice_q(series, n) == reversed_poly
    report(4, "area polynomial reversed vs series", ok)


def test_criterion_5_multivariate_census():
    series = eval_cf(LevelWeights("multivariate"), 8, 8)
    displayed = {
        (): 1, (1,): 1, (1, 1): 1, (2,): 1,
        (1, 1, 1): 1, (2, 1): 2, (1, 2): 1, (3,): 1,
    }
    through_n3 = {m.v_degs: c for m, c in series.terms() if m.z_deg <= 3}
    ok = through_n3 == displayed
    for n in range(9):
        census = Counter(level_profile(t) for t in generate_trees(n))
        got = {m.v_degs: c for m, c in series.z_slice(n).items()}
        ok = ok and got == dict(census)
    report(5, "multivariate census n<=8", ok)


def test_criterion_6_area_formula_streamed():
    start = time.perf_counter()
    ok = True
    total = 0
    for n in range(13):
        for t in generate_trees(n):
            total += 1
            if area(tree_to_path(t)) != comb(n + 1, 2) - level_sum(t):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and total == sum(CATALAN_LITERALS[: 13]) and elapsed < 60.0
    report(6, "area formula all trees n<=12", ok, f"{total} trees, {elapsed:.1f}s")


def test_criterion_7_bijection_suite():
    ok = True
    for n in range(13):
        for t in generate_trees(n):
            if path_to_tree(tree_to_path(t)) != t:
                ok = False
        for p in generate_paths(n):
            if tree_to_path(path_to_tree(p)) != p:
                ok = False
    for n in range(11):
        image = set()
        count = 0
        for t in generate_trees(n):
            count += 1
            word = tree_to_perm(t)
            image.add(word)
            if perm_to_tree(word) != t:
                ok = False
        avoiders = list(enumerate_132_avoiders(n))
        ok = ok and len(image) == count == CATALAN_LITERALS[n]
        ok = ok and image == set(avoiders)
        for word in avoiders:
            if tree_to_perm(perm_to_tree(word)) != word:
                ok = False
    report(7, "round trips + avoider image", ok)


def test_criterion_8_pattern_counts_and_subsets():
    ok = True
    for n in range(10):
        for t in generate_trees(n):
            word = tree_to_perm(t)
            for k in range(1, 6):
                a = count_increasing(word, k)
                b = binom_level_sum(t, k)
                c = len(root_to_leaf_subsets(t, k))
                if not (a == b == c):
                    ok = False
    for n in range(9):
        for t in generate_trees(n):
            word = tree_to_perm(t)
            for k in range(1, 5):
                if increasing_pattern_subsets(word, k) != root_to_leaf_subsets(t, k):
                    ok = False
    report(8, "pattern counts (n<=9) and subsets (n<=8)", ok)


def test_criterion_9_cf_structural_properties():
    presets = [
        LevelWeights("catalan"),
        LevelWeights("area"),
        LevelWeights("increasing", 2),
        LevelWeights("increasing", 3),
        LevelWeights("increasing", 4),
        LevelWeights("increasing", 5),
        LevelWeights("multivariate"),
    ]
    ok = True
    # eval_cf never climbs past the order, so saturation is shown on the bottom-up reference
    for weights in presets:
        for order in (0, 4, 7, 10):
            base = max(order, 1)
            ok = ok and reference_eval_cf(weights, base, order) == reference_eval_cf(weights, base + 3, order)
    for order in range(11):
        ok = ok and fixed_point_check(order)
    order = 10
    multi = eval_cf(LevelWeights("multivariate"), order, order)
    ok = ok and specialize(multi, LevelWeights("catalan")) == eval_cf(LevelWeights("catalan"), order, order)
    ok = ok and specialize(multi, LevelWeights("area")) == eval_cf(LevelWeights("area"), order, order)
    for k in (2, 3, 4, 5):
        ok = ok and specialize(multi, LevelWeights("increasing", k)) == eval_cf(
            LevelWeights("increasing", k), order, order
        )
    report(9, "depth saturation, fixed point, specializations", ok)


def test_criterion_10_area_order_40_vs_first_subtree_recurrence():
    start = time.perf_counter()
    series = eval_cf(LevelWeights("area"), 40, 40)
    elapsed = time.perf_counter() - start
    expected = area_polynomials(40)
    ok = elapsed < 10.0
    for n in range(41):
        ok = ok and z_slice_q(series, n) == {q: c for q, c in enumerate(expected[n]) if c}
    report(10, "area order 40 vs first-subtree recurrence", ok, f"{elapsed:.2f}s")


def test_criterion_11_increasing_k3_order_30():
    start = time.perf_counter()
    series = eval_cf(LevelWeights("increasing", 3), 30, 30)
    elapsed = time.perf_counter() - start
    table = catalan_table(30)
    ok = elapsed < 10.0
    for n in range(1, 31):
        poly = z_slice_q(series, n)
        # height <= 2 trees carry no (123) pattern; from n = 3 the chain's
        # identity word is the only one with all C(n,3) triples increasing
        ok = ok and sum(poly.values()) == table[n] and poly.get(0) == 2 ** (n - 1)
        ok = ok and (n < 3 or poly.get(comb(n, 3)) == 1)
    reference = reference_eval_cf(LevelWeights("increasing", 3), 14, 14)
    ok = ok and TruncSeries(14, dict(series.terms())) == reference
    report(11, "k=3 order 30 identities, equal to bottom-up through 14", ok, f"{elapsed:.2f}s")
