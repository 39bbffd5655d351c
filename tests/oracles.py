"""Independent desk-scale oracles used by the tests.

Everything here recomputes expected values from first principles with
deliberately naive algorithms, separate from the package's implementations:
the Catalan recurrence, triple scans for patterns, subset scans for counts
and for increasing value sets (the package extends increasing tuples one
index at a time), the (132)-avoiders by filtering all n! permutations (the
package runs a prefix search), a prefix-feasibility Dyck word generator (the
package uses the first-return factorization instead; ``first_return_words``
only pins the order the package lists trees in), the continued fraction by
bottom-up series inversion (the package uses a path DP), and the area
polynomials by a first-subtree recurrence.  Root-to-leaf chains are found by
filtering all C(n, k) label sets through an ancestor table built from
``children`` (the package reads them off the open-label stack of the
bracket word).  The level-variable algebra (``shift_levels``,
``substitute_levels``, ``specialize``, ``fixed_point_check``) lives here
too: no command of the package runs it.

``pattern_polynomial_by_scan`` is an exception: it counts over the n!-filter
here with the package's ``count_increasing`` (the DP counter), and is checked
against the triple and subset scans here.  ``area_via_levels`` is another:
Lemma 2's formula for one tree, on the package's ``level_sum`` (``verify``
evaluates it in lanes, a batch of trees at a time).
"""

from collections import Counter
from itertools import combinations, permutations
from math import comb


def catalan_table(max_n):
    """Catalan numbers through max_n via the convolution recurrence."""
    c = [1]
    for n in range(max_n):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


def naive_has_132(p):
    """Exhaustive triple scan for a (132) pattern; 1-based triple or None."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if p[i] < p[k] < p[j]:
                    return (i + 1, j + 1, k + 1)
    return None


def prefix_min_132_witness(p):
    """The documented (132) witness by brute force: the smallest j whose i, the
    first index of min(p[:j]), has a k > j with p[i] < p[k] < p[j], then the
    smallest such k; 1-based triple or None."""
    for j in range(1, len(p)):
        i = p.index(min(p[:j]))
        for k in range(j + 1, len(p)):
            if p[i] < p[k] < p[j]:
                return (i + 1, j + 1, k + 1)
    return None


def naive_count_increasing(p, k):
    """Increasing patterns of length k by scanning all index subsets."""
    return sum(
        1
        for idxs in combinations(range(len(p)), k)
        if all(p[idxs[i]] < p[idxs[i + 1]] for i in range(k - 1))
    )


def contains_132(p):
    """Existence-only (132) test in one right-to-left stack pass."""
    third = 0  # values are positive, 0 acts as minus infinity
    stack = []
    for x in reversed(p):
        if x < third:
            return True
        while stack and stack[-1] < x:
            third = stack.pop()
        stack.append(x)
    return False


def avoiders_by_filter(n):
    """The (132)-avoiding permutations of 1..n by filtering all n!, in lexicographic order."""
    return [p for p in permutations(range(1, n + 1)) if not contains_132(p)]


def increasing_subsets_by_scan(p, k):
    """Value sets of length-k increasing patterns, by scanning all C(n, k) index sets."""
    return {
        frozenset(p[i] for i in idxs)
        for idxs in combinations(range(len(p)), k)
        if all(p[idxs[i]] < p[idxs[i + 1]] for i in range(k - 1))
    }


def pattern_polynomial_by_scan(n, k):
    """{pattern count: permutations} over the (132)-avoiders of length n.

    Filters all n! permutations down to the avoiders and counts their length-k
    increasing patterns with the DP counter.  Entirely word-side: no trees.
    """
    from catfrac.perms import count_increasing

    return dict(Counter(count_increasing(p, k) for p in avoiders_by_filter(n)))


def chain_subsets_by_filter(t, k):
    """k-sets of nonroot labels on one root-to-leaf path, by filtering all C(n, k) sets.

    Labels n, n-1, ..., 1 go to the nonroot vertices in preorder, as in
    ``tree_to_perm``.  A set is kept when, sorted by level, each label is an
    ancestor of the next.
    """
    level, ancestors = {}, {}
    next_label = t.n_edges

    def walk(node, depth, above):
        nonlocal next_label
        for child in node.children:
            label = next_label
            next_label -= 1
            level[label], ancestors[label] = depth + 1, above
            walk(child, depth + 1, above | {label})

    walk(t, 0, frozenset())
    out = set()
    for combo in combinations(range(1, t.n_edges + 1), k):
        chain = sorted(combo, key=level.__getitem__)
        if all(chain[i] in ancestors[chain[i + 1]] for i in range(k - 1)):
            out.add(frozenset(combo))
    return out


def dyck_words(n):
    """All length-2n words over {E, N} whose prefixes keep #E >= #N."""

    def rec(e_left, n_left, prefix):
        if e_left == 0 and n_left == 0:
            yield prefix
            return
        if e_left > 0:
            yield from rec(e_left - 1, n_left, prefix + "E")
        if n_left > e_left:
            yield from rec(e_left, n_left - 1, prefix + "N")

    yield from rec(n, n, "")


def first_return_words(n):
    """Bracket words on n edges in canonical order: "(" + u + ")" + v by the edge count of u."""
    words = [[""]]
    for m in range(1, n + 1):
        words.append(["(" + u + ")" + v for i in range(m) for u in words[i] for v in words[m - 1 - i]])
    return words[n]


def column_area(word):
    """Area under a step word: each E step sits at the height of prior N steps."""
    height = 0
    total = 0
    for ch in word:
        if ch == "N":
            height += 1
        else:
            total += height
    return total


def area_via_levels(t):
    """Area of the tree's path from its level sum alone: C(n+1, 2) - level sum."""
    from catfrac.trees import level_sum

    return comb(t.n_edges + 1, 2) - level_sum(t)


def reference_eval_cf(weights, depth, order_z):
    """The continued fraction by its literal bottom-up definition.

    s = 1 below the deepest level, then s = 1/(1 - w_l * s) for l = depth
    down to 1, through ``TruncSeries.mul`` and ``geom_inverse``.  Costs
    ``depth`` series inversions, so keep depth and order small.
    """
    from catfrac.series import Monomial, TruncSeries

    s = TruncSeries(order_z, {Monomial(0, 0, ()): 1})
    for level in range(depth, 0, -1):
        w = TruncSeries(order_z, {weights.weight(level): 1})
        s = w.mul(s).geom_inverse()
    return s


def shift_levels(series, by=1):
    """The series with every level variable v_l relabelled v_(l+by)."""
    from catfrac.series import Monomial, TruncSeries

    if by < 0:
        raise ValueError("shift must be nonnegative")
    pad = (0,) * by
    return TruncSeries(
        series.order_z,
        {(Monomial(m.z_deg, m.q_deg, pad + m.v_degs) if m.v_degs else m): c for m, c in series.terms()},
    )


def substitute_levels(series, weight_of_level):
    """Replace each level variable v_l by the v-free monomial weight_of_level(l).

    Each substituted weight must carry at least one z, so that terms dropped
    by the input's truncation could not reappear below the order.
    """
    from catfrac.series import Monomial, TruncSeries

    out = {}
    for m, c in series.terms():
        z, q = 0 if m.v_degs else m.z_deg, m.q_deg
        for idx, a in enumerate(m.v_degs):
            if not a:
                continue
            w = weight_of_level(idx + 1)
            if w.v_degs:
                raise ValueError("substitution weights must be v-free")
            if w.z_deg < 1:
                raise ValueError("substitution weights must carry a factor of z")
            z += a * w.z_deg
            q += a * w.q_deg
        key = Monomial(z, q, ())
        out[key] = out.get(key, 0) + c
    return TruncSeries(series.order_z, out)


def specialize(series, weights):
    """Substitute each level variable by the weight the preset assigns it."""
    return substitute_levels(series, weights.weight)


def fixed_point_check(order_z):
    """True iff the level-census series T satisfies T = 1/(1 - v1 * T-shifted).

    T-shifted is T with every level variable moved up one level, i.e. the
    same census seen from one level below the root.
    """
    from catfrac.contfrac import LevelWeights, eval_cf
    from catfrac.series import Monomial, TruncSeries

    t = eval_cf(LevelWeights("multivariate"), max(order_z, 1), order_z)
    v1 = TruncSeries(order_z, {Monomial(1, 0, (1,)): 1})
    return v1.mul(shift_levels(t)).geom_inverse() == t


def area_polynomials(max_n):
    """Level-sum polynomials of all trees on n edges, n = 0..max_n, as q-coefficient lists.

    First-subtree recurrence: the root's first child heads a subtree of i
    edges whose i + 1 vertices each sit one level deeper, and the rest of
    the tree has j = n - 1 - i edges, so L_n = sum q^(i+1) L_i L_j.
    """
    polys = [[1]]
    for n in range(1, max_n + 1):
        acc = [0] * (n * (n + 1) // 2 + 1)
        for i in range(n):
            left, right = polys[i], polys[n - 1 - i]
            for a, ca in enumerate(left):
                if ca:
                    for b, cb in enumerate(right):
                        acc[a + b + i + 1] += ca * cb
        polys.append(acc)
    return polys
