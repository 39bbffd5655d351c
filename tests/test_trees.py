from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catfrac.paths import area, parse_path, path_to_tree, tree_to_path
from catfrac.perms import perm_to_tree, tree_to_perm
from catfrac.trees import (
    LANE_MAX_EDGES,
    LaneBatch,
    TreeParseError,
    area_lanes,
    binom_level_sum,
    children,
    decode,
    encode,
    generate_trees,
    lane_batches,
    level_profile,
    level_profile_counts,
    level_sum,
    level_sum_lanes,
)

from conftest import LEAF, random_dyck_words, small_trees
from oracles import catalan_table, first_return_words

CHAIN3 = decode("((()))")
STAR3 = decode("()()()")


class TestGeneration:
    def test_zero_edges_is_the_bare_root(self):
        assert list(generate_trees(0)) == [LEAF]

    def test_five_trees_on_three_edges(self):
        assert len(list(generate_trees(3))) == 5

    def test_counts_follow_catalan_through_n10(self):
        table = catalan_table(10)
        for n in range(11):
            assert sum(1 for _ in generate_trees(n)) == table[n]

    def test_no_duplicates(self):
        for n in range(8):
            trees = list(generate_trees(n))
            assert len(set(trees)) == len(trees)

    def test_canonical_order_at_four_edges(self):
        assert [encode(t) for t in generate_trees(4)] == [
            "()()()()", "()()(())", "()(())()", "()(()())", "()((()))",
            "(())()()", "(())(())", "(()())()", "((()))()",
            "(()()())", "(()(()))", "((())())", "((()()))", "(((())))",
        ]

    def test_order_is_stable_across_calls(self):
        assert list(generate_trees(6)) == list(generate_trees(6))

    def test_streamed_sizes_match_recurrence(self):
        # n=12 goes through the streaming branch
        table = catalan_table(12)
        assert sum(1 for _ in generate_trees(12)) == table[12]

    # one generator builds the cached sizes (n <= 11) and streams the rest
    @pytest.mark.parametrize("n", range(14))
    def test_streamed_sizes_keep_the_first_return_order(self, n):
        assert list(generate_trees(n)) == first_return_words(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(generate_trees(-1))
        with pytest.raises(ValueError, match="edge count must be nonnegative"):
            list(lane_batches(-1))


class TestLevelProfile:
    def test_chain(self):
        assert level_profile(CHAIN3) == (1, 1, 1)

    def test_star(self):
        assert level_profile(STAR3) == (3,)

    def test_bare_root(self):
        assert level_profile(LEAF) == ()

    def test_profile_two_one_occurs_twice_at_n3(self):
        profiles = [level_profile(t) for t in generate_trees(3)]
        assert profiles.count((2, 1)) == 2

    @given(small_trees())
    def test_profile_sums_to_edge_count_no_trailing_zeros(self, t):
        profile = level_profile(t)
        assert sum(profile) == len(t) // 2
        assert not profile or (profile[0] >= 1 and profile[-1] >= 1)


class TestLevelSums:
    def test_chain_level_sum(self):
        assert level_sum(CHAIN3) == 6

    def test_star_level_sum(self):
        assert level_sum(STAR3) == 3

    def test_bare_root_level_sum(self):
        assert level_sum(LEAF) == 0

    @given(small_trees())
    def test_level_sum_consistent_with_profile(self, t):
        profile = level_profile(t)
        assert level_sum(t) == sum((k + 1) * c for k, c in enumerate(profile))

    def test_chain_binom_level_sum_k3(self):
        assert binom_level_sum(CHAIN3, 3) == 1

    def test_star_binom_level_sum_k2(self):
        assert binom_level_sum(STAR3, 2) == 0

    @given(small_trees())
    def test_k1_counts_edges(self, t):
        assert binom_level_sum(t, 1) == len(t) // 2

    @given(small_trees())
    def test_binom_level_sum_consistent_with_profile(self, t):
        profile = level_profile(t)
        for k in (2, 3, 4):
            expected = sum(c * comb(level - 1, k - 1) for level, c in enumerate(profile, start=1))
            assert binom_level_sum(t, k) == expected

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            binom_level_sum(LEAF, 0)

    @given(small_trees())
    def test_sums_match_per_vertex_levels_read_off_the_word(self, t):
        levels = []
        depth = 0
        for ch in encode(t):
            if ch == "(":
                depth += 1
                levels.append(depth)
            else:
                depth -= 1
        assert level_sum(t) == sum(levels)
        for k in (1, 2, 3, 4):
            assert binom_level_sum(t, k) == sum(comb(level - 1, k - 1) for level in levels)


class TestCodec:
    def test_bare_root_is_empty(self):
        assert encode(LEAF) == ""
        assert decode("") == LEAF

    def test_chain_is_nesting(self):
        assert encode(CHAIN3) == "((()))"

    def test_star_is_concatenation(self):
        assert encode(STAR3) == "()()()"

    @given(small_trees())
    def test_round_trip(self, t):
        assert decode(encode(t)) == t

    def test_encodings_are_distinct_and_sized(self):
        for n in range(8):
            codes = [encode(t) for t in generate_trees(n)]
            assert len(set(codes)) == len(codes)
            assert all(len(c) == 2 * n for c in codes)

    def test_child_order_matters(self):
        left = decode("(())()")
        right = decode("()(())")
        assert left != right

    def test_unmatched_close_reports_position(self):
        with pytest.raises(TreeParseError, match="position 2") as info:
            decode("())(")
        assert info.value.position == 2

    def test_unclosed_open_reports_position(self):
        with pytest.raises(TreeParseError):
            decode("((")

    def test_alien_character_reports_position(self):
        with pytest.raises(TreeParseError, match="'x'") as info:
            decode("(x)")
        assert info.value.position == 1


class TestOrderedTree:
    """A tree is the str of its bracket word."""

    def test_producers_return_words(self):
        assert all(type(t) is str and len(t) == 8 for t in generate_trees(4))
        for t in (decode("(())()"), perm_to_tree((2, 3, 1)), path_to_tree(parse_path("EENNEN"))):
            assert type(t) is str and t == "(())()"

    def test_structural_equality(self):
        # children cuts the word at its returns to depth 0
        assert children(LEAF) == ()
        assert children("()()") == (LEAF, LEAF)
        assert children("()(((())))") == (LEAF, CHAIN3)
        assert children(CHAIN3) == ("(())",)


class TestRandomDeepWords:
    @settings(max_examples=40, deadline=None)
    @given(random_dyck_words(max_edges=2000))
    def test_word_children_levels_and_perm_round_trip(self, w):
        t = decode(w)
        assert t == w
        assert "".join("(" + encode(c) + ")" for c in children(t)) == w
        per_level = Counter()
        depth = 0
        for ch in w:
            if ch == "(":
                depth += 1
                per_level[depth] += 1
            else:
                depth -= 1
        assert level_profile(t) == tuple(per_level[level] for level in range(1, len(per_level) + 1))
        assert perm_to_tree(tree_to_perm(t)) == t


@st.composite
def same_size_words(draw, max_edges=LANE_MAX_EDGES):
    """1 to 8 random bracket words, all on the same number of edges."""
    n = draw(st.integers(min_value=0, max_value=max_edges))
    return draw(st.lists(random_dyck_words(n, min_edges=n), min_size=1, max_size=8))


def chain(n):
    return "(" * n + ")" * n


def star(n):
    return "()" * n


class TestLaneScan:
    @settings(max_examples=60, deadline=None)
    @given(same_size_words())
    def test_lanes_equal_the_per_word_scans(self, words):
        batch = LaneBatch(words)
        assert batch.values(level_sum_lanes(batch)) == [level_sum(w) for w in words]
        assert batch.values(area_lanes(batch)) == [area(tree_to_path(w)) for w in words]
        assert list(level_profile_counts(batch).items()) == list(Counter(map(level_profile, words)).items())

    def test_a_22_edge_chain_reads_back_its_level_sum(self):
        # C(23, 2) = 253, the largest level sum a one-byte lane holds
        batch = LaneBatch([chain(22)])
        assert batch.values(level_sum_lanes(batch)) == [253]

    def test_a_23_edge_word_is_refused(self):
        # its chain's level sum C(24, 2) = 276 would carry into the next lane
        with pytest.raises(ValueError, match="at most 22 edges, not 23"):
            LaneBatch([chain(23)])

    @pytest.mark.parametrize("n", [2, 16, 22])
    def test_scans_of_the_star_and_the_chain(self, n):
        batch = LaneBatch([star(n), chain(n)])
        assert batch.values(level_sum_lanes(batch)) == [n, comb(n + 1, 2)]
        assert batch.values(area_lanes(batch)) == [comb(n, 2), 0]
        assert level_profile_counts(batch) == {(n,): 1, (1,) * n: 1}

    def test_the_bare_root(self):
        batch = LaneBatch([""])
        assert batch.values(level_sum_lanes(batch)) == batch.values(area_lanes(batch)) == [0]
        assert level_profile_counts(batch) == {(): 1}
