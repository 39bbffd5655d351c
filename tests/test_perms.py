import pytest
from hypothesis import given, settings, strategies as st

from catfrac.perms import (
    Pattern132Error,
    count_increasing,
    count_increasing_by_length,
    enumerate_132_avoiders,
    format_perm,
    has_132,
    increasing_pattern_subsets,
    increasing_pattern_subsets_by_length,
    parse_perm,
    perm_to_tree,
    root_to_leaf_subsets,
    root_to_leaf_subsets_by_length,
    tree_to_perm,
)
from catfrac.trees import binom_level_sum, decode, generate_trees

from conftest import LEAF, small_trees
from oracles import (
    avoiders_by_filter,
    catalan_table,
    chain_subsets_by_filter,
    contains_132,
    increasing_subsets_by_scan,
    naive_count_increasing,
    naive_has_132,
    prefix_min_132_witness,
)

CHAIN3 = decode("((()))")
STAR3 = decode("()()()")


def permutation_words(max_n):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


perm_words = permutation_words(7)


class TestTreeToPerm:
    def test_chain_gives_identity(self):
        assert tree_to_perm(CHAIN3) == (1, 2, 3)

    def test_star_gives_reversal(self):
        assert tree_to_perm(STAR3) == (3, 2, 1)

    def test_bare_root_gives_empty_word(self):
        assert tree_to_perm(LEAF) == ()

    def test_n3_image_misses_exactly_132(self):
        words = {tree_to_perm(t) for t in generate_trees(3)}
        assert words == {(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}

    @given(small_trees())
    def test_output_is_a_permutation(self, t):
        word = tree_to_perm(t)
        assert sorted(word) == list(range(1, len(t) // 2 + 1))

    @given(small_trees())
    def test_image_avoids_132(self, t):
        assert has_132(tree_to_perm(t)) is None


class TestHas132:
    def test_the_pattern_itself(self):
        assert has_132((1, 3, 2)) == (1, 2, 3)

    def test_identity_avoids(self):
        assert has_132((1, 2, 3)) is None

    def test_short_words_avoid(self):
        assert has_132(()) is None
        assert has_132((1,)) is None
        assert has_132((2, 1)) is None

    def test_witness_satisfies_definition(self):
        word = (4, 2, 5, 1, 3)
        triple = has_132(word)
        assert triple is not None
        i, j, k = triple
        assert i < j < k
        assert word[i - 1] < word[k - 1] < word[j - 1]

    @given(perm_words)
    def test_agrees_with_naive_scan(self, word):
        assert (has_132(word) is None) == (naive_has_132(word) is None)

    @given(st.one_of(perm_words, st.lists(st.integers(min_value=1, max_value=5), max_size=10).map(tuple)))
    def test_witness_is_first_j_at_its_prefix_minimum_then_first_k(self, word):
        assert has_132(word) == prefix_min_132_witness(word)

    @given(perm_words)
    def test_fast_filter_agrees(self, word):
        assert contains_132(word) == (naive_has_132(word) is not None)


class TestCountIncreasing:
    def test_identity_has_one_full_pattern(self):
        assert count_increasing((1, 2, 3), 3) == 1

    def test_identity_pairs(self):
        assert count_increasing((1, 2, 3), 2) == 3

    def test_reversal_has_none(self):
        assert count_increasing((3, 2, 1), 2) == 0

    def test_k1_counts_letters(self):
        assert count_increasing((2, 1, 3), 1) == 3

    def test_k_beyond_length(self):
        assert count_increasing((2, 1), 3) == 0
        assert count_increasing((2, 1), 10**9) == 0
        assert count_increasing_by_length((2, 1), 10**9) == {1: 2, 2: 0}
        assert count_increasing_by_length((1, 2, 3), 10**9) == {1: 3, 2: 3, 3: 1}
        assert count_increasing_by_length((), 10**9) == {}

    def test_k_must_be_positive(self):
        for routine in (count_increasing, count_increasing_by_length, increasing_pattern_subsets_by_length):
            with pytest.raises(ValueError):
                routine((1,), 0)

    @settings(deadline=None)
    @given(permutation_words(9))
    def test_agrees_with_subset_scan(self, word):
        # arbitrary words, (132)-containing ones included; one call per bound K gives every k <= K
        expected = {k: naive_count_increasing(word, k) for k in range(1, len(word) + 3)}
        for bound in expected:
            assert count_increasing(word, bound) == expected[bound]
            counts = count_increasing_by_length(word, bound)
            assert [counts.get(k, 0) for k in range(1, bound + 1)] == [expected[k] for k in range(1, bound + 1)]

    @given(perm_words, st.integers(min_value=1, max_value=4))
    def test_subset_collection_has_matching_size(self, word, k):
        assert len(increasing_pattern_subsets(word, k)) == count_increasing(word, k)

    @settings(deadline=None)
    @given(permutation_words(9), st.integers(min_value=1, max_value=6))
    def test_subsets_match_the_index_scan(self, word, k):
        # arbitrary words, (132)-containing ones included
        assert increasing_pattern_subsets(word, k) == increasing_subsets_by_scan(word, k)
        expected = {length: increasing_subsets_by_scan(word, length) for length in range(1, len(word) + 3)}
        for bound in expected:
            found = increasing_pattern_subsets_by_length(word, bound)
            assert all(found.get(length, set()) == expected[length] for length in range(1, bound + 1))


class TestPermToTree:
    def test_identity_gives_chain(self):
        assert perm_to_tree((1, 2, 3)) == CHAIN3

    def test_reversal_gives_star(self):
        assert perm_to_tree((3, 2, 1)) == STAR3

    def test_empty_gives_bare_root(self):
        assert perm_to_tree(()) == LEAF

    def test_132_rejected_with_witness(self):
        with pytest.raises(Pattern132Error) as info:
            perm_to_tree((1, 3, 2))
        assert info.value.triple == (1, 2, 3)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            perm_to_tree((1, 1, 2))

    @given(small_trees())
    def test_left_inverse_of_tree_to_perm(self, t):
        assert perm_to_tree(tree_to_perm(t)) == t

    def test_right_inverse_on_avoiders(self):
        for n in range(8):
            for word in enumerate_132_avoiders(n):
                assert tree_to_perm(perm_to_tree(word)) == word


class TestAvoiderEnumeration:
    def test_counts_follow_catalan(self):
        table = catalan_table(8)
        for n in range(9):
            assert len(list(enumerate_132_avoiders(n))) == table[n]

    def test_image_equals_avoider_set(self):
        for n in range(9):
            image = {tree_to_perm(t) for t in generate_trees(n)}
            assert image == set(enumerate_132_avoiders(n))

    def test_matches_naive_filter(self):
        from itertools import permutations

        for n in range(7):
            naive = {p for p in permutations(range(1, n + 1)) if naive_has_132(p) is None}
            assert set(enumerate_132_avoiders(n)) == naive

    def test_prefix_search_lists_the_filter_oracle_exactly(self):
        for n in range(10):
            assert list(enumerate_132_avoiders(n)) == avoiders_by_filter(n), n


class TestTreePatternStatistics:
    def test_chain_k3(self):
        assert binom_level_sum(CHAIN3, 3) == 1

    def test_star_k3(self):
        assert binom_level_sum(STAR3, 3) == 0

    @given(small_trees())
    def test_k1_counts_edges(self, t):
        assert binom_level_sum(t, 1) == len(t) // 2
        assert len(root_to_leaf_subsets(t, 1)) == len(t) // 2

    def test_chain_subsets_k2(self):
        assert len(root_to_leaf_subsets(CHAIN3, 2)) == 3

    def test_star_subsets_k2(self):
        assert len(root_to_leaf_subsets(STAR3, 2)) == 0

    @settings(deadline=None)
    @given(small_trees(max_edges=7), st.integers(min_value=1, max_value=5))
    def test_three_routes_agree(self, t, k):
        by_word = count_increasing(tree_to_perm(t), k)
        assert by_word == binom_level_sum(t, k) == len(root_to_leaf_subsets(t, k))

    @settings(deadline=None)
    @given(small_trees(max_edges=6), st.integers(min_value=1, max_value=4))
    def test_subsets_match_as_sets(self, t, k):
        assert increasing_pattern_subsets(tree_to_perm(t), k) == root_to_leaf_subsets(t, k)

    def test_subsets_match_the_filter_oracle(self):
        for n in range(9):
            for t in generate_trees(n):
                expected = {k: chain_subsets_by_filter(t, k) for k in range(1, n + 3)}
                for bound in expected:
                    assert root_to_leaf_subsets(t, bound) == expected[bound], (t, bound)
                    found = root_to_leaf_subsets_by_length(t, bound)
                    assert all(found.get(k, set()) == expected[k] for k in range(1, bound + 1)), (t, bound)

    def test_huge_k_gives_no_subsets_at_once(self):
        assert root_to_leaf_subsets(CHAIN3, 10**9) == set()
        assert increasing_pattern_subsets((1, 2, 3), 10**9) == set()
        # the one-pass forms stop at the edge count
        assert sorted(root_to_leaf_subsets_by_length(CHAIN3, 10**9)) == [1, 2, 3]
        assert root_to_leaf_subsets_by_length(STAR3, 10**9)[3] == set()
        assert root_to_leaf_subsets_by_length(LEAF, 10**9) == {}
        assert sorted(increasing_pattern_subsets_by_length((1, 2, 3), 10**9)) == [1, 2, 3]

    def test_ten_thousand_edge_chain_singletons(self):
        n = 10_000
        chain = decode("(" * n + ")" * n)
        singletons = {frozenset({label}) for label in range(1, n + 1)}
        assert root_to_leaf_subsets(chain, 1) == singletons
        assert increasing_pattern_subsets(tree_to_perm(chain), 1) == singletons


class TestParsing:
    def test_space_separated(self):
        assert parse_perm("3 1 2") == (3, 1, 2)

    def test_comma_separated(self):
        assert parse_perm("3,1,2") == (3, 1, 2)

    @pytest.mark.parametrize("text", ["1\n2", "1\r\n2", "1 2"])
    def test_any_whitespace_separates(self, text):
        assert parse_perm(text) == (1, 2)

    def test_leading_comma_keeps_digits_together(self):
        with pytest.raises(ValueError, match="not a permutation of 1..1"):
            parse_perm(",12")

    def test_contiguous_digits(self):
        assert parse_perm("312") == (3, 1, 2)

    def test_empty(self):
        assert parse_perm("") == ()

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_perm("3 a 2")

    @pytest.mark.parametrize("text", ["1_0", "+1 2", "-1 2", "1 +2", "\u0661\u0662", "\uff11\uff12", "1 \u0662"])
    def test_only_ascii_digits_are_numbers(self, text):
        # int() reads every one of these as a number
        with pytest.raises(ValueError, match="cannot parse permutation word"):
            parse_perm(text)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            parse_perm("1 2 2")

    def test_format_round_trip(self):
        assert parse_perm(format_perm((2, 1, 3))) == (2, 1, 3)
