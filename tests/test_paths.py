from itertools import product
from math import comb

import pytest
from hypothesis import given

from catfrac.paths import (
    PathParseError,
    area,
    generate_paths,
    parse_path,
    path_to_tree,
    tree_to_path,
)
from catfrac.trees import TreeParseError, decode, generate_trees, level_sum

from conftest import LEAF, small_trees
from oracles import area_via_levels, catalan_table, column_area, dyck_words

CHAIN3 = decode("((()))")
STAR3 = decode("()()()")


class TestDyckPath:
    def test_valid_construction(self):
        assert parse_path("EENN") == "EENN"

    def test_empty_path(self):
        assert parse_path("") == ""

    def test_rising_above_diagonal_reports_prefix(self):
        with pytest.raises(PathParseError, match="step 2") as info:
            parse_path("ENNE")
        assert info.value.position == 2

    def test_unbalanced_rejected(self):
        with pytest.raises(PathParseError):
            parse_path("EEN")

    def test_alien_step_rejected(self):
        with pytest.raises(PathParseError, match="'X'"):
            parse_path("EXEN")

    def test_parse_aliases_normalize(self):
        assert parse_path("RURU") == "ENEN"
        assert parse_path("1010") == "ENEN"
        assert parse_path("en EN") == "ENEN"

    def test_producers_return_plain_words(self):
        assert type(tree_to_path(CHAIN3)) is str
        assert type(parse_path("R U")) is str
        assert {type(p) for p in generate_paths(3)} == {str}

    def test_alphabet_is_checked_before_the_diagonal(self):
        with pytest.raises(PathParseError) as info:
            parse_path("NX")
        assert str(info.value) == "unexpected step 'X' at step 1"

    def test_unbalanced_end_is_just_past_the_last_step(self):
        with pytest.raises(PathParseError) as info:
            parse_path("EEN  ")
        assert str(info.value) == "unbalanced path: 1 more E than N steps at step 3"

    def test_path_error_is_a_tree_error_that_names_the_step(self):
        cases = [
            ("EXEN", "unexpected step 'X'", 1),
            ("ENNE", "path rises above the diagonal", 2),
            ("EEN  ", "unbalanced path: 1 more E than N steps", 3),
        ]
        for text, reason, position in cases:
            with pytest.raises(TreeParseError) as info:
                parse_path(text)
            assert type(info.value) is PathParseError
            assert (info.value.reason, info.value.position) == (reason, position)
            assert str(info.value) == f"{reason} at step {position}"

    def test_agrees_with_the_tree_decoder(self):
        # parse_path is the check of outside input, decode the check of every tree word
        to_brackets = str.maketrans("EN", "()")
        for length in range(11):
            for letters in product("EN", repeat=length):
                word = "".join(letters)
                try:
                    parsed = parse_path(word)
                except PathParseError as exc:
                    with pytest.raises(TreeParseError) as info:
                        decode(word.translate(to_brackets))
                    assert info.value.position == exc.position, word
                else:
                    assert parsed == word
                    decode(word.translate(to_brackets))


class TestBijection:
    def test_chain_maps_to_all_east_then_north(self):
        assert tree_to_path(CHAIN3) == "EEENNN"

    def test_star_alternates(self):
        assert tree_to_path(STAR3) == "ENENEN"

    def test_bare_root_maps_to_empty(self):
        assert tree_to_path(LEAF) == ""

    def test_inverse_examples(self):
        assert path_to_tree("EEENNN") == CHAIN3
        assert path_to_tree("ENENEN") == STAR3
        assert path_to_tree("EENN") == decode("(())")

    @given(small_trees())
    def test_round_trip_from_trees(self, t):
        assert path_to_tree(tree_to_path(t)) == t

    def test_round_trip_from_paths(self):
        for n in range(8):
            for p in generate_paths(n):
                assert tree_to_path(path_to_tree(p)) == p

    def test_path_lengths(self):
        for t in generate_trees(5):
            assert len(tree_to_path(t)) == 10


class TestArea:
    def test_flat_path_has_zero_area(self):
        assert area("EEENNN") == 0

    def test_staircase_area(self):
        assert area("ENENEN") == 3

    def test_semilength_two_polynomial(self):
        assert area("EENN") == 0
        assert area("ENEN") == 1

    def test_against_column_sum_oracle(self):
        for n in range(8):
            for word in dyck_words(n):
                assert area(word) == column_area(word)

    def test_bounds_and_extremes(self):
        for n in range(9):
            areas = [area(p) for p in generate_paths(n)]
            assert min(areas) == 0
            assert max(areas) == comb(n, 2)
        # by construction: the chain is flat, the star is the full staircase
        assert area(tree_to_path(CHAIN3)) == 0
        assert area(tree_to_path(STAR3)) == comb(3, 2)


class TestAreaViaLevels:
    def test_chain(self):
        assert area_via_levels(CHAIN3) == comb(4, 2) - 6 == 0

    def test_star(self):
        assert area_via_levels(STAR3) == 6 - 3 == 3

    def test_bare_root(self):
        assert area_via_levels(LEAF) == 0

    @given(small_trees())
    def test_matches_direct_area(self, t):
        assert area_via_levels(t) == area(tree_to_path(t))

    def test_exhaustive_small(self):
        for n in range(9):
            for t in generate_trees(n):
                assert area(tree_to_path(t)) == comb(n + 1, 2) - level_sum(t)


class TestGeneratePaths:
    def test_counts_follow_catalan(self):
        table = catalan_table(9)
        for n in range(10):
            assert sum(1 for _ in generate_paths(n)) == table[n]

    def test_same_set_as_oracle_generator(self):
        for n in range(7):
            ours = set(generate_paths(n))
            oracle = set(dyck_words(n))
            assert ours == oracle
