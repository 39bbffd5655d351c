from math import comb

import pytest
from hypothesis import given

from catfrac.paths import (
    DyckPath,
    PathParseError,
    area,
    generate_paths,
    parse_path,
    path_to_tree,
    tree_to_path,
)
from catfrac.trees import decode, generate_trees, level_sum

from conftest import LEAF, small_trees
from oracles import area_via_levels, catalan_table, column_area, dyck_words

CHAIN3 = decode("((()))")
STAR3 = decode("()()()")


class TestDyckPath:
    def test_valid_construction(self):
        assert DyckPath("EENN").steps == "EENN"

    def test_empty_path(self):
        assert DyckPath("").steps == ""

    def test_rising_above_diagonal_reports_prefix(self):
        with pytest.raises(PathParseError, match="step 2") as info:
            DyckPath("ENNE")
        assert info.value.position == 2

    def test_unbalanced_rejected(self):
        with pytest.raises(PathParseError):
            DyckPath("EEN")

    def test_alien_step_rejected(self):
        with pytest.raises(PathParseError, match="'X'"):
            DyckPath("EXEN")

    def test_parse_aliases_normalize(self):
        assert parse_path("RURU").steps == "ENEN"
        assert parse_path("1010").steps == "ENEN"
        assert parse_path("en EN").steps == "ENEN"


class TestBijection:
    def test_chain_maps_to_all_east_then_north(self):
        assert tree_to_path(CHAIN3).steps == "EEENNN"

    def test_star_alternates(self):
        assert tree_to_path(STAR3).steps == "ENENEN"

    def test_bare_root_maps_to_empty(self):
        assert tree_to_path(LEAF).steps == ""

    def test_inverse_examples(self):
        assert path_to_tree(DyckPath("EEENNN")) == CHAIN3
        assert path_to_tree(DyckPath("ENENEN")) == STAR3
        assert path_to_tree(DyckPath("EENN")) == decode("(())")

    @given(small_trees())
    def test_round_trip_from_trees(self, t):
        assert path_to_tree(tree_to_path(t)) == t

    def test_round_trip_from_paths(self):
        for n in range(8):
            for p in generate_paths(n):
                assert tree_to_path(path_to_tree(p)) == p

    def test_path_lengths(self):
        for t in generate_trees(5):
            assert len(tree_to_path(t).steps) == 10


class TestArea:
    def test_flat_path_has_zero_area(self):
        assert area(DyckPath("EEENNN")) == 0

    def test_staircase_area(self):
        assert area(DyckPath("ENENEN")) == 3

    def test_semilength_two_polynomial(self):
        assert area(DyckPath("EENN")) == 0
        assert area(DyckPath("ENEN")) == 1

    def test_against_column_sum_oracle(self):
        for n in range(8):
            for word in dyck_words(n):
                assert area(DyckPath(word)) == column_area(word)

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
            ours = {p.steps for p in generate_paths(n)}
            oracle = set(dyck_words(n))
            assert ours == oracle
