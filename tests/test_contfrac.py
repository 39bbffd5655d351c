import contextlib
import io
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from catfrac import cli
from catfrac.contfrac import AREA, CATALAN, MULTIVARIATE, LevelWeights, eval_cf, increasing
from catfrac.series import Monomial, TruncSeries
from catfrac.trees import binom_profile_sum, generate_trees, level_profile

from conftest import small_trees
from oracles import catalan_table, fixed_point_check, reference_eval_cf, specialize


def zq(z, q=0):
    return Monomial(z, q, ())


def level_monomial(*v_degs):
    """v1^a1 * v2^a2 * ...: one z per level variable, trailing zero degrees dropped."""
    while v_degs and not v_degs[-1]:
        v_degs = v_degs[:-1]
    return Monomial(sum(v_degs), 0, v_degs)


def coeff(s, m):
    """The coefficient of monomial m in s, read off its z-degree slice."""
    return s.z_slice(m.z_deg).get(m, 0)


class TestWeights:
    def test_catalan_weight_is_z_at_every_level(self):
        w = CATALAN
        assert [w.weight(level) for level in (1, 2, 7)] == [zq(1), zq(1), zq(1)]

    def test_increasing_k3_weights(self):
        # exponents C(level-1, 2): 0, 0, 1, 3, 6, ...
        w = increasing(3)
        assert [w.weight(level).q_deg for level in range(1, 7)] == [0, 0, 1, 3, 6, 10]

    def test_increasing_k2_weights_are_level_minus_one(self):
        w = increasing(2)
        assert [w.weight(level).q_deg for level in range(1, 6)] == [0, 1, 2, 3, 4]

    def test_area_weights(self):
        w = AREA
        assert [w.weight(level) for level in (1, 2, 3)] == [zq(1, 1), zq(1, 2), zq(1, 3)]

    def test_multivariate_weights(self):
        w = MULTIVARIATE
        assert [w.weight(level) for level in (1, 2, 3)] == [
            Monomial(1, 0, (1,)),
            Monomial(1, 0, (0, 1)),
            Monomial(1, 0, (0, 0, 1)),
        ]

    def test_increasing_requires_k(self):
        with pytest.raises(ValueError):
            increasing(0)


class TestEvalCF:
    def test_catalan_numbers(self):
        s = eval_cf(CATALAN, 5, 5)
        assert [coeff(s, zq(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_increasing_k3_order3_slice(self):
        s = eval_cf(increasing(3), 3, 3)
        assert s.z_slice(3) == {zq(3, 0): 4, zq(3, 1): 1}

    def test_area_depth2_order2(self):
        s = eval_cf(AREA, 2, 2)
        assert s == TruncSeries(2, {zq(0): 1, zq(1, 1): 1, zq(2, 2): 1, zq(2, 3): 1})

    def test_multivariate_order3_displayed_terms(self):
        s = eval_cf(MULTIVARIATE, 3, 3)
        expected = {
            level_monomial(): 1,
            level_monomial(1): 1,
            level_monomial(1, 1): 1,
            level_monomial(2): 1,
            level_monomial(1, 1, 1): 1,
            level_monomial(2, 1): 2,
            level_monomial(1, 2): 1,
            level_monomial(3): 1,
        }
        assert s == TruncSeries(3, expected)

    def test_level_census_coefficient(self):
        s = eval_cf(MULTIVARIATE, 3, 3)
        assert coeff(s, level_monomial(2, 1)) == 2

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            eval_cf(CATALAN, 0, 3)

    def test_order_zero_is_constant_one(self):
        assert eval_cf(CATALAN, 1, 0) == TruncSeries(0, {zq(0): 1})

    def test_shallow_depth_is_a_partial_evaluation(self):
        # only one level: 1/(1-z) counts one tree per edge count (the chains)
        s = eval_cf(CATALAN, 1, 4)
        assert [coeff(s, zq(n)) for n in range(5)] == [1, 1, 1, 1, 1]

    def test_depth_far_past_order_looks_up_only_the_reachable_levels(self):
        # the order caps the height at 3, so a huge depth builds three weights only
        weights = increasing(3)
        assert eval_cf(weights, 10**8, 3) == eval_cf(weights, 3, 3)

    def test_a_weight_without_exactly_one_z_is_rejected(self):
        # the DP moves one row per up-step, so it would give 1 + z + 2z^2 + 5z^3 + 13z^4, not 1 + z^2 + 2z^4
        z_squared = LevelWeights("z^2", lambda level: Monomial(2, 0, ()))
        with pytest.raises(ValueError) as info:
            eval_cf(z_squared, 3, 4)
        assert str(info.value) == "the weight of level 1 has z-degree 2; eval_cf needs exactly one z"


_PRESETS = [
    CATALAN,
    AREA,
    *(increasing(k) for k in range(1, 7)),
    MULTIVARIATE,
]


class TestAgainstReference:
    """The path DP against the bottom-up loop of series inversions."""

    @pytest.mark.parametrize("weights", _PRESETS, ids=str)
    @pytest.mark.parametrize("order", range(13))
    def test_matches_bottom_up_evaluation(self, weights, order):
        depths = {1, 2, order, order + 3} - {0}
        for depth in sorted(depths):
            assert eval_cf(weights, depth, order) == reference_eval_cf(weights, depth, order), depth


@st.composite
def preset_cases(draw):
    """(weights, depth, order): any preset, order <= 9 and depth <= order + 2."""
    order = draw(st.integers(0, 9))
    depth = draw(st.integers(1, order + 2))
    return draw(st.sampled_from(_PRESETS)), depth, order


class TestPackedExponents:
    """Every exponent digit of the packed cell keys, up to its largest value."""

    @settings(deadline=None, max_examples=150)
    @given(preset_cases())
    def test_presets_match_the_reference(self, case):
        weights, depth, order = case
        s = eval_cf(weights, depth, order)
        assert s == reference_eval_cf(weights, depth, order)
        for m, _ in s.terms():
            assert min(m.z_deg, m.q_deg, *m.v_degs) >= 0
            assert not m.v_degs or (m.v_degs[-1] and m.z_deg == sum(m.v_degs))

    @pytest.mark.parametrize("n", range(9))
    def test_multivariate_monomials_have_no_trailing_zero(self, n):
        # equal monomials compare equal only because every one built here is stripped
        for m, _ in eval_cf(MULTIVARIATE, max(n, 1), n).terms():
            assert not m.v_degs or m.v_degs[-1] != 0

    @pytest.mark.parametrize("order", range(8))
    def test_q_digit_reaches_its_top(self, order):
        # area at depth 1 weighs z*q: the path (ud)^order has q-degree order = Q - 1
        s = eval_cf(AREA, 1, order)
        assert s == TruncSeries(order, {zq(n, n): 1 for n in range(order + 1)})

    @pytest.mark.parametrize("order", range(8))
    def test_level_digits_reach_the_order(self, order):
        # the star has v1^order and the chain v1*v2*...*v_order: top digit and top place
        s = eval_cf(MULTIVARIATE, max(order, 1), order)
        assert coeff(s, level_monomial(order)) == 1
        assert coeff(s, level_monomial(*(1,) * order)) == 1


class _QAndLevelWeights:
    """Duck-typed weights whose monomials carry a q- and a v-exponent: z*q^(l%4)*v_l^(l%2+1)."""

    def weight(self, level):
        return Monomial(1, level % 4, (0,) * (level - 1) + (level % 2 + 1,))


class TestOneBaseKey:
    """q is digit 0 and each v_l a higher digit of one base, so q and v exponents must not mix."""

    @pytest.mark.parametrize("order", range(10))
    def test_q_and_level_exponents_match_the_reference(self, order):
        weights = _QAndLevelWeights()
        for depth in sorted({1, 2, max(order, 1), order + 3}):
            assert eval_cf(weights, depth, order) == reference_eval_cf(weights, depth, order), depth


class TestStability:
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=4))
    def test_depth_saturation_any_depth_past_order(self, order, extra):
        w = AREA
        base = max(order, 1)
        assert eval_cf(w, base, order) == eval_cf(w, base + extra, order)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=4))
    def test_reference_depth_saturation_any_depth_past_order(self, order, extra):
        # eval_cf never climbs past the order, so only the reference can show saturation
        w = AREA
        base = max(order, 1)
        assert reference_eval_cf(w, base, order) == reference_eval_cf(w, base + extra, order)


class TestFixedPoint:
    def test_order_zero_both_sides_one(self):
        assert fixed_point_check(0)

    def test_order_three(self):
        assert fixed_point_check(3)

    def test_order_six(self):
        assert fixed_point_check(6)


class TestSpecialization:
    @pytest.mark.parametrize("order", [0, 1, 4, 7])
    def test_all_levels_to_z_gives_catalan(self, order):
        multi = eval_cf(MULTIVARIATE, max(order, 1), order)
        cat = eval_cf(CATALAN, max(order, 1), order)
        assert specialize(multi, CATALAN) == cat

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_levels_to_binomial_weights_gives_increasing_preset(self, k):
        order = 7
        multi = eval_cf(MULTIVARIATE, order, order)
        direct = eval_cf(increasing(k), order, order)
        assert specialize(multi, increasing(k)) == direct

    def test_levels_to_area_weights_gives_area_preset(self):
        order = 7
        multi = eval_cf(MULTIVARIATE, order, order)
        assert specialize(multi, AREA) == eval_cf(AREA, order, order)


class TestAgainstTreeCensus:
    def test_multivariate_coefficients_count_trees_by_profile(self):
        order = 6
        s = eval_cf(MULTIVARIATE, order, order)
        for n in range(order + 1):
            census = Counter(level_profile(t) for t in generate_trees(n))
            got = {m.v_degs: c for m, c in s.z_slice(n).items()}
            assert got == dict(census)

    def test_catalan_coefficients_match_recurrence(self):
        table = catalan_table(8)
        s = eval_cf(CATALAN, 8, 8)
        assert [coeff(s, zq(n)) for n in range(9)] == table


def _census_monomial(weights, profile):
    """The monomial one tree of this level profile contributes under the preset."""
    n, name = sum(profile), str(weights)
    if name == "multivariate":
        return Monomial(n, 0, profile)
    if name == "area":
        return zq(n, sum(level * c for level, c in enumerate(profile, start=1)))
    if name.startswith("increasing(k="):
        return zq(n, binom_profile_sum(profile, int(name.removeprefix("increasing(k=").removesuffix(")"))))
    return zq(n)


class TestHeightCap:
    """A fraction cut at depth h counts the trees of height <= h (Flajolet 1980)."""

    @pytest.fixture(scope="class")
    def censuses(self):
        return {n: Counter(level_profile(t) for t in generate_trees(n)) for n in range(10)}

    @pytest.mark.parametrize(
        "weights",
        [CATALAN, AREA, increasing(3), MULTIVARIATE],
        ids=str,
    )
    def test_depth_h_slice_is_the_census_of_height_at_most_h(self, weights, censuses):
        for n, census in censuses.items():
            for h in range(1, n + 1):
                expected = Counter()
                for profile, count in census.items():
                    if len(profile) <= h:
                        expected[_census_monomial(weights, profile)] += count
                assert eval_cf(weights, h, n).z_slice(n) == dict(expected), (n, h)


PARITY = LevelWeights("parity", lambda level: Monomial(1, level % 2))


class TestNewPresetIsOneRow:
    """w_l = z*q^(l mod 2): q counts the vertices on odd levels, with no code beyond the row."""

    @pytest.mark.parametrize("order", range(9))
    def test_matches_bottom_up_evaluation(self, order):
        for depth in sorted({1, 2, max(order, 1), order + 3}):
            assert eval_cf(PARITY, depth, order) == reference_eval_cf(PARITY, depth, order), depth

    def test_slices_count_trees_by_odd_level_vertices(self):
        s = eval_cf(PARITY, 10, 10)
        for n in range(11):
            census = Counter(sum(level_profile(t)[::2]) for t in generate_trees(n))
            assert s.z_slice(n) == {zq(n, odd): c for odd, c in census.items()}, n
            if n:  # the Narayana numbers
                assert census == {k: comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)}, n


class TestHugeK:
    """C(level-1, k-1) weights for k up to 10^12: a level below k weighs z alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**12), st.integers(0, 8), small_trees())
    def test_increasing_weights_at_any_k(self, k, order, t):
        s = eval_cf(increasing(k), max(order, 1), order)
        catalan = catalan_table(order)
        for n in range(order + 1):
            terms = s.z_slice(n)
            assert sum(terms.values()) == catalan[n]
            if k > order:
                assert [m.q_deg for m in terms] == [0]
            if k == 1:
                assert [m.q_deg for m in terms] == [n]
        profile = level_profile(t)
        if k > len(profile):
            assert binom_profile_sum(profile, k) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["series", "--weights", f"k={k}", "--order", str(order)]) == 0
