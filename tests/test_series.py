import pytest
from hypothesis import given, strategies as st

from catfrac.series import Monomial, TruncSeries, TruncationError

from conftest import zq_monomials, zq_series
from oracles import shift_levels, substitute_levels


def zq(z, q=0):
    return Monomial(z, q, ())


def series(order, mapping):
    return TruncSeries(order, {zq(*key) if isinstance(key, tuple) else key: c for key, c in mapping.items()})


def one(order):
    return series(order, {(0, 0): 1})


def plus(a, b):
    """Coefficientwise sum of two series of one order, built from their terms."""
    assert a.order_z == b.order_z
    out = dict(a.terms())
    for m, c in b.terms():
        out[m] = out.get(m, 0) + c
    return TruncSeries(a.order_z, out)


def cut(s, order):
    """The series truncated to a lower order: the constructor drops the higher terms."""
    return TruncSeries(order, dict(s.terms()))


class TestMonomial:
    def test_times_merges_exponents(self):
        assert zq(1, 1).times(zq(1, 2)) == zq(2, 3)
        assert Monomial(1, 0, (1,)).times(Monomial(1, 0, (0, 1))) == Monomial(2, 0, (1, 1))

    def test_canonical_sort_order(self):
        ms = [zq(1, 1), zq(0, 2), zq(1, 0), Monomial(1, 0, (1,))]
        assert sorted(ms) == [zq(0, 2), zq(1, 0), Monomial(1, 0, (1,)), zq(1, 1)]

    def test_trailing_zero_is_kept_as_given(self):
        # no normalising: a caller who builds a monomial strips trailing zeros itself
        assert Monomial(1, 0, (1, 0)).v_degs == (1, 0)
        assert Monomial(1, 0, (1, 0)) != Monomial(1, 0, (1,))
        assert Monomial(1, 0, (1, 0)).times(Monomial(1, 2)) == Monomial(2, 2, (1, 0))


class TestMul:
    def test_exponent_addition(self):
        assert series(3, {(1, 1): 1}).mul(series(3, {(1, 2): 1})) == series(3, {(2, 3): 1})

    def test_one_is_identity(self):
        a = series(3, {(0, 0): 1, (3, 2): 5})
        assert a.mul(one(3)) == a

    def test_truncation_discards_high_degrees(self):
        one_plus_z = series(2, {(0, 0): 1, (1, 0): 1})
        one_minus_z = series(2, {(0, 0): 1, (1, 0): -1})
        assert one_plus_z.mul(one_minus_z) == series(2, {(0, 0): 1, (2, 0): -1})
        # every product term lands past the order
        assert series(2, {(2, 0): 1}).mul(series(2, {(1, 0): 1})) == TruncSeries(2)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            series(3, {(1, 0): 1}).mul(series(2, {(1, 0): 1}))

    def test_non_series_operand_rejected(self):
        with pytest.raises(TypeError, match="^expected TruncSeries, got int$"):
            series(3, {(1, 0): 1}).mul(3)


class TestGeomInverse:
    def test_geometric_series_in_z(self):
        s = series(4, {(1, 0): 1})
        assert s.geom_inverse() == series(4, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1})

    def test_zero_input_gives_one(self):
        assert TruncSeries(5).geom_inverse() == one(5)

    def test_geometric_series_in_zq(self):
        s = series(3, {(1, 1): 1})
        assert s.geom_inverse() == series(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})

    def test_cancelled_degree_is_dropped(self):
        # r_2 = z*z - z^2 = 0, so no z^2 group appears
        s = series(4, {(1, 0): 1, (2, 0): -1})
        assert str(s.geom_inverse()) == "1 + z*(1) + z^3*(-1) + z^4*(-1)"

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            series(3, {(0, 0): 1, (1, 0): 1}).geom_inverse()

    @given(zq_series(order_z=4, min_z=1))
    def test_multiplicative_inverse_of_one_minus_s(self, s):
        one_minus_s = TruncSeries(4, {zq(0): 1, **{m: -c for m, c in s.terms()}})
        assert one_minus_s.mul(s.geom_inverse()) == one(4)


class TestCoeff:
    """Coefficients are read by z-degree through ``z_slice``."""

    def test_present_term(self):
        assert series(3, {(0, 0): 1, (1, 1): 2}).z_slice(1) == {zq(1, 1): 2}

    def test_absent_term_is_zero(self):
        assert series(3, {(0, 0): 1, (1, 1): 2}).z_slice(2) == {}

    def test_beyond_order_raises_distinct_error(self):
        with pytest.raises(TruncationError, match="exceeds truncation order 3"):
            series(3, {(0, 0): 1}).z_slice(4)

    def test_truncation_error_is_a_value_error(self):
        assert issubclass(TruncationError, ValueError)


@st.composite
def flat_terms(draw):
    """An order and a flat term map reaching two z-degrees past it, zeros included."""
    order = draw(st.integers(min_value=0, max_value=4))
    terms = draw(st.dictionaries(zq_monomials(max_z=order + 2), st.integers(min_value=-2, max_value=2), max_size=10))
    return order, terms


class TestGradedStore:
    @given(flat_terms())
    def test_slices_hold_exactly_the_kept_terms(self, case):
        order, terms = case
        s = TruncSeries(order, terms)
        assert s == TruncSeries(order, dict(reversed(list(terms.items()))))
        assert s == TruncSeries(order, {m: c for m, c in terms.items() if c and m.z_deg <= order})
        listed = s.terms()
        assert listed == sorted(listed) and all(c for _, c in listed)
        for n in range(order + 1):
            assert list(s.z_slice(n).items()) == [(m, c) for m, c in listed if m.z_deg == n]


class TestRingAxioms:
    @given(zq_series(), zq_series(), zq_series())
    def test_mul_associative_commutative(self, a, b, c):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b) == b.mul(a)

    @given(zq_series(), zq_series(), zq_series())
    def test_distributivity(self, a, b, c):
        assert a.mul(plus(b, c)) == plus(a.mul(b), a.mul(c))


class TestTruncation:
    @given(zq_series(order_z=5), zq_series(order_z=5))
    def test_product_then_truncate_equals_truncate_then_product(self, a, b):
        assert cut(a.mul(b), 3) == cut(a, 3).mul(cut(b, 3))

    @given(zq_series(order_z=5, min_z=1))
    def test_geom_inverse_truncation_consistency(self, s):
        assert cut(s.geom_inverse(), 3) == cut(s, 3).geom_inverse()

    def test_constructor_discards_beyond_order(self):
        assert series(2, {(3, 0): 1}) == TruncSeries(2)


class TestLevels:
    def test_shift_levels(self):
        s = TruncSeries(3, {Monomial(1, 0, (1,)): 1, Monomial(0, 0, ()): 1})
        shifted = shift_levels(s, 1)
        assert shifted == TruncSeries(3, {Monomial(1, 0, (0, 1)): 1, Monomial(0, 0, ()): 1})

    def test_substitute_levels_to_z(self):
        s = TruncSeries(3, {Monomial(2, 0, (1, 1)): 3, Monomial(2, 0, (2,)): 1})
        out = substitute_levels(s, lambda level: Monomial(1, 0, ()))
        assert out == series(3, {(2, 0): 4})

    def test_substitute_levels_with_q_weights(self):
        s = TruncSeries(3, {Monomial(2, 0, (1, 1)): 1})
        out = substitute_levels(s, lambda level: Monomial(1, level, ()))
        assert out == series(3, {(2, 3): 1})

    def test_substitute_rejects_v_weights(self):
        s = TruncSeries(3, {Monomial(1, 0, (1,)): 1})
        with pytest.raises(ValueError):
            substitute_levels(s, lambda level: Monomial(1, 0, (0,) * (level - 1) + (1,)))


class TestRendering:
    def test_grouped_rendering_matches_convention(self):
        s = series(3, {(0, 0): 1, (3, 0): 4, (3, 1): 1})
        assert str(s) == "1 + z^3*(4 + q)"

    def test_zero_series(self):
        assert str(TruncSeries(2)) == "0"

    def test_negative_coefficients(self):
        s = series(2, {(0, 0): 1, (2, 0): -1, (2, 2): -3})
        assert str(s) == "1 + z^2*(-1 - 3*q^2)"

    def test_multivariate_rendering_uses_level_variables(self):
        s = TruncSeries(3, {Monomial(3, 0, (2, 1)): 2, Monomial(2, 0, (1, 1)): 1})
        assert str(s) == "z^2*(v1*v2) + z^3*(2*v1^2*v2)"

    def test_json_records_use_decimal_strings(self):
        s = TruncSeries(2, {Monomial(2, 0, (1, 1)): 10**25, Monomial(0, 0, ()): 1})
        assert s.term_records() == [
            {"z": 0, "q": 0, "v": [], "coeff": "1"},
            {"z": 2, "q": 0, "v": [1, 1], "coeff": "10000000000000000000000000"},
        ]

    def test_records_sorted_canonically(self):
        s = series(2, {(2, 0): 1, (0, 0): 1, (1, 3): 1})
        assert [r["z"] for r in s.term_records()] == [0, 1, 2]


class TestImmutability:
    def test_attributes_frozen(self):
        s = one(2)
        with pytest.raises(AttributeError):
            s.order_z = 5

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(TruncSeries(3))

    def test_terms_accessor_returns_copy(self):
        s = series(2, {(1, 0): 1})
        s.terms().clear()
        assert s == series(2, {(1, 0): 1})
