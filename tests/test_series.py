import pytest
from hypothesis import given

from catfrac.series import Monomial, TruncSeries, TruncationError

from conftest import zq_series
from oracles import shift_levels, substitute_levels


def zq(z, q=0):
    return Monomial(z, q, ())


def series(order, mapping):
    return TruncSeries(order, {zq(*key) if isinstance(key, tuple) else key: c for key, c in mapping.items()})


class TestMonomial:
    def test_make_strips_trailing_zeros(self):
        assert Monomial.make(v_degs=(1, 0, 0)) == Monomial(1, 0, (1,))

    def test_make_infers_z_degree_from_levels(self):
        assert Monomial.make(v_degs=(1, 2)) == Monomial(3, 0, (1, 2))

    def test_make_rejects_inconsistent_z(self):
        with pytest.raises(ValueError):
            Monomial.make(z_deg=5, v_degs=(1, 1))

    def test_make_rejects_negative(self):
        with pytest.raises(ValueError):
            Monomial.make(z_deg=-1)

    def test_level_variable(self):
        assert Monomial.level(3) == Monomial(1, 0, (0, 0, 1))

    def test_times_merges_exponents(self):
        assert zq(1, 1).times(zq(1, 2)) == zq(2, 3)
        assert Monomial.level(1).times(Monomial.level(2)) == Monomial(2, 0, (1, 1))

    def test_canonical_sort_order(self):
        ms = [zq(1, 1), zq(0, 2), zq(1, 0), Monomial(1, 0, (1,))]
        assert sorted(ms) == [zq(0, 2), zq(1, 0), Monomial(1, 0, (1,)), zq(1, 1)]


class TestAdd:
    def test_coefficientwise_sum(self):
        a = series(3, {(0, 0): 1, (1, 1): 1})
        b = series(3, {(1, 1): 1})
        assert a + b == series(3, {(0, 0): 1, (1, 1): 2})

    def test_zero_is_identity(self):
        a = series(3, {(2, 1): 7})
        assert a + TruncSeries.zero(3) == a

    def test_cancellation_prunes(self):
        a = series(3, {(2, 3): 1})
        b = series(3, {(2, 3): -1})
        assert a + b == TruncSeries.zero(3)
        assert (a + b).terms() == []

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            series(3, {(1, 0): 1}) + series(4, {(1, 0): 1})


class TestMul:
    def test_exponent_addition(self):
        assert series(3, {(1, 1): 1}) * series(3, {(1, 2): 1}) == series(3, {(2, 3): 1})

    def test_one_is_identity(self):
        a = series(3, {(0, 0): 1, (3, 2): 5})
        assert a * TruncSeries.one(3) == a

    def test_truncation_discards_high_degrees(self):
        one_plus_z = series(2, {(0, 0): 1, (1, 0): 1})
        one_minus_z = series(2, {(0, 0): 1, (1, 0): -1})
        assert one_plus_z * one_minus_z == series(2, {(0, 0): 1, (2, 0): -1})

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            series(3, {(1, 0): 1}) * series(2, {(1, 0): 1})


class TestGeomInverse:
    def test_geometric_series_in_z(self):
        s = series(4, {(1, 0): 1})
        assert s.geom_inverse() == series(4, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1})

    def test_zero_input_gives_one(self):
        assert TruncSeries.zero(5).geom_inverse() == TruncSeries.one(5)

    def test_geometric_series_in_zq(self):
        s = series(3, {(1, 1): 1})
        assert s.geom_inverse() == series(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            series(3, {(0, 0): 1, (1, 0): 1}).geom_inverse()

    @given(zq_series(order_z=4, min_z=1))
    def test_multiplicative_inverse_of_one_minus_s(self, s):
        one_minus_s = TruncSeries.one(4).add(s.scale(-1))
        assert one_minus_s * s.geom_inverse() == TruncSeries.one(4)


class TestCoeff:
    def test_present_term(self):
        assert series(3, {(0, 0): 1, (1, 1): 2}).coeff(zq(1, 1)) == 2

    def test_absent_term_is_zero(self):
        assert series(3, {(0, 0): 1, (1, 1): 2}).coeff(zq(2, 0)) == 0

    def test_beyond_order_raises_distinct_error(self):
        with pytest.raises(TruncationError, match="unknown, not zero"):
            series(3, {(0, 0): 1}).coeff(zq(4, 0))

    def test_truncation_error_is_a_value_error(self):
        assert issubclass(TruncationError, ValueError)


class TestRingAxioms:
    @given(zq_series(), zq_series(), zq_series())
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(zq_series(), zq_series(), zq_series())
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(zq_series(), zq_series(), zq_series())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestTruncation:
    @given(zq_series(order_z=5), zq_series(order_z=5))
    def test_product_then_truncate_equals_truncate_then_product(self, a, b):
        assert (a * b).truncated(3) == a.truncated(3) * b.truncated(3)

    @given(zq_series(order_z=5, min_z=1))
    def test_geom_inverse_truncation_consistency(self, s):
        assert s.geom_inverse().truncated(3) == s.truncated(3).geom_inverse()

    def test_cannot_raise_order(self):
        with pytest.raises(TruncationError):
            TruncSeries.one(3).truncated(4)

    def test_constructor_discards_beyond_order(self):
        assert series(2, {(3, 0): 1}) == TruncSeries.zero(2)


class TestLevels:
    def test_shift_levels(self):
        s = TruncSeries(3, {Monomial.level(1): 1, Monomial(0, 0, ()): 1})
        shifted = shift_levels(s, 1)
        assert shifted == TruncSeries(3, {Monomial.level(2): 1, Monomial(0, 0, ()): 1})

    def test_substitute_levels_to_z(self):
        s = TruncSeries(3, {Monomial(2, 0, (1, 1)): 3, Monomial(2, 0, (2,)): 1})
        out = substitute_levels(s, lambda level: Monomial(1, 0, ()))
        assert out == series(3, {(2, 0): 4})

    def test_substitute_levels_with_q_weights(self):
        s = TruncSeries(3, {Monomial(2, 0, (1, 1)): 1})
        out = substitute_levels(s, lambda level: Monomial(1, level, ()))
        assert out == series(3, {(2, 3): 1})

    def test_substitute_rejects_v_weights(self):
        s = TruncSeries(3, {Monomial.level(1): 1})
        with pytest.raises(ValueError):
            substitute_levels(s, lambda level: Monomial.level(level))


class TestRendering:
    def test_grouped_rendering_matches_convention(self):
        s = series(3, {(0, 0): 1, (3, 0): 4, (3, 1): 1})
        assert str(s) == "1 + z^3*(4 + q)"

    def test_zero_series(self):
        assert str(TruncSeries.zero(2)) == "0"

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
        s = TruncSeries.one(2)
        with pytest.raises(AttributeError):
            s.order_z = 5

    def test_terms_accessor_returns_copy(self):
        s = series(2, {(1, 0): 1})
        s.terms().clear()
        assert s == series(2, {(1, 0): 1})
