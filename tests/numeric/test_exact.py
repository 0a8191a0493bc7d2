"""Unit tests for the integer scaling layer (repro.numeric.exact)."""

from fractions import Fraction

import pytest

from repro.errors import FlowError
from repro.numeric import (
    INT_SCALE_LIMIT,
    common_denominator,
    fastpath_steps_total,
    fraction_fallbacks_total,
    note_fastpath_steps,
    note_fraction_fallback,
    reset_counters,
    scale_int,
    try_scale,
    unscale,
)


class TestCommonDenominator:
    def test_integers_give_one(self):
        assert common_denominator([1, 2, 300]) == 1

    def test_lcm_of_denominators(self):
        assert common_denominator([Fraction(1, 4), Fraction(1, 6)]) == 12

    def test_empty_batch(self):
        assert common_denominator([]) == 1

    def test_mixed_ints_and_fractions(self):
        assert common_denominator([3, Fraction(5, 2), Fraction(7, 3)]) == 6


class TestScaleRoundTrip:
    def test_scale_int_is_exact(self):
        den = common_denominator([Fraction(3, 4), Fraction(5, 6)])
        assert scale_int(Fraction(3, 4), den) == 9
        assert scale_int(Fraction(5, 6), den) == 10

    def test_unscale_round_trips(self):
        values = [Fraction(3, 4), Fraction(5, 6), 7, Fraction(-1, 12)]
        scaled = try_scale(values)
        assert scaled is not None
        for v, s in zip(values, scaled.ints):
            assert unscale(s, scaled.denominator) == v

    def test_order_and_sign_preserved(self):
        values = sorted([Fraction(-1, 3), Fraction(0), Fraction(2, 7), 5])
        scaled = try_scale(values)
        assert scaled is not None
        assert list(scaled.ints) == sorted(scaled.ints)
        assert [s > 0 for s in scaled.ints] == [v > 0 for v in values]


class TestGuards:
    def test_huge_denominator_declines(self):
        assert try_scale([Fraction(1, (1 << 70) + 1)]) is None

    def test_huge_magnitude_declines(self):
        assert try_scale([(1 << 70), Fraction(1, 2)]) is None

    def test_limit_is_inclusive_boundary(self):
        assert try_scale([INT_SCALE_LIMIT + 1]) is None
        assert try_scale([INT_SCALE_LIMIT]) is not None

    def test_negative_limit_is_inclusive_boundary(self):
        assert try_scale([3, -INT_SCALE_LIMIT - 1]) is None
        assert try_scale([3, -INT_SCALE_LIMIT]) is not None

    def test_scale_int_rejects_non_multiple(self):
        with pytest.raises(FlowError):
            scale_int(Fraction(1, 3), 4)


class TestIntegerBatches:
    """An all-``int`` batch takes a shortcut; it must answer exactly like
    the general common-denominator path, which ``Fraction(v)`` forces."""

    @pytest.mark.parametrize("values", [
        [], [0], [1, 2, 300], [5, -7, 0, 12], [INT_SCALE_LIMIT, -INT_SCALE_LIMIT],
        [INT_SCALE_LIMIT + 1, 2], [1, -(1 << 70)],
    ])
    def test_matches_the_general_path(self, values):
        fast = try_scale(values)
        general = try_scale([Fraction(v) for v in values])
        if general is None:
            assert fast is None
            return
        assert fast == general
        assert fast.denominator == 1
        assert all(type(i) is int for i in fast.ints)

    def test_result_is_a_fresh_list(self):
        values = [4, 5, 6]
        scaled = try_scale(values)
        assert scaled.ints == values and scaled.ints is not values

    def test_accepts_an_iterator(self):
        assert try_scale(iter([2, 3])) == try_scale([2, 3])
        assert try_scale(iter([2, Fraction(1, 2)])) == try_scale([2, Fraction(1, 2)])


class TestCounters:
    def test_module_counters_always_update(self):
        reset_counters()
        note_fastpath_steps(10)
        note_fastpath_steps(5)
        note_fraction_fallback()
        assert fastpath_steps_total() == 15
        assert fraction_fallbacks_total() == 1
        reset_counters()
        assert fastpath_steps_total() == 0
        assert fraction_fallbacks_total() == 0
