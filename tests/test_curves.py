"""Curve canonicalization and the closed-form demand interval, read off a
one-curve market priced by `PricedMarket`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.curves import CurveError, canonical_steps
from equilab.demand import PricedMarket
from equilab.model import Agent, HourlyCurveBid, Market

from reference_oracles import curve_value, quantity_range


def steps_of(points, mode="stepwise"):
    return [(s.lo, s.hi, s.price) for s in canonical_steps(points, mode)]


def priced_curve(points, price, mode="stepwise", tol=None) -> PricedMarket:
    """A market of one curve bid, "c" in hour 0, priced at `price`."""
    bid = HourlyCurveBid("c", 0, tuple(points), mode)
    return PricedMarket(Market(1, (Agent("a", (bid,)),)), [price], tol)


def demand_interval(points, price, mode="stepwise", tol=None):
    return tuple(priced_curve(points, price, mode, tol).curve_interval[0])


def curve_margin(points, price):
    return priced_curve(points, price).money_classes().margins["c"]


def test_single_point_buy():
    assert steps_of([(4.0, 3.0)]) == [(0.0, 3.0, 4.0)]


def test_single_point_sell():
    assert steps_of([(1.0, -2.0)]) == [(-2.0, 0.0, 1.0)]


def test_stepwise_buy_prices_first_units_highest():
    # demand 2 at price 2, only 1 at price 5: first unit worth 5, second 2
    assert steps_of([(2.0, 2.0), (5.0, 1.0)]) == [(0.0, 1.0, 5.0), (1.0, 2.0, 2.0)]


def test_stepwise_sell_prices_later_units_highest():
    # supply 1 at price 1, 2 at price 4: unit costs 1 then 4
    assert steps_of([(1.0, -1.0), (4.0, -2.0)]) == [(-2.0, -1.0, 4.0), (-1.0, 0.0, 1.0)]


def test_straddling_segment_splits_at_zero():
    assert steps_of([(0.0, 2.0), (10.0, -2.0)]) == [(-2.0, 0.0, 10.0), (0.0, 2.0, 0.0)]


def test_interpolated_averages_per_side():
    steps = steps_of([(0.0, 2.0), (10.0, -2.0)], "interpolated")
    # crossing price 5: buy half averages (0+5)/2, sell half (5+10)/2
    assert steps == [(-2.0, 0.0, 7.5), (0.0, 2.0, 2.5)]


def test_interpolated_value_matches_trapezoid_integral():
    steps = canonical_steps([(0.0, 2.0), (10.0, -2.0)], "interpolated")
    assert curve_value(steps, 2.0) == pytest.approx(5.0)
    assert curve_value(steps, -2.0) == pytest.approx(-15.0)


def test_flat_segments_are_dropped():
    assert steps_of([(1.0, 2.0), (3.0, 2.0), (6.0, 1.0)]) == [
        (0.0, 1.0, 6.0), (1.0, 2.0, 3.0)]


def test_rejects_unsorted_prices():
    with pytest.raises(CurveError):
        canonical_steps([(5.0, 1.0), (2.0, 2.0)], "stepwise")


def test_rejects_increasing_quantities():
    with pytest.raises(CurveError):
        canonical_steps([(1.0, 1.0), (2.0, 2.0)], "stepwise")


def test_rejects_unknown_mode():
    with pytest.raises(CurveError):
        canonical_steps([(1.0, 1.0)], "spline")


def test_rejects_empty():
    with pytest.raises(CurveError):
        canonical_steps([], "stepwise")


def test_quantity_range_contains_zero():
    steps = canonical_steps([(2.0, 2.0), (5.0, 1.0)], "stepwise")
    assert quantity_range(steps) == (0.0, 2.0)
    steps = canonical_steps([(1.0, -1.0), (4.0, -2.0)], "stepwise")
    assert quantity_range(steps) == (-2.0, 0.0)


def test_value_is_piecewise_linear_in_quantity():
    steps = canonical_steps([(2.0, 2.0), (5.0, 1.0)], "stepwise")
    assert curve_value(steps, 0.5) == pytest.approx(2.5)
    assert curve_value(steps, 1.0) == pytest.approx(5.0)
    assert curve_value(steps, 1.5) == pytest.approx(6.0)
    assert curve_value(steps, 2.0) == pytest.approx(7.0)


def test_demand_interval_strict_cases():
    steps = [(2.0, 2.0), (5.0, 1.0)]
    assert demand_interval(steps, 1.0) == (2.0, 2.0)
    assert demand_interval(steps, 3.0) == (1.0, 1.0)
    assert demand_interval(steps, 6.0) == (0.0, 0.0)


def test_demand_interval_at_the_money_widens():
    steps = [(2.0, 2.0), (5.0, 1.0)]
    assert demand_interval(steps, 2.0) == (1.0, 2.0)
    assert demand_interval(steps, 5.0) == (0.0, 1.0)


def test_curve_margin_picks_best_unit():
    steps = [(2.0, 2.0), (5.0, 1.0)]
    assert curve_margin(steps, 3.0) == pytest.approx(2.0)
    assert curve_margin(steps, 6.0) == pytest.approx(-1.0)


point_lists = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True),
    st.lists(st.integers(1, 16), min_size=n, max_size=n, unique=True),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from(["stepwise", "interpolated"])))


def _points(prices, quantities, sign, mode):
    prices = sorted(p / 4.0 for p in prices)
    qty = sorted((q / 4.0 for q in quantities), reverse=sign > 0)
    return [(p, sign * q) for p, q in zip(prices, qty)], mode


def _build(*data):
    return canonical_steps(*_points(*data))


@given(point_lists)
def test_marginal_price_nonincreasing_in_quantity(data):
    steps = _build(*data)
    for a, b in zip(steps, steps[1:]):
        assert a.hi <= b.lo + 1e-12
        assert b.price <= a.price + 1e-9


@given(point_lists, st.integers(-50, 200))
@settings(max_examples=200)
def test_demand_interval_matches_dense_scan(data, price_num):
    """The closed form agrees with brute-force surplus maximization."""
    points, mode = _points(*data)
    steps = canonical_steps(points, mode)
    price = price_num / 10.0
    lo, hi = quantity_range(steps)
    xs = np.union1d(np.linspace(lo, hi, 2001),
                    [s.lo for s in steps] + [s.hi for s in steps])
    surplus = np.array([curve_value(steps, x) - price * x for x in xs])
    best = surplus.max()
    opt = xs[surplus >= best - 1e-9]
    priced = priced_curve(points, price, mode, tol=1e-12)
    a, b = priced.curve_interval[0]
    assert a <= opt.min() + 1e-3
    assert b >= opt.max() - 1e-3
    assert best == pytest.approx(priced.best_surplus[0], abs=1e-9)
    # every reported point is optimal
    for x in (a, b, 0.5 * (a + b)):
        assert curve_value(steps, x) - price * x == pytest.approx(best, abs=1e-6)


def exact_steps(steps):
    """Every bit of every step, the sign of a zero included."""
    return [(type(s).__name__, s.lo.hex(), s.hi.hex(), s.price.hex()) for s in steps]


finite = st.floats(-1e9, 1e9, allow_nan=False)


@given(finite, st.one_of(finite, st.sampled_from((0.0, -0.0, 5e-324, -5e-324))),
       st.sampled_from(["stepwise", "interpolated"]))
def test_one_point_curve_gives_the_general_loops_steps(price, quantity, mode):
    # a one-point curve takes a short branch; the same point given twice
    # makes no segment and goes through the general loop, which must agree
    # bit for bit: buys, sells and zero quantities (-0.0 too), in both modes
    one = canonical_steps([(price, quantity)], mode)
    assert exact_steps(one) == exact_steps(canonical_steps([(price, quantity)] * 2, mode))
    assert len(one) == (quantity != 0.0)

