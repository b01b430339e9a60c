"""Market model: validation, acceptance semantics, indicator patterns."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from equilab.market_io import market_volumes
from equilab.model import (Agent, Allocation, BlockBid, HourlyCurveBid, Market,
                           block_components, iter_patterns, pattern_feasible,
                           validate_market)

from market_helpers import checked_values, imbalance, total_value, zero_allocation
from reference_oracles import agent_bundle


def _codes(market):
    return sorted(v.code for v in validate_market(market).violations)


def test_reference_market_validates(four_agent_market):
    assert validate_market(four_agent_market).ok


def test_rejects_empty_market():
    assert "no-agents" in _codes(Market(1, ()))


def test_rejects_zero_commodities():
    mk = Market(0, (Agent("a", (BlockBid("b", 1.0, ()),)),))
    assert "bad-dimension" in _codes(mk)


def test_rejects_duplicate_bid_ids():
    mk = Market(1, (
        Agent("a", (BlockBid("b", 1.0, (1.0,)),)),
        Agent("c", (BlockBid("b", 1.0, (1.0,)),)),
    ))
    assert "duplicate-bid-id" in _codes(mk)


def test_rejects_duplicate_agent_ids(four_agent_market):
    # per-agent values and LOC are keyed by agent id: a reused id would
    # drop an agent from the LOC total (4.0 instead of 7.0 at price 3)
    a1, a2, a3, a4 = four_agent_market.agents
    mk = Market(1, (a1, a2, a3, Agent("a1", a4.bids)))
    report = validate_market(mk)
    assert [v.code for v in report.violations] == ["duplicate-agent-id"]
    assert report.violations[0].message == "agent id 'a1' used more than once"

def test_rejects_out_of_range_hour():
    mk = Market(1, (Agent("a", (HourlyCurveBid("c", 3, ((1.0, 1.0),)),)),))
    assert "bad-hour" in _codes(mk)


def test_rejects_non_finite_values():
    # a NaN or an infinity in a curve point's price or quantity, a block's
    # price or one entry of its profile: one violation, with its message
    for bad in (float("nan"), float("inf"), -float("inf")):
        for points in (((bad, 1.0),), ((1.0, 2.0), (2.0, bad))):
            report = validate_market(Market(1, (Agent("a", (HourlyCurveBid("c", 0, points),)),)))
            assert [(v.code, v.message) for v in report.violations] == [
                ("non-finite", "c: non-finite breakpoint")]
        for block in (BlockBid("b", bad, (1.0, 1.0)), BlockBid("b", 1.0, (1.0, bad))):
            report = validate_market(Market(2, (Agent("a", (block,)),)))
            assert [(v.code, v.message) for v in report.violations] == [
                ("non-finite", "b: non-finite entry")]


def test_names_bad_buy_curve():
    mk = Market(1, (Agent("a", (HourlyCurveBid("c", 0, ((1.0, 1.0), (2.0, 2.0))),)),))
    report = validate_market(mk)
    assert any("non-concave buy curve" in v.message for v in report.violations)


def test_names_bad_sell_curve():
    mk = Market(1, (Agent("a", (HourlyCurveBid("c", 0, ((1.0, -2.0), (2.0, -1.0))),)),))
    report = validate_market(mk)
    assert any("non-convex sell curve" in v.message for v in report.violations)


@pytest.mark.parametrize("points, mode, message", [
    (((1.0, 1.0),), "bogus", "c: unknown curve mode 'bogus'"),
    ((), "stepwise", "c: curve has no points"),
], ids=["unknown-mode", "no-points"])
def test_reports_a_curve_without_shape_as_it_is(points, mode, message):
    # neither error is about the curve's shape, so neither names one
    mk = Market(1, (Agent("a", (HourlyCurveBid("c", 0, points, mode),)),))
    report = validate_market(mk)
    assert [(v.code, v.message) for v in report.violations] == [("bad-curve", message)]


def test_rejects_mar_outside_floor():
    mk = Market(1, (Agent("a", (BlockBid("b", 1.0, (1.0,), mar=0.001),)),))
    assert "bad-mar" in _codes(mk)
    mk = Market(1, (Agent("a", (BlockBid("b", 1.0, (1.0,), mar=1.5),)),))
    assert "bad-mar" in _codes(mk)


def test_rejects_wrong_profile_length():
    mk = Market(2, (Agent("a", (BlockBid("b", 1.0, (1.0,)),)),))
    assert "bad-dimension" in _codes(mk)


@pytest.mark.parametrize("lengths", [(1,), (1, 3)], ids=["short", "cancelling"])
def test_compile_rejects_wrong_profile_length(lengths):
    """A block profile whose length is not K is named when the market is
    compiled, also when a short and a long profile add up to whole rows."""
    blocks = tuple(BlockBid(f"b{j}", 1.0, tuple(float(v) for v in range(1, n + 1)))
                   for j, n in enumerate(lengths))
    market = Market(2, (Agent("a", blocks),))
    assert "bad-dimension" in _codes(market)
    with pytest.raises(ValueError, match="b0: profile has 1 entries, expected 2"):
        market.compiled
    with pytest.raises(ValueError, match="b0: profile has 1 entries, expected 2"):
        market_volumes(market)


def test_rejects_dangling_parent():
    mk = Market(1, (Agent("a", (BlockBid("b", 1.0, (1.0,), parent="ghost"),)),))
    assert "bad-parent" in _codes(mk)


def test_rejects_cross_agent_link():
    mk = Market(1, (
        Agent("a", (BlockBid("b1", 1.0, (1.0,)),)),
        Agent("c", (BlockBid("b2", 1.0, (1.0,), parent="b1"),)),
    ))
    assert "bad-parent" in _codes(mk)


def test_rejects_cross_agent_group():
    mk = Market(1, (
        Agent("a", (BlockBid("a1", 10.0, (1.0,), group="g"),)),
        Agent("b", (BlockBid("b1", 10.0, (1.0,), group="g"),)),
        Agent("s", (HourlyCurveBid("s1", 0, ((1.0, -5.0),)),)),
    ))
    violations = validate_market(mk).violations
    assert [(v.code, v.message, v.bid_ids) for v in violations] == [
        ("bad-group", "b1: group 'g' belongs to another agent", ("b1",))]


def test_rejects_one_sided_loop():
    mk = Market(1, (Agent("a", (
        BlockBid("b1", 1.0, (1.0,), loop="b2"),
        BlockBid("b2", 1.0, (1.0,)),
    )),))
    assert "bad-loop" in _codes(mk)


def test_rejects_parent_cycle():
    mk = Market(1, (Agent("a", (
        BlockBid("b1", 1.0, (1.0,), parent="b2"),
        BlockBid("b2", 1.0, (1.0,), parent="b1"),
    )),))
    assert "link-cycle" in _codes(mk)


# ---------------------------------------------------------------------------
# Acceptance semantics: each case runs through `CompiledMarket.values` and
# its byte comparison with the `agent_value` and `acceptance_feasible` oracles

MAR_AGENT = Agent("a", (BlockBid("b", 10.0, (2.0,), mar=0.5),))


def value(agent, acceptances):
    """The agent's value by the compiled pass, checked against the oracles."""
    return checked_values(Market(1, (agent,)), acceptances)[0]


def feasible(agent, acceptances):
    return value(agent, acceptances) != float("-inf")


def test_block_acceptance_gap_is_infeasible():
    assert feasible(MAR_AGENT, {"b": 0.0})
    assert feasible(MAR_AGENT, {"b": 0.5})
    assert feasible(MAR_AGENT, {"b": 1.0})
    assert not feasible(MAR_AGENT, {"b": 0.25})
    assert not feasible(MAR_AGENT, {"b": 1.2})


def test_curve_acceptance_respects_range():
    agent = Agent("a", (HourlyCurveBid("c", 0, ((2.0, 1.0),)),))
    assert feasible(agent, {"c": 0.7})
    assert not feasible(agent, {"c": 1.5})
    assert not feasible(agent, {"c": -0.5})


def test_exclusive_group_allows_one_member():
    agent = Agent("a", (
        BlockBid("b1", 1.0, (1.0,), group="g"),
        BlockBid("b2", 1.0, (1.0,), group="g"),
    ))
    assert feasible(agent, {"b1": 1.0, "b2": 0.0})
    assert not feasible(agent, {"b1": 1.0, "b2": 1.0})


def test_child_needs_active_parent():
    agent = Agent("a", (
        BlockBid("p", 1.0, (1.0,)),
        BlockBid("c", 1.0, (1.0,), parent="p"),
    ))
    assert feasible(agent, {"p": 1.0, "c": 1.0})
    assert not feasible(agent, {"p": 0.0, "c": 1.0})
    assert feasible(agent, {"p": 1.0, "c": 0.0})


def test_loop_partners_active_together():
    agent = Agent("a", (
        BlockBid("x", 1.0, (1.0,), loop="y"),
        BlockBid("y", 1.0, (1.0,), loop="x"),
    ))
    assert feasible(agent, {"x": 1.0, "y": 1.0})
    assert feasible(agent, {"x": 0.0, "y": 0.0})
    assert not feasible(agent, {"x": 1.0, "y": 0.0})


def test_agent_value_infeasible_is_minus_inf():
    assert value(MAR_AGENT, {"b": 0.3}) == float("-inf")
    assert value(MAR_AGENT, {"b": 0.5}) == pytest.approx(5.0)


def test_agent_value_sums_curves_and_blocks():
    agent = Agent("a", (
        HourlyCurveBid("c", 0, ((4.0, 2.0),)),
        BlockBid("b", -6.0, (-2.0,)),
    ))
    assert value(agent, {"c": 1.5, "b": 1.0}) == pytest.approx(6.0 - 6.0)


def test_agent_bundle_mixes_hours():
    agent = Agent("a", (
        HourlyCurveBid("c", 1, ((4.0, 2.0),)),
        BlockBid("b", 0.0, (1.0, -1.0)),
    ))
    x = agent_bundle(agent, {"c": 2.0, "b": 0.5}, 2)
    assert np.allclose(x, [0.5, 1.5])


def test_allocation_imbalance(four_agent_market):
    alloc = Allocation({"b1": 1.0, "c2": 1.0, "c3": -2.0, "b4": 1.0})
    assert np.allclose(imbalance(alloc, four_agent_market), [0.0])
    assert total_value(alloc, four_agent_market) == pytest.approx(6.0)
    zero = zero_allocation(four_agent_market)
    assert np.allclose(imbalance(zero, four_agent_market), [0.0])


# ---------------------------------------------------------------------------
# Indicator patterns

def test_block_components_union():
    blocks = (
        BlockBid("a", 1.0, (1.0,), group="g"),
        BlockBid("b", 1.0, (1.0,), group="g"),
        BlockBid("c", 1.0, (1.0,), parent="b"),
        BlockBid("d", 1.0, (1.0,)),
    )
    assert block_components(blocks) == [(0, 1, 2), (3,)]


def test_pattern_feasibility_rules():
    blocks = (
        BlockBid("a", 1.0, (1.0,), group="g"),
        BlockBid("b", 1.0, (1.0,), group="g"),
        BlockBid("c", 1.0, (1.0,), parent="a"),
    )
    assert pattern_feasible(blocks, (1, 0, 1))
    assert not pattern_feasible(blocks, (1, 1, 0))
    assert not pattern_feasible(blocks, (0, 1, 1))
    assert pattern_feasible(blocks, (0, 0, 0))


def test_iter_patterns_order_and_filter():
    blocks = (
        BlockBid("x", 1.0, (1.0,), loop="y"),
        BlockBid("y", 1.0, (1.0,), loop="x"),
    )
    assert list(iter_patterns(blocks)) == [(0, 0), (1, 1)]


@given(st.integers(0, 255))
def test_patterns_respect_loops(mask):
    blocks = tuple(
        BlockBid(f"b{i}", 1.0, (1.0,),
                 loop=f"b{i + 1}" if i % 2 == 0 else f"b{i - 1}")
        for i in range(8))
    z = tuple((mask >> i) & 1 for i in range(8))
    assert pattern_feasible(blocks, z) == all(z[2 * j] == z[2 * j + 1]
                                              for j in range(4))
