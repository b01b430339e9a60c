"""Market and outcome serialization: round trips, determinism, errors."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.market_io import (MarketParseError, OutcomeReport, emit_market,
                               emit_outcome, figure_data, load_market,
                               market_volumes, parse_market, parse_outcome,
                               save_market)
from equilab.model import HourlyCurveBid, validate_market

from market_corpus import random_market
from reference_oracles import reference_market_volumes


def test_fixture_csv_loads(four_agent_market, fixture_dir):
    market = load_market(fixture_dir / "four_agent.csv")
    assert market == four_agent_market


def test_fixture_json_loads(four_agent_market, fixture_dir):
    market = load_market(fixture_dir / "four_agent.json")
    assert market == four_agent_market


def test_format_sniffing(four_agent_market):
    csv_text = emit_market(four_agent_market, "csv")
    json_text = emit_market(four_agent_market, "json")
    assert parse_market(csv_text) == four_agent_market
    assert parse_market(json_text) == four_agent_market


def test_round_trip_identity(four_agent_market):
    for fmt in ("csv", "json"):
        text = emit_market(four_agent_market, fmt)
        again = emit_market(parse_market(text), fmt)
        assert text == again


def test_save_load_round_trip(four_agent_market, tmp_path):
    for name in ("m.csv", "m.json"):
        path = tmp_path / name
        save_market(four_agent_market, path)
        assert load_market(path) == four_agent_market


def test_parse_error_cites_line():
    bad = "header,1,EUR,MW,x\ncurve,a,c,1,stepwise,oops,2\n"
    with pytest.raises(MarketParseError, match="line 2"):
        parse_market(bad)


def test_parse_error_unknown_row():
    bad = "header,1,EUR,MW,x\nwat,1,2\n"
    with pytest.raises(MarketParseError):
        parse_market(bad)


def test_parse_error_bad_hour():
    bad = "header,1,EUR,MW,x\ncurve,a,c,9,stepwise,1.0,2.0\n"
    with pytest.raises(MarketParseError):
        parse_market(bad)


def test_parse_is_structural_validation_is_separate():
    # shape problems parse fine and surface through validate_market instead
    bad = ("header,1,EUR,MW,x\n"
           "curve,a,c,1,stepwise,1.0,1.0\n"
           "curve,a,c,1,stepwise,2.0,2.0\n")
    market = parse_market(bad)
    assert "bad-curve" in {v.code for v in validate_market(market).violations}


def test_json_rejects_garbage():
    with pytest.raises(MarketParseError):
        parse_market("{\"agents\": 3}")


def test_volumes(four_agent_market):
    convex, nonconvex = market_volumes(four_agent_market)
    assert convex == pytest.approx(3.0)    # curve spans 1 + 2
    assert nonconvex == pytest.approx(5.0) # |3| + |-2|


def scaled(market, rng):
    """`market` with each bid's quantities times a random factor of its own,
    so that the volume sums round."""
    def bid_scaled(bid):
        f = float(rng.uniform(0.3, 3.0))
        if isinstance(bid, HourlyCurveBid):
            return replace(bid, points=tuple((p, f * q) for p, q in bid.points))
        return replace(bid, quantity=tuple(f * v for v in bid.quantity))
    return replace(market, agents=tuple(replace(a, bids=tuple(map(bid_scaled, a.bids)))
                                        for a in market.agents))


def volume_bytes(volumes):
    return tuple(float(v).hex() for v in volumes)


@pytest.mark.parametrize("name", ["four_agent.csv", "four_agent.json", "structured.csv",
                                  "tied_cost.json", "two_hour_block.csv"])
def test_fixture_volumes_are_the_bid_walks(fixture_dir, name):
    market = load_market(fixture_dir / name)
    assert volume_bytes(market_volumes(market)) == \
        volume_bytes(reference_market_volumes(market))


@pytest.mark.parametrize("K", [1, 2, 4, 24])
def test_corpus_volumes_are_the_bid_walks(K):
    """Bit for bit, on corpus markets and on the same markets rescaled."""
    rng = np.random.default_rng(K)
    many_blocks = many_steps = False
    for _ in range(40):
        market = random_market(rng, K=K)
        for m in (market, scaled(market, rng)):
            assert validate_market(m).ok
            assert volume_bytes(market_volumes(m)) == volume_bytes(reference_market_volumes(m))
        many_blocks |= any(len(a.block_bids) > 1 for a in market.agents)
        many_steps |= any(len(b.steps) > 1 for a in market.agents for b in a.curve_bids)
    assert many_blocks and many_steps


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_market_round_trip(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 4)))
    for fmt in ("csv", "json"):
        text = emit_market(market, fmt)
        back = parse_market(text)
        assert back == market
        assert validate_market(back).ok
        assert emit_market(back, fmt) == text


# ---------------------------------------------------------------------------
# Outcome reports

def _report(**over):
    base = dict(
        label="four-agent", mode="chp", prices=(3.0,),
        acceptances={"b1": 1.0, "c2": 1.0, "c3": -2.0, "b4": 1.0},
        equilibrium=False, welfare=6.0,
        per_agent_value={"a1": 12.0, "a2": 2.0, "a3": -2.0, "a4": -6.0},
        total_loc=1.0,
        per_agent_loc={"a1": 0.0, "a2": 1.0, "a3": 0.0, "a4": 0.0},
        convex_volume=3.0, nonconvex_volume=5.0)
    base.update(over)
    return OutcomeReport(**base)


def test_outcome_round_trip():
    rep = _report()
    text = emit_outcome(rep)
    back = parse_outcome(text)
    assert back == rep
    assert emit_outcome(back) == text


def test_outcome_emit_deterministic_under_key_order():
    a = _report(per_agent_loc={"a1": 0.0, "a2": 1.0, "a3": 0.0, "a4": 0.0})
    b = _report(per_agent_loc={"a4": 0.0, "a3": 0.0, "a2": 1.0, "a1": 0.0})
    assert emit_outcome(a) == emit_outcome(b)


def test_outcome_totals_validated():
    with pytest.raises(ValueError):
        _report(total_loc=2.0)
    with pytest.raises(ValueError):
        _report(welfare=9.0)


@pytest.mark.parametrize("field, value", [("label", None), ("equilibrium", 1),
                                          ("convex_volume", "abc"),
                                          ("nonconvex_volume", True)])
def test_outcome_fields_typed(field, value):
    with pytest.raises(ValueError, match=f"^{field} is not a "):
        _report(**{field: value})
    assert _report(convex_volume=3, nonconvex_volume=float("inf")).convex_volume == 3


def test_outcome_infinite_costs():
    rep = _report(total_loc=float("inf"),
                  per_agent_loc={"a1": float("inf"), "a2": 1.0,
                                 "a3": 0.0, "a4": 0.0})
    back = parse_outcome(emit_outcome(rep))
    assert back.total_loc == float("inf")
    assert back.per_agent_loc["a1"] == float("inf")
    with pytest.raises(ValueError):
        _report(per_agent_loc={"a1": float("inf"), "a2": 1.0,
                               "a3": 0.0, "a4": 0.0})


def test_figure_data_groups_by_label():
    reports = [
        _report(),
        _report(equilibrium=True, total_loc=0.0,
                per_agent_loc={"a1": 0.0, "a2": 0.0, "a3": 0.0, "a4": 0.0}),
        _report(label="other", convex_volume=4.0, nonconvex_volume=0.0),
    ]
    fig = figure_data(reports)
    assert set(fig) == {"four-agent", "other"}
    grp = fig["four-agent"]
    assert grp["count"] == 2
    assert grp["equilibrium_pct"] == pytest.approx(50.0)
    assert grp["median_volume_ratio"] == pytest.approx(3.0 / 5.0)
    assert fig["other"]["median_volume_ratio"] == "inf"
