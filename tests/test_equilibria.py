"""Equilibrium detection, approximate allocations, pricing, dominance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.config import ordered_sum, vector_norm
from equilab.convexify import PricedMarket, solve_lp
from equilab.demand import demand_set, nonconvexity
from equilab.equilibria import (approximate_equilibria,
                                balanced_lp_allocation, convex_hull_pricing,
                                demand_snapped_allocation, detect_equilibrium,
                                lost_opportunity_cost,
                                singleton_demand_equilibrium_check)
from equilab.market_io import load_market
from equilab.model import (Agent, Allocation, BlockBid, HourlyCurveBid,
                           Market, validate_market)
from equilab.welfare import solve_welfare

from conftest import FIXTURES
from market_corpus import (cross_agent_parent_market, large_market,
                           random_balanced_allocation, random_market,
                           random_price_vector)
from market_helpers import agent_demand_set, check_loc_dominance, imbalance, zero_allocation
from reference_oracles import aggregate_demand_convexity_check


# ---------------------------------------------------------------------------
# Reference market goldens

def test_reference_has_no_equilibrium(four_agent_market):
    pricing = convex_hull_pricing(solve_lp(four_agent_market))
    assert not pricing.certificate.is_equilibrium
    assert pricing.lambda_star == pytest.approx((3.0,))
    assert pricing.exact.welfare == pytest.approx(6.0)
    assert pricing.duality_gap == pytest.approx(1.0)
    assert pricing.total_loc == pytest.approx(1.0)
    assert pricing.per_agent_loc["a2"] == pytest.approx(1.0)
    for aid in ("a1", "a3", "a4"):
        assert pricing.per_agent_loc[aid] == pytest.approx(0.0)


def test_reference_lp_allocation(four_agent_market):
    res = balanced_lp_allocation(solve_lp(four_agent_market))
    assert res.violations == 1
    assert res.violating_agents == ("a4",)
    assert res.stats.per_agent == pytest.approx((0.0, 0.0, 0.0, 1.0))
    x = res.allocation
    assert x.bundles(four_agent_market)[0][0] == pytest.approx(3.0)
    assert x.bundles(four_agent_market)[3][0] == pytest.approx(-1.0)
    assert np.allclose(imbalance(x, four_agent_market), 0.0, atol=1e-9)


def test_reference_snapped_allocation(four_agent_market):
    res = demand_snapped_allocation(solve_lp(four_agent_market))
    bundles = res.allocation.bundles(four_agent_market)[:, 0].tolist()
    assert bundles == pytest.approx([3.0, 0.0, -2.0, 0.0])
    assert res.imbalance == pytest.approx(1.0)
    assert res.bound == pytest.approx(1.0)
    assert res.imbalance <= res.bound + 1e-9


def test_reference_exact_allocation_in_demand_except_one(four_agent_market):
    pricing = convex_hull_pricing(solve_lp(four_agent_market))
    cert = pricing.certificate
    assert cert.in_demand == (True, False, True, True)
    assert cert.imbalance == pytest.approx(0.0)


def test_detect_equilibrium_positive():
    # convex two-sided market clears exactly
    mk = Market(1, (
        Agent("b", (HourlyCurveBid("cb", 0, ((5.0, 2.0),)),)),
        Agent("s", (HourlyCurveBid("cs", 0, ((1.0, -3.0),)),)),
    ))
    pricing = convex_hull_pricing(solve_lp(mk))
    assert pricing.certificate.is_equilibrium
    assert pricing.total_loc == pytest.approx(0.0)
    assert pricing.duality_gap == pytest.approx(0.0, abs=1e-9)


def test_detect_equilibrium_rejects_imbalance(four_agent_market):
    cert = detect_equilibrium(PricedMarket(four_agent_market, [3.0]),
                              Allocation({"b1": 1.0, "c2": 0.0, "c3": -2.0, "b4": 0.0}))
    assert not cert.is_equilibrium
    assert cert.imbalance == pytest.approx(1.0)
    assert all(cert.in_demand)


def test_loc_of_reference_candidates(four_agent_market):
    # the zero allocation leaves every profitable trade on the table
    at_3 = PricedMarket(four_agent_market, [3.0])
    total, per, _ = lost_opportunity_cost(at_3, zero_allocation(four_agent_market))
    assert total == pytest.approx(7.0)
    assert per["a1"] == pytest.approx(3.0)
    assert per["a3"] == pytest.approx(4.0)
    # infeasible acceptance is infinitely costly
    bad = Allocation({"b1": 0.5, "c2": 0.0, "c3": 0.0, "b4": 0.0})
    total_bad, per_bad, _ = lost_opportunity_cost(at_3, bad)
    assert total_bad == float("inf")
    assert per_bad["a1"] == float("inf")


def test_dominance_on_reference(four_agent_market):
    pricing = convex_hull_pricing(solve_lp(four_agent_market))
    zero = zero_allocation(four_agent_market)
    assert check_loc_dominance(pricing, PricedMarket(four_agent_market, [3.0]), zero)
    assert check_loc_dominance(pricing, PricedMarket(four_agent_market, [0.0]), zero)
    full = Allocation({"b1": 1.0, "c2": 1.0, "c3": -2.0, "b4": 1.0})
    assert check_loc_dominance(pricing, PricedMarket(four_agent_market, [2.0]), full)


def test_singleton_check_inapplicable_on_reference(four_agent_market):
    chk = singleton_demand_equilibrium_check(solve_lp(four_agent_market))
    assert not chk.applies
    assert not chk.equilibrium_found
    assert chk.allocation is None


def test_singleton_check_finds_equilibrium():
    # slack seller pins lambda* at its marginal cost, where the block buyer
    # is strictly in the money: its demand is a single point
    mk = Market(1, (
        Agent("b", (BlockBid("b", 10.0, (2.0,)),)),
        Agent("b2", (HourlyCurveBid("c2", 0, ((4.0, 1.0),)),)),
        Agent("s", (HourlyCurveBid("c", 0, ((1.0, -4.0),)),)),
    ))
    chk = singleton_demand_equilibrium_check(solve_lp(mk))
    assert chk.applies
    assert chk.equilibrium_found
    assert chk.certificate.is_equilibrium
    assert chk.allocation.acceptances == {"b": 1.0, "c2": 1.0, "c": -3.0}


def test_aggregate_convexity_on_reference(four_agent_market):
    chk = aggregate_demand_convexity_check(solve_lp(four_agent_market))
    assert not chk.convex
    assert chk.equilibrium is None
    # aggregate demand at lambda*: {3} + {0} + {-2} + {-2, 0} = {-1, 1}
    assert sorted(chk.intervals) == [(-1.0, -1.0), (1.0, 1.0)]


def test_aggregate_convexity_positive():
    mk = Market(1, (
        Agent("b", (BlockBid("b", 10.0, (2.0,)),)),
        Agent("b2", (HourlyCurveBid("c2", 0, ((4.0, 1.0),)),)),
        Agent("s", (HourlyCurveBid("c", 0, ((1.0, -4.0),)),)),
    ))
    chk = aggregate_demand_convexity_check(solve_lp(mk))
    assert chk.convex
    assert chk.equilibrium is not None
    assert chk.certificate.is_equilibrium


def test_certified_equilibrium_best_responds():
    # b1 is in the money and b2 at the money at lambda* = 5; either one
    # realises the buyer's demand {1}, but only b1 is a best response
    mk = Market(1, (
        Agent("buyer", (BlockBid("b1", 10.0, (1.0,), group="g"),
                        BlockBid("b2", 5.0, (1.0,), group="g"))),
        Agent("seller", (HourlyCurveBid("c", 0, ((5.0, -2.0),)),)),
    ))
    chk = aggregate_demand_convexity_check(solve_lp(mk))
    assert chk.certificate.is_equilibrium
    assert chk.certificate.lambda_star == pytest.approx((5.0,))
    assert chk.equilibrium["b1"] == 1.0
    assert chk.equilibrium["b2"] == 0.0
    total, _, _ = lost_opportunity_cost(PricedMarket(mk, chk.certificate.lambda_star),
                                        chk.equilibrium)
    assert total == pytest.approx(0.0, abs=1e-9)


def test_aggregate_convexity_rejects_multi_commodity():
    mk = Market(2, (Agent("a", (BlockBid("b", 1.0, (1.0, 0.0)),)),))
    dual = solve_lp(mk)
    with pytest.raises(ValueError):
        aggregate_demand_convexity_check(dual)


def test_cross_agent_parent_follows_the_solvers_coupling_rule():
    # block c names a parent of another agent: validation rejects the market,
    # and every solver scopes the link to c's agent and so ignores it; the
    # acceptance rule must agree, or hull pricing reads c's accepted block
    # as infeasible and its lost opportunity cost as infinite
    mk = cross_agent_parent_market()
    assert "bad-parent" in {v.code for v in validate_market(mk).violations}
    assert mk.compiled.parent == [-1, -1]
    assert mk.compiled.values({"p": 0.0, "c": 1.0, "s": -1.0}, 1e-7)[1] == 6.0
    pricing = convex_hull_pricing(solve_lp(mk))
    assert pricing.exact.allocation["c"] == 1.0
    assert pricing.total_loc == pytest.approx(pricing.duality_gap, abs=1e-9)


def test_approximate_equilibria_bundle(four_agent_market):
    res = approximate_equilibria(four_agent_market)
    assert res.lambda_star[0] == pytest.approx(3.0)
    assert res.lp_result.violations == 1
    assert res.snapped.imbalance == pytest.approx(1.0)
    assert res.pricing.total_loc == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Containment by value

def value_rule_settled(market) -> int:
    """Check the value rule on the LP vertex and the exact welfare allocation
    at lambda*: wherever an agent's acceptances are feasible with a
    shortfall of at most 0.0, a demand set built afresh contains its bundle.
    Returns how many (allocation, agent) pairs the rule settled."""
    dual = solve_lp(market)
    settled = 0
    for allocation in (dual.allocation, solve_welfare(dual).allocation):
        vp = dual.value_pass(allocation)
        for i, short in enumerate(vp.shortfall):
            if short <= 0.0:
                assert demand_set(dual, i).contains(vp.bundles[i])
                settled += 1
    return settled


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 4, 24)), st.integers(0, 2 ** 31 - 1))
def test_value_rule_implies_containment_on_the_corpus(K, seed):
    value_rule_settled(random_market(np.random.default_rng((K, seed)), K=K, max_blocks=8))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_value_rule_implies_containment_on_large_markets(seed):
    value_rule_settled(large_market(np.random.default_rng(seed), 12, 24))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_value_rule_implies_containment_on_the_fixtures(name):
    assert value_rule_settled(load_market(FIXTURES / name)) > 0


def test_value_rule_leaves_a_losing_agent_to_its_demand_set(four_agent_market):
    # a2 buys 1 at price 3 with a marginal value of 2: a shortfall of 1
    # proves nothing, so containment asks the geometry, which says no
    dual = solve_lp(four_agent_market)
    allocation = convex_hull_pricing(dual).allocation
    assert dual.value_pass(allocation).shortfall == [0.0, 1.0, 0.0, 0.0]
    assert dual.containment(allocation.bundles(four_agent_market), allocation) == \
        [True, False, True, True]


# ---------------------------------------------------------------------------
# Properties on random markets

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_lp_allocation_violation_bound(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 3)), max_blocks=5)
    res = balanced_lp_allocation(solve_lp(market))
    K = market.num_commodities
    assert res.violations <= min(res.stats.count, K)
    assert np.allclose(imbalance(res.allocation, market), 0.0, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_snap_imbalance_bound(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=int(rng.integers(1, 3)), max_blocks=5)
    res = demand_snapped_allocation(solve_lp(market))
    assert res.imbalance <= res.bound + 1e-7 * (1.0 + res.bound)
    # snapped bundles sit in their demand sets
    lam = res.dual.lambda_star
    for i, agent in enumerate(market.agents):
        ds = agent_demand_set(agent, lam, market.num_commodities, tol=1e-6)
        assert ds.contains(res.allocation.bundles(market)[i])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pricing_gap_identity(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=5)
    pricing = convex_hull_pricing(solve_lp(market))
    scale = 1.0 + abs(pricing.dual.dual_objective) + abs(pricing.exact.welfare)
    assert abs(pricing.total_loc - pricing.duality_gap) <= 1e-6 * scale
    assert pricing.duality_gap >= -1e-8
    # zero gap if and only if the certificate says equilibrium
    if pricing.total_loc <= 1e-9:
        assert pricing.certificate.is_equilibrium


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dominance_over_sampled_pairs(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=4)
    pricing = convex_hull_pricing(solve_lp(market))
    for _ in range(6):
        pair = random_balanced_allocation(market, rng)
        if pair is None:
            continue
        lam = random_price_vector(rng, market)
        assert check_loc_dominance(pricing, PricedMarket(market, lam), pair)
    # the all-zero allocation is always balanced and feasible
    assert check_loc_dominance(
        pricing, PricedMarket(market, random_price_vector(rng, market)),
        zero_allocation(market))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_singleton_check_soundness(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=4)
    chk = singleton_demand_equilibrium_check(solve_lp(market))
    if chk.applies:
        assert chk.equilibrium_found
        assert chk.certificate.is_equilibrium


def test_the_priced_markets_norm_reaches_every_imbalance_and_bound():
    """At K = 2, detection and the snapped allocation measure the imbalance,
    and the snap its bound, in the norm the priced market carries."""
    market = random_market(np.random.default_rng(0), K=2, max_blocks=8)
    unbalanced = demand_snapped_allocation(solve_lp(market)).allocation
    excess = unbalanced.bundles(market).sum(axis=0)
    detected, snapped = {}, {}
    for norm in ("l1", "l2", "linf"):
        priced = PricedMarket(market, solve_lp(market).lambda_star, norm=norm)
        cert = detect_equilibrium(priced, unbalanced)
        assert cert.imbalance == vector_norm(excess, norm) > 0.0
        detected[norm] = cert.imbalance

        dual = solve_lp(market, norm=norm)
        snap = demand_snapped_allocation(dual)
        measures = [nonconvexity(dual.demand(i), norm, probes=(x,))
                    for i, x in enumerate(dual.lp_bundles())]
        assert snap.bound == ordered_sum(sorted(measures, reverse=True)[:2])
        assert snap.imbalance == pytest.approx(
            vector_norm(snap.allocation.bundles(market).sum(axis=0), norm), rel=1e-9)
        snapped[norm] = (snap.imbalance, snap.bound)
    assert len(set(detected.values())) == 3
    assert len({imb for imb, _ in snapped.values()}) == len({b for _, b in snapped.values()}) == 3
    with pytest.raises(ValueError, match="unknown norm"):
        detect_equilibrium(PricedMarket(market, dual.lambda_star, norm="l3"), unbalanced)
    with pytest.raises(ValueError, match="unknown norm"):
        demand_snapped_allocation(solve_lp(market, norm="l3"))
