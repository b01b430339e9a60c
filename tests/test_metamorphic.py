"""Metamorphic properties of the approximate equilibria on corpus markets.

Scaling every money amount by s scales lambda*, welfare and the duality gap
by s; scaling every quantity by r (block totals along) leaves lambda*
unchanged and scales welfare and the gap by r; reversing the agent order
changes nothing.  Exact welfare and the gap must agree within 1e-6 of the
market's welfare scale once the scale is undone.  With the agents reversed
and the prices and acceptances kept, every agent's value and lost
opportunity cost, keyed by agent id, keep their bytes, and so do the
equilibrium verdict and every agent's containment flag, which the value
rule or the demand set's geometry decides.

The Monte Carlo certificate is checked the same way on `market_from_costs`
markets: permuting the suppliers, or scaling every money amount by 10^3 or
10^-3, keeps the verdict of `certified_equilibrium`, and that verdict is the
analytic one, `marginal_supplier_is_convex`.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from equilab.convexify import PricedMarket
from equilab.equilibria import (approximate_equilibria, detect_equilibrium,
                                lost_opportunity_cost)
from equilab.model import BlockBid, Market
from equilab.random_markets import (SimpleRandomMarketSpec, certified_equilibrium,
                                    draw_costs, marginal_supplier_is_convex,
                                    market_from_costs)

from market_corpus import random_market


def rescale(market: Market, money: float = 1.0, quantity: float = 1.0) -> Market:
    """Curve prices times `money`, quantities times `quantity`, block totals both."""
    def bid(b):
        if isinstance(b, BlockBid):
            return dataclasses.replace(b, price=b.price * money * quantity,
                                       quantity=tuple(v * quantity for v in b.quantity))
        return dataclasses.replace(b, points=tuple((p * money, q * quantity)
                                                   for p, q in b.points))
    return dataclasses.replace(market, agents=tuple(
        dataclasses.replace(a, bids=tuple(bid(b) for b in a.bids))
        for a in market.agents))


def reverse_agents(market: Market) -> Market:
    return dataclasses.replace(market, agents=market.agents[::-1])


def welfare_and_gap(market: Market) -> tuple[float, float, float]:
    res = approximate_equilibria(market)
    return (res.pricing.exact.welfare, res.pricing.duality_gap,
            res.dual.primal_value)


def assert_scaled(market: Market, transformed: Market, factor: float) -> None:
    welfare, gap, relaxed = welfare_and_gap(market)
    t_welfare, t_gap, _ = welfare_and_gap(transformed)
    scale = 1.0 + abs(relaxed)
    assert abs(t_welfare / factor - welfare) <= 1e-6 * scale
    assert abs(t_gap / factor - gap) <= 1e-6 * scale


corpus = st.builds(lambda seed, K: random_market(np.random.default_rng(seed), K=K,
                                                 max_blocks=8),
                   st.integers(0, 2 ** 31 - 1), st.sampled_from((1, 2, 4)))


@settings(max_examples=40, deadline=None)
@given(corpus, st.sampled_from((-3, 3)))
def test_money_scaling(market, exponent):
    s = 10.0 ** exponent
    assert_scaled(market, rescale(market, money=s), s)


@settings(max_examples=40, deadline=None)
@given(corpus, st.sampled_from((-2, 2)))
def test_quantity_scaling(market, exponent):
    r = 10.0 ** exponent
    assert_scaled(market, rescale(market, quantity=r), r)


def keyed_bytes(per_agent: dict) -> dict:
    return {agent_id: float(v).hex() for agent_id, v in per_agent.items()}


@settings(max_examples=40, deadline=None)
@given(corpus)
def test_agent_order_reversal(market):
    reversed_market = reverse_agents(market)
    assert_scaled(market, reversed_market, 1.0)
    res = approximate_equilibria(market)
    ids = [a.agent_id for a in market.agents]
    for allocation in (res.dual.allocation, res.snapped.allocation, res.pricing.allocation):
        _, loc, values = lost_opportunity_cost(res.dual, allocation)
        reversed_priced = PricedMarket(reversed_market, res.lambda_star, res.dual.tol)
        _, r_loc, r_values = lost_opportunity_cost(reversed_priced, allocation)
        assert keyed_bytes(r_values) == keyed_bytes(values)
        assert keyed_bytes(r_loc) == keyed_bytes(loc)
        cert = detect_equilibrium(res.dual, allocation)
        r_cert = detect_equilibrium(reversed_priced, allocation)
        assert r_cert.is_equilibrium == cert.is_equilibrium
        assert dict(zip(ids[::-1], r_cert.in_demand)) == dict(zip(ids, cert.in_demand))
    assert res.pricing.certificate == detect_equilibrium(res.dual, res.pricing.allocation)


def monte_carlo_market(seed: int, n: int):
    """A k/n study market with k drawn from 0..n; returns it with its spec and costs."""
    rng = np.random.default_rng(seed)
    spec = SimpleRandomMarketSpec(n, int(rng.integers(0, n + 1)), seed=seed)
    costs = draw_costs(spec, int(rng.integers(1000)))
    return market_from_costs(spec, costs), spec, costs


def assert_same_verdict(market, spec, costs, transformed):
    verdict = certified_equilibrium(market)
    assert verdict == marginal_supplier_is_convex(spec, costs)
    assert certified_equilibrium(transformed) == verdict


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from((5, 40)))
def test_monte_carlo_verdict_survives_permuting_suppliers(seed, n):
    market, spec, costs = monte_carlo_market(seed, n)
    order = np.random.default_rng((seed, 1)).permutation(n) + 1
    permuted = dataclasses.replace(market, agents=(market.agents[0],) + tuple(
        market.agents[j] for j in order))
    assert_same_verdict(market, spec, costs, permuted)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from((5, 40)), st.sampled_from((-3, 3)))
def test_monte_carlo_verdict_survives_money_scaling(seed, n, exponent):
    market, spec, costs = monte_carlo_market(seed, n)
    assert_same_verdict(market, spec, costs, rescale(market, money=10.0 ** exponent))
