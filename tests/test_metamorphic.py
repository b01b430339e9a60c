"""Metamorphic properties of the approximate equilibria on corpus markets.

Scaling every money amount by s scales lambda*, welfare and the duality gap
by s; scaling every quantity by r (block totals along) leaves lambda*
unchanged and scales welfare and the gap by r; reversing the agent order
changes nothing.  Exact welfare and the gap must agree within 1e-6 of the
market's welfare scale once the scale is undone.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from equilab.equilibria import approximate_equilibria
from equilab.model import BlockBid, Market

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


@settings(max_examples=40, deadline=None)
@given(corpus)
def test_agent_order_reversal(market):
    assert_scaled(market, reverse_agents(market), 1.0)
