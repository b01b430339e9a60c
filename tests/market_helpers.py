"""Test helpers over the public model: allocation totals, one agent's
demand set at given prices, the value pass checked against its oracles, the
lost-opportunity-cost dominance of hull pricing, and the tied-cost market
family.

The tied-cost family puts several suppliers at one shared marginal cost so
that they set the price jointly; one convex supplier among them is enough to
make the aggregate demand set convex."""

from __future__ import annotations

import numpy as np

from equilab.config import ordered_sum, resolve_tol
from equilab.convexify import PricedMarket
from equilab.demand import DemandSet
from equilab.equilibria import PricingResult, lost_opportunity_cost
from equilab.model import Agent, Allocation, BlockBid, HourlyCurveBid, Market
from equilab.random_markets import SUPPLIER_CAPACITY

from reference_oracles import acceptance_feasible, agent_value


def imbalance(allocation: Allocation, market: Market) -> np.ndarray:
    """Aggregate bundle of the allocation (zero when trade balances)."""
    return allocation.bundles(market).sum(axis=0)


def total_value(allocation: Allocation, market: Market, tol: float | None = None) -> float:
    """Summed bid value of the allocation; -inf if an agent is infeasible."""
    return ordered_sum(agent_value(a, allocation.acceptances, tol) for a in market.agents)


def zero_allocation(market: Market) -> Allocation:
    """Every bid of the market accepted at 0."""
    return Allocation({b.bid_id: 0.0 for a in market.agents for b in a.bids})


def checked_values(market: Market, acceptances, tol: float | None = None) -> list[float]:
    """Every agent's value by `CompiledMarket.values`, asserted to carry the
    bits of the `agent_value` oracle's float, and to be -inf exactly where
    the `acceptance_feasible` oracle says the acceptances are infeasible."""
    got = market.compiled.values(acceptances, resolve_tol(tol)).tolist()
    want = [agent_value(a, acceptances, tol) for a in market.agents]
    assert [v.hex() for v in got] == [v.hex() for v in want], (got, want)
    assert [v != float("-inf") for v in got] == \
        [acceptance_feasible(a, acceptances, tol) for a in market.agents]
    return got


def check_loc_dominance(pricing: PricingResult, priced: PricedMarket,
                        allocation: Allocation) -> bool:
    """Is the priced exact allocation's total LOC <= the candidate pair's
    (`allocation` at the prices of `priced`, within its tolerance)?

    True for every balanced feasible allocation at any prices; the candidate
    need not be balanced for the comparison to run, but the guarantee is
    stated for balanced ones.
    """
    cand, _, _ = lost_opportunity_cost(priced, allocation)
    return pricing.total_loc <= cand + priced.tol * (1.0 + abs(cand))


def agent_demand_set(agent: Agent, lam, K: int | None = None,
                     tol: float | None = None) -> DemandSet:
    """The demand set of one agent at prices lam, as a one-agent market's."""
    lam = np.asarray(lam, dtype=float)
    market = Market(lam.size if K is None else K, (agent,))
    return PricedMarket(market, lam, tol).demand(0)


def gen_tied_cost_market(num_convex_setters: int, num_nonconvex_setters: int,
                         demand: float, cost: float = 3.0,
                         reservation: float = 20.0) -> Market:
    """All suppliers share one marginal cost and jointly set the price.

    Demand must be positive and below total capacity so the tied cost is
    marginal in the convexified market.
    """
    total = num_convex_setters + num_nonconvex_setters
    if total < 1:
        raise ValueError("need at least one supplier")
    cap = SUPPLIER_CAPACITY
    if not 0.0 < demand < cap * total:
        raise ValueError("demand must lie strictly inside total capacity")
    if reservation <= cost:
        raise ValueError("reservation price must exceed the tied cost")
    agents = [Agent("demand", (HourlyCurveBid(
        "load", 0, ((reservation, demand),)),))]
    for i in range(num_convex_setters):
        agents.append(Agent(f"conv{i}", (HourlyCurveBid(
            f"conv{i}", 0, ((cost, -cap),)),)))
    for i in range(num_nonconvex_setters):
        agents.append(Agent(f"bin{i}", (BlockBid(
            f"bin{i}", -cap * cost, (-cap,)),)))
    return Market(1, tuple(agents),
                  label=f"tied-c{num_convex_setters}-b{num_nonconvex_setters}")
