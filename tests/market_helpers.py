"""Test helpers over the public model: allocation totals, one agent's
demand set at given prices, the value pass checked against its oracles, and
the lost-opportunity-cost dominance of hull pricing."""

from __future__ import annotations

import numpy as np

from equilab.config import ordered_sum, resolve_tol
from equilab.convexify import PricedMarket
from equilab.demand import DemandSet
from equilab.equilibria import PricingResult, lost_opportunity_cost
from equilab.model import Agent, Allocation, Market

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
