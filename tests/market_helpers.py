"""Test helpers over the public model: allocation totals and one agent's
demand set at given prices."""

from __future__ import annotations

import numpy as np

from equilab.convexify import PricedMarket
from equilab.demand import DemandSet
from equilab.model import Agent, Allocation, Market, agent_value


def imbalance(allocation: Allocation, market: Market) -> np.ndarray:
    """Aggregate bundle of the allocation (zero when trade balances)."""
    return allocation.bundles(market).sum(axis=0)


def total_value(allocation: Allocation, market: Market, tol: float | None = None) -> float:
    """Summed bid value of the allocation; -inf if an agent is infeasible."""
    return sum(agent_value(a, allocation.acceptances, tol) for a in market.agents)


def agent_demand_set(agent: Agent, lam, K: int | None = None,
                     tol: float | None = None) -> DemandSet:
    """The demand set of one agent at prices lam, as a one-agent market's."""
    lam = np.asarray(lam, dtype=float)
    market = Market(lam.size if K is None else K, (agent,))
    return PricedMarket(market, lam, tol).demand(0)
