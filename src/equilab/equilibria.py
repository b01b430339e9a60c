"""Equilibrium detection, approximate-equilibrium constructions, pricing.

Three allocations matter at the convexified optimum prices lambda*:

* the vertex LP allocation: balanced, and at most min(number of agents with
  nonconvex demand, number of commodities) agents sit outside their demand
  set;
* its demand-snapped companion: every agent moved to the nearest point of its
  demand set (ties toward zero trade), balanced only up to the sum of the
  largest K nonconvexity measures;
* the exact welfare allocation priced at lambda* (convex-hull pricing): the
  total lost opportunity cost equals the duality gap and is minimal among all
  balanced allocation/price pairs.

Hull pricing decides existence exactly: its total lost opportunity cost is
zero exactly when an equilibrium exists, and then the allocation it prices
is one.

Every agent the snap moves takes its acceptances from
`DemandSet.acceptances`, so it lands on a surplus-maximal indicator pattern
and best-responds at lambda*.  When two surplus-maximal patterns give the
same bundle, the first in the demand set's build order wins.

Every analysis here takes a priced market (`convexify.PricedMarket`),
which carries its market, prices, tolerance and norm: the constructions at
lambda* take the `DualSolution` of `convexify.solve_lp`, and detection and
lost opportunity cost take a market at any prices.  Only
`approximate_equilibria` takes a Market and solves the relaxation itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ordered_sum, vector_norm
from .convexify import DualSolution, PricedMarket, solve_lp
from .demand import NonconvexStats
from .model import Allocation, Market
from .welfare import DEFAULT_NODE_BUDGET, ExactSolution, solve_welfare


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Outcome of checking (prices, allocation) against the two conditions."""

    status: str                      # "exact" | "none"
    lambda_star: tuple[float, ...]
    in_demand: tuple[bool, ...]      # per agent, bundle in demand set
    imbalance: float                 # norm of the aggregate bundle

    @property
    def is_equilibrium(self) -> bool:
        return self.status == "exact"


def detect_equilibrium(priced: PricedMarket, allocation: Allocation) -> EquilibriumCertificate:
    """Exact equilibrium iff every bundle is demanded at the priced market's
    prices and trade balances, in its norm and within its tolerance.

    Containment is decided by value first (`PricedMarket.containment`): an
    agent off a line whose acceptances best-respond at the prices, with a
    lost opportunity cost of exactly 0.0, is demanded without a demand set.
    The allocation's value pass, demand sets and containment checks are
    those kept on `priced` (such as a DualSolution), so they are shared with
    `lost_opportunity_cost` and reused across calls.
    """
    bundles = priced.value_pass(allocation).bundles
    flags = priced.containment(bundles, allocation)
    imbalance = vector_norm(bundles.sum(axis=0), priced.norm)
    scale = 1.0 + float(np.max(np.abs(bundles), initial=0.0))
    ok = all(flags) and imbalance <= priced.tol * scale
    return EquilibriumCertificate("exact" if ok else "none",
                                  tuple(float(v) for v in priced.lambda_star),
                                  tuple(flags), imbalance)


@dataclass
class LpAllocationResult:
    """Vertex allocation of the convexified LP, checked against demand sets."""

    dual: DualSolution
    allocation: Allocation
    violations: int
    violating_agents: tuple[str, ...]
    stats: NonconvexStats


def balanced_lp_allocation(dual: DualSolution) -> LpAllocationResult:
    """Vertex optimum of the convexified LP at its own prices.

    The allocation is balanced by construction.  The number of agents whose
    bundle falls outside their demand set is bounded by min(L, K) where L
    counts agents with nonconvex demand and K the commodities; violating the
    bound would mean the LP solution is not a vertex, so it is asserted.
    """
    market = dual.market
    inside = dual.containment(dual.lp_bundles(), dual.allocation)
    bad = tuple(agent.agent_id for agent, ok in zip(market.agents, inside) if not ok)
    ncs = dual.nonconvex_stats()
    limit = min(ncs.count, market.num_commodities)
    if len(bad) > limit:
        raise AssertionError(f"{len(bad)} agents outside demand, bound is {limit}")
    return LpAllocationResult(dual, dual.allocation, len(bad), bad, ncs)


@dataclass
class SnappedAllocationResult:
    """Demand-consistent allocation built by projecting the LP vertex."""

    dual: DualSolution
    allocation: Allocation
    imbalance: float
    bound: float            # sum of the K largest nonconvexity measures


def demand_snapped_allocation(dual: DualSolution) -> SnappedAllocationResult:
    """Move every agent to the nearest demand point; ties snap toward zero.

    Every agent ends inside its demand set.  Every moved agent lands on a
    surplus-maximal pattern (the first in build order when two give the same
    bundle), so its lost opportunity cost at lambda* is zero.  The aggregate
    imbalance is
    bounded by the sum of the K largest nonconvexity measures (asserted,
    with each LP bundle fed back as a candidate probe so the bound is
    evaluated safely even off the closed-form path).
    """
    t, market = dual.tol, dual.market
    acc: dict[str, float] = dict(dual.allocation.acceptances)
    total = np.zeros(market.num_commodities)
    bundles = dual.lp_bundles()
    for i, (x, inside) in enumerate(zip(bundles, dual.containment(bundles, dual.allocation))):
        if not inside:
            ds = dual.demand(i)
            _, x = ds.nearest(x)
            acc.update(ds.acceptances(x))
        total += x
    imbalance = vector_norm(total, dual.norm)
    bound = dual.nonconvex_stats().top_sum
    if imbalance > bound + t * (1.0 + bound):
        raise AssertionError(
            f"imbalance {imbalance} exceeds nonconvexity bound {bound}")
    return SnappedAllocationResult(dual, Allocation(acc), imbalance, bound)


# ---------------------------------------------------------------------------
# Lost opportunity cost and convex hull pricing

def lost_opportunity_cost(priced: PricedMarket,
                          allocation: Allocation) -> tuple[float, dict, dict]:
    """Total and per-agent surplus shortfall against the best response at the
    priced market's prices, and per agent its value at the allocation.

    The value is -inf, and the shortfall infinite, for agents whose
    acceptances are outside their true feasible set (within the priced
    market's tolerance).  The best surpluses and the allocation's value pass
    (`PricedMarket.value_pass`) are those kept on `priced` (such as a
    DualSolution), so they are shared with `detect_equilibrium`.
    """
    agents = priced.market.agents
    vp = priced.value_pass(allocation)
    per_agent = {agent.agent_id: max(0.0, short) for agent, short in zip(agents, vp.shortfall)}
    return (ordered_sum(per_agent.values()), per_agent,
            {agent.agent_id: val for agent, val in zip(agents, vp.values)})


@dataclass
class PricingResult:
    """Exact welfare allocation priced at the convexified optimum prices."""

    lambda_star: tuple[float, ...]
    allocation: Allocation
    exact: ExactSolution
    dual: DualSolution
    total_loc: float
    per_agent_loc: dict
    per_agent_value: dict
    certificate: EquilibriumCertificate

    @property
    def duality_gap(self) -> float:
        return self.dual.dual_objective - self.exact.welfare


def convex_hull_pricing(dual: DualSolution, *,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> PricingResult:
    """Price the exact welfare allocation at lambda*.

    The total lost opportunity cost equals the gap between the convexified
    dual value and the exact welfare (asserted), and it is zero exactly when
    an equilibrium exists.
    """
    exact = solve_welfare(dual, node_budget)
    total, per_agent, values = lost_opportunity_cost(dual, exact.allocation)
    gap = dual.dual_objective - exact.welfare
    scale = 1.0 + abs(dual.dual_objective) + abs(exact.welfare)
    if abs(total - gap) > 1e-6 * scale:
        raise AssertionError(f"pricing loc {total} != duality gap {gap}")
    cert = detect_equilibrium(dual, exact.allocation)
    return PricingResult(tuple(float(v) for v in dual.lambda_star), exact.allocation,
                         exact, dual, total, per_agent, values, cert)


# ---------------------------------------------------------------------------
# Bundled view

@dataclass
class ApproxEquilibria:
    """The three allocations at lambda* with their quality measures."""

    dual: DualSolution
    lp_result: LpAllocationResult
    snapped: SnappedAllocationResult
    pricing: PricingResult

    @property
    def lambda_star(self):
        return self.dual.lambda_star


def approximate_equilibria(market: Market) -> ApproxEquilibria:
    """The three allocations at lambda*, in the default norm and tolerance,
    sharing one solved convexified LP.  For another tolerance, pass
    `solve_lp(market, tol)` to the constructions."""
    dual = solve_lp(market)
    return ApproxEquilibria(dual, balanced_lp_allocation(dual),
                            demand_snapped_allocation(dual),
                            convex_hull_pricing(dual))
