"""Synthetic single-commodity market families and Monte Carlo studies.

The simple random family has k convex suppliers producing anywhere in [0, 2],
n - k all-or-nothing suppliers producing 0 or 2, and an inelastic demand, 5
units by default.  Costs are iid continuous, so the ceil(demand / 2)-th
cheapest supplier (the third at demand 5) sets the price and an equilibrium
exists exactly when that supplier is convex, which happens with probability
k / n.  The exception is a demand that is a whole multiple of the capacity 2:
the demand / 2 cheapest suppliers then run at full output, any price between
the last of their costs and the next one clears, and an equilibrium exists
whoever is convex.

The tied-cost family puts several suppliers at one shared marginal cost so
that they set the price jointly; one convex supplier among them is enough to
make the aggregate demand set convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .convexify import solve_lp
from .model import Agent, BlockBid, HourlyCurveBid, Market

SUPPLIER_CAPACITY = 2.0


@dataclass(frozen=True)
class SimpleRandomMarketSpec:
    n: int                      # total suppliers
    k: int                      # convex suppliers, capacity interval [0, 2]
    demand: float = 5.0
    cost_lo: float = 0.0
    cost_hi: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        if not 0.0 < self.demand < SUPPLIER_CAPACITY * self.n:
            raise ValueError(f"demand {self.demand:g} must lie strictly inside the "
                             f"total capacity {SUPPLIER_CAPACITY * self.n:g}")
        if not self.cost_lo < self.cost_hi:
            raise ValueError("empty cost support")

    @property
    def reservation_price(self) -> float:
        return self.cost_hi + 10.0

    @property
    def fills_whole_suppliers(self) -> bool:
        """Demand is a whole multiple of the capacity: no supplier is marginal."""
        return self.demand % SUPPLIER_CAPACITY == 0.0


def draw_costs(spec: SimpleRandomMarketSpec, trial: int = 0) -> np.ndarray:
    """n distinct iid uniform costs; near-ties are re-drawn for stability."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, trial)))
    gap = 1e-6 * (spec.cost_hi - spec.cost_lo)
    while True:
        costs = rng.uniform(spec.cost_lo, spec.cost_hi, spec.n)
        if spec.n == 1 or np.min(np.diff(np.sort(costs))) > gap:
            return costs


def market_from_costs(spec: SimpleRandomMarketSpec, costs) -> Market:
    """Suppliers 0..k-1 convex, the rest all-or-nothing; one inelastic buyer."""
    cap = SUPPLIER_CAPACITY
    agents = [Agent("demand", (HourlyCurveBid(
        "load", 0, ((spec.reservation_price, spec.demand),)),))]
    for i, c in enumerate(costs):
        if i < spec.k:
            agents.append(Agent(f"conv{i}", (HourlyCurveBid(
                f"conv{i}", 0, ((float(c), -cap),)),)))
        else:
            agents.append(Agent(f"bin{i}", (BlockBid(
                f"bin{i}", -cap * float(c), (-cap,)),)))
    return Market(1, tuple(agents), label=f"simple-n{spec.n}-k{spec.k}")


def gen_simple_random_market(spec: SimpleRandomMarketSpec, trial: int = 0) -> Market:
    return market_from_costs(spec, draw_costs(spec, trial))


def marginal_supplier_is_convex(spec: SimpleRandomMarketSpec, costs) -> bool:
    """Analytic equilibrium verdict: the price-setting supplier is convex.

    With capacity 2 per supplier, the marginal one is the ceil(demand/2)-th
    cheapest; convex suppliers occupy indices below k.  At a demand that is a
    whole multiple of the capacity no supplier is marginal, and the verdict
    is True.
    """
    if spec.fills_whole_suppliers:
        return True
    rank = math.ceil(spec.demand / SUPPLIER_CAPACITY) - 1
    order = np.argsort(costs)
    return bool(order[rank] < spec.k)


def certified_equilibrium(market: Market, tol: float | None = None) -> bool:
    """Does the convexified LP allocation sit in every demand set?

    The LP allocation is balanced, so containment in all demand sets at
    lambda* certifies an exact equilibrium.
    """
    t = resolve_tol(tol)
    dual = solve_lp(market, t)
    return all(dual.lp_in_demand(i, t) for i in range(len(market.agents)))


@dataclass(frozen=True)
class MonteCarloResult:
    spec: SimpleRandomMarketSpec
    trials: int
    successes: int
    estimate: float
    ci_lo: float
    ci_hi: float


def monte_carlo_equilibrium_probability(spec: SimpleRandomMarketSpec,
                                        trials: int,
                                        tol: float | None = None) -> MonteCarloResult:
    """Fraction of trials whose clearing certifies an exact equilibrium."""
    if trials < 1:
        raise ValueError("need at least one trial")
    t = resolve_tol(tol)
    hits = 0
    for trial in range(trials):
        market = gen_simple_random_market(spec, trial)
        if certified_equilibrium(market, t):
            hits += 1
    p = hits / trials
    half = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return MonteCarloResult(spec, trials, hits, p,
                            max(0.0, p - half), min(1.0, p + half))


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
