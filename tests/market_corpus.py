"""Random market instances shared by property and acceptance tests.

Generated markets always validate, contain both buyers and sellers, and mix
divisible curves with structured blocks (minimum acceptance ratios, exclusive
groups, parent links, loops).  Quantities and prices stay on a small integer
ish grid so at-the-money ties actually occur.
"""

from __future__ import annotations

import numpy as np

from equilab.lp import InfeasibleError, solve_lp
from equilab.model import (Agent, Allocation, BlockBid, HourlyCurveBid,
                           Market, iter_patterns, validate_market)

from reference_oracles import quantity_range


def _grid(rng, lo, hi, step=0.5):
    return float(rng.integers(round(lo / step), round(hi / step) + 1) * step)


def random_curve(rng, bid_id: str, hour: int, sign: float) -> HourlyCurveBid:
    mode = "stepwise" if rng.random() < 0.7 else "interpolated"
    n_pts = int(rng.integers(1, 4))
    prices = sorted(_grid(rng, 1, 10) for _ in range(n_pts))
    qty = sorted((_grid(rng, 0.5, 4) for _ in range(n_pts)), reverse=sign > 0)
    points = tuple((p, sign * q) for p, q in zip(prices, qty))
    return HourlyCurveBid(bid_id, hour, points, mode)


def random_block(rng, bid_id: str, K: int, sign: float, **links) -> BlockBid:
    hours = rng.choice(K, size=min(K, int(rng.integers(1, 4))), replace=False)
    q = np.zeros(K)
    for h in hours:
        q[h] = sign * _grid(rng, 0.5, 3)
    per_unit = _grid(rng, 1, 10)
    price = sign * per_unit * float(np.sum(np.abs(q)))
    mar = 1.0 if rng.random() < 0.5 else float(rng.choice([0.01, 0.25, 0.5]))
    return BlockBid(bid_id, price, tuple(q), mar=mar, **links)


def _random_agent(rng, i: int, K: int, seq: int, cap: int,
                  structured: bool) -> tuple[Agent, int, int]:
    """Agent i (buyer when i is even) with at most `cap` blocks.

    Returns the agent, the next free bid sequence number and its block count.
    """
    sign = 1.0 if i % 2 == 0 else -1.0
    bids = []
    for _ in range(int(rng.integers(0, 3))):
        bids.append(random_curve(rng, f"c{seq}", int(rng.integers(K)), sign))
        seq += 1
    n_blocks = int(rng.integers(0, cap + 1)) if cap else 0
    names = [f"b{seq + j}" for j in range(n_blocks)]
    seq += n_blocks
    links: list[dict] = [{} for _ in names]
    if structured and n_blocks >= 2:
        style = rng.random()
        if style < 0.25:
            gid = f"g{i}"
            links[0]["group"] = gid
            links[1]["group"] = gid
        elif style < 0.5:
            links[1]["parent"] = names[0]
        elif style < 0.7:
            links[0]["loop"] = names[1]
            links[1]["loop"] = names[0]
    for name, kw in zip(names, links):
        bids.append(random_block(rng, name, K, sign, **kw))
    if not bids:
        bids.append(random_curve(rng, f"c{seq}", int(rng.integers(K)), sign))
        seq += 1
    return Agent(f"agent{i}", tuple(bids)), seq, n_blocks


def random_market(rng, K: int = 1, max_blocks: int = 8,
                  one_block_per_agent: bool = False,
                  structured: bool = True) -> Market:
    """A valid market with 3-6 agents, at least one buyer and one seller."""
    while True:
        n_agents = int(rng.integers(3, 7))
        budget = int(rng.integers(1, max_blocks + 1)) if max_blocks else 0
        agents = []
        seq = 0
        for i in range(n_agents):
            cap = 1 if one_block_per_agent else min(3, budget)
            agent, seq, n_blocks = _random_agent(rng, i, K, seq, cap, structured)
            budget -= n_blocks
            agents.append(agent)
        market = Market(K, tuple(agents), label=f"random-K{K}")
        if validate_market(market).ok:
            return market


def large_market(rng, n_agents: int, K: int = 24) -> Market:
    """A valid structured market with exactly `n_agents` agents, each with
    up to 3 blocks and no market-wide block budget (the benchmark's
    `clear_large` recipe)."""
    while True:
        agents = []
        seq = 0
        for i in range(n_agents):
            agent, seq, _ = _random_agent(rng, i, K, seq, 3, True)
            agents.append(agent)
        market = Market(K, tuple(agents), label=f"large-n{n_agents}-K{K}")
        if validate_market(market).ok:
            return market


def split_group_market(rng, K: int = 1) -> Market:
    """A market whose convexified relaxation splits an exclusive group.

    One seller offers a capacity strictly between the two smallest of 2-3
    buy blocks of one group in hour h.  Larger blocks are worth more in
    total but less per unit, so the relaxation fills the capacity with a
    part of each of two members, both at or above their minimum acceptance
    ratios (at most 0.25).  Each other hour gets a random buy and sell curve.
    """
    h = int(rng.integers(K))
    cost = _grid(rng, 1, 3)
    while True:
        sizes = np.cumsum([_grid(rng, 0.5, 2) for _ in range(int(rng.integers(2, 4)))])
        unit = np.sort([_grid(rng, 4, 10) for _ in sizes])[::-1]
        if np.all(np.diff(unit) < 0) and np.all(np.diff((unit - cost) * sizes) > 0):
            break
    if sizes[1] - sizes[0] >= 1.0:
        capacity = _grid(rng, sizes[0] + 0.5, sizes[1] - 0.5)
    else:
        capacity = float(sizes[0] + sizes[1]) / 2
    blocks = []
    for i, (size, per_unit) in enumerate(zip(sizes, unit)):
        q = np.zeros(K)
        q[h] = size
        blocks.append(BlockBid(f"g{i}", float(per_unit * size), tuple(q),
                               mar=float(rng.choice([0.01, 0.25])), group="g"))
    agents = [Agent("seller", (HourlyCurveBid("s", h, ((cost, -capacity),)),)),
              Agent("grouped", tuple(blocks))]
    for j, hour in enumerate(g for g in range(K) if g != h):
        agents.append(Agent(f"buyer{j}", (random_curve(rng, f"d{j}", hour, 1.0),)))
        agents.append(Agent(f"seller{j}", (random_curve(rng, f"o{j}", hour, -1.0),)))
    market = Market(K, tuple(agents), label=f"split-group-K{K}")
    assert validate_market(market).ok
    return market


def random_price_vector(rng, market: Market) -> np.ndarray:
    """Prices that frequently hit curve breakpoints exactly."""
    prices = [s.price for a in market.agents for b in a.curve_bids
              for s in b.steps]
    lam = np.empty(market.num_commodities)
    for h in range(market.num_commodities):
        if prices and rng.random() < 0.5:
            lam[h] = float(rng.choice(prices))
        else:
            lam[h] = _grid(rng, 0, 11)
    return lam


def random_balanced_allocation(market: Market, rng,
                               tries: int = 20) -> Allocation | None:
    """Feasible balanced allocation: random block pattern and ratios, curves
    absorb the residual when their ranges allow it."""
    K = market.num_commodities
    blocks = [b for a in market.agents for b in a.block_bids]
    curves = [b for a in market.agents for b in a.curve_bids]
    patterns = list(iter_patterns(blocks))
    for _ in range(tries):
        z = patterns[int(rng.integers(len(patterns)))]
        acc = {}
        fixed = np.zeros(K)
        for bid, zi in zip(blocks, z):
            a = float(rng.uniform(bid.mar, 1.0)) if zi else 0.0
            acc[bid.bid_id] = a
            fixed += a * bid.q
        if not curves:
            if float(np.max(np.abs(fixed), initial=0.0)) < 1e-9:
                return Allocation(acc)
            continue
        cols = []
        lows, highs = [], []
        for bid in curves:
            e = np.zeros(K)
            e[bid.hour] = 1.0
            cols.append(e)
            lo, hi = quantity_range(bid.steps)
            lows.append(lo)
            highs.append(hi)
        c = rng.normal(size=len(curves))      # random vertex of the slice
        try:
            res = solve_lp(c, np.column_stack(cols), -fixed, None, None,
                           np.array(lows), np.array(highs))
        except InfeasibleError:
            continue
        for bid, v in zip(curves, res.x):
            acc[bid.bid_id] = float(v)
        return Allocation(acc)
    return None


def cross_agent_parent_market() -> Market:
    """Block c names as parent the block p of another agent: validation
    rejects the market, and every solver scopes the link to c's agent, so
    ignores it."""
    return Market(1, (
        Agent("a", (BlockBid("p", 6.0, (1.0,)),)),
        Agent("b", (BlockBid("c", 6.0, (1.0,), parent="p"),)),
        Agent("s", (HourlyCurveBid("s", 0, ((2.0, -3.0),)),)),
    ))
