"""Frozen market generators for the benchmark workloads.

`random_market` reproduces the acceptance-corpus generator of the test suite
draw for draw, so the benchmark's corpus workloads keep their inputs even if
the test helpers change later.  `large_market` is the same agent recipe with
an agent count chosen by the caller and no shared block budget, which is how
the `clear_large` workload gets markets far beyond the corpus sizes.
"""

from __future__ import annotations

import numpy as np

from equilab.model import Agent, BlockBid, HourlyCurveBid, Market, validate_market


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
    """A valid structured market with exactly `n_agents` agents.

    Every agent may carry up to 3 blocks; there is no market-wide block
    budget as in `random_market`.
    """
    if n_agents < 2:
        raise ValueError("need a buyer and a seller")
    while True:
        agents = []
        seq = 0
        for i in range(n_agents):
            agent, seq, _ = _random_agent(rng, i, K, seq, 3, True)
            agents.append(agent)
        market = Market(K, tuple(agents), label=f"large-n{n_agents}-K{K}")
        if validate_market(market).ok:
            return market
