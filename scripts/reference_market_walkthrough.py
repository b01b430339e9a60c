"""Walk the whole pipeline on the four-agent reference market.

One buyer wants three units all or nothing, a small buyer wants one unit,
a convex plant sells up to two, and a second plant sells two all or nothing.
No price balances this market exactly; the script shows what each tool
reports about that failure and how close one can get.
"""

import numpy as np

from equilab import (PricedMarket, approximate_equilibria,
                     clear_euphemia_style, detect_equilibrium,
                     lost_opportunity_cost, singleton_demand_equilibrium_check)
from equilab.model import Agent, BlockBid, HourlyCurveBid, Market


def build_market() -> Market:
    return Market(1, (
        Agent("a1", (BlockBid("b1", 12.0, (3.0,)),)),
        Agent("a2", (HourlyCurveBid("c2", 0, ((2.0, 1.0),)),)),
        Agent("a3", (HourlyCurveBid("c3", 0, ((1.0, -2.0),)),)),
        Agent("a4", (BlockBid("b4", -6.0, (-2.0,)),)),
    ), label="four-agent")


def main() -> None:
    market = build_market()
    res = approximate_equilibria(market)
    lam = np.asarray(res.lambda_star)

    print(f"convexified welfare : {res.dual.primal_value:.4f}")
    print(f"clearing price      : {lam[0]:.4f}")
    print(f"exact welfare       : {res.pricing.exact.welfare:.4f}")
    print(f"duality gap         : {res.pricing.duality_gap:.4f}")
    print()

    print("demand sets at the clearing price:")
    priced = PricedMarket(market, lam)
    for agent, ds in zip(market.agents, priced.demand_sets()):
        pts = ", ".join(f"{v[0]:+.1f}" for v in ds.vertices)
        tag = "singleton" if ds.is_singleton() else "nonconvex gap"
        print(f"  {agent.agent_id}: {{{pts}}}  ({tag})")
    stats = priced.nonconvex_stats()
    print(f"nonconvex demands: {stats.count}, measures {stats.per_agent}")
    print()

    names = [a.agent_id for a in market.agents]
    for title, alloc in [("relaxation vertex", res.lp_result.allocation),
                         ("snapped to demand", res.snapped.allocation),
                         ("exact optimum", res.pricing.allocation)]:
        bundles = alloc.bundles(market)[:, 0]
        imb = float(np.sum(bundles))
        row = "  ".join(f"{n}={b:+.1f}" for n, b in zip(names, bundles))
        print(f"{title:18s}: {row}  (imbalance {imb:+.1f})")
    print(f"snap imbalance bound: {res.snapped.bound:.4f}")
    print()

    print(f"lost opportunity cost at hull prices: {res.pricing.total_loc:.4f}")
    for aid, v in sorted(res.pricing.per_agent_loc.items()):
        if v > 1e-12:
            print(f"  {aid} forgoes {v:.4f}")

    cleared = clear_euphemia_style(market)
    loc, per, _ = lost_opportunity_cost(PricedMarket(market, cleared.lam),
                                        cleared.allocation)
    print(f"\nuniform-price clearing: price {cleared.lam[0]:.4f}, "
          f"welfare {cleared.welfare:.4f}, total LOC {loc:.4f}")
    print(f"  blocks rejected in the money: "
          f"{sorted(k for k, v in per.items() if v > 1e-12)} pay the cost")

    cert = detect_equilibrium(priced, res.pricing.allocation)
    chk = singleton_demand_equilibrium_check(res.dual)
    print(f"\nexact equilibrium found: {cert.is_equilibrium}")
    print(f"singleton-demand condition applies: {chk.applies}")


if __name__ == "__main__":
    main()
