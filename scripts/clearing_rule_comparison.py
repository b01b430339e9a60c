"""Compare clearing rules on the simple random family.

For each trial market the script runs the unrestricted welfare optimum priced
at the convexified dual (hull pricing) and the uniform-price rule with no-loss
blocks, then reports welfare forgone by the uniform-price restriction and the
lost opportunity cost left behind by each rule.
"""

import argparse

import numpy as np

from equilab import (PricedMarket, SimpleRandomMarketSpec,
                     clear_euphemia_style, convex_hull_pricing,
                     gen_simple_random_market, lost_opportunity_cost, solve_lp)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = SimpleRandomMarketSpec(n=args.n, k=args.k, seed=args.seed)
    forgone = []
    loc_hull = []
    loc_uniform = []
    equilibria = 0
    uncleared = 0
    for trial in range(args.trials):
        market = gen_simple_random_market(spec, trial)
        pricing = convex_hull_pricing(solve_lp(market))
        loc_hull.append(pricing.total_loc)
        if pricing.certificate.is_equilibrium:
            equilibria += 1
        res = clear_euphemia_style(market)
        if not res.cleared:
            uncleared += 1
            continue
        forgone.append(pricing.exact.welfare - res.welfare)
        total, _, _ = lost_opportunity_cost(PricedMarket(market, res.lam), res.allocation)
        loc_uniform.append(total)

    forgone = np.asarray(forgone)
    print(f"family n={spec.n} k={spec.k}, {args.trials} trials")
    print(f"exact equilibria          : {equilibria}/{args.trials} "
          f"(convex share {spec.k / spec.n:.3f})")
    print(f"uniform rule failed to clear: {uncleared}")
    print(f"welfare forgone by uniform rule: mean {forgone.mean():.4f}, "
          f"max {forgone.max():.4f}, zero in {np.mean(forgone < 1e-9):.1%}")
    print(f"mean LOC  hull pricing    : {np.mean(loc_hull):.4f}")
    print(f"mean LOC  uniform clearing: {np.mean(loc_uniform):.4f}")


if __name__ == "__main__":
    main()
