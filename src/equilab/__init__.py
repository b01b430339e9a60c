"""Market clearing and equilibrium analysis for nonconvex exchange economies.

The package models quasi-linear markets where agents trade a finite set of
commodities through divisible hourly curves and indivisible block bids.  It
solves the convexified welfare problem with an in-repo simplex, recovers
uniform prices, computes exact welfare by branch and bound, measures how far
demand sets are from convex, and builds the classical approximate equilibria
plus a day-ahead-auction-style clearing for comparison.
"""

from .config import DEFAULT_NORM, DEFAULT_TOL, VERSION
from .convexify import (ConvexifiedProgram, DualSolution, PricedMarket,
                        build_convexified, dual_value, priced_at, solve_lp)
from .curves import CurveError, CurveStep, canonical_steps
from .demand import (DemandSet, MoneyClasses, NonconvexStats,
                     agent_best_surplus, classify_money, demand_set,
                     nonconvexity)
from .equilibria import (ApproxEquilibria, EquilibriumCertificate,
                         PricingResult, aggregate_demand_convexity_check,
                         approximate_equilibria, balanced_lp_allocation,
                         check_loc_dominance, convex_hull_pricing,
                         demand_snapped_allocation, detect_equilibrium,
                         lost_opportunity_cost,
                         singleton_demand_equilibrium_check)
from .euphemia import (ClearingComplexityError, EuphemiaResult,
                       clear_euphemia_style)
from .market_io import (MarketParseError, OutcomeReport, emit_market,
                        emit_outcome, figure_data, load_market, load_outcome,
                        market_volumes, parse_market, parse_outcome,
                        save_market, save_outcome)
from .model import (Agent, Allocation, BlockBid, HourlyCurveBid, Market,
                    ValidationReport, agent_value, validate_market,
                    zero_allocation)
from .random_markets import (MonteCarloResult, SimpleRandomMarketSpec,
                             certified_equilibrium, gen_simple_random_market,
                             gen_tied_cost_market,
                             monte_carlo_equilibrium_probability)
from .welfare import ExactSolution, NodeBudgetExceeded, solve_welfare

__version__ = VERSION

__all__ = [
    "Agent", "Allocation", "ApproxEquilibria", "BlockBid",
    "ClearingComplexityError", "ConvexifiedProgram", "CurveError", "CurveStep",
    "DEFAULT_NORM", "DEFAULT_TOL", "DemandSet", "DualSolution",
    "EquilibriumCertificate", "EuphemiaResult", "ExactSolution",
    "HourlyCurveBid", "Market", "MarketParseError", "MonteCarloResult",
    "MoneyClasses", "NodeBudgetExceeded", "NonconvexStats", "OutcomeReport",
    "PricedMarket", "PricingResult", "SimpleRandomMarketSpec", "VERSION", "ValidationReport",
    "agent_best_surplus", "agent_value",
    "aggregate_demand_convexity_check", "approximate_equilibria",
    "balanced_lp_allocation", "build_convexified",
    "canonical_steps", "certified_equilibrium", "check_loc_dominance",
    "classify_money", "clear_euphemia_style", "convex_hull_pricing",
    "demand_set",
    "demand_snapped_allocation", "detect_equilibrium", "dual_value",
    "emit_market", "emit_outcome", "figure_data", "gen_simple_random_market",
    "gen_tied_cost_market", "load_market", "load_outcome",
    "lost_opportunity_cost", "market_volumes",
    "monte_carlo_equilibrium_probability", "nonconvexity", "parse_market",
    "parse_outcome", "priced_at", "save_market", "save_outcome",
    "singleton_demand_equilibrium_check", "solve_lp", "solve_welfare",
    "validate_market", "zero_allocation",
]
