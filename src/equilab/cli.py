"""Command-line interface: clear, analyze, simulate, report.

Exit codes: 0 success, 1 bad input (parse/validation/usage), 2 no feasible
clearing, 3 search budget exceeded (branch-and-bound nodes, uniform-price
combinations, or the demand-set piece cap).  `clear` builds a demand set
only for an agent off a carrier line whose acceptances lose surplus at the
prices, so the piece cap stops it only there; an agent that best-responds is
in its demand set by value.  Diagnostics go to stderr; data to
stdout or the requested output file.  Outputs embed the tool version and the
effective configuration so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import market_io
from .config import DEFAULT_NORM, DEFAULT_TOL, VERSION
from .convexify import PricedMarket, solve_lp
from .equilibria import (convex_hull_pricing, detect_equilibrium,
                         lost_opportunity_cost)
from .euphemia import ClearingComplexityError, clear_euphemia_style
from .geometry import ComplexityError
from .lp import InfeasibleError
from .model import Market, validate_market
from .random_markets import (SimpleRandomMarketSpec,
                             monte_carlo_equilibrium_probability)
from .welfare import DEFAULT_NODE_BUDGET, NodeBudgetExceeded

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(path: str) -> Market:
    market = market_io.load_market(path)
    report = validate_market(market)
    if not report.ok:
        lines = "; ".join(f"{v.code}: {v.message}" for v in report.violations)
        raise market_io.MarketParseError(lines)
    return market


def _config_echo(args, **extra) -> dict:
    """The tolerance, then `extra` in order: each subcommand echoes only the
    options it has."""
    return {"tol": args.tol, **extra}


def cmd_clear(args) -> int:
    if args.node_budget < 1:       # the root node already counts as one
        _err(f"not a node budget >= 1: {args.node_budget}")
        return EXIT_INPUT
    try:
        market = _load(args.input)
    except (OSError, market_io.MarketParseError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    cfg = _config_echo(args, norm=args.norm, mode=args.mode, input=args.input)
    try:
        if args.mode == "euphemia":
            res = clear_euphemia_style(market, args.tol)
            if not res.cleared:
                _err("no feasible clearing")
                return EXIT_INFEASIBLE
            # one priced market, so one demand set per agent
            priced = PricedMarket(market, res.lam, args.tol, args.norm)
            lam, allocation, welfare = res.lam, res.allocation, res.welfare
            # the LOC's value pass settles the agents that best-respond
            total_loc, per_agent_loc, per_value = lost_opportunity_cost(priced, allocation)
            equilibrium = detect_equilibrium(priced, allocation).is_equilibrium
        else:  # exact and chp: the exact allocation priced at lambda*
            cfg["node_budget"] = args.node_budget
            pricing = convex_hull_pricing(solve_lp(market, args.tol, args.norm),
                                          node_budget=args.node_budget)
            lam, allocation, welfare = (pricing.lambda_star, pricing.allocation,
                                        pricing.exact.welfare)
            equilibrium = pricing.certificate.is_equilibrium
            total_loc, per_agent_loc, per_value = (pricing.total_loc, pricing.per_agent_loc,
                                                   pricing.per_agent_value)
    except NodeBudgetExceeded as exc:
        _err(f"node budget exceeded (best welfare so far {exc.best.welfare})")
        return EXIT_BUDGET
    except (ClearingComplexityError, ComplexityError) as exc:
        _err(str(exc))
        return EXIT_BUDGET
    except InfeasibleError:
        _err("no feasible clearing")
        return EXIT_INFEASIBLE

    convex_vol, nonconvex_vol = market_io.market_volumes(market)
    report = market_io.OutcomeReport(
        label=market.label, mode=args.mode,
        prices=tuple(float(v) for v in lam),
        acceptances={k: float(v) for k, v in allocation.acceptances.items()},
        equilibrium=bool(equilibrium), welfare=float(welfare),
        per_agent_value=per_value, total_loc=float(total_loc),
        per_agent_loc=per_agent_loc, convex_volume=convex_vol,
        nonconvex_volume=nonconvex_vol, config=cfg)
    _write(market_io.emit_outcome(report), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        market = _load(args.input)
    except (OSError, market_io.MarketParseError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    K = market.num_commodities
    if args.price is not None:
        lam = np.asarray(args.price, dtype=float)
        if lam.size != K:
            _err(f"need {K} prices, got {lam.size}")
            return EXIT_INPUT
        priced = PricedMarket(market, lam, args.tol, args.norm)
    else:
        priced = solve_lp(market, args.tol, args.norm)
    lam, sets = priced.lambda_star, priced.demand_sets()

    try:
        stats = priced.nonconvex_stats()
    except ComplexityError as exc:
        _err(str(exc))
        return EXIT_BUDGET
    money = priced.money_classes()
    agents = {}
    for agent, ds, rho in zip(market.agents, sets, stats.per_agent):
        agents[agent.agent_id] = {
            "nonconvexity": rho,
            "singleton_demand": ds.is_singleton(),
            "demand_vertices": sorted([float(x) for x in v] for v in ds.vertices),
        }
    doc = {
        "label": market.label,
        "prices": [float(v) for v in lam],
        "num_nonconvex_demands": stats.count,
        "top_nonconvexity": list(stats.top),
        "agents": agents,
        "money_classes": dict(sorted(money.classes.items())),
        "config": _config_echo(args, norm=args.norm, input=args.input),
        "version": VERSION,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        spec = SimpleRandomMarketSpec(args.n, args.k, demand=args.demand,
                                      seed=args.seed)
        if args.trials < 1:
            raise ValueError("need at least one trial")
    except ValueError as exc:
        _err(str(exc))
        return EXIT_INPUT
    res = monte_carlo_equilibrium_probability(spec, args.trials, args.tol)
    doc = {
        "n": spec.n, "k": spec.k, "demand": spec.demand, "seed": spec.seed,
        "trials": res.trials, "successes": res.successes,
        "estimate": res.estimate, "ci95": [res.ci_lo, res.ci_hi],
        "convex_share": 1.0 if spec.fills_whole_suppliers else spec.k / spec.n,
        "config": _config_echo(args),
        "version": VERSION,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    base = Path(args.dir)
    if not base.is_dir():
        _err(f"not a directory: {base}")
        return EXIT_INPUT
    pairs = []
    for market_path in sorted(list(base.glob("*.market.csv"))
                              + list(base.glob("*.market.json"))):
        stem = market_path.name.rsplit(".market.", 1)[0]
        outcome_path = base / f"{stem}.outcome.json"
        if outcome_path.exists():
            pairs.append((stem, market_path, outcome_path))
    if not pairs:
        _err("no market/outcome pairs found")
        return EXIT_INPUT
    pairs.sort()

    reports = []
    dims = set()
    try:
        for _, market_path, outcome_path in pairs:
            market = _load(str(market_path))
            dims.add(market.num_commodities)
            reports.append(market_io.load_outcome(outcome_path))
    except (OSError, market_io.MarketParseError, json.JSONDecodeError,
            ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    if len(dims) > 1:
        _err(f"inconsistent commodity count across batch: {sorted(dims)}")
        return EXIT_INPUT

    table = market_io.figure_data(reports)
    doc = {"groups": table, "instances": len(reports),
           "config": {"dir": str(base)}, "version": VERSION}
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(doc, indent=2) + "\n",
                                             encoding="utf-8")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["label", "count", "equilibrium_pct", "median_volume_ratio"])
        for label, row in table.items():
            w.writerow([label, row["count"], repr(row["equilibrium_pct"]),
                        row["median_volume_ratio"]])
        (out_dir / "report.csv").write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A finite tolerance of at least float64 epsilon: below it, a relative
    bar t * (1 + |x|) is under one rounding step of x and asks for exact
    equality, which the strong-duality check cannot meet."""
    value = _finite(text)
    if value < sys.float_info.epsilon:
        raise argparse.ArgumentTypeError(
            f"not a tolerance >= {sys.float_info.epsilon:g}: {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs far
    more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="equilab",
        description="Market clearing and equilibrium analysis for nonconvex "
                    "exchange economies.")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="numerical tolerance, finite and at least float64 epsilon "
                            "(default %(default)g)")
        p.add_argument("--out", help="output file (default stdout)")

    def norm(p, of):
        p.add_argument("--norm", choices=["l1", "l2", "linf"],
                       default=DEFAULT_NORM, help=f"norm of {of}")

    p = sub.add_parser("clear", help="clear a market file")
    p.add_argument("input", help="market file (CSV or JSON)")
    p.add_argument("--mode", choices=["exact", "euphemia", "chp"],
                   default="exact", help="exact is an alias of chp")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    common(p)
    norm(p, "the equilibrium certificate's balance check")

    p = sub.add_parser("analyze", help="demand-set and nonconvexity report")
    p.add_argument("input", help="market file (CSV or JSON)")
    p.add_argument("--price", type=_finite, nargs="+",
                   help="prices to analyze at (default: computed)")
    common(p)
    norm(p, "the nonconvexity measures")

    p = sub.add_parser("simulate", help="Monte Carlo equilibrium frequency")
    p.add_argument("--n", type=int, required=True, help="total suppliers")
    p.add_argument("--k", type=int, required=True, help="convex suppliers")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demand", type=float, default=5.0)
    common(p)

    p = sub.add_parser("report", help="aggregate a directory of outcomes")
    p.add_argument("dir", help="directory of <name>.market.* / <name>.outcome.json")
    p.add_argument("--out", help="output directory for report.csv/report.json")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:      # argparse exits 2 on a usage error
        if exc.code == 0:          # --help, --version
            raise
        return EXIT_INPUT
    # Looked up by name on each call, not stored in the parser built once per
    # process, so that a handler rebound on this module after the first call
    # (a tracer's wrapper, a test's stub) is the one that runs.
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
