"""Command-line interface: clear, analyze, simulate, report.

Exit codes: 0 success, 1 bad input (parse/validation/usage), 2 no feasible
clearing, 3 search budget exceeded (branch-and-bound nodes, uniform-price
combinations, or the demand-set piece cap).  Diagnostics go to stderr; data to
stdout or the requested output file.  Outputs embed the tool version and the
effective configuration so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import market_io
from .config import DEFAULT_NORM, DEFAULT_TOL, VERSION
from .convexify import priced_at, solve_lp
from .demand import classify_money
from .equilibria import (convex_hull_pricing, detect_equilibrium,
                         lost_opportunity_cost)
from .euphemia import ClearingComplexityError, clear_euphemia_style
from .geometry import ComplexityError
from .lp import InfeasibleError
from .model import Market, agent_value, validate_market
from .random_markets import (SimpleRandomMarketSpec,
                             monte_carlo_equilibrium_probability)
from .welfare import NodeBudgetExceeded

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
    cfg = {"tol": args.tol, "norm": getattr(args, "norm", DEFAULT_NORM)}
    cfg.update(extra)
    return cfg


def cmd_clear(args) -> int:
    try:
        market = _load(args.input)
    except (OSError, market_io.MarketParseError) as exc:
        _err(str(exc))
        return EXIT_INPUT

    cfg = _config_echo(args, mode=args.mode, input=args.input)
    try:
        if args.mode == "euphemia":
            res = clear_euphemia_style(market, args.tol)
            if not res.cleared:
                _err("no feasible clearing")
                return EXIT_INFEASIBLE
            priced = priced_at(market, res.lam)   # one demand set per agent
            lam, allocation, welfare = res.lam, res.allocation, res.welfare
            equilibrium = detect_equilibrium(market, priced, allocation, args.tol,
                                             args.norm).is_equilibrium
            total_loc, per_agent_loc = lost_opportunity_cost(market, allocation,
                                                             priced, args.tol)
        else:  # exact and chp: the exact allocation priced at lambda*
            cfg["node_budget"] = args.node_budget
            pricing = convex_hull_pricing(market, args.tol, args.norm,
                                          node_budget=args.node_budget)
            lam, allocation, welfare = (pricing.lambda_star, pricing.allocation,
                                        pricing.exact.welfare)
            equilibrium = pricing.certificate.is_equilibrium
            total_loc, per_agent_loc = pricing.total_loc, pricing.per_agent_loc
    except NodeBudgetExceeded as exc:
        _err(f"node budget exceeded (best welfare so far {exc.best.welfare})")
        return EXIT_BUDGET
    except (ClearingComplexityError, ComplexityError) as exc:
        _err(str(exc))
        return EXIT_BUDGET
    except InfeasibleError:
        _err("no feasible clearing")
        return EXIT_INFEASIBLE

    per_value = {a.agent_id: agent_value(a, allocation.acceptances, args.tol)
                 for a in market.agents}
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
        priced = priced_at(market, lam)
    else:
        priced = solve_lp(market, args.tol)
    lam, sets = priced.lambda_star, priced.demand_sets(args.tol)

    try:
        stats = priced.nonconvex_stats(args.tol, args.norm)
    except ComplexityError as exc:
        _err(str(exc))
        return EXIT_BUDGET
    money = classify_money(market, lam, args.tol)
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
        "config": _config_echo(args, input=args.input),
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
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="numerical tolerance (default %(default)g)")
        p.add_argument("--norm", choices=["l1", "l2", "linf"],
                       default=DEFAULT_NORM,
                       help="norm for nonconvexity measures")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("clear", help="clear a market file")
    p.add_argument("input", help="market file (CSV or JSON)")
    p.add_argument("--mode", choices=["exact", "euphemia", "chp"],
                   default="exact", help="exact is an alias of chp")
    p.add_argument("--node-budget", type=int, default=10**6)
    common(p)

    p = sub.add_parser("analyze", help="demand-set and nonconvexity report")
    p.add_argument("input", help="market file (CSV or JSON)")
    p.add_argument("--price", type=float, nargs="+",
                   help="prices to analyze at (default: computed)")
    common(p)

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
    args = build_parser().parse_args(argv)
    # Looked up by name on each call, not stored in the parser built once per
    # process, so that a handler rebound on this module after the first call
    # (a tracer's wrapper, a test's stub) is the one that runs.
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
