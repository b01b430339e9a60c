"""The benchmark workloads: inputs made from a seed, one op, and its checks.

Each workload builds a fixed-size pool of inputs from the seed; op i runs on
`pool[i % len(pool)]`.  The pool is ordered so that every prefix of it mixes
the input classes in their fixed shares, so a run that stops on a deadline
still measures the intended mix.  `check` raises `CheckError` for a wrong
output and returns one digest line per op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Ops call equilab through its modules, so that a traced run sees them.
from equilab import cli, equilibria, euphemia, market_io, random_markets
from equilab.config import DEFAULT_TOL
from equilab.convexify import solve_lp as solve_relaxed
from equilab.euphemia import ClearingComplexityError
from equilab.geometry import ComplexityError
from equilab.lp import InfeasibleError
from equilab.model import iter_patterns
from equilab.random_markets import (SimpleRandomMarketSpec, draw_costs,
                                    marginal_supplier_is_convex)
from equilab.welfare import NodeBudgetExceeded

from .markets import large_market, random_market


class CheckError(Exception):
    """An op returned a wrong output."""


class CliExit(Exception):
    """`equilab clear` returned a nonzero exit code."""


#: Failures the program raises by design; they count as failed ops.
DESIGNED_FAILURES = (ClearingComplexityError, NodeBudgetExceeded,
                     ComplexityError, InfeasibleError, CliExit)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def interleave(groups: list[list]) -> list:
    """Merge groups so that every prefix holds each group in its share.

    At each step the group furthest behind its share of the items placed so
    far goes next; ties go to the lowest group index.
    """
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for step in range(1, total + 1):
        best = max((step * len(g) / total - taken[j], -j)
                   for j, g in enumerate(groups) if taken[j] < len(g))
        j = -best[1]
        out.append(groups[j][taken[j]])
        taken[j] += 1
    return out


class MonteCarlo:
    """The k/n study of `equilab simulate`: one op is a short Monte Carlo run."""

    name = "montecarlo"
    SIZES = (5, 10, 20, 40)
    TRIALS = 10
    POOL = 2048
    WARMUP = 4
    TRACE_OPS = 160

    def inputs(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng((seed, 0))
        specs = []
        for i in range(self.POOL):
            n = self.SIZES[i % len(self.SIZES)]
            specs.append(SimpleRandomMarketSpec(
                n, int(rng.integers(1, n)), seed=int(rng.integers(2 ** 31))))
        return specs

    def op(self, spec):
        return random_markets.monte_carlo_equilibrium_probability(spec, self.TRIALS)

    def check(self, spec, res) -> str:
        expected = sum(marginal_supplier_is_convex(spec, draw_costs(spec, t))
                       for t in range(self.TRIALS))
        if res.trials != self.TRIALS or res.successes != expected:
            raise CheckError(f"{spec}: {res.successes} certified equilibria, "
                             f"{expected} convex marginal suppliers")
        return f"{spec.n},{spec.k},{spec.seed},{res.successes}"

    def agents(self, spec) -> int:
        return self.TRIALS * (spec.n + 1)


class ApproxCorpus:
    """`approximate_equilibria` over acceptance-corpus markets, K cycling."""

    name = "approx_corpus"
    DIMS = (1, 2, 4, 24)
    POOL = 1200
    WARMUP = 4
    TRACE_OPS = 400

    def inputs(self, seed: int, workdir: Path) -> list:
        return [random_market(np.random.default_rng((seed, i)),
                              K=self.DIMS[i % len(self.DIMS)], max_blocks=8)
                for i in range(self.POOL)]

    def op(self, market):
        return equilibria.approximate_equilibria(market)

    def check(self, market, res) -> str:
        t = DEFAULT_TOL
        lp_res, snapped, pricing = res.lp_result, res.snapped, res.pricing
        limit = min(lp_res.stats.count, market.num_commodities)
        if lp_res.violations > limit:
            raise CheckError(f"{lp_res.violations} agents outside demand, "
                             f"bound min(L, K) = {limit}")
        if snapped.imbalance > snapped.bound + t * (1.0 + snapped.bound):
            raise CheckError(f"snapped imbalance {snapped.imbalance} above "
                             f"its bound {snapped.bound}")
        relaxed, exact = res.dual.primal_value, pricing.exact.welfare
        if exact > relaxed + t * (1.0 + abs(relaxed)):
            raise CheckError(f"exact welfare {exact} above relaxed {relaxed}")
        scale = 1.0 + abs(pricing.dual.dual_objective) + abs(exact)
        if abs(pricing.total_loc - pricing.duality_gap) > 1e-6 * scale:
            raise CheckError(f"LOC {pricing.total_loc} != duality gap "
                             f"{pricing.duality_gap}")
        return (f"{_fmt(res.lambda_star)};{relaxed!r};{exact!r};"
                f"{lp_res.violations};{snapped.imbalance!r};{snapped.bound!r};"
                f"{pricing.total_loc!r}")

    def agents(self, market) -> int:
        return len(market.agents)


def combo_count(market) -> int:
    """Block patterns times per-hour price situations, as euphemia counts them."""
    blocks = tuple(b for a in market.agents for b in a.block_bids)
    n = sum(1 for _ in iter_patterns(blocks))
    for hour in range(market.num_commodities):
        prices = {st.price for a in market.agents for bid in a.curve_bids
                  if bid.hour == hour for st in bid.steps}
        n *= 2 * len(prices) + 1
    return n


class EuphemiaCorpus:
    """`clear_euphemia_style` on one-hour corpus markets.

    Clearing time grows with the pattern/situation count, whose spread is
    wide, so the pool is stratified on floor(log2(count)) with fixed quotas:
    the shares of a census of 2000 markets (seeds (99, i) for even i) scaled
    to 512 by largest remainder.  K=2 and beyond are left out: a K=2 market
    takes 0.2 to 3 s, too long for a run to hold enough of them.
    """

    name = "euphemia_corpus"
    K = 1
    QUOTAS = {3: 11, 4: 77, 5: 175, 6: 140, 7: 83, 8: 26}
    MAX_DRAWS = 20000
    WARMUP = 2
    TRACE_OPS = 120

    def __init__(self):
        self._relaxed: dict[int, float] = {}

    def inputs(self, seed: int, workdir: Path) -> list:
        strata = {key: [] for key in self.QUOTAS}
        for draw in range(self.MAX_DRAWS):
            market = random_market(np.random.default_rng((seed, draw)),
                                   K=self.K, max_blocks=4)
            key = int(math.log2(combo_count(market)))
            if key in strata and len(strata[key]) < self.QUOTAS[key]:
                strata[key].append(market)
            if all(len(strata[k]) == q for k, q in self.QUOTAS.items()):
                break
        else:
            raise RuntimeError(f"strata not filled in {self.MAX_DRAWS} draws")
        self._relaxed = {}
        return interleave([strata[key] for key in sorted(strata)])

    def op(self, market):
        return euphemia.clear_euphemia_style(market)

    def check(self, market, res) -> str:
        t = DEFAULT_TOL
        if res.cleared:
            lam = np.asarray(res.lam)
            bundles = res.allocation.bundles(market)
            scale = 1.0 + float(np.max(np.abs(bundles), initial=0.0))
            imbalance = float(np.max(np.abs(bundles.sum(axis=0))))
            if imbalance > t * scale:
                raise CheckError(f"allocation off balance by {imbalance}")
            for bid_id in res.active_blocks:
                bid = market.bid_index[bid_id][1]
                pay = float(lam @ bid.q)
                if pay > bid.price + t * (1.0 + abs(bid.price) + abs(pay)):
                    raise CheckError(f"active block {bid_id} loses money: "
                                     f"q.lam {pay} > p {bid.price}")
            relaxed = self._relaxed.get(id(market))
            if relaxed is None:
                relaxed = self._relaxed[id(market)] = solve_relaxed(market).primal_value
            if res.welfare > relaxed + t * (1.0 + abs(relaxed)):
                raise CheckError(f"welfare {res.welfare} above relaxed {relaxed}")
        return (f"{res.status};{_fmt(res.lam)};{res.welfare!r};"
                f"{'|'.join(res.active_blocks)};{res.combos_checked}")

    def agents(self, market) -> int:
        return len(market.agents)


class ClearLarge:
    """In-process `equilab clear` on large K=24 market files, chp and exact."""

    name = "clear_large"
    AGENTS = 12
    K = 24
    MODES = ("chp", "exact")
    POOL = 320
    WARMUP = 2
    TRACE_OPS = 64

    def inputs(self, seed: int, workdir: Path) -> list:
        workdir.mkdir(parents=True, exist_ok=True)
        self._out = workdir / "outcome.json"
        pool = []
        for i in range(self.POOL):
            market = large_market(np.random.default_rng((seed, i)),
                                  self.AGENTS, self.K)
            fmt = ("csv", "json")[(i // 2) % 2]
            path = workdir / f"market-{i:04d}.{fmt}"
            market_io.save_market(market, path, fmt)
            pool.append((str(path), self.MODES[i % 2], len(market.agents)))
        return pool

    def op(self, item):
        path, mode, _ = item
        code = cli.main(["clear", path, "--mode", mode, "--out", str(self._out)])
        if code != 0:
            raise CliExit(f"equilab clear {path} --mode {mode} exited {code}")
        return code

    def check(self, item, code) -> str:
        _, mode, _ = item
        try:
            report = market_io.parse_outcome(self._out.read_text(encoding="utf-8"))
            # Removed after reading, so the next op cannot pass on this file.
            self._out.unlink()
        except (OSError, ValueError, TypeError) as exc:
            raise CheckError(f"outcome file does not parse: {exc}") from exc
        if report.mode != mode or len(report.prices) != self.K:
            raise CheckError(f"outcome has mode {report.mode} and "
                             f"{len(report.prices)} prices")
        return json.dumps({"prices": report.prices, "welfare": report.welfare,
                           "equilibrium": report.equilibrium,
                           "total_loc": report.total_loc,
                           "acceptances": report.acceptances}, sort_keys=True)

    def agents(self, item) -> int:
        return item[2]


WORKLOADS = {w.name: w for w in (MonteCarlo, ApproxCorpus, EuphemiaCorpus, ClearLarge)}
