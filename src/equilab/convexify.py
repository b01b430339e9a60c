"""Convexified market: relaxation, welfare LP, and the price dual.

The convexified market replaces every agent's value by its concave envelope
over the convex hull of the feasible set.  In the bid language that is an LP:
block acceptances relax to [0, 1] with the minimum acceptance ratio dropped,
exclusive groups become sum <= 1, parent links become r_parent*a_child <=
a_parent, and looped pairs become the two ratio inequalities a_i >= r_i*a_j,
a_j >= r_j*a_i (the exact hull of the indicator-coupled pair; plain equality
at ratio 1).  Curves are already concave and enter step by step.

`solve_lp` is the one entry: it builds the program of a Market, solves it
and prices the market at the balance-row multipliers lambda*.  Strong duality
needs no constraint qualification here because the program is a finite LP;
`solve_lp` asserts primal = dual on every call.  Branch and bound re-solves
the same program with per-block bounds overridden (`solve_raw`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .config import resolve_tol
from .demand import DemandSet, NonconvexStats, demand_set, nonconvexity
from .model import Allocation, BlockBid, Market


@dataclass
class ConvexifiedProgram:
    """The welfare LP of the convexified market."""

    objective: np.ndarray
    balance: np.ndarray          # (K, n) equality rows, rhs 0
    a_ub: np.ndarray             # group/link/loop rows, rhs b_ub
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    block_col: dict              # bid_id -> column
    curve_cols: dict             # bid_id -> ((column, signed step width), ...)

    def solve_raw(self, overrides: dict | None = None) -> lp.LpResult:
        """Solve with optional per-block bound overrides {bid_id: (lo, hi)}."""
        lo = self.lo.copy()
        hi = self.hi.copy()
        if overrides:
            for bid_id, (l, h) in overrides.items():
                col = self.block_col[bid_id]
                lo[col], hi[col] = l, h
        res = lp.solve_lp(self.objective, a_eq=self.balance,
                          b_eq=np.zeros(self.balance.shape[0]),
                          a_ub=self.a_ub, b_ub=self.b_ub, lo=lo, hi=hi)
        return res

    def allocation_from(self, x: np.ndarray) -> Allocation:
        acc: dict[str, float] = {}
        for bid_id, col in self.block_col.items():
            acc[bid_id] = float(x[col])
        for bid_id, cols in self.curve_cols.items():
            acc[bid_id] = float(sum(x[c] * w for c, w in cols))
        return Allocation(acc)


def build_convexified(market: Market) -> ConvexifiedProgram:
    K = market.num_commodities
    c: list[float] = []
    block_col: dict[str, int] = {}
    curve_cols: dict[str, tuple] = {}
    cols_balance: list[tuple[int, int, float]] = []   # (row, col, coeff)

    for agent in market.agents:
        for bid in agent.bids:
            if isinstance(bid, BlockBid):
                col = len(c)
                block_col[bid.bid_id] = col
                c.append(bid.price)
                for k, qk in enumerate(bid.quantity):
                    if qk != 0.0:
                        cols_balance.append((k, col, float(qk)))
            else:
                cols = []
                for step in bid.steps:
                    col = len(c)
                    contrib = step.width if step.is_buy else -step.width
                    c.append(step.price * contrib)
                    cols_balance.append((bid.hour, col, contrib))
                    cols.append((col, contrib))
                curve_cols[bid.bid_id] = tuple(cols)

    n = len(c)
    balance = np.zeros((K, n))
    for row, col, coeff in cols_balance:
        balance[row, col] = coeff

    ub_rows: list[np.ndarray] = []
    b_ub: list[float] = []
    groups: dict[str, list[int]] = {}
    for agent in market.agents:
        for bid in agent.block_bids:
            if bid.group is not None:
                groups.setdefault(bid.group, []).append(block_col[bid.bid_id])
    for gid in sorted(groups):
        row = np.zeros(n)
        row[groups[gid]] = 1.0
        ub_rows.append(row)
        b_ub.append(1.0)
    seen_loops: set[frozenset] = set()
    for agent in market.agents:
        for bid in agent.block_bids:
            if bid.parent is not None and bid.parent in block_col:
                parent = market.bid_index[bid.parent][1]
                row = np.zeros(n)
                row[block_col[bid.bid_id]] = parent.mar
                row[block_col[bid.parent]] = -1.0
                ub_rows.append(row)
                b_ub.append(0.0)
            if bid.loop is not None and bid.loop in block_col:
                key = frozenset((bid.bid_id, bid.loop))
                if key in seen_loops:
                    continue
                seen_loops.add(key)
                partner = market.bid_index[bid.loop][1]
                for this, other in ((bid, partner), (partner, bid)):
                    row = np.zeros(n)
                    row[block_col[other.bid_id]] = this.mar
                    row[block_col[this.bid_id]] = -1.0
                    ub_rows.append(row)
                    b_ub.append(0.0)

    a_ub = np.array(ub_rows).reshape(len(ub_rows), n) if ub_rows else np.zeros((0, n))
    return ConvexifiedProgram(
        objective=np.asarray(c, dtype=float),
        balance=balance,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        lo=np.zeros(n),
        hi=np.ones(n),
        block_col=block_col,
        curve_cols=curve_cols,
    )


@dataclass
class PricedMarket:
    """A market at fixed prices lambda_star.

    Per-agent quantities at these prices (agent i is `market.agents[i]`) are
    computed on first use and kept for the life of the object, keyed by every
    argument they depend on: demand sets, containment, best surplus, and the
    nonconvexity measures and their ranking over K that the approximate
    equilibrium bounds and `equilab analyze` read.
    """

    market: Market
    lambda_star: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _memo(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def demand(self, i: int, tol: float | None = None) -> DemandSet:
        t = resolve_tol(tol)
        return self._memo(("demand", i, t), lambda: demand_set(
            self.market.agents[i], self.lambda_star, self.market.num_commodities, t))

    def demand_sets(self, tol: float | None = None) -> list[DemandSet]:
        return [self.demand(i, tol) for i in range(len(self.market.agents))]

    def in_demand(self, i: int, x, tol: float | None = None) -> bool:
        t = resolve_tol(tol)
        x = np.asarray(x, dtype=float)
        return self._memo(("in_demand", i, t, x.tobytes()),
                          lambda: self.demand(i, t).contains(x))

    def best_surplus(self, i: int, tol: float | None = None) -> float:
        return self.demand(i, tol).best_surplus

    def probes(self, i: int) -> tuple:
        """Hull points of agent i's demand set that its measure must cover."""
        return ()

    def measure(self, i: int, tol: float | None = None, norm: str = "l2") -> float:
        """Nonconvexity of agent i's demand set, probed at `probes(i)`."""
        t = resolve_tol(tol)
        return self._memo(("measure", i, t, norm), lambda: nonconvexity(
            self.demand(i, t), norm, probes=self.probes(i)))

    def nonconvex_stats(self, tol: float | None = None,
                        norm: str = "l2") -> NonconvexStats:
        """The measures ranked over K: the count above tol and the K largest."""
        t = resolve_tol(tol)
        K = self.market.num_commodities
        measures = [self.measure(i, t, norm) for i in range(len(self.market.agents))]
        ranked = sorted(measures, reverse=True)[:K]
        return NonconvexStats(sum(1 for r in measures if r > t),
                              tuple(ranked + [0.0] * (K - len(ranked))), tuple(measures))


def priced_at(market: Market, lam) -> PricedMarket:
    """`lam` itself when it is already a PricedMarket, else `market` at lam."""
    if isinstance(lam, PricedMarket):
        return lam
    return PricedMarket(market, np.asarray(lam, dtype=float))


@dataclass
class DualSolution(PricedMarket):
    """Optimal prices and a vertex allocation of the convexified welfare LP:
    the market priced at lambda*, with the per-agent quantities of the LP
    allocation.  Each agent's measure is also probed at its LP bundle, the
    hull point that demand snapping moves the agent from."""

    primal_value: float
    dual_objective: float
    allocation: Allocation
    var_values: np.ndarray
    program: ConvexifiedProgram

    def lp_bundle(self, i: int) -> np.ndarray:
        """Agent i's bundle in the LP vertex allocation."""
        return self._memo(("bundle", i), lambda: self.allocation.bundle(
            self.market, self.market.agents[i]))

    def lp_in_demand(self, i: int, tol: float | None = None) -> bool:
        return self.in_demand(i, self.lp_bundle(i), tol)

    def probes(self, i: int) -> tuple:
        return (self.lp_bundle(i),)


def dual_value(market: Market, lam, tol: float | None = None) -> float:
    """Price dual: sum over agents of the best surplus at prices lam.

    The per-agent maximum over the true feasible set equals the maximum of
    the concave envelope over the hull (the value is linear on each piece),
    so this is exactly the dual function of the convexified market.  `lam`
    may be a PricedMarket of `market`, whose demand sets are then reused.
    """
    priced = priced_at(market, lam)
    return float(sum(priced.best_surplus(i, tol) for i in range(len(market.agents))))


def solve_lp(market: Market, tol: float | None = None) -> DualSolution:
    """Build and solve the convexified welfare LP of `market`; asserts strong
    duality.

    Returns the vertex primal allocation, the balance-row multipliers
    lambda*, and the dual objective evaluated at lambda* (equal to the primal
    value within tolerance, by LP duality) on the demand sets the
    DualSolution keeps.  Raises lp.InfeasibleError if the relaxation is
    infeasible.
    """
    t = resolve_tol(tol)
    program = build_convexified(market)
    res = program.solve_raw()
    vp = res.value
    dual = DualSolution(market, res.duals_eq, vp, float("nan"),
                        program.allocation_from(res.x), res.x, program)
    vd = dual.dual_objective = dual_value(market, dual, t)
    if abs(vp - vd) > t * (1.0 + abs(vp)):
        raise AssertionError(
            f"duality gap in convexified LP: primal {vp!r}, dual {vd!r}")
    return dual
