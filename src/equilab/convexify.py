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
the same program with per-block bounds overridden (`solve_raw`, keyed by
block number).

The program's objective, balance columns and coupling rows are filled from
the market's compiled form (`Market.compiled`, built once per market).  A
`PricedMarket` (`demand.PricedMarket`) is a market at fixed prices under
one tolerance and one norm, and every analysis at prices takes one;
`solve_lp` returns the `DualSolution` at lambda*.  It prices every agent at
once when it is built, so the price dual sums per-agent best surpluses
without a demand set; demand sets, containment and measures are then built
only for the agents asked, once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp
from .config import DEFAULT_NORM, ordered_sum
from .demand import PricedMarket
from .model import Allocation, CompiledMarket, Market


@dataclass
class ConvexifiedProgram:
    """The welfare LP of the convexified market; its columns are numbered
    by `compiled` (`CompiledMarket.block_col` and `step_index`)."""

    objective: np.ndarray
    balance: np.ndarray          # (K, n) equality rows, rhs 0
    a_ub: np.ndarray             # group/link/loop rows, rhs b_ub
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    compiled: CompiledMarket

    def solve_raw(self, overrides: dict | None = None) -> lp.LpResult:
        """Solve with optional per-block bound overrides {block number: (lo, hi)}."""
        lo = self.lo.copy()
        hi = self.hi.copy()
        if overrides:
            cols = self.compiled.block_col
            for j, (l, h) in overrides.items():
                lo[cols[j]], hi[cols[j]] = l, h
        return lp.solve_lp(self.objective, a_eq=self.balance,
                           b_eq=np.zeros(self.balance.shape[0]),
                           a_ub=self.a_ub, b_ub=self.b_ub, lo=lo, hi=hi)

    def allocation_from(self, x: np.ndarray) -> Allocation:
        """Every block's ratio, then every curve's quantity, in market order
        (`CompiledMarket.columns_accepted`)."""
        cm = self.compiled
        ratio, quantity = cm.columns_accepted(x)
        bids = [b.bid_id for b in cm.blocks] + [c.bid_id for c in cm.curves]
        return Allocation(dict(zip(bids, ratio.tolist() + quantity.tolist())))


def build_convexified(market: Market) -> ConvexifiedProgram:
    """The welfare LP of the convexified market; its columns (one per block,
    one per curve step, in market order) come from `market.compiled`."""
    cm = market.compiled
    n = cm.num_columns
    hour, step_col, _ = cm.step_index
    width = cm.step_table[:, 1]
    objective = np.empty(n)
    objective[cm.block_col] = cm.block_table[:, 0]
    objective[step_col] = cm.step_table[:, 0] * width
    balance = np.zeros((cm.K, n))
    balance[:, cm.block_col] = cm.block_q.T + 0.0      # a -0.0 entry stays +0.0
    balance[hour, step_col] = width
    cols = cm.block_col.tolist()

    # Coupling rows: one per group, sum <= 1, then per block its parent row
    # and, once per looped pair, the pair's two rows; (j, r, p) is r a_j <= a_p.
    mar = cm.block_table[:, 1].tolist()
    links: list[tuple[int, float, int]] = []
    for j, (p, partner) in enumerate(zip(cm.parent, cm.loop)):
        if p >= 0:
            links.append((j, mar[p], p))
        if partner >= 0 and (j < partner or cm.loop[partner] != j):
            links += [(partner, mar[j], j), (j, mar[partner], partner)]
    n_groups = len(cm.groups)
    a_ub = np.zeros((n_groups + len(links), n))
    for r, members in enumerate(cm.groups):
        a_ub[r, [cols[j] for j in members]] = 1.0
    for r, (j, ratio, p) in enumerate(links, n_groups):
        a_ub[r, cols[j]] = ratio
        a_ub[r, cols[p]] = -1.0
    b_ub = np.zeros(len(a_ub))
    b_ub[:n_groups] = 1.0
    return ConvexifiedProgram(
        objective=objective,
        balance=balance,
        a_ub=a_ub,
        b_ub=b_ub,
        lo=np.zeros(n),
        hi=np.ones(n),
        compiled=cm,
    )


@dataclass(kw_only=True)
class DualSolution(PricedMarket):
    """Optimal prices and a vertex allocation of the convexified welfare LP:
    the market priced at lambda*, with the per-agent quantities of the LP
    allocation.  Only `solve_lp` builds one.  The vertex is kept as the LP's
    column values (`var_values`): the LP bundles are read from them through
    the compiled columns, and the per-bid `allocation` is built from them
    on first use.  Each agent's measure is also probed at its LP bundle, the
    hull point that demand snapping moves the agent from."""

    primal_value: float
    dual_objective: float
    var_values: np.ndarray
    program: ConvexifiedProgram

    @cached_property
    def allocation(self) -> Allocation:
        """The LP vertex allocation, read off `var_values` on first use."""
        return self.program.allocation_from(self.var_values)

    def lp_bundles(self) -> np.ndarray:
        """Every agent's bundle in the LP vertex allocation (row i: agent i),
        read off `var_values` and added bid by bid as `Allocation.bundles`
        adds them."""
        cm = self.program.compiled
        return self._memo(("bundles",),
                          lambda: cm.bundles_of(*cm.columns_accepted(self.var_values)))

    def probes(self, i: int) -> tuple:
        return (self.lp_bundles()[i],)


def dual_value(priced: PricedMarket) -> float:
    """Price dual: sum over agents of the best surplus at the priced
    market's prices.

    The per-agent maximum over the true feasible set equals the maximum of
    the concave envelope over the hull (the value is linear on each piece),
    so this is exactly the dual function of the convexified market.
    """
    return ordered_sum(priced.best_surplus)


def solve_lp(market: Market, tol: float | None = None,
             norm: str = DEFAULT_NORM) -> DualSolution:
    """Build and solve the convexified welfare LP of `market`; asserts strong
    duality.

    Returns the market priced at the balance-row multipliers lambda* under
    `tol` and `norm`, with the vertex primal allocation and the dual
    objective evaluated at lambda* (equal to the primal value within
    tolerance, by LP duality).  Raises lp.InfeasibleError if the relaxation is infeasible.
    """
    program = build_convexified(market)
    res = program.solve_raw()
    vp = res.value
    dual = DualSolution(market, res.duals_eq, tol, norm, primal_value=vp,
                        dual_objective=float("nan"), var_values=res.x, program=program)
    vd = dual.dual_objective = dual_value(dual)
    if abs(vp - vd) > dual.tol * (1.0 + abs(vp)):
        raise AssertionError(
            f"duality gap in convexified LP: primal {vp!r}, dual {vd!r}")
    return dual
