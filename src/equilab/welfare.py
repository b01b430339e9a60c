"""Exact welfare maximization over the true (nonconvex) feasible sets.

Best-bound branch and bound on the block indicators, started from the solved
convexified relaxation (the `DualSolution` of `convexify.solve_lp`, whose
tolerance it uses): every other node re-solves the same program with
per-block bound overrides, keyed by block number.  Branching fixes an
indicator to 0 (ratio pinned to zero) or 1 (ratio within [mar, 1]; on a
group branch the exclusive siblings are pinned to zero too).  Candidate
incumbents are LP solutions whose implied indicators are feasible, so the
reported optimum is always truly feasible.  Blocks, their columns and
minimum acceptance ratios, and the exclusive groups are read from the
market's compiled form.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .convexify import DualSolution
from .model import Allocation

DEFAULT_NODE_BUDGET = 10 ** 6


class NodeBudgetExceeded(RuntimeError):
    def __init__(self, best):
        super().__init__("node budget exceeded")
        self.best = best


@dataclass
class ExactSolution:
    welfare: float
    allocation: Allocation
    nodes: int
    gap: float          # proven optimality gap (absolute)


def _implied_violations(blocks, groups, x: np.ndarray, tol: float):
    """Blocks whose relaxed acceptance is not indicator-feasible.

    `blocks` holds (bid_id, column, mar) per block number, `groups` each
    group's member block numbers, groups by id.  Returns (mar_violations,
    group_violation) where mar_violations is a list of (fractionality,
    bid_id, block) and group_violation is the (ratio, bid_id, block) of the
    largest member, ties by lowest bid id, of the first group with more than
    one supported member.
    """
    mar_viol = []
    for j, (bid_id, col, mar) in enumerate(blocks):
        a = float(x[col])
        if tol < a < mar - tol:
            z = a / mar
            mar_viol.append((min(z, 1.0 - z), bid_id, j))
    for members in groups:
        supported = [(a, blocks[j][0], j) for j in members
                     if (a := float(x[blocks[j][1]])) > tol]
        if len(supported) > 1:
            return mar_viol, min(supported, key=lambda v: (-v[0], v[1]))
    return mar_viol, None


def solve_welfare(dual: DualSolution,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> ExactSolution:
    """Best-bound branch and bound; deterministic, gap-certified.

    The root is the solved convexified LP `dual`.  Raises NodeBudgetExceeded
    (carrying the incumbent) if the node budget runs out before the gap
    closes.
    """
    t = dual.tol
    program, cm = dual.program, dual.market.compiled
    blocks = list(zip([b.bid_id for b in cm.blocks], cm.block_col.tolist(),
                      cm.block_table[:, 1].tolist()))
    siblings = {j: members for members in cm.groups for j in members}

    best_val = -np.inf
    best_alloc: Allocation | None = None
    counter = itertools.count()
    heap: list[tuple] = [(-dual.primal_value, next(counter), {}, dual.var_values)]

    def push(overrides: dict) -> None:
        try:
            res = program.solve_raw(overrides)
        except lp.InfeasibleError:
            return
        heapq.heappush(heap, (-res.value, next(counter), overrides, res.x))

    nodes = 0
    gap = 0.0
    while heap:
        neg_bound, _, overrides, x = heapq.heappop(heap)
        bound = -neg_bound
        if best_alloc is not None and bound <= best_val + 1e-9 * (1.0 + abs(best_val)):
            # Best-first: every remaining node is bounded by this one.
            gap = max(0.0, bound - best_val)
            break
        nodes += 1
        if nodes > node_budget:
            open_gap = bound - best_val if np.isfinite(best_val) else float("inf")
            raise NodeBudgetExceeded(
                ExactSolution(best_val, best_alloc or Allocation({}), nodes, open_gap))
        mar_viol, group_viol = _implied_violations(blocks, cm.groups, x, t)
        if mar_viol:
            # Most fractional implied indicator first, ties by lowest bid id.
            j = min(mar_viol, key=lambda v: (-v[0], v[1]))[2]
        elif group_viol is not None:
            j = group_viol[2]
        else:
            if bound > best_val:
                best_val, best_alloc = bound, program.allocation_from(x)
            continue
        off = dict(overrides)
        off[j] = (0.0, 0.0)
        push(off)
        on = dict(overrides)
        on[j] = (blocks[j][2], 1.0)
        if not mar_viol:
            # A group branch pins the exclusive siblings off.  A minimum-
            # acceptance branch leaves them to the group row: pinning them
            # there too moves some child LPs to another vertex path, which
            # changes outputs in the last bit.
            for sib in siblings[j]:
                if sib != j:
                    on[sib] = (0.0, 0.0)
        push(on)

    if best_alloc is None:
        raise lp.InfeasibleError("no feasible indicator pattern")
    return ExactSolution(best_val, best_alloc, nodes, gap)
