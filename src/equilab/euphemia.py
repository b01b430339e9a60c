"""Day-ahead-auction-style clearing with uniform prices and no losses.

The clearing must balance every hour, respect minimum acceptance ratios,
fully accept in-the-money and reject out-of-the-money hourly quantities,
and never leave an accepted block out of the money.  Paradoxical rejection
of in-the-money blocks is allowed.  Among all such outcomes the one with
maximal welfare is returned.

The search enumerates block on/off patterns crossed with per-hour price
situations.  A situation is either a closed interval between two adjacent
curve-step prices or a single such price; within a situation the acceptance
status of every step is constant, so prices and quantities decouple.  The
quantity side is an LP over the active blocks and the at-the-money steps
that balances every hour at maximal welfare; the price side is an LP for a
smallest-magnitude price vector in the situation box on which no active
block loses money.  Each step's status is read from its rank among its
hour's prices; the situation bounds and each hour's in-step total are
tabled once per (hour, situation), not once per combination.

Few combinations are legal and fewer can win, so the LPs come last.  Per
pattern, two prefilters first drop situations of one hour that no
combination holding them could keep; the product then runs over what is
left:

a. the quantity prefilter drops situation s of hour h when balance row h
   alone is screened out over the column bounds, against the largest |rhs|
   any combination holding s can have: |forced[h][s]| or any |forced| of
   another hour.  Every such combination's quantity LP has that row, so
   the simplex would raise.  Without active blocks a combination with no
   at-the-money step has no LP and passes when every |forced| is within
   `tol`, so there the prefilter also needs |forced[h][s]| > tol.  For one
   hour the bound is the combination's own |rhs|, so a per-combination
   quantity screen could drop nothing more;
b. the no-loss prefilter drops situation s of hour h when a no-loss row of
   a block with quantity in hour h only is screened out over the
   situation's bounds.  That row's least value minus its price is the same
   in every combination holding s, and the price screen's excess is at
   least it.

Both run in one array pass per market over the 0/1 matrix of its patterns
and blocks: a pattern's reach on every balance row adds its active blocks'
reaches in block order, and each block's one-hour no-loss rows apply to
every pattern holding it, against that pattern's largest |price|.

Each survivor then runs:

1. the price screen, which propagates the no-loss rows q . lam <= p once
   over the situation box;
2. one pass over the curve steps in market order, which sums the value and
   each curve's quantity of the in steps and turns the at-the-money steps
   into LP columns;
3. the bound skip: the quantity LP's value c . x is at most
   sum max(c lo, c hi) over its box, so a combination whose in-step value
   plus that bound, with a rounding allowance, does not beat the
   incumbent is dropped;
4. the quantity LP;
5. the price LP, only when that welfare would replace the incumbent and
   no certificate proves the LP feasible.  A pattern without active
   blocks has the box |lam| <= m alone; at one hour a price screen excess
   below minus its margin proves the no-loss rows meet the box.  A
   certified incumbent keeps its pattern and box, and its LP runs once,
   after the search, on the same arguments.

A screen drops a combination only when it proves an LP infeasible by more
than `_SCREEN_MARGIN` relative, a thousand times the simplex's own
infeasibility tolerance, so the simplex would have raised; a last-bit
difference in a reach therefore cannot change an output.  For one hour the
prefilters and the price screen are exact; for more hours they are a sound
filter.  The incumbent changes only where both LPs are feasible and the
welfare beats it, so skipping an LP elsewhere changes nothing.  A deferred
price LP is certainly feasible, so the incumbent is replaced at the same
combinations, in the same order, as when every replacement ran its LP; the
tie band below is not transitive, and this is what keeps its outcome.  The
acceptances are built for the final incumbent only.  `combos_checked`
counts the whole pattern/situation product, dropped or not.

The market is read from `Market.compiled`.  Its block patterns cross its
components' compiled patterns, so the cap is checked against the product
of their counts and the situation counts before any pattern is built.
Patterns are visited in ascending bitmask order over the market's blocks
and situations in lexicographic order.  A combination replaces the
incumbent only when its welfare is higher by more than 1e-9 relative, so
among ties the first one visited wins, and its price vector is the one
reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .lp import InfeasibleError, solve_lp
from .model import Allocation, CompiledMarket, Market

MAX_COMBOS = 200_000

# A screen drops a combination when the violation it proves exceeds this
# share of (1 + max |rhs|): a thousand times the simplex's fixed `lp.TOL`.
_SCREEN_MARGIN = 1e-6

# Relative allowance for rounding when a welfare bound is compared with the
# incumbent: far above the error of summing a few hundred float64 terms.
_BOUND_ROUNDING = 1e-12


class ClearingComplexityError(Exception):
    """The pattern/situation cross product is too large to enumerate."""


@dataclass
class EuphemiaResult:
    status: str                      # "cleared" | "no-clearing"
    lam: tuple[float, ...]
    allocation: Allocation
    welfare: float
    active_blocks: tuple[str, ...]
    combos_checked: int

    @property
    def cleared(self) -> bool:
        return self.status == "cleared"


def _price_bound(cm: CompiledMarket) -> float:
    """1 + max(1, |step prices|, |block prices| and |price| / least |q_h| != 0)."""
    size = np.abs(cm.block_q)
    least = np.where(size > 0, size, np.inf).min(axis=1)
    has = np.isfinite(least)
    price = cm.block_table[has, 2]
    return max(1.0, *cm.step_table[:, 2].tolist(), *(price / least[has]).tolist(),
               *price.tolist()) + 1.0


# ---------------------------------------------------------------------------
# Interval screens

def _screened_out(excess: float, rhs_scale: float) -> bool:
    """Is a violation `excess`, proven for the whole box, large enough that
    `lp.solve_lp` on rows whose right-hand sides are at most `rhs_scale` in
    magnitude must raise InfeasibleError?  Its phase 1 ends at or above the
    least total violation and raises above `lp.TOL` * (1 + max |rhs|), with
    `lp.TOL` = 1e-9 fixed for every call."""
    return excess > _SCREEN_MARGIN * (1.0 + rhs_scale)


def _row_excess(rmin: np.ndarray, rmax: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of A x = b with reach [rmin, rmax] over the box: the violation
    that holds on the whole box, or minus the slack when b is within reach."""
    return np.maximum(rmin - b, b - rmax)


def _least_terms(Q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Least value of each term Q_ih lam_h over the box lo <= lam <= hi."""
    return np.where(Q > 0, Q * lo, Q * hi)


def _price_excess(Q: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest total violation of the rows Q lam <= p that one pass of bound
    propagation proves for every lam in the box [lo, hi]; negative when the
    pass proves none.

    Row i alone is violated by at least its least value over the box minus
    p_i.  It also bounds lam_h by u_ih: Q_i lam - p_i >= Q_ih (lam_h - u_ih)
    on the box.  When the tightest lower bound of lam_h lies above the
    tightest upper one, their two rows are violated by at least the gap
    times the smaller |Q_ih|.  With one column the pass is exact: the rows
    meet the box iff the result is <= 0.
    """
    if not p.size:
        return -np.inf
    low = _least_terms(Q, lo, hi)
    reach = low.sum(axis=1)
    excess = float(np.max(reach - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (p[:, None] - (reach[:, None] - low)) / Q
    upper = np.where(Q > 0, bound, np.inf)
    lower = np.where(Q < 0, bound, -np.inf)
    cols = np.arange(Q.shape[1])
    iu, il = upper.argmin(axis=0), lower.argmax(axis=0)
    gap = lower[il, cols] - upper[iu, cols]
    both = np.isfinite(gap)
    if both.any():
        weight = np.minimum(Q[iu, cols], -Q[il, cols])[both]
        excess = max(excess, float(np.max(gap[both] * weight)))
    return excess


# ---------------------------------------------------------------------------
# The enumeration

def _feasible_prices(pattern: _Pattern, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray | None:
    """Smallest-magnitude price vector in the situation box [lo, hi] meeting
    all active-block no-loss constraints, or None if the region is empty."""
    K = len(lo)
    eye = np.eye(K)
    c = np.concatenate([np.zeros(K), -np.ones(K)])     # maximize -sum m
    # q . lam <= p, then per hour lam_h - m_h <= 0 and -lam_h - m_h <= 0
    # (the two row blocks interleaved)
    box = np.stack([np.hstack([eye, -eye]), np.hstack([-eye, -eye])], axis=1)
    a_ub = np.vstack([np.hstack([pattern.q, np.zeros((len(pattern.q), K))]),
                      box.reshape(2 * K, 2 * K)])
    b_ub = np.concatenate([pattern.price, np.zeros(2 * K)])
    try:
        res = solve_lp(c, None, None, a_ub, b_ub, np.concatenate([lo, np.zeros(K)]),
                       np.concatenate([hi, np.maximum(np.abs(lo), np.abs(hi))]))
    except InfeasibleError:
        return None
    return res.x[:K]


def _prices_certain(pattern: _Pattern, excess: float) -> bool:
    """Is the price LP of a combination of `pattern` certainly feasible,
    given the price screen's `excess` over the combination's box?  Without an
    active block it is the box and |lam| <= m alone.  With one hour the
    screen is exact, so an excess below minus its margin proves that the
    no-loss rows meet the box with room to spare."""
    return not pattern.names or (
        pattern.q.shape[1] == 1 and _screened_out(-excess, pattern.price_scale))


class _StepTable:
    """Each hour's price situations, and the curve steps classified by their
    rank among their hour's step prices.

    With p_0 < ... < p_last the distinct step prices of an hour, its
    situations are [-big, p_0], [p_0, p_0], [p_0, p_1], ..., [p_last, p_last],
    [p_last, big]; an hour without steps has the one situation [-big, big].
    Situation 2k+1 is the point p_k.  A step priced at situation j is at the
    money in j; a buy step is in the money in every situation below j, a
    sell step in every one above j, and either is out of the money in the
    rest.  `curves` holds per curve of the market its bid id, hour and
    (j, sign, width, price) per step.

    The situations of all hours lie in one flat sequence: those of hour h
    at positions `start[h]` up to `start[h + 1]`, and `hour` maps each
    position to its hour.  Per position: `forced`, the signed quantity of
    the in steps; `at_lo`/`at_hi`, the reach of the at-the-money steps on
    the hour's balance row; `lo`/`hi`, the situation bounds; and
    `rhs_scale`, the largest |forced| that a combination holding that
    situation can have in any hour.  Sums run in the compiled step order,
    market order of curves and curve order of steps, as a per-combination
    loop would run them, so every float is the same.
    """

    def __init__(self, cm: CompiledMarket, big: float):
        price, signed, _, width = cm.step_table[:, :4].T.tolist()
        hour, _, curve = cm.step_index.tolist()
        prices: list[set[float]] = [set() for _ in range(cm.K)]
        for h, p in zip(hour, price):
            prices[h].add(p)
        points = [sorted(ps) for ps in prices]
        self.start = [0, *itertools.accumulate(2 * len(pts) + 1 for pts in points)]
        self.hour = np.repeat(np.arange(len(points)), np.diff(self.start))
        self.lo = np.concatenate([np.append(-big, np.repeat(pts, 2)) for pts in points])
        self.hi = np.concatenate([np.append(np.repeat(pts, 2), big) for pts in points])
        self.forced = np.zeros(self.start[-1])
        self.at_lo = np.zeros(self.start[-1])
        self.at_hi = np.zeros(self.start[-1])
        rank = [{p: 2 * k + 1 for k, p in enumerate(pts)} for pts in points]
        steps: list[list[tuple[int, float, float, float]]] = [[] for _ in cm.curves]
        for h, c, p, w, size in zip(hour, curve, price, signed, width):
            first, j = self.start[h], rank[h][p]
            if w > 0:                       # a buy step; w is the signed width
                self.forced[first:first + j] += w
                self.at_hi[first + j] += size
            else:
                self.forced[first + j + 1:self.start[h + 1]] += w
                self.at_lo[first + j] -= size
            steps[c].append((j, 1.0 if w > 0 else -1.0, size, p))
        self.curves = list(zip([c.bid_id for c in cm.curves], cm.curve_hour, steps))
        size = np.abs(self.forced)
        top = [float(np.max(size[a:b])) for a, b in zip(self.start, self.start[1:])]
        others = np.array([max(top[:h] + top[h + 1:], default=0.0) for h in range(len(top))])
        self.rhs_scale = np.maximum(size, others[self.hour])


@dataclass
class _Pattern:
    """One block pattern with what its combinations share: the active
    blocks' bid ids, q rows, prices and minimum acceptance ratios (the
    no-loss rows q . lam <= price and the quantity LP's block columns)."""

    names: list[str]
    q: np.ndarray                # (active blocks, K)
    price: np.ndarray
    mar: np.ndarray
    price_scale: float           # max |price|

    @classmethod
    def of(cls, cm: CompiledMarket, z: tuple[int, ...], price_scale: float) -> _Pattern:
        active = [j for j, zj in enumerate(z) if zj]
        return cls([cm.blocks[j].bid_id for j in active], cm.block_q[active],
                   cm.block_table[active, 0], cm.block_table[active, 1], price_scale)


def _prefilter(cm: CompiledMarket, patterns: list[tuple[int, ...]], steps: _StepTable,
               tol: float) -> tuple[list[float], list[list[list[int]]]]:
    """Per block pattern, its max |price| over the active blocks and, per
    hour in ascending order, the situations that both prefilters keep (see
    the module docstring), in one array pass over patterns x situation
    positions."""
    on = np.array(patterns, dtype=bool).reshape(len(patterns), len(cm.blocks))
    q, price, mar = cm.block_q, cm.block_table[:, 0], cm.block_table[:, 1]
    # each pattern's reach on every balance row: the least and greatest
    # q_jh x_j over x_j in [mar_j, 1] of its active blocks, added in block order
    at_mar = q * mar[:, None]
    low, high = np.minimum(at_mar, q), np.maximum(at_mar, q)
    rmin, rmax = np.zeros((len(on), cm.K)), np.zeros((len(on), cm.K))
    for j, holds in enumerate(on.T):
        rmin[holds] += low[j]
        rmax[holds] += high[j]
    excess = _row_excess(rmin[:, steps.hour] + steps.at_lo,
                         rmax[:, steps.hour] + steps.at_hi, -steps.forced)
    drop = _screened_out(excess, steps.rhs_scale)
    # a pattern without active blocks: with no at-the-money step either,
    # `_clear_combo` checks tol
    drop[~on.any(axis=1)] &= np.abs(steps.forced) > tol
    scale = np.max(on * np.abs(price), axis=1, initial=0.0)
    for j in np.flatnonzero(np.count_nonzero(q, axis=1) == 1):
        # block j's one-hour no-loss row, in the hour of every position
        qs = q[j, steps.hour]
        violation = _least_terms(qs, steps.lo, steps.hi) - price[j]
        drop |= on[:, j, None] & _screened_out(violation, scale[:, None]) & (qs != 0)
    hours = list(zip(steps.start, steps.start[1:]))
    return scale.tolist(), [[[i - a for i in range(a, b) if row[i]] for a, b in hours]
                            for row in (~drop).tolist()]


def _block_patterns(cm: CompiledMarket) -> list[tuple[int, ...]]:
    """Every feasible indicator pattern over `cm.blocks`: one feasible
    pattern per component crossed with the others', in ascending bitmask
    order, as `model.iter_patterns` of all blocks would list them."""
    # block j's position in the components' concatenation
    where = sorted(range(len(cm.blocks)), key=[j for c in cm.components for j in c].__getitem__)
    flat = (sum(choice, ()) for choice in itertools.product(*cm.patterns))
    return sorted(tuple(z[k] for k in where) for z in flat)   # components may interleave


def clear_euphemia_style(market: Market, tol: float | None = None) -> EuphemiaResult:
    t = resolve_tol(tol)
    K = market.num_commodities
    cm = market.compiled
    steps = _StepTable(cm, _price_bound(cm))

    n_combos = math.prod(len(pats) for pats in cm.patterns)
    for a, b in zip(steps.start, steps.start[1:]):
        n_combos *= b - a
        if n_combos > MAX_COMBOS:
            raise ClearingComplexityError(
                f"more than {MAX_COMBOS} pattern/situation combinations")

    patterns = _block_patterns(cm)
    best = None
    bar = -np.inf                   # the welfare a combination must beat
    for z, scale, kept in zip(patterns, *_prefilter(cm, patterns, steps, t)):
        if not all(kept):           # an hour with no situation: no combination
            continue
        pattern = _Pattern.of(cm, z, scale)
        for idx in itertools.product(*kept):
            out = _clear_combo(pattern, steps, idx, t, bar)
            if out is None:
                continue
            welfare, curves, shares, excess = out
            if best is not None and not welfare > bar:
                continue
            pos = [steps.start[h] + i for h, i in enumerate(idx)]
            lo, hi = steps.lo[pos], steps.hi[pos]
            lam = None                  # deferred while certainly feasible
            if not _prices_certain(pattern, excess):
                lam = _feasible_prices(pattern, lo, hi)
                if lam is None:
                    continue
            best = (welfare, z, pattern, lo, hi, lam, curves, shares)
            bar = welfare + 1e-9 * (1.0 + abs(welfare))

    if best is None:
        return EuphemiaResult("no-clearing", (float("nan"),) * K,
                              Allocation({}), float("-inf"), (), n_combos)
    welfare, z, pattern, lo, hi, lam, curves, shares = best
    if lam is None:                     # certified, so it finds prices
        lam = _feasible_prices(pattern, lo, hi)
    # acceptances: rejected blocks, then curves, then LP shares
    acc = {b.bid_id: 0.0 for b, zj in zip(cm.blocks, z) if not zj}
    acc.update(curves)
    for name, share in shares:
        acc[name] = acc.get(name, 0.0) + share
    return EuphemiaResult("cleared", tuple(float(v) for v in lam),
                          Allocation(acc), welfare, tuple(pattern.names), n_combos)


def _clear_combo(pattern: _Pattern, steps: _StepTable, idx: tuple[int, ...],
                 tol: float, bar: float):
    """Welfare-maximal balanced quantities for one pattern/situation pair:
    (welfare, {curve bid_id: in-step quantity}, [(bid_id, signed LP share),
    ...], the price screen's excess), or None when they do not exist, a
    screen proves that no lossless prices do, or their welfare cannot exceed
    `bar`.  Without an active block the excess is -inf."""
    pos = [steps.start[h] + i for h, i in enumerate(idx)]
    excess = -np.inf
    if pattern.names:
        excess = _price_excess(pattern.q, pattern.price, steps.lo[pos], steps.hi[pos])
        if _screened_out(excess, pattern.price_scale):
            return None

    cols = list(pattern.q)
    cost = pattern.price.tolist()
    lo = pattern.mar.tolist()
    hi = [1.0] * len(pattern.names)
    owners = [(name, 1.0) for name in pattern.names]
    value = 0.0
    curves: dict[str, float] = {}
    # in steps add to the value and their curve's quantity; at the money, a column
    for name, hour, row in steps.curves:
        s = idx[hour]
        qty = 0.0
        for j, sign, width, price in row:
            if j == s:
                e = np.zeros(len(idx))
                e[hour] = 1.0
                cols.append(e * sign)
                cost.append(price * sign)
                lo.append(0.0)
                hi.append(width)
                owners.append((name, sign))
            elif (j > s) == (sign > 0):
                value += price * sign * width
                qty += sign * width
        curves[name] = qty
    forced = steps.forced[pos]
    if not cols:
        if float(np.max(np.abs(forced), initial=0.0)) > tol:
            return None
        return value, curves, [], excess
    cost, lo, hi = np.array(cost), np.array(lo), np.array(hi)
    if not _may_exceed(value, cost, lo, hi, bar):
        return None
    try:
        res = solve_lp(cost, np.column_stack(cols), -forced, None, None, lo, hi)
    except InfeasibleError:
        return None
    shares = [(name, sign * float(v)) for (name, sign), v in zip(owners, res.x)]
    return value + res.value, curves, shares, excess


def _may_exceed(value: float, cost: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                bar: float) -> bool:
    """Can `value + cost @ x`, as the quantity LP computes it for some x in
    [lo, hi], exceed `bar`?  The LP clips x into the box, so each term is at
    most max(c lo, c hi); `_BOUND_ROUNDING` covers the rounding of the dot
    product and of both sums."""
    top = value + float(np.maximum(cost * lo, cost * hi).sum())
    size = abs(value) + float(np.abs(cost) @ np.maximum(np.abs(lo), np.abs(hi)))
    return top + _BOUND_ROUNDING * (1.0 + size) > bar
