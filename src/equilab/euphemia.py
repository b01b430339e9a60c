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
block loses money.  Step statuses are classified once per (hour,
situation), not once per combination.

Few combinations are legal and fewer can win, so the LPs come last:

1. the quantity screen compares each balance row's reach over the column
   bounds with its right-hand side;
2. the price screen propagates the no-loss rows q . lam <= p once over the
   situation box;
3. the quantity LP runs;
4. the price LP runs only when that welfare would replace the incumbent.

A screen drops a combination only when it proves an LP infeasible by more
than `_SCREEN_MARGIN` relative, a thousand times the simplex's own
infeasibility tolerance, so the simplex would have raised.  For one hour
both screens are exact; for more hours they are a sound filter.  The
incumbent changes only where both LPs are feasible, so skipping the price
LP elsewhere changes nothing.

Patterns are visited in ascending bitmask order and situations in
lexicographic order.  A combination replaces the incumbent only when its
welfare is higher by more than 1e-9 relative, so among ties the first one
visited wins, and its price vector is the one reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .lp import InfeasibleError, solve_lp
from .model import Allocation, BlockBid, HourlyCurveBid, Market, iter_patterns

MAX_COMBOS = 200_000

# A screen drops a combination when the violation it proves exceeds this
# share of (1 + max |rhs|): a thousand times the simplex's fixed `lp.TOL`.
_SCREEN_MARGIN = 1e-6


class ClearingComplexityError(Exception):
    """The pattern/situation cross product is too large to enumerate."""


@dataclass(frozen=True)
class Situation:
    lo: float
    hi: float

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


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


def _hour_situations(prices: list[float], big: float) -> list[Situation]:
    pts = sorted(set(prices))
    if not pts:
        return [Situation(-big, big)]
    sits = [Situation(-big, pts[0])]
    for i, p in enumerate(pts):
        sits.append(Situation(p, p))
        hi = pts[i + 1] if i + 1 < len(pts) else big
        sits.append(Situation(p, hi))
    return sits


def _price_bound(market: Market) -> float:
    big = 1.0
    for agent in market.agents:
        for bid in agent.curve_bids:
            for st in bid.steps:
                big = max(big, abs(st.price))
        for bid in agent.block_bids:
            nz = np.abs(bid.q[np.abs(bid.q) > 0])
            if nz.size:
                big = max(big, abs(bid.price) / float(nz.min()), abs(bid.price))
    return big + 1.0


def _step_status(step, sit: Situation) -> str:
    """in / out / at for one curve step under one price situation."""
    p = step.price
    if step.is_buy:
        if sit.is_point:
            if p > sit.lo:
                return "in"
            if p < sit.lo:
                return "out"
            return "at"
        return "in" if p >= sit.hi else "out"
    if sit.is_point:
        if p < sit.lo:
            return "in"
        if p > sit.lo:
            return "out"
        return "at"
    return "in" if p <= sit.lo else "out"


# ---------------------------------------------------------------------------
# Interval screens

def _screened_out(excess: float, rhs_scale: float) -> bool:
    """Is a violation `excess`, proven for the whole box, large enough that
    `lp.solve_lp` on rows whose right-hand sides are at most `rhs_scale` in
    magnitude must raise InfeasibleError?  Its phase 1 ends at or above the
    least total violation and raises above `lp.TOL` * (1 + max |rhs|), with
    `lp.TOL` = 1e-9 fixed for every call."""
    return excess > _SCREEN_MARGIN * (1.0 + rhs_scale)


def _reach(A: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Least and greatest value of each row of A x over the box lo <= x <= hi."""
    at_lo, at_hi = A * lo, A * hi
    return np.minimum(at_lo, at_hi).sum(axis=1), np.maximum(at_lo, at_hi).sum(axis=1)


def _row_excess(rmin: np.ndarray, rmax: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of A x = b with reach [rmin, rmax] over the box: the violation
    that holds on the whole box, or minus the slack when b is within reach."""
    return np.maximum(rmin - b, b - rmax)


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
    low = np.where(Q > 0, Q * lo, Q * hi)               # least value of each term
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

def _feasible_prices(market: Market, active: list[BlockBid],
                     sits: list[Situation]) -> np.ndarray | None:
    """Smallest-magnitude price vector in the situation box meeting all
    active-block no-loss constraints, or None if the region is empty."""
    K = market.num_commodities
    lo = np.array([s.lo for s in sits] + [0.0] * K)
    hi = np.array([s.hi for s in sits] + [max(abs(s.lo), abs(s.hi)) for s in sits])
    c = np.concatenate([np.zeros(K), -np.ones(K)])     # maximize -sum m
    rows = []
    rhs = []
    for b in active:                                    # q . lam <= p
        rows.append(np.concatenate([b.q, np.zeros(K)]))
        rhs.append(b.price)
    eye = np.eye(K)
    for h in range(K):                                  # |lam_h| <= m_h
        rows.append(np.concatenate([eye[h], -eye[h]]))
        rhs.append(0.0)
        rows.append(np.concatenate([-eye[h], -eye[h]]))
        rhs.append(0.0)
    try:
        res = solve_lp(c, None, None, np.array(rows), np.array(rhs), lo, hi)
    except InfeasibleError:
        return None
    return res.x[:K]


@dataclass(frozen=True)
class _BidClass:
    """One curve bid's steps under one situation of its hour."""

    qty: float                               # signed quantity of the in steps
    values: tuple[float, ...]                # price * signed width, in steps
    at: tuple[tuple[float, float, float], ...]   # (sign, sign * price, width)


class _StepTable:
    """Curve steps classified once per (hour, situation).

    Per hour h and situation s: `forced[h][s]`, the signed quantity of the
    in steps; `at_lo[h][s]`/`at_hi[h][s]`, the reach of the at-the-money
    steps on balance row h; `classes[bid][s]` per curve bid.  Sums run in
    market order of bids and curve order of steps, as a per-combination
    loop would run them, so every float is the same.
    """

    def __init__(self, market: Market, situations: list[list[Situation]]):
        self.bids: list[HourlyCurveBid] = [bid for agent in market.agents
                                           for bid in agent.curve_bids]
        self.forced = [[0.0] * len(sits) for sits in situations]
        self.at_lo = [[0.0] * len(sits) for sits in situations]
        self.at_hi = [[0.0] * len(sits) for sits in situations]
        self.classes: list[list[_BidClass]] = []
        for bid in self.bids:
            h = bid.hour
            row = []
            for si, sit in enumerate(situations[h]):
                qty = 0.0
                values = []
                at = []
                for st in bid.steps:
                    status = _step_status(st, sit)
                    sign = 1.0 if st.is_buy else -1.0
                    if status == "in":
                        qty += sign * st.width
                        self.forced[h][si] += sign * st.width
                        values.append(st.price * sign * st.width)
                    elif status == "at":
                        at.append((sign, st.price * sign, st.width))
                        if sign > 0:
                            self.at_hi[h][si] += st.width
                        else:
                            self.at_lo[h][si] -= st.width
                row.append(_BidClass(qty, tuple(values), tuple(at)))
            self.classes.append(row)


@dataclass
class _Pattern:
    """One block pattern with what its combinations share: the no-loss rows
    q . lam <= price of the active blocks, and per hour h and situation s the
    quantity screen's excess on balance row h (see `_row_excess`)."""

    active: list[BlockBid]
    q: np.ndarray                # (active blocks, K)
    price: np.ndarray
    price_scale: float           # max |price|
    excess: list[list[float]]

    @classmethod
    def of(cls, blocks, z, steps: _StepTable, K: int) -> _Pattern:
        active = [b for b, zi in zip(blocks, z) if zi]
        q = np.array([b.q for b in active]).reshape(len(active), K)
        price = np.array([b.price for b in active])
        rmin, rmax = _reach(q.T, np.array([b.mar for b in active]), np.ones(len(active)))
        excess = [_row_excess(rmin[h] + np.array(steps.at_lo[h]),
                              rmax[h] + np.array(steps.at_hi[h]),
                              -np.array(steps.forced[h])).tolist()
                  for h in range(K)]
        return cls(active, q, price, float(np.max(np.abs(price), initial=0.0)), excess)


def clear_euphemia_style(market: Market, tol: float | None = None) -> EuphemiaResult:
    t = resolve_tol(tol)
    K = market.num_commodities
    big = _price_bound(market)

    hour_prices: list[list[float]] = [[] for _ in range(K)]
    for agent in market.agents:
        for bid in agent.curve_bids:
            for st in bid.steps:
                hour_prices[bid.hour].append(st.price)
    situations = [_hour_situations(ps, big) for ps in hour_prices]

    blocks = [b for agent in market.agents for b in agent.block_bids]
    patterns = list(iter_patterns(blocks))
    n_combos = len(patterns)
    for sits in situations:
        n_combos *= len(sits)
        if n_combos > MAX_COMBOS:
            raise ClearingComplexityError(
                f"more than {MAX_COMBOS} pattern/situation combinations")

    steps = _StepTable(market, situations)
    best = None
    checked = 0
    for z in patterns:
        pattern = _Pattern.of(blocks, z, steps, K)
        for idx in itertools.product(*(range(len(sits)) for sits in situations)):
            checked += 1
            out = _clear_combo(pattern, steps, situations, idx, t)
            if out is None:
                continue
            welfare, shares = out
            if best is not None and not welfare > best[0] + 1e-9 * (1.0 + abs(best[0])):
                continue
            lam = _feasible_prices(market, pattern.active,
                                   [situations[h][i] for h, i in enumerate(idx)])
            if lam is None:
                continue
            best = (welfare, _acceptances(blocks, z, steps, idx, shares), lam,
                    tuple(b.bid_id for b in pattern.active))

    if best is None:
        return EuphemiaResult("no-clearing", (float("nan"),) * K,
                              Allocation({}), float("-inf"), (), checked)
    welfare, acc, lam, names = best
    return EuphemiaResult("cleared", tuple(float(v) for v in lam),
                          Allocation(acc), welfare, names, checked)


def _clear_combo(pattern: _Pattern, steps: _StepTable, situations,
                 idx: tuple[int, ...], tol: float):
    """Welfare-maximal balanced quantities for one pattern/situation pair:
    (welfare, [(bid_id, signed LP share), ...]), or None when they do not
    exist or a screen proves that no lossless prices do."""
    forced = [steps.forced[h][i] for h, i in enumerate(idx)]
    # steps have positive width, so a zero reach means no at-the-money step
    if not pattern.active and not any(steps.at_lo[h][i] or steps.at_hi[h][i]
                                      for h, i in enumerate(idx)):
        if float(np.max(np.abs(forced), initial=0.0)) > tol:
            return None
        return _forced_value(steps, idx), []
    if _screened_out(max(pattern.excess[h][i] for h, i in enumerate(idx)),
                     max(abs(f) for f in forced)):
        return None
    if pattern.active:
        sits = [situations[h][i] for h, i in enumerate(idx)]
        if _screened_out(_price_excess(pattern.q, pattern.price,
                                       np.array([s.lo for s in sits]),
                                       np.array([s.hi for s in sits])),
                         pattern.price_scale):
            return None

    classes = [row[idx[bid.hour]] for bid, row in zip(steps.bids, steps.classes)]
    cols = [np.asarray(blk.q, dtype=float) for blk in pattern.active]
    cost = [blk.price for blk in pattern.active]
    lo = [blk.mar for blk in pattern.active]
    hi = [1.0] * len(pattern.active)
    owners = [(blk.bid_id, 1.0) for blk in pattern.active]
    for bid, cls in zip(steps.bids, classes):
        for sign, price, width in cls.at:
            e = np.zeros(len(idx))
            e[bid.hour] = 1.0
            cols.append(e * sign)
            cost.append(price)
            lo.append(0.0)
            hi.append(width)
            owners.append((bid.bid_id, sign))
    try:
        res = solve_lp(np.array(cost), np.column_stack(cols), -np.array(forced),
                       None, None, np.array(lo), np.array(hi))
    except InfeasibleError:
        return None
    shares = [(name, sign * float(v)) for (name, sign), v in zip(owners, res.x)]
    return _forced_value(steps, idx) + res.value, shares


def _forced_value(steps: _StepTable, idx) -> float:
    """Summed value of the in steps, in market order."""
    total = 0.0
    for bid, row in zip(steps.bids, steps.classes):
        for v in row[idx[bid.hour]].values:
            total += v
    return total


def _acceptances(blocks, z, steps: _StepTable, idx, shares) -> dict[str, float]:
    """Acceptance per bid: rejected blocks, then curves, then LP shares."""
    acc: dict[str, float] = {}
    for b, zi in zip(blocks, z):
        if not zi:
            acc[b.bid_id] = 0.0
    for bid, row in zip(steps.bids, steps.classes):
        acc[bid.bid_id] = row[idx[bid.hour]].qty
    for name, share in shares:
        acc[name] = acc.get(name, 0.0) + share
    return acc
