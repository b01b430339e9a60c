"""The unscreened uniform-price enumerator, kept as an optimality oracle.

This is `equilab.euphemia.clear_euphemia_style` as it was before the interval
screens, the quantity-first order and the per-(hour, situation) step
classification: for every block pattern and every per-hour price situation it
solves the price LP and then the quantity LP, with no pruning.  The package
version must return the same result, field for field.

`kept_situations` is the per-pattern form of the package's prefilter pass,
as the package ran it before one array pass covered all patterns; the pass
must keep the same situations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from equilab.config import resolve_tol
from equilab.euphemia import (MAX_COMBOS, ClearingComplexityError, EuphemiaResult,
                              _least_terms, _row_excess, _screened_out, _StepTable)
from equilab.lp import InfeasibleError, solve_lp
from equilab.model import Allocation, BlockBid, CompiledMarket, Market, iter_patterns


@dataclass(frozen=True)
class Situation:
    lo: float
    hi: float

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


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
    if step.lo >= 0.0:
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


def _feasible_prices(market: Market, active: list[BlockBid],
                     sits: list[Situation], tol: float) -> np.ndarray | None:
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

    best = None
    checked = 0
    for z in patterns:
        active = [b for b, zi in zip(blocks, z) if zi]
        for combo in itertools.product(*situations):
            checked += 1
            lam = _feasible_prices(market, active, list(combo), t)
            if lam is None:
                continue
            out = _clear_combo(market, blocks, z, combo, t)
            if out is None:
                continue
            welfare, acc = out
            if best is None or welfare > best[0] + 1e-9 * (1.0 + abs(best[0])):
                best = (welfare, acc, lam, tuple(b.bid_id for b in active))

    if best is None:
        return EuphemiaResult("no-clearing", (float("nan"),) * K,
                              Allocation({}), float("-inf"), (), checked)
    welfare, acc, lam, names = best
    return EuphemiaResult("cleared", tuple(float(v) for v in lam),
                          Allocation(acc), welfare, names, checked)


def _clear_combo(market: Market, blocks, z, combo, tol: float):
    """Welfare-maximal balanced quantities for one pattern/situation pair."""
    K = market.num_commodities
    forced = np.zeros(K)
    forced_value = 0.0
    acc: dict[str, float] = {}
    cols: list[np.ndarray] = []
    cost: list[float] = []
    bounds: list[tuple[float, float]] = []
    owners: list[tuple[str, float]] = []   # bid_id, signed unit contribution

    for b, zi in zip(blocks, z):
        if not zi:
            acc[b.bid_id] = 0.0
            continue
        cols.append(np.asarray(b.q, dtype=float))
        cost.append(b.price)
        bounds.append((b.mar, 1.0))
        owners.append((b.bid_id, 1.0))

    for agent in market.agents:
        for bid in agent.curve_bids:
            sit = combo[bid.hour]
            qty = 0.0
            e = np.zeros(K)
            e[bid.hour] = 1.0
            for idx, st in enumerate(bid.steps):
                status = _step_status(st, sit)
                sign = 1.0 if st.lo >= 0.0 else -1.0
                width = st.hi - st.lo
                if status == "in":
                    qty += sign * width
                    forced[bid.hour] += sign * width
                    forced_value += st.price * sign * width
                elif status == "at":
                    cols.append(e * sign)
                    cost.append(st.price * sign)
                    bounds.append((0.0, width))
                    owners.append((bid.bid_id, sign))
            acc[bid.bid_id] = qty

    if cols:
        A = np.column_stack(cols)
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        try:
            res = solve_lp(np.array(cost), A, -forced, None, None, lo, hi)
        except InfeasibleError:
            return None
        for (name, sign), v in zip(owners, res.x):
            acc[name] = acc.get(name, 0.0) + sign * float(v)
        return forced_value + res.value, acc
    if float(np.max(np.abs(forced), initial=0.0)) > tol:
        return None
    return forced_value, acc


def reach(A: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Least and greatest value of each row of A x over the box lo <= x <= hi."""
    at_lo, at_hi = A * lo, A * hi
    return np.minimum(at_lo, at_hi).sum(axis=1), np.maximum(at_lo, at_hi).sum(axis=1)


def kept_situations(cm: CompiledMarket, z: tuple[int, ...], steps: _StepTable,
                    tol: float) -> list[list[int]]:
    """Per hour, in ascending order, the situations of `steps` that the
    quantity and no-loss prefilters keep for block pattern `z`, computed for
    this pattern alone."""
    active = [j for j, zj in enumerate(z) if zj]
    q = cm.block_q[active]
    price, mar = cm.block_table[active, 0], cm.block_table[active, 1]
    price_scale = float(np.max(np.abs(price), initial=0.0))
    rmin, rmax = reach(q.T, mar, np.ones(len(active)))
    excess = _row_excess(rmin[steps.hour] + steps.at_lo, rmax[steps.hour] + steps.at_hi,
                         -steps.forced)
    drop = _screened_out(excess, steps.rhs_scale)
    if not active:
        # with no at-the-money step either, a combination checks tol
        drop &= np.abs(steps.forced) > tol
    single = np.count_nonzero(q, axis=1) == 1
    if single.any():
        # each one-hour row's quantity in the hour of every position
        qs = q[single][:, steps.hour]
        violation = _least_terms(qs, steps.lo, steps.hi) - price[single][:, None]
        drop |= (_screened_out(violation, price_scale) & (qs != 0)).any(axis=0)
    return [np.flatnonzero(~drop[a:b]).tolist()
            for a, b in zip(steps.start, steps.start[1:])]
