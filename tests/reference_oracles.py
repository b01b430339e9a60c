"""Reference implementations kept as test oracles.

`brute_force_welfare` enumerates every feasible indicator pattern and solves
the residual LP for each; the branch-and-bound welfare search is tested
against it.  `in_hull` decides membership in the convex hull of a point cloud
by a small phase-1 LP on the weights.  `collinear_model` fits a line through
a list of pieces and reads their intervals on it; `DemandSet.line` is tested
against it.  All three are kept as they were in the package, except that
`brute_force_welfare` reads its allocation through `allocation_from`.
`reference_simplex` is the bounded-variable simplex as it was before
`lp.solve_lp` cut its numpy call overhead: one `np.linalg.solve` per basis
solve, the basis matrix gathered afresh each pivot, and the ratio test over
numpy scalars.  `lp.solve_lp` must return the same bytes and raise the same
errors.  `reference_nonconvexity` is the measure's full max-min loop:
every candidate hull point projected on every piece.  `nonconvexity`, which
stops a candidate once it cannot be the first maximum, must return the same
floats, and `_reference_union_distance`, the least distance over every
piece, decides `DemandSet.contains`.  `reference_build_convexified`, `reference_demand_set`
and `reference_classify_money` are the welfare LP build, demand-set build and
money classification as they were before they read `Market.compiled`: one
agent and one bid at a time, with the per-curve closed forms
`best_surplus`, `demand_interval` and `curve_margin`; `agent_bundle` is one
agent's bundle summed bid by bid.  The compiled path must give the same
bytes.  The LP build returns a `ReferenceProgram`, which keeps the per-bid
column maps the program held before it carried the compiled market, and
its `allocation_from` is the dict loop `ConvexifiedProgram.allocation_from`
must match.  `acceptance_feasible` and `agent_value` are one agent's
feasibility and value as they were before `CompiledMarket.values` computed
every agent's at once: a loop over the agent's bids, `curve_value` and
`quantity_range` per curve (moved here unchanged from `equilab.curves`), and
`pattern_feasible` over the active blocks.  `values` must give the same
floats, and -inf exactly where `acceptance_feasible` is False.
`reference_market_volumes` is `market_io.market_volumes` as it was before it
read `Market.compiled`: a walk over every agent's curve bids and block bids.
`market_volumes` must give the same floats.  `canonical_generators` is one
piece's canonical form from its (direction, lo, hi) generators:
`geometry.fold_generators` of each one's `geometry.generator_form`, the
per-pattern reference of `DemandSet.canonical`.
`aggregate_demand_convexity_check` is the single-commodity existence check
moved here unchanged from `equilab.equilibria`: a convex aggregate demand
set at lambda* is sufficient for an equilibrium, and the check then builds
and certifies one.  `singleton_demand_equilibrium_check` is the
singleton-demand existence check moved here unchanged from the same module:
if every block-owning agent demands one bundle at lambda*, the snapped
allocation is an equilibrium.  Hull pricing decides existence exactly (its
total lost opportunity cost is zero exactly when an equilibrium exists), and
the tests hold both checks against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from equilab import geometry, lp
from equilab.config import ordered_sum, vector_norm
from equilab.lp import (TOL, _REFRESH_EVERY, _STALL_LIMIT, InfeasibleError,
                        LpResult, SimplexError)
from equilab.config import resolve_tol
from equilab.convexify import DualSolution, build_convexified
from equilab.demand import DemandSet, MoneyClasses
from equilab.equilibria import (EquilibriumCertificate, demand_snapped_allocation,
                                detect_equilibrium)
from equilab.model import (Agent, Allocation, BlockBid, HourlyCurveBid, Market,
                           block_components, iter_patterns, pattern_feasible)
from equilab.welfare import ExactSolution

BRUTE_FORCE_MAX_BLOCKS = 20


def brute_force_welfare(market: Market, tol: float | None = None) -> ExactSolution:
    """Enumerate all feasible indicator patterns; residual LP for each."""
    blocks = tuple(b for a in market.agents for b in a.block_bids)
    if len(blocks) > BRUTE_FORCE_MAX_BLOCKS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_BLOCKS} blocks, "
                         f"market has {len(blocks)}")
    program = build_convexified(market)
    best_val = -np.inf
    best_alloc: Allocation | None = None
    n_patterns = 0
    for z in itertools.product((0, 1), repeat=len(blocks)):
        if not pattern_feasible(blocks, z):
            continue
        n_patterns += 1
        overrides = {j: ((b.mar, 1.0) if zi else (0.0, 0.0))
                     for j, (b, zi) in enumerate(zip(blocks, z))}
        try:
            res = program.solve_raw(overrides)
        except lp.InfeasibleError:
            continue
        if res.value > best_val + 1e-12 * (1.0 + abs(res.value)):
            best_val, best_alloc = res.value, program.allocation_from(res.x)
    if best_alloc is None:
        raise lp.InfeasibleError("no feasible indicator pattern")
    return ExactSolution(best_val, best_alloc, n_patterns, 0.0)


def in_hull(x, points: np.ndarray, tol: float) -> bool:
    """Is x within tol of conv(points)?  Small phase-1 LP on the weights."""
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    npts, dim = points.shape
    scale = 1.0 + float(np.max(np.abs(points), initial=0.0)) + float(np.max(np.abs(x)))
    # Variables: weights w, elementwise deviation e+ / e-.
    n = npts + 2 * dim
    c = np.zeros(n)
    c[npts:] = -1.0
    a_eq = np.zeros((dim + 1, n))
    a_eq[:dim, :npts] = points.T
    a_eq[:dim, npts:npts + dim] = np.eye(dim)
    a_eq[:dim, npts + dim:] = -np.eye(dim)
    a_eq[dim, :npts] = 1.0
    b_eq = np.concatenate([x, [1.0]])
    hi = np.concatenate([np.ones(npts), np.full(2 * dim, 2.0 * scale)])
    try:
        res = lp.solve_lp(c, a_eq=a_eq, b_eq=b_eq, lo=np.zeros(n), hi=hi)
    except lp.InfeasibleError:
        return False
    return -res.value <= tol * scale


def collinear_model(pieces, tol: float = 1e-9):
    """If the union lies on a line, return (origin, unit, intervals) else None."""
    dirs: list[np.ndarray] = []
    offs = [p.offset for p in pieces]
    for p in pieces:
        dirs.extend(p.units)
    for o in offs[1:]:
        dirs.append(o - offs[0])
    unit = None
    for d in dirs:
        if np.linalg.norm(d) > tol:
            unit = d / np.linalg.norm(d)
            break
    if unit is None:  # all pieces are the same single point
        return offs[0], np.zeros_like(offs[0]), [(0.0, 0.0) for _ in pieces]
    scale = 1.0 + max(float(np.linalg.norm(d)) for d in dirs)
    for d in dirs:
        if np.linalg.norm(d - (d @ unit) * unit) > tol * scale:
            return None
    origin = offs[0]
    intervals = []
    for p, o in zip(pieces, offs):
        t0 = float((o - origin) @ unit)
        lo_t, hi_t = t0, t0
        for u, lo, hi in zip(p.units, p.lo.tolist(), p.hi.tolist()):
            s = float(u @ unit)
            lo_t += min(s * lo, s * hi)
            hi_t += max(s * lo, s * hi)
        intervals.append((lo_t, hi_t))
    return origin, unit, intervals


def canonical_generators(offset, gens):
    return geometry.fold_generators(offset, [geometry.generator_form(*g) for g in gens])


def _reference_union_distance(pieces, x, norm):
    return min(geometry.piece_distance(p, x, norm) for p in pieces)


def reference_nonconvexity(demand, norm="l2", probes=()):
    """The measure with every candidate projected on every piece."""
    line = demand.line
    if line is not None:
        return max([line.gap_radius() * vector_norm(line.unit, norm)]
                   + [_reference_union_distance(demand.pieces, x, norm) for x in probes])
    pieces = demand.pieces
    if len(pieces) == 1 and not probes:
        return 0.0
    candidates = [v for p in pieces for v in geometry.piece_vertices(p)]
    for a, b in itertools.combinations(pieces, 2):
        _, pa, pb = geometry.closest_pair(a, b)
        candidates.append(0.5 * (pa + pb))
    candidates.extend(np.asarray(x, dtype=float) for x in probes)
    return max(_reference_union_distance(pieces, x, norm) for x in candidates)


def reference_simplex(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
                      lo=None, hi=None) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    lo = np.zeros(n) if lo is None else np.asarray(lo, dtype=float).ravel()
    hi = np.ones(n) if hi is None else np.asarray(hi, dtype=float).ravel()
    if np.any(lo > hi + TOL):
        raise InfeasibleError("empty variable bound")
    hi = np.maximum(hi, lo)

    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        x = np.where(c > 0, hi, lo)
        x = np.where(c == 0, lo, x)
        if not np.all(np.isfinite(x)):
            raise SimplexError("unbounded")
        return LpResult(x, float(c @ x), np.zeros(0), np.zeros(0), 0)

    # Columns: n structural | m_ub slacks | m artificials.
    big = np.inf
    A = np.zeros((m, n + m_ub + m))
    A[:m_eq, :n] = a_eq
    A[m_eq:, :n] = a_ub
    A[m_eq:, n:n + m_ub] = np.eye(m_ub)
    b = np.concatenate([b_eq, b_ub])
    L = np.concatenate([lo, np.zeros(m_ub), np.zeros(m)])
    U = np.concatenate([hi, np.full(m_ub, big), np.full(m, big)])
    N = n + m_ub + m

    # Start: structural at a finite bound, slacks at zero, artificials carry
    # the residual with a sign-matched column so the identity basis is feasible.
    values = np.zeros(N)
    values[:n] = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    at_upper = np.zeros(N, dtype=bool)
    at_upper[:n] = ~np.isfinite(lo) & np.isfinite(hi)
    resid = b - A[:, :n + m_ub] @ values[:n + m_ub]
    for r in range(m):
        A[r, n + m_ub + r] = 1.0 if resid[r] >= 0 else -1.0
        values[n + m_ub + r] = abs(resid[r])
    basis = list(range(n + m_ub, N))

    state = ReferenceState(A, b, L, U, values, at_upper, basis)

    if np.max(np.abs(resid), initial=0.0) > TOL:
        c1 = np.zeros(N)
        c1[n + m_ub:] = -1.0
        state.optimize(c1)
        if -(c1 @ state.values) > TOL * (1.0 + np.max(np.abs(b), initial=0.0)):
            raise InfeasibleError("no feasible point")
    # Pin artificials for phase 2.
    state.L[n + m_ub:] = 0.0
    state.U[n + m_ub:] = 0.0
    state.values[n + m_ub:] = np.clip(state.values[n + m_ub:], 0.0, 0.0)

    c2 = np.zeros(N)
    c2[:n] = c
    y = state.optimize(c2)

    x = state.values[:n].copy()
    x = np.clip(x, lo, hi)
    return LpResult(x, float(c @ x), y[:m_eq].copy(), y[m_eq:].copy(),
                    state.total_iters)


class ReferenceState:
    def __init__(self, A, b, L, U, values, at_upper, basis):
        self.A, self.b, self.L, self.U = A, b, L, U
        self.values, self.at_upper, self.basis = values, at_upper, basis
        self.max_iter = 200 * sum(A.shape) + 2000
        self.total_iters = 0

    def _basic_solve(self, B, rhs):
        try:
            return np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(B)
            raise SimplexError(f"singular basis (cond={cond:.3e})") from exc

    def _refresh(self, in_basis):
        nb = ~in_basis
        rhs = self.b - self.A[:, nb] @ self.values[nb]
        B = self.A[:, self.basis]
        self.values[self.basis] = self._basic_solve(B, rhs)

    def optimize(self, c):
        """Run the pivot loop for cost vector c; returns row multipliers."""
        A, L, U, tol = self.A, self.L, self.U, TOL
        m, N = A.shape
        in_basis = np.zeros(N, dtype=bool)
        in_basis[self.basis] = True
        bland = False
        stall = 0
        best = -np.inf
        it = 0
        while True:
            if it >= self.max_iter:
                raise SimplexError("iteration limit reached")
            if it % _REFRESH_EVERY == 0 and it:
                self._refresh(in_basis)
            B = A[:, self.basis]
            y = self._basic_solve(B.T, c[self.basis])
            d = c - y @ A
            movable = (U - L > tol) & ~in_basis
            up = movable & ~self.at_upper & (d > tol)
            down = movable & self.at_upper & (d < -tol)
            cand = np.flatnonzero(up | down)
            if cand.size == 0:
                self.total_iters += it
                return y
            if bland:
                e = int(cand[0])
            else:
                gains = np.abs(d[cand])
                e = int(cand[int(np.argmax(gains))])
            sigma = -1.0 if self.at_upper[e] else 1.0

            w = self._basic_solve(B, A[:, e])
            # Ratio test: entering moves by sigma*t, basics by -sigma*t*w.
            t_best = U[e] - L[e]
            leave_pos = -1
            hit_upper = False
            for pos, j in enumerate(self.basis):
                delta = -sigma * w[pos]
                if delta > tol:
                    room, upper = U[j] - self.values[j], True
                elif delta < -tol:
                    room, upper = self.values[j] - L[j], False
                else:
                    continue
                t = room / abs(delta)
                if t < t_best - 1e-12:
                    t_best, leave_pos, hit_upper = t, pos, upper
                elif t <= t_best + 1e-12 and leave_pos >= 0:
                    if (bland and j < self.basis[leave_pos]) or (
                            not bland and abs(w[pos]) > abs(w[leave_pos]) + 1e-12):
                        t_best, leave_pos, hit_upper = min(t, t_best), pos, upper
            if not np.isfinite(t_best):
                raise SimplexError("unbounded")
            t_best = max(t_best, 0.0)

            self.values[e] += sigma * t_best
            self.values[self.basis] -= sigma * t_best * w
            if leave_pos < 0:
                # Bound flip, basis unchanged.
                self.at_upper[e] = not self.at_upper[e]
                self.values[e] = U[e] if self.at_upper[e] else L[e]
            else:
                j = self.basis[leave_pos]
                in_basis[j] = False
                self.at_upper[j] = hit_upper
                self.values[j] = U[j] if hit_upper else L[j]
                self.basis[leave_pos] = e
                in_basis[e] = True

            obj = float(c @ self.values)
            if best == -np.inf or obj > best + 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            it += 1




def _result_bytes(res):
    return (res.x.tobytes(), repr(res.value), res.duals_eq.tobytes(),
            res.duals_ub.tobytes(), res.iterations)


def simplex_outcome(solve, args, kwargs):
    """What `solve(*args, **kwargs)` returns, as bytes, or the error it raises."""
    try:
        return _result_bytes(solve(*args, **kwargs))
    except SimplexError as exc:
        return type(exc), str(exc)


def record_simplex_calls(monkeypatch, modules, run):
    """Run `run()` with the `solve_lp` of each module recorded.

    Returns, per call, copies of its arguments and its `simplex_outcome`."""
    solve = lp.solve_lp
    calls = []

    def recording(*args, **kwargs):
        copied = ([None if a is None else np.array(a, dtype=float) for a in args],
                  {k: None if v is None else np.array(v, dtype=float)
                   for k, v in kwargs.items()})
        try:
            res = solve(*args, **kwargs)
        except SimplexError as exc:
            calls.append((*copied, (type(exc), str(exc))))
            raise
        calls.append((*copied, _result_bytes(res)))
        return res

    for module in modules:
        monkeypatch.setattr(module, "solve_lp", recording)
    run()
    return calls


# ---------------------------------------------------------------------------
# The per-agent builds, before the compiled market

def reference_market_volumes(market: Market) -> tuple[float, float]:
    """(convex, nonconvex) submitted volume: curve spans vs block quantities."""
    convex = 0.0
    nonconvex = 0.0
    for agent in market.agents:
        for bid in agent.curve_bids:
            convex += ordered_sum(s.hi - s.lo for s in bid.steps)
        for bid in agent.block_bids:
            nonconvex += float(np.sum(np.abs(bid.q)))
    return convex, nonconvex


def agent_bundle(agent: Agent, acceptances, K: int) -> np.ndarray:
    """Net signed bundle in R^K implied by the acceptances."""
    x = np.zeros(K)
    for bid in agent.bids:
        a = float(acceptances[bid.bid_id])
        if isinstance(bid, HourlyCurveBid):
            x[bid.hour] += a
        else:
            x += a * bid.q
    return x


@dataclass
class ReferenceProgram:
    """The welfare LP arrays, with the per-bid column maps the program kept
    before it read its columns from `Market.compiled`."""

    objective: np.ndarray
    balance: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    block_col: dict              # bid_id -> column
    curve_cols: dict             # bid_id -> ((column, signed step width), ...)

    def allocation_from(self, x: np.ndarray) -> Allocation:
        acc: dict[str, float] = {}
        for bid_id, col in self.block_col.items():
            acc[bid_id] = float(x[col])
        for bid_id, cols in self.curve_cols.items():
            acc[bid_id] = ordered_sum(x[c] * w for c, w in cols)
        return Allocation(acc)


def reference_build_convexified(market: Market) -> ReferenceProgram:
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
                    width = step.hi - step.lo
                    contrib = width if step.lo >= 0.0 else -width
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
    return ReferenceProgram(
        objective=np.asarray(c, dtype=float),
        balance=balance,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        lo=np.zeros(n),
        hi=np.ones(n),
        block_col=block_col,
        curve_cols=curve_cols,
    )


def demand_interval(steps, price: float, tol: float | None = None) -> tuple[float, float]:
    """Exact argmax interval of u(x) - price*x over the curve's range.

    Buy units are taken iff their marginal value exceeds the price, sell units
    iff the price exceeds their marginal cost; units within tolerance of the
    price are optional, which widens the interval.
    """
    t = resolve_tol(tol)
    lo_acc = 0.0
    hi_acc = 0.0
    for s in steps:
        slack = t * (1.0 + max(abs(s.price), abs(price)))
        width = s.hi - s.lo
        if s.lo >= 0.0:
            if s.price >= price - slack:
                hi_acc += width
            if s.price > price + slack:
                lo_acc += width
        else:
            if s.price <= price + slack:
                lo_acc -= width
            if s.price < price - slack:
                hi_acc -= width
    return lo_acc, hi_acc


def best_surplus(steps, price: float) -> float:
    """max over x of u(x) - price*x; closed form per step."""
    total = 0.0
    for s in steps:
        if s.lo >= 0.0:
            total += (s.hi - s.lo) * max(0.0, s.price - price)
        else:
            total += (s.hi - s.lo) * max(0.0, price - s.price)
    return total


def curve_margin(steps, price: float) -> float:
    """Best per-unit margin of the curve at `price` (negative = out of the money)."""
    best = float("-inf")
    for s in steps:
        m = (s.price - price) if s.lo >= 0.0 else (price - s.price)
        best = max(best, m)
    return best


def _money_class(margin: float, scale: float, tol: float) -> str:
    slack = tol * (1.0 + scale)
    if margin > slack:
        return "in"
    if margin < -slack:
        return "out"
    return "at"


def _block_money(bid: BlockBid, lam: np.ndarray, tol: float) -> tuple[float, str]:
    margin = float(bid.price - lam @ bid.q)
    return margin, _money_class(margin, abs(bid.price) + abs(float(lam @ bid.q)), tol)


def reference_classify_money(market: Market, lam, tol: float | None = None) -> MoneyClasses:
    t = resolve_tol(tol)
    lam = np.asarray(lam, dtype=float)
    classes: dict[str, str] = {}
    margins: dict[str, float] = {}
    for agent in market.agents:
        for bid in agent.bids:
            if isinstance(bid, BlockBid):
                m, cls = _block_money(bid, lam, t)
            else:
                m = curve_margin(bid.steps, float(lam[bid.hour]))
                scale = max((abs(s.price) for s in bid.steps), default=0.0) + abs(float(lam[bid.hour]))
                cls = _money_class(m, scale, t)
            classes[bid.bid_id] = cls
            margins[bid.bid_id] = m
    return MoneyClasses(classes, margins)


def _pattern_factors(blocks: tuple[BlockBid, ...], lam: np.ndarray, tol: float):
    money = [_block_money(b, lam, tol) for b in blocks]
    best = 0.0
    scored = []
    for z in iter_patterns(blocks):
        s = banded = 0.0
        for b, zi, (m, cls) in zip(blocks, z, money):
            if zi:
                s += m if m > 0 else b.mar * m
                if cls == "in":
                    banded += m
                elif cls == "out":
                    banded += b.mar * m
        best = max(best, s)
        scored.append((banded, z))
    top = max(f[0] for f in scored)
    slack = tol * (1.0 + abs(top))
    kept = []
    for z in [z for banded, z in scored if banded >= top - slack]:
        offset = np.zeros(lam.size)
        fixed = []
        free = []
        for b, zi, (m, cls) in zip(blocks, z, money):
            if not zi:
                fixed.append((b.bid_id, 0.0))
            elif cls == "in":
                offset += b.q
                fixed.append((b.bid_id, 1.0))
            elif cls == "at":
                free.append((b.bid_id, b.q, b.mar, 1.0))
            else:
                offset += b.mar * b.q
                fixed.append((b.bid_id, b.mar))
        kept.append((offset, tuple(fixed), tuple(free)))
    return best, tuple(kept)


def reference_demand_set(agent: Agent, lam, K: int | None = None,
                         tol: float | None = None) -> DemandSet:
    t = resolve_tol(tol)
    lam = np.asarray(lam, dtype=float)
    K = lam.size if K is None else K

    total = 0.0
    curve_free = []
    for bid in agent.curve_bids:
        price = float(lam[bid.hour])
        total += best_surplus(bid.steps, price)
        a, b = demand_interval(bid.steps, price, t)
        e = np.zeros(K)
        e[bid.hour] = 1.0
        curve_free.append((bid.bid_id, e, a, b))

    factors = [((np.zeros(K), (), tuple(curve_free)),)]
    blocks = agent.block_bids
    for comp in block_components(blocks):
        best, kept = _pattern_factors(tuple(blocks[i] for i in comp), lam, t)
        total += best
        factors.append(kept)
    return DemandSet(t, total, tuple(factors))


def reference_dual_value(market: Market, lam, tol: float | None = None) -> float:
    return ordered_sum(reference_demand_set(agent, lam, market.num_commodities, tol).best_surplus
                       for agent in market.agents)


def quantity_range(steps) -> tuple[float, float]:
    """Feasible signed quantity interval [x_lo, x_hi]; always contains 0."""
    lo = min((s.lo for s in steps), default=0.0)
    hi = max((s.hi for s in steps), default=0.0)
    return min(lo, 0.0), max(hi, 0.0)


def curve_value(steps, x: float) -> float:
    """Integral of the marginal price from 0 to the signed quantity x."""
    total = 0.0
    if x >= 0.0:
        for s in steps:
            if s.lo >= 0.0:
                take = max(0.0, min(x, s.hi) - s.lo)
                total += s.price * take
    else:
        for s in steps:
            if s.hi <= 0.0:
                take = max(0.0, s.hi - max(x, s.lo))
                total -= s.price * take
    return total


def acceptance_feasible(agent: Agent, acceptances: Mapping[str, float],
                        tol: float | None = None) -> bool:
    """True iff the per-bid acceptances lie in the agent's true feasible set.

    Blocks: ratio in {0} union [mar, 1]; curves: quantity within the curve
    range; the active blocks' indicators obey the couplings of
    `pattern_feasible`, the one rule every solver uses.
    """
    t = resolve_tol(tol)
    active: dict[str, int] = {}
    for bid in agent.bids:
        a = float(acceptances[bid.bid_id])
        if isinstance(bid, HourlyCurveBid):
            lo, hi = quantity_range(bid.steps)
            s = t * (1.0 + max(abs(lo), abs(hi)))
            if not lo - s <= a <= hi + s:
                return False
        else:
            if a <= t:
                active[bid.bid_id] = 0
            elif bid.mar - t <= a <= 1.0 + t:
                active[bid.bid_id] = 1
            else:
                return False
    blocks = agent.block_bids
    return pattern_feasible(blocks, tuple(active[b.bid_id] for b in blocks))


def agent_value(agent: Agent, acceptances: Mapping[str, float],
                tol: float | None = None) -> float:
    """Total bid value at the given acceptances; -inf outside the feasible set."""
    if not acceptance_feasible(agent, acceptances, tol):
        return float("-inf")
    total = 0.0
    for bid in agent.bids:
        a = float(acceptances[bid.bid_id])
        if isinstance(bid, HourlyCurveBid):
            total += curve_value(bid.steps, a)
        else:
            total += a * bid.price
    return total


# ---------------------------------------------------------------------------
# The aggregate-convexity existence check

@dataclass(frozen=True)
class AggregateConvexityCheck:
    convex: bool
    intervals: tuple[tuple[float, float], ...]   # aggregate demand, merged
    equilibrium: Allocation | None
    certificate: EquilibriumCertificate | None


def aggregate_demand_convexity_check(dual: DualSolution) -> AggregateConvexityCheck:
    """Single-commodity check: if the Minkowski sum of all demand sets at
    lambda* is convex (one interval), select per-agent demand points that
    balance exactly and certify the equilibrium.

    Each agent's intervals are its demand set's carrier line
    (`DemandSet.line`) mapped onto the commodity axis.  Raises ValueError for
    markets with more than one commodity; the exact interval arithmetic used
    here is one-dimensional.
    """
    if dual.market.num_commodities != 1:
        raise ValueError("aggregate convexity check supports single-commodity "
                         "markets only")
    t = dual.tol
    per_agent: list[list[tuple[float, float]]] = []
    for ds in dual.demand_sets():
        line = ds.line  # one dimension is always collinear
        s, o = float(line.unit[0]), float(line.origin[0])
        ivs = [(o + min(s * a, s * b), o + max(s * a, s * b)) for a, b in line.intervals]
        per_agent.append(geometry.merge_intervals(ivs, 1e-12))

    total = [(0.0, 0.0)]
    for ivs in per_agent:
        total = geometry.merge_intervals(
            [(a + c, b + d) for a, b in total for c, d in ivs], t)
        if len(total) > 4096:
            raise ValueError("aggregate demand too fragmented for exact check")
    convex = len(total) == 1

    allocation = None
    cert = None
    if convex and total[0][0] <= t and total[0][1] >= -t:
        allocation = _select_balancing_points(dual, per_agent)
        if allocation is not None:
            cert = detect_equilibrium(dual, allocation)
    return AggregateConvexityCheck(convex, tuple(tuple(iv) for iv in total),
                                   allocation, cert)


def _select_balancing_points(dual: DualSolution, per_agent):
    """Pick x_i in D_i summing to zero by a reachability sweep (1-D exact)."""
    tol, n = dual.tol, len(per_agent)
    reach = [None] * (n + 1)
    reach[n] = [(0.0, 0.0)]
    for i in range(n - 1, -1, -1):
        reach[i] = geometry.merge_intervals(
            [(a + c, b + d) for a, b in reach[i + 1] for c, d in per_agent[i]], tol)
    def covered(ivs, x):
        return any(a - tol <= x <= b + tol for a, b in ivs)
    if not covered(reach[0], 0.0):
        return None
    acc: dict[str, float] = {}
    target = 0.0
    for i in range(n):
        chosen = None
        for a, b in per_agent[i]:
            # need x in [a,b] with target - x reachable by the rest
            for rest_a, rest_b in reach[i + 1]:
                lo = max(a, target - rest_b)
                hi = min(b, target - rest_a)
                if lo <= hi + tol:
                    chosen = min(max(lo, a), b)
                    break
            if chosen is not None:
                break
        if chosen is None:
            return None
        ds = dual.demand(i)
        _, y = ds.nearest(np.array([chosen]))
        acc.update(ds.acceptances(y))
        target -= chosen
    return Allocation(acc)


# ---------------------------------------------------------------------------
# The singleton-demand existence check
#
# A sufficient condition only.  `convex_hull_pricing` decides existence
# exactly: its total lost opportunity cost is zero exactly when an
# equilibrium exists.

@dataclass(frozen=True)
class ExistenceCheck:
    applies: bool              # sufficient condition holds at lambda*
    equilibrium_found: bool
    certificate: EquilibriumCertificate | None
    allocation: Allocation | None   # the allocation certified


def singleton_demand_equilibrium_check(dual: DualSolution) -> ExistenceCheck:
    """If every block-owning agent demands a single bundle at lambda*, an
    equilibrium exists: the snapped allocation, certified and returned."""
    start = dual.market.compiled.component_start   # agent i owns blocks iff components
    if not all(dual.demand(i).is_singleton()
               for i, (a, b) in enumerate(zip(start, start[1:])) if b > a):
        return ExistenceCheck(False, False, None, None)
    snapped = demand_snapped_allocation(dual)
    cert = detect_equilibrium(dual, snapped.allocation)
    return ExistenceCheck(True, cert.is_equilibrium, cert, snapped.allocation)
