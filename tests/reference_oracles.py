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
errors.
"""

from __future__ import annotations

import itertools

import numpy as np

from equilab import lp
from equilab.lp import (TOL, _REFRESH_EVERY, _STALL_LIMIT, InfeasibleError,
                        LpResult, SimplexError)
from equilab.convexify import build_convexified
from equilab.model import Allocation, Market, pattern_feasible
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
        overrides = {b.bid_id: ((b.mar, 1.0) if zi else (0.0, 0.0))
                     for b, zi in zip(blocks, z)}
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
    offs = [p.point() for p in pieces]
    for p in pieces:
        dirs.extend(np.asarray(u) for u in p.units)
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
        for u, (lo, hi) in zip(p.units, p.ranges):
            s = float(np.asarray(u) @ unit)
            lo_t += min(s * lo, s * hi)
            hi_t += max(s * lo, s * hi)
        intervals.append((lo_t, hi_t))
    return origin, unit, intervals


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
            if obj > best + 1e-12 * (1.0 + abs(best)):
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
