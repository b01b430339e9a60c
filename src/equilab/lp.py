"""Dense two-phase primal simplex with variable bounds.

Solves   max c'x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  lo <= x <= hi.

Deterministic by construction: Dantzig pricing with lowest-index tie-breaks,
switching to Bland's rule after a degenerate stall, so identical inputs always
produce the identical vertex and the identical row multipliers.  Dense numpy
throughout; intended for desk-scale instances (tens of rows, hundreds of
columns), not industrial LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9           # feasibility, pricing and phase-1 tolerance
_REFRESH_EVERY = 64  # recompute basic values from scratch to bound drift
_STALL_LIMIT = 200   # degenerate pivots before switching to Bland's rule


class SimplexError(RuntimeError):
    pass


class InfeasibleError(SimplexError):
    pass


@dataclass
class LpResult:
    x: np.ndarray            # structural variables
    value: float
    duals_eq: np.ndarray     # multipliers of the equality rows
    duals_ub: np.ndarray     # multipliers of the inequality rows
    iterations: int


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
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

    state = _State(A, b, L, U, values, at_upper, basis)

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


class _State:
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
