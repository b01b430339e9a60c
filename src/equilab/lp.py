"""Dense two-phase primal simplex with variable bounds.

Solves   max c'x   s.t.   A_eq x = b_eq,  A_ub x <= b_ub,  lo <= x <= hi.

Deterministic by construction: Dantzig pricing with lowest-index tie-breaks,
switching to Bland's rule after a degenerate stall, so identical inputs always
produce the identical vertex and the identical row multipliers.  Dense
arrays; intended for desk-scale instances (tens of rows, hundreds of
columns), not industrial LPs.

Each pivot solves with the basis matrix B twice: B'y = c_B for the row
multipliers that price the columns, and B w = a_e for the entering column's
direction.  Both call the gufunc that `np.linalg.solve` dispatches to: the
same LAPACK `dgesv` call and the same bits, without numpy's per-call wrapper.
The gufunc reports a singular matrix through numpy's invalid-operation
handler.  `solve_lp` installs that handler once, around both pivot loops, and
the handler only notes the report: each solve clears the note before it runs
and raises `SimplexError` if the note is set after.  An invalid operation
outside a solve (only non-finite data makes one) thus changes no result; it
only goes without numpy's warning.  B is updated by one column copy per basis
change.  It is not factored once per pivot and reused for both solves: `dgesv`
on B' pivots on B' and so rounds differently from a solve with the LU factors
of B, which would move vertices and duals in their last bits.

Numpy computes every float that reaches a result: both basis solves, the
reduced costs c - y A, the step of the basic values, the objective c'x that
detects a stall, and the final clip of x into its bounds.  What only feeds
comparisons is held in Python lists, which cost less than an array call at
these sizes: the start values and bound states, the bounds of the basis in
basis order, and each basic value's room to its bounds in the ratio test
(one subtraction, the same bits as numpy's).  One sign per column, +1 if a
pivot may move it up from its lower bound, -1 down from its upper one, 0 if
it is basic or fixed, turns the search for an entering column into one
product d * sign: the column enters whose product is the largest (under
Bland's rule, the first) above the tolerance.  The signs stay an array, so
that the search is two array calls rather than a loop over the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gufunc_solve

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
    if (lo > hi + TOL).any():
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

    # Columns: n structural | m_ub slacks | m artificials.  In the flat view
    # of A, entry (r, k + r) sits at r*(N + 1) + k, so a diagonal is a slice.
    art = n + m_ub
    N = art + m
    A = np.zeros((m, N))
    A[:m_eq, :n] = a_eq
    A[m_eq:, :n] = a_ub
    flat = A.reshape(-1)
    flat[m_eq * N + n::N + 1] = 1.0         # slack identity
    b = np.concatenate([b_eq, b_ub])
    L = np.zeros(N)
    L[:n] = lo
    U = np.full(N, np.inf)
    U[:n] = hi

    # Start: structural at a finite bound, slacks at zero, artificials carry
    # the residual with a sign-matched column so the identity basis is feasible.
    start, at_upper = [], [False] * N
    for j, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
        if math.isfinite(l):
            start.append(l)
        elif math.isfinite(h):
            start.append(h)
            at_upper[j] = True
        else:
            start.append(0.0)
    values = np.zeros(N)
    values[:n] = start
    resid = b - A[:, :art] @ values[:art]
    flat[art::N + 1] = np.where(resid >= 0, 1.0, -1.0)   # artificial columns
    values[art:] = np.abs(resid)

    state = _State(A, b, L, U, values, at_upper, art)
    with np.errstate(call=state.note_invalid, invalid="call"):
        if values[art:].max() > TOL:
            c1 = np.zeros(N)
            c1[art:] = -1.0
            state.optimize(c1)
            if -(c1 @ values) > TOL * (1.0 + np.abs(b).max()):
                raise InfeasibleError("no feasible point")
        # Pin artificials for phase 2.
        L[art:] = 0.0
        U[art:] = 0.0
        values[art:] = values[art:].clip(0.0, 0.0)

        c2 = np.zeros(N)
        c2[:n] = c
        y = state.optimize(c2)

    x = values[:n].clip(lo, hi)
    return LpResult(x, float(c @ x), y[:m_eq].copy(), y[m_eq:].copy(),
                    state.total_iters)


class _State:
    """Basis, bound states and basic values, shared by both phases."""

    def __init__(self, A, b, L, U, values, at_upper, first):
        """Starts from the basis of columns `first`.. of A."""
        self.A, self.b, self.L, self.U = A, b, L, U
        self.values, self.at_upper = values, at_upper
        self.basis = np.arange(first, A.shape[1])
        self.B = A[:, first:].copy()  # basis matrix, one column copy per change
        self.max_iter = 200 * sum(A.shape) + 2000
        self.total_iters = 0
        self.invalid = False         # set by the error handler of a solve

    def note_invalid(self, err, flag):
        self.invalid = True

    def _solve(self, B, rhs):
        """x with B x = rhs, under the error state `solve_lp` enters."""
        self.invalid = False
        x = _gufunc_solve(B, rhs, signature="dd->d")
        if self.invalid:
            cond = np.linalg.cond(B)
            raise SimplexError(f"singular basis (cond={cond:.3e})")
        return x

    def _refresh(self):
        nb = np.ones(self.A.shape[1], dtype=bool)
        nb[self.basis] = False
        rhs = self.b - self.A[:, nb] @ self.values[nb]
        self.values[self.basis] = self._solve(self.B, rhs)

    def optimize(self, c):
        """Run the pivot loop for cost vector c; returns row multipliers."""
        A, B, tol = self.A, self.B, TOL
        values, at_upper, basis = self.values, self.at_upper, self.basis
        lower, upper = self.L.tolist(), self.U.tolist()
        solve = self._solve
        order = basis.tolist()
        # Per column, the way a pivot may move it: +1 up from its lower
        # bound, -1 down from its upper one, 0 if basic or fixed.
        sign = np.array([0.0 if not h - l > tol else -1.0 if up else 1.0
                         for l, h, up in zip(lower, upper, at_upper)])
        sign[basis] = 0.0
        basic_lo = [lower[j] for j in order]
        basic_hi = [upper[j] for j in order]
        bland = False
        stall = 0
        best = -math.inf
        it = 0
        while True:
            if it >= self.max_iter:
                raise SimplexError("iteration limit reached")
            if it % _REFRESH_EVERY == 0 and it:
                self._refresh()
            y = solve(B.T, c[basis])
            d = c - y @ A
            # Entering: the first column whose score d * sign is above tol
            # under Bland's rule, else the first of the highest such (the
            # largest |d| that improves).  A nan score (non-finite data)
            # would win `argmax`, so that case scans for the best number.
            score = d * sign
            e = int((score > tol).argmax() if bland else score.argmax())
            top = score[e]
            if top != top:
                e, top = -1, tol
                for j, v in enumerate(score.tolist()):
                    if v > top:
                        e, top = j, v
            if not top > tol:
                self.total_iters += it
                return y
            sigma = -1.0 if at_upper[e] else 1.0

            w = solve(B, A[:, e])
            # Ratio test: entering moves by sigma*t, basics by -sigma*t*w.
            basic = values[basis]
            now = basic.tolist()
            ws = w.tolist()
            t_best = upper[e] - lower[e]
            leave_pos = -1
            hit_upper = False
            for pos, wp in enumerate(ws):
                delta = -sigma * wp
                if delta > tol:
                    room, up = basic_hi[pos] - now[pos], True
                elif delta < -tol:
                    room, up = now[pos] - basic_lo[pos], False
                else:
                    continue
                t = room / abs(delta)
                if t < t_best - 1e-12:
                    t_best, leave_pos, hit_upper = t, pos, up
                elif t <= t_best + 1e-12 and leave_pos >= 0:
                    if (bland and order[pos] < order[leave_pos]) or (
                            not bland and abs(wp) > abs(ws[leave_pos]) + 1e-12):
                        t_best, leave_pos, hit_upper = min(t, t_best), pos, up
            if not math.isfinite(t_best):
                raise SimplexError("unbounded")
            t_best = max(t_best, 0.0)

            values[e] += sigma * t_best
            values[basis] = basic - sigma * t_best * w
            if leave_pos < 0:
                # Bound flip, basis unchanged.
                at_upper[e] = up = not at_upper[e]
                sign[e] = -sigma
                values[e] = upper[e] if up else lower[e]
            else:
                j = order[leave_pos]
                at_upper[j] = hit_upper
                if upper[j] - lower[j] > tol:
                    sign[j] = -1.0 if hit_upper else 1.0
                values[j] = upper[j] if hit_upper else lower[j]
                basis[leave_pos] = order[leave_pos] = e
                basic_lo[leave_pos], basic_hi[leave_pos] = lower[e], upper[e]
                sign[e] = 0.0
                B[:, leave_pos] = A[:, e]

            obj = float(c @ values)
            if best == -math.inf or obj > best + 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            it += 1
