"""Reference implementations kept as test oracles.

`brute_force_welfare` enumerates every feasible indicator pattern and solves
the residual LP for each; the branch-and-bound welfare search is tested
against it.  `in_hull` decides membership in the convex hull of a point cloud
by a small phase-1 LP on the weights.  `collinear_model` fits a line through
a list of pieces and reads their intervals on it; `DemandSet.line` is tested
against it.  All three are kept as they were in the package, except that
`brute_force_welfare` reads its allocation through `allocation_from`.
"""

from __future__ import annotations

import itertools

import numpy as np

from equilab import lp
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
