"""Exact demand sets, best responses, and the price-specific nonconvexity measure.

At prices lam an agent's demand set is the argmax of u(x) - lam.x over its
true feasible set.  Value is additive across bids and the only coupling
between bids is through indicator constraints (groups, links, loops), so the
argmax factorizes: curves contribute exact intervals, blocks contribute
per-indicator-pattern points or ratio segments, and the agent set is a union
of Minkowski combinations over the surplus-maximal patterns.  One pass over
each block component's patterns gives the agent's best surplus and those
patterns; their combinations and pieces are built on first use, and
`DemandSet.acceptances` turns any demand point back into per-bid
acceptances: this module is the one place that decides an agent's best
response.  Most sets (all one-commodity sets) lie on a line: `DemandSet.line`
answers containment, the measure and the aggregate convexity check for them.

The nonconvexity measure of a demand set D is the one-sided Hausdorff
distance of D from its convex hull: the largest distance from a hull point to
D.  It is zero exactly when demand is convex and it is what the approximate
equilibrium bounds consume.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import lsq_linear

from . import geometry, lp
from .config import resolve_tol, vector_norm
from .curves import best_surplus, curve_margin, demand_interval
from .geometry import ComplexityError, Piece
from .model import Agent, BlockBid, HourlyCurveBid, Market, block_components, iter_patterns


# ---------------------------------------------------------------------------
# Money classification

def block_margin(bid: BlockBid, lam: np.ndarray) -> float:
    return float(bid.price - lam @ bid.q)


def _money_class(margin: float, scale: float, tol: float) -> str:
    slack = tol * (1.0 + scale)
    if margin > slack:
        return "in"
    if margin < -slack:
        return "out"
    return "at"


def _block_money(bid: BlockBid, lam: np.ndarray, tol: float) -> tuple[float, str]:
    """Margin of one block at lam and its in / at / out class.

    The at-the-money band is relative to the block's money scale
    |p_b| + |lam.q_b|.
    """
    margin = block_margin(bid, lam)
    return margin, _money_class(margin, abs(bid.price) + abs(float(lam @ bid.q)), tol)


@dataclass(frozen=True)
class MoneyClasses:
    """Per-bid money classification at given prices."""

    classes: dict
    margins: dict


def classify_money(market: Market, lam, tol: float | None = None) -> MoneyClasses:
    """in / at / out of the money for every bid at prices lam.

    Blocks use the profile margin p_b - lam.q_b; curves use their best
    per-unit margin.  The at-the-money band is relative to the money scale,
    so rescaling all prices leaves the classes unchanged.
    """
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


# ---------------------------------------------------------------------------
# Demand sets

class CarrierLine(NamedTuple):
    """A collinear demand set: origin + s * unit for s in the union of
    `intervals` (sorted, disjoint, merged within 1e-12).  `unit` is zero when
    the set is one point."""

    origin: np.ndarray
    unit: np.ndarray
    intervals: tuple[tuple[float, float], ...]

    def distance(self, x: np.ndarray) -> float:
        r = x - self.origin
        s = float(r.dot(self.unit))
        perp = r - s * self.unit
        return math.hypot(math.sqrt(perp.dot(perp)),
                          min(max(lo - s, s - hi, 0.0) for lo, hi in self.intervals))

    def gap_radius(self) -> float:
        """Largest half-gap between consecutive intervals (0 if connected)."""
        ivs = self.intervals
        return max((0.5 * (lo - hi) for (_, hi), (lo, _) in zip(ivs, ivs[1:])), default=0.0)


@dataclass(eq=False)
class DemandSet:
    """Best surplus and demand set of one agent at given prices.

    `factors` holds the surplus-maximal (offset, fixed, free) patterns of
    the curves and then of each block component: `fixed` the (bid_id,
    acceptance) of every block without freedom (off 0, in the money 1, out
    of the money mar), `free` the (bid_id, direction, lo, hi) of every curve
    or at-the-money block.  `patterns`, their cross product in build order,
    `canonical` (each pattern's `geometry.canonical_generators`, read by both
    `line` and `pieces`), `line` and `pieces` are built on first use: only
    they raise ComplexityError.
    """

    dim: int
    tol: float
    best_surplus: float
    factors: tuple = field(repr=False)

    @cached_property
    def patterns(self) -> tuple:
        combos = self.factors[0]
        for factor in self.factors[1:]:
            combos = [(off0 + off1, fixed0 + fixed1, free0 + free1)
                      for off0, fixed0, free0 in combos
                      for off1, fixed1, free1 in factor]
            if len(combos) > geometry.MAX_PIECES:
                raise ComplexityError(f"{len(combos)} demand pieces "
                                      f"(cap {geometry.MAX_PIECES})")
        return tuple(combos)

    @cached_property
    def canonical(self) -> tuple:
        return tuple(geometry.canonical_generators(off, [g[1:] for g in free])
                     for off, _, free in self.patterns)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return tuple(_dedup_pieces([Piece.of(off, gens) for off, gens in self.canonical],
                                   self.tol))

    @cached_property
    def line(self) -> CarrierLine | None:
        """The carrier line of the union of the pattern pieces, None off a line.

        Each pattern is read in its canonical form, and the line runs along
        the first nonzero direction: a generator, else an offset's difference
        from the first offset.  The test stops at the first direction that
        leaves the line by more than 1e-9 * (1 + the longest).
        """
        shapes = self.canonical
        origin = shapes[0][0]
        dirs = [u for _, gens in shapes for u, _, _ in gens]
        dirs += [off - origin for off, _ in shapes[1:]]
        norms = [math.sqrt(d.dot(d)) for d in dirs]
        unit = next((d / n for d, n in zip(dirs, norms) if n > 1e-9), np.zeros(origin.size))
        limit = 1e-9 * (1.0 + max(norms, default=0.0))
        for d in dirs:
            perp = d - d.dot(unit) * unit
            if math.sqrt(perp.dot(perp)) > limit:
                return None
        intervals = []
        for off, gens in shapes:
            lo_t = hi_t = float((off - origin).dot(unit))
            for u, lo, hi in gens:
                s = float(u.dot(unit))
                lo_t += min(s * lo, s * hi)
                hi_t += max(s * lo, s * hi)
            intervals.append((lo_t, hi_t))
        return CarrierLine(origin, unit, tuple(geometry.merge_intervals(intervals, 1e-12)))

    @cached_property
    def vertices(self) -> np.ndarray:
        vs = np.vstack([geometry.piece_vertices(p) for p in self.pieces])
        return np.unique(np.round(vs, 10), axis=0)

    def nearest(self, x) -> tuple[float, np.ndarray]:
        return geometry.union_nearest(self.pieces, x)

    def contains(self, x, tol: float | None = None) -> bool:
        t = resolve_tol(self.tol if tol is None else tol)
        x = np.asarray(x, dtype=float)
        d = self.nearest(x)[0] if self.line is None else self.line.distance(x)
        return d <= t * (1.0 + math.sqrt(x.dot(x)))

    def is_singleton(self, tol: float | None = None) -> bool:
        t = resolve_tol(self.tol if tol is None else tol)
        vs = self.vertices
        span = np.max(vs, axis=0) - np.min(vs, axis=0)
        return bool(np.all(span <= t * (1.0 + np.max(np.abs(vs)))))

    def acceptances(self, y) -> dict[str, float]:
        """Acceptances of the agent's bids that realise the demand point y.

        The pattern combinations are tried in build order, each with one
        box-constrained least squares over its free bids (a bid whose range
        has zero width is fixed at lo).  The first combination that reaches y
        within 1e-12 wins, otherwise the one with the least error; so when
        two surplus-maximal patterns give the same bundle, the first built
        is chosen.  Every result is a best response at the set's prices.
        """
        y = np.asarray(y, dtype=float)
        best = None
        for offset, fixed, free in self.patterns:
            setting = dict(fixed)
            shift = offset.copy()
            cols, lo, hi, owners = [], [], [], []
            for bid_id, d, a, b in free:
                setting[bid_id] = a
                if b - a <= 1e-12:
                    shift += a * d
                else:
                    cols.append(d)
                    lo.append(a)
                    hi.append(b)
                    owners.append(bid_id)
            target = y - shift
            if cols:
                A = np.column_stack(cols)
                sol = lsq_linear(A, target, bounds=(lo, hi), method="bvls")
                err = float(np.linalg.norm(A @ sol.x - target))
                setting.update(zip(owners, sol.x.tolist()))
            else:
                err = float(np.linalg.norm(target))
            if best is None or err < best[0] - 1e-12:
                best = (err, setting)
            if best[0] <= 1e-12:
                break
        if best is None or best[0] > self.tol * (1.0 + float(np.linalg.norm(y))):
            raise AssertionError("could not realize demand point by acceptances")
        return best[1]


def _pattern_factors(blocks: tuple[BlockBid, ...], lam: np.ndarray, tol: float):
    """Best surplus and surplus-maximal patterns of one linked component.

    The best surplus is the max, and at least 0, over feasible patterns of
    the sum of m if m > 0 else mar*m over active blocks in block order.  The
    kept patterns score an at-the-money block as 0 and tie within the
    relative tolerance, in `iter_patterns` order, each as (offset, fixed,
    free): the bundle of its fixed blocks, their (bid_id, acceptance), and
    the (bid_id, q, mar, 1) of its active at-the-money blocks.
    """
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


def demand_set(agent: Agent, lam, K: int | None = None,
               tol: float | None = None) -> DemandSet:
    """Best surplus (curves first, then block components) and exact demand
    set of one agent at prices lam."""
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
    return DemandSet(K, t, total, tuple(factors))


def _dedup_pieces(pieces: list[Piece], tol: float) -> list[Piece]:
    kept: list[Piece] = []
    for p in pieces:
        scale = 1.0 + max((abs(v) for v in p.offset), default=0.0)
        if any(geometry.piece_subset(p, q, tol * scale) for q in kept):
            continue
        kept = [q for q in kept if not geometry.piece_subset(q, p, tol * scale)]
        kept.append(p)
    return kept


def agent_best_surplus(agent: Agent, lam, tol: float | None = None) -> float:
    """max over the agent's feasible set of u(x) - lam.x (closed form)."""
    return demand_set(agent, lam, None, tol).best_surplus


# ---------------------------------------------------------------------------
# Nonconvexity measure

def _piece_distance_norm(piece: Piece, x, norm: str) -> float:
    if norm == "l2":
        return geometry.piece_nearest(piece, x)[0]
    x = np.asarray(x, dtype=float)
    base = piece.point()
    g = len(piece.units)
    if g == 0:
        return vector_norm(x - base, norm)
    G = piece.unit_matrix()
    los = np.array([lo for lo, _ in piece.ranges])
    his = np.array([hi for _, hi in piece.ranges])
    K = x.size
    r = x - base
    if norm == "l1":
        # vars: t, e+, e-;   G t + e+ - e- = r;   min sum(e+ + e-)
        n = g + 2 * K
        c = np.zeros(n)
        c[g:] = -1.0
        a_eq = np.hstack([G, np.eye(K), -np.eye(K)])
        span = 1.0 + float(np.max(np.abs(r))) + float(np.sum(np.abs(his - los)))
        res = lp.solve_lp(c, a_eq=a_eq, b_eq=r,
                          lo=np.concatenate([los, np.zeros(2 * K)]),
                          hi=np.concatenate([his, np.full(2 * K, 2 * span)]))
        return -res.value
    if norm == "linf":
        # vars: t, s;   -s <= (r - G t)_k <= s;   min s
        n = g + 1
        c = np.zeros(n)
        c[g] = -1.0
        a_ub = np.vstack([np.hstack([G, -np.ones((K, 1))]),
                          np.hstack([-G, -np.ones((K, 1))])])
        b_ub = np.concatenate([r, -r])
        span = 1.0 + float(np.max(np.abs(r))) + float(np.sum(np.abs(his - los)))
        res = lp.solve_lp(c, a_ub=a_ub, b_ub=b_ub,
                          lo=np.concatenate([los, [0.0]]),
                          hi=np.concatenate([his, [2 * span]]))
        return -res.value
    raise ValueError(f"unknown norm {norm!r}")


def _union_distance_norm(pieces, x, norm: str) -> float:
    return min(_piece_distance_norm(p, x, norm) for p in pieces)


def nonconvexity(demand: DemandSet, norm: str = "l2", probes=()) -> float:
    """Largest distance from a hull point of the demand set back to the set.

    Exact for a set on a carrier line (`DemandSet.line`): the largest
    half-gap between its intervals, with the distances of caller-supplied
    probe points (which must lie in the hull) measured on the pieces.
    Otherwise the value is the maximum over a candidate family of hull
    points: piece corners, pairwise closest-approach midpoints, and the
    probes.  That family is not exhaustive once the set spans two or more
    dimensions, so the value is then a lower bound on the measure: two
    at-the-money all-or-nothing blocks in one exclusive group, at q=(1, 0)
    and q=(1/2, sqrt(3)/2), demand {0, q1, q2}, and the family gives 0.5
    where the circumcenter of that triangle lies 1/sqrt(3) ~ 0.577 from the
    set.
    """
    line = demand.line
    if line is not None:
        return max([line.gap_radius() * vector_norm(line.unit, norm)]
                   + [_union_distance_norm(demand.pieces, x, norm) for x in probes])
    pieces = demand.pieces
    if len(pieces) == 1 and not probes:
        return 0.0
    candidates = [v for p in pieces for v in geometry.piece_vertices(p)]
    for a, b in itertools.combinations(pieces, 2):
        _, pa, pb = geometry.closest_pair(a, b)
        candidates.append(0.5 * (pa + pb))
    candidates.extend(np.asarray(x, dtype=float) for x in probes)
    return max(_union_distance_norm(pieces, x, norm) for x in candidates)


@dataclass(frozen=True)
class NonconvexStats:
    """Count and ranking of demand nonconvexity across agents."""

    count: int                  # agents with a nonconvex demand set
    top: tuple[float, ...]      # largest measures, descending, zero-padded
    per_agent: tuple[float, ...]

    @property
    def top_sum(self) -> float:
        return float(sum(self.top))
