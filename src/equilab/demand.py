"""Exact demand sets, best responses, and the price-specific nonconvexity measure.

At prices lam an agent's demand set is the argmax of u(x) - lam.x over its
true feasible set.  Value is additive across bids and the only coupling
between bids is through indicator constraints (groups, links, loops), so the
argmax factorizes: curves contribute exact intervals, blocks contribute
per-indicator-pattern points or ratio segments, and the agent set is a union
of Minkowski combinations over the surplus-maximal patterns.

What is computed when:

- once per market, in `Market.compiled` (`equilab.model.CompiledMarket`):
  the block and curve-step tables, each agent's block components and their
  feasible indicator patterns;
- once per (market, prices, tol), for all agents at once, when a
  `PricedMarket` is built: block margins and money classes, curve best
  surpluses and demand intervals, the best surplus and surplus-maximal
  patterns of each component, each agent's best surplus, and the per-agent
  line arrays (`on_line`, `line_origin`, `line_unit`, `line_intervals`) of
  every agent whose set is one pattern with only curves of one hour free
  (an axis segment or a point), or whose only freedom is one lone block at
  the money (two intervals, or one, on the block's line).  So the price
  dual sums best surpluses without a demand set, and
  `PricedMarket.containment` decides those agents' containment in one pass
  (`line_contains`), also without one;
- once per (market, prices, tol) and allocation, `PricedMarket.value_pass`:
  every agent's bundle, value and shortfall against its best surplus, read
  by the lost opportunity cost and by containment.  An agent off a line
  whose acceptances are feasible and lose nothing best-responds, so its
  bundle is in its demand set, and no set is built for it;
- once per (agent, prices, tol), for the other agents whose containment is
  asked and for every agent whose measure or demand set is asked:
  `demand_set` builds the `DemandSet` from those arrays, and the
  `PricedMarket` keeps it.  Its pattern combinations and pieces are built
  on first use, each free generator's canonical form once for the set and
  one piece per surplus-maximal pattern folded from those forms, and
  `DemandSet.acceptances` turns any demand point back into per-bid
  acceptances: this module is the one place that decides an agent's best
  response.

Most sets (all one-commodity sets) lie on a line: `DemandSet.line` answers
containment and the measure for them, and `demand_set` fills it in from the
line arrays where they hold one (`PricedMarket.carrier_lines`, None for an
agent off such a line).

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

from . import geometry
from .config import DEFAULT_NORM, ordered_sum, resolve_tol, vector_norm
from .geometry import _PAR_TOL, ComplexityError, Piece
from .model import Agent, Allocation, CompiledMarket, Market


# ---------------------------------------------------------------------------
# Money classification

_OUT, _AT, _IN = -1, 0, 1
_CLASS_NAMES = {_OUT: "out", _AT: "at", _IN: "in"}


@dataclass(frozen=True)
class MoneyClasses:
    """Per-bid money classification at given prices."""

    classes: dict
    margins: dict


# ---------------------------------------------------------------------------
# A market at prices

@dataclass
class PricedMarket:
    """A market at fixed prices lambda_star under one tolerance tol and one
    norm, priced for every agent at once.

    `lambda_star` is converted to a float array and `tol` resolved (None is
    the default) when the object is built, and every agent is priced then,
    from the compiled market (`Market.compiled`).  Per block: the margin
    p_b - lam.q_b and its in / at / out class, the at-the-money band
    relative to the money scale |p_b| + |lam.q_b|.  Per curve: best surplus
    and demand interval.  Per component: best surplus and surplus-maximal
    patterns (`kept`).  Per agent: `best_surplus`, its curves' and then its
    components' in order, and the line arrays (`_axis_lines`).  The pricing
    is one pass of plain loops over the compiled tables, blocks, then curve
    steps, then components, and every sum adds left to right from +0.0.
    At K >= 2 each margin is its own `lam @ q` dot, since a matrix-vector
    product may round differently.  `demand_set` reads these lists.

    Per agent (agent i is `market.agents[i]`), quantities are computed on
    first use and kept for the life of the object: its demand set, its
    containment of a bundle, an allocation's value pass, and the
    nonconvexity measures in `norm` and
    their ranking over K that the approximate equilibrium bounds (each
    imbalance in the same norm) and `equilab analyze` read.
    """

    market: Market
    lambda_star: np.ndarray
    tol: float | None = None
    norm: str = DEFAULT_NORM
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lambda_star = lam = np.asarray(self.lambda_star, dtype=float)
        self.tol = tol = resolve_tol(self.tol)
        cm = self.market.compiled
        prices = lam.tolist()

        # Blocks: an active block adds m if m > 0 else mar*m to a pattern's
        # surplus, and m (in the money), mar*m (out of it) or 0 to its
        # banded score.
        rows = cm.block_table[:, :4].tolist()
        if cm.K == 1:
            lqs = [row[3] * prices[0] + 0.0 for row in rows]   # `@` adds to +0.0 as well
        else:
            lqs = [float(lam @ q) for q in cm.block_q]
        self.margin, self.classes, on_best, on_banded = [], [], [], []
        for row, lq in zip(rows, lqs):
            m = row[0] - lq
            mar_m = row[1] * m
            slack = tol * (1.0 + (row[2] + abs(lq)))
            cls = _IN if m > slack else _OUT if m < -slack else _AT
            self.margin.append(m)
            self.classes.append(cls)
            on_best.append(m if m > 0.0 else mar_m)
            on_banded.append(m if cls == _IN else mar_m if cls == _OUT else 0.0)

        # Curve steps: a buy step is taken below its price, a sell step
        # above it; one within the band of the price is optional.
        C = len(cm.curves)
        best, lo, hi = [0.0] * C, [0.0] * C, [0.0] * C
        self._step_gain = []
        hours, _, owners = cm.step_index.tolist()
        for (p, width, abs_p, abs_width), h, c in zip(cm.step_table[:, :4].tolist(),
                                                      hours, owners):
            price = prices[h]
            buy = width > 0.0
            gain = p - price if buy else price - p
            self._step_gain.append(gain)
            band = tol * (1.0 + max(abs_p, abs(price)))
            if gain > 0.0:
                best[c] += abs_width * gain
            if (p > price + band) == buy:
                lo[c] += width
            if (p >= price - band) == buy:
                hi[c] += width
        self.curve_interval = list(zip(lo, hi))

        # Components: the best surplus is the max, and at least 0, over the
        # feasible patterns of the sum of the active blocks' surpluses in
        # block order; the kept patterns are those whose banded score ties
        # the best within the band, in `iter_patterns` order.  A lone block
        # keeps its off pattern (scored 0) and its on pattern within the
        # band of the better of the two.
        values, self.kept = [], []
        for comp, patterns in zip(cm.components, cm.patterns):
            if len(comp) == 1:
                m, banded = self.margin[comp[0]], on_banded[comp[0]]
                top = banded if banded > 0.0 else 0.0
                floor = top - tol * (1.0 + abs(top))
                values.append(m if m > 0.0 else 0.0)
                self.kept.append(((0,),) * (0.0 >= floor) + ((1,),) * (banded >= floor))
                continue
            value, scored = 0.0, []
            for z in patterns:
                s = banded = 0.0
                for j, on in zip(comp, z):
                    if on:
                        s += on_best[j]
                        banded += on_banded[j]
                value = max(value, s)
                scored.append((banded, z))
            top = max(banded for banded, _ in scored)
            floor = top - tol * (1.0 + abs(top))
            values.append(value)
            self.kept.append(tuple(z for banded, z in scored if banded >= floor))

        # Each agent's best surplus: its curves' and then its components'.
        total = [0.0] * cm.num_agents
        for i, v in zip(cm.curve_owner + cm.component_owner, best + values):
            total[i] += v
        self.best_surplus = total
        self._axis_lines()

    def _axis_lines(self) -> None:
        """The line arrays: `on_line`, `line_origin`, `line_unit` and
        `line_intervals`, whose rows are the lo and hi of each agent's first
        interval and then of its last (the first again on a line of one).

        An agent is on a line when each of its components keeps one pattern
        with no at-the-money block on, and either its curves of nonzero
        width share one hour (it demands a segment of that hour's axis, or a
        point), or it has no such curve and one lone block at the money,
        which keeps its off and its on pattern: it demands origin + ({0} u
        [mar q, q]), the `_carrier_line` of its off pattern and of its on
        pattern's canonical form, folded as `DemandSet.canonical` folds it.
        The floats are the ones `DemandSet.line` reads off the canonical
        generators: the origin adds each component's fixed on blocks in
        block order, then the components in order, then the zero-width
        curves' midpoints in curve order, as `patterns` and
        `fold_generators` add; the interval adds the other curves' ranges in
        curve order (an hour axis has norm 1, so none is rescaled).  Each
        agent's sums start at +0.0, so no -0.0 survives, a component with no
        block on changes no bit, and lo <= hi holds in every rounded sum as
        it does for each curve.
        """
        cm, classes = self.market.compiled, self.classes
        n, K = cm.num_agents, cm.K
        q_rows = cm.block_q.tolist()
        origin = [0.0] * (n * K)                           # agent i's from i * K
        off, at_the_money = [False] * n, {}                # agent: its lone block at the money
        for k, (i, comp) in enumerate(zip(cm.component_owner, cm.components)):
            if len(comp) == 1 and classes[comp[0]] == _AT:
                off[i] |= i in at_the_money
                at_the_money[i] = comp[0]
                continue
            kept = self.kept[k]
            on = [j for j, z in zip(comp, kept[0]) if z]
            off[i] |= len(kept) > 1 or any(classes[j] == _AT for j in on)
            offset = None
            for j in on:
                q = q_rows[j] if classes[j] == _IN else [cm.blocks[j].mar * v for v in q_rows[j]]
                offset = q if offset is None else [a + b for a, b in zip(offset, q)]
            if offset is not None:
                at = i * K
                origin[at:at + K] = [a + b for a, b in zip(origin[at:at + K], offset)]
        line_hour, lo_sum, hi_sum = [-1] * n, [0.0] * n, [0.0] * n
        unit = [0.0] * (n * K)                             # a point's unit is 0
        for i, h, (lo, hi) in zip(cm.curve_owner, cm.curve_hour, self.curve_interval):
            if hi - lo <= _PAR_TOL * (1.0 + abs(lo) + abs(hi)):
                origin[i * K + h] += 0.5 * (lo + hi)
            else:
                off[i] |= line_hour[i] not in (-1, h)
                line_hour[i] = h
                unit[i * K + h] = 1.0
                lo_sum[i] += lo
                hi_sum[i] += hi
        ends = [lo_sum, hi_sum, lo_sum[:], hi_sum[:]]     # the last interval's too
        self.line_origin = np.array(origin, dtype=float).reshape(n, K)
        for i, j in at_the_money.items():
            off[i] |= line_hour[i] >= 0
            if off[i]:
                continue
            o = self.line_origin[i]
            line = _carrier_line(((o, []), geometry.fold_generators(
                o, [geometry.generator_form(cm.block_q[j], cm.blocks[j].mar, 1.0)])))
            unit[i * K:(i + 1) * K] = line.unit.tolist()
            for row, v in zip(ends, line.intervals[0] + line.intervals[-1]):
                row[i] = v
        self.line_unit = np.array(unit, dtype=float).reshape(n, K)
        self.line_intervals = np.array(ends, dtype=float)
        self.on_line = [not flag for flag in off]

    @cached_property
    def carrier_lines(self) -> list:
        """Per agent, its demand set as a line (`_axis_lines`), or None off
        such a line."""
        return [CarrierLine(origin, unit, ((a, b),) if (a, b) == (c, d) else ((a, b), (c, d)))
                if on else None
                for on, origin, unit, (a, b, c, d) in zip(self.on_line, self.line_origin,
                                                          self.line_unit,
                                                          self.line_intervals.T.tolist())]

    def line_contains(self, bundles: np.ndarray) -> list:
        """Per agent, is row i of `bundles` in its demand set, decided on
        `carrier_lines[i]`; None where that is None.

        Each bool is the one `DemandSet.contains` gives: distance at most
        t * (1 + |x|).  At K = 1 all rows are decided at once, because the
        line's unit is +-1 or 0 and its perpendicular part exactly 0: the
        distance to a line is the smaller interval gap max(lo - s, s - hi, 0)
        with s = (x - origin) * unit, and to a point sqrt(r * r) with r = x -
        origin.  At K >= 2 each row asks `CarrierLine.distance` and sums
        |x|^2 with `dot`, which may round differently from an elementwise
        sum.
        """
        tol = self.tol
        if self.market.num_commodities == 1:
            x = bundles[:, 0]
            r = x - self.line_origin[:, 0]
            unit = self.line_unit[:, 0]
            s = r * unit
            lo, hi, lo2, hi2 = self.line_intervals
            gap = np.minimum(np.maximum(np.maximum(lo - s, s - hi), 0.0),
                             np.maximum(np.maximum(lo2 - s, s - hi2), 0.0))
            gap = np.where(unit != 0.0, gap, np.sqrt(r * r))
            inside = (gap <= tol * (1.0 + np.sqrt(x * x))).tolist()
            return [flag if on else None for flag, on in zip(inside, self.on_line)]
        return [None if line is None else line.distance(x) <= tol * (1.0 + math.sqrt(x.dot(x)))
                for line, x in zip(self.carrier_lines, bundles)]

    def money_classes(self) -> MoneyClasses:
        """in / at / out of the money for every bid, with its margin, in
        market order.  A block's margin is its profile margin p_b - lam.q_b,
        a curve's its best per-unit one, with money scale the largest step
        price plus the hour's price.  The at-the-money band is relative to
        the money scale, so rescaling all prices leaves the classes
        unchanged."""
        cm = self.market.compiled
        margin = np.full(len(cm.curves), -math.inf)
        scale = np.zeros(len(cm.curves))
        np.fmax.at(margin, cm.step_index[2], self._step_gain)
        np.fmax.at(scale, cm.step_index[2], cm.step_table[:, 2])
        slack = self.tol * (1.0 + (scale + np.abs(self.lambda_star[cm.curve_hour])))
        curve_money = np.where(margin > slack, _IN, np.where(margin < -slack, _OUT, _AT))
        bids = (cm.blocks, cm.curves)
        margins = (self.margin, margin.tolist())
        money = (self.classes, curve_money.tolist())
        classes: dict[str, str] = {}
        out: dict[str, float] = {}
        for j in cm.bid_index[1].tolist():              # curve c as ~c
            curve, j = j < 0, j if j >= 0 else ~j
            bid_id = bids[curve][j].bid_id
            classes[bid_id] = _CLASS_NAMES[money[curve][j]]
            out[bid_id] = margins[curve][j]
        return MoneyClasses(classes, out)

    def _memo(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def demand(self, i: int) -> DemandSet:
        return self._memo(("demand", i), lambda: demand_set(self, i))

    def demand_sets(self) -> list[DemandSet]:
        return [self.demand(i) for i in range(len(self.market.agents))]

    def value_pass(self, allocation: Allocation, bundles=None) -> ValuePass:
        """The allocation at these prices, once per allocation object: every
        agent's bundle (`bundles`, when the caller has them), value
        (`CompiledMarket.values`, -inf where its acceptances are infeasible)
        and shortfall best_surplus - (value - lam.x), inf where infeasible.
        The cache entry holds the allocation, so the id it is kept under is
        not reused while it is kept."""
        def compute():
            rows = allocation.bundles(self.market) if bundles is None else bundles
            values = self.market.compiled.values(allocation.acceptances, self.tol).tolist()
            shortfall = [math.inf if val == -math.inf
                         else best - (val - float(self.lambda_star @ x))
                         for best, val, x in zip(self.best_surplus, values, rows)]
            return allocation, ValuePass(rows, values, shortfall)
        return self._memo(("values", id(allocation)), compute)[1]

    def containment(self, bundles, allocation: Allocation | None = None) -> list[bool]:
        """Is row i of `bundles` in agent i's demand set, for every agent?

        An agent whose demand set is an axis line is decided from the
        pricing arrays (`line_contains`, for all rows at once at K = 1, kept
        per bundle matrix) and builds no demand set.  The other agents are
        decided by value first, when `allocation` (acceptances that realise
        `bundles`) is given: an agent whose acceptances are feasible and
        whose shortfall (`value_pass`) is at most 0.0, so whose lost
        opportunity cost is exactly 0.0, best-responds, and its bundle is in
        its set.  Every agent left asks its demand set's `contains`: an
        infeasible or positive-loss realisation proves nothing, since
        another may reach the bundle within the tolerance.  Each verdict is
        kept per (agent, row bytes), so a question asked again gets the
        first answer.
        """
        bundles = np.asarray(bundles, dtype=float)
        flags = list(self._memo(("lines", bundles.tobytes()),
                                lambda: self.line_contains(bundles)))
        for i, flag in enumerate(flags):
            if flag is None:
                x = bundles[i]
                flags[i] = self._memo(("contains", i, x.tobytes()), lambda: (
                    allocation is not None
                    and self.value_pass(allocation, bundles).shortfall[i] <= 0.0
                    or self.demand(i).contains(x)))
        return flags

    def probes(self, i: int) -> tuple:
        """Hull points of agent i's demand set that its measure must cover."""
        return ()

    def measure(self, i: int) -> float:
        """Nonconvexity of agent i's demand set in `norm`, probed at `probes(i)`."""
        return self._memo(("measure", i), lambda: nonconvexity(
            self.demand(i), self.norm, probes=self.probes(i)))

    def nonconvex_stats(self) -> NonconvexStats:
        """The measures ranked over K: the count above tol and the K largest."""
        K = self.market.num_commodities
        measures = [self.measure(i) for i in range(len(self.market.agents))]
        ranked = sorted(measures, reverse=True)[:K]
        return NonconvexStats(sum(1 for r in measures if r > self.tol),
                              tuple(ranked + [0.0] * (K - len(ranked))), tuple(measures))


class ValuePass(NamedTuple):
    """An allocation at a priced market's prices (`PricedMarket.value_pass`)."""

    bundles: np.ndarray             # row i: agent i
    values: list[float]             # -inf where infeasible
    shortfall: list[float]          # best surplus less value - lam.x; inf where infeasible


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
    `canonical` (each pattern's canonical generators, read by both `line`
    and `pieces`), `line` and `pieces` are built on first use: only they
    raise ComplexityError.  `canonical` finds each free generator's
    `geometry.generator_form` once, though it lies in every pattern of the
    product that has it, and folds each pattern from those forms.  `pieces`
    holds one piece per pattern, in build order, also where one lies inside
    another.  `demand_set` fills `line` in at once for an agent on one of
    its priced market's lines (`PricedMarket.carrier_lines`).  x is in the
    set when its distance to the set is within t * (1 + |x|) (`contains`).
    """

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
        # A free bid's (bid_id, direction, lo, hi) is one object in every
        # pattern of the product that has it, so its form is found once.
        forms = {id(g): geometry.generator_form(*g[1:])
                 for factor in self.factors for _, _, free in factor for g in free}
        return tuple(geometry.fold_generators(off, [forms[id(g)] for g in free])
                     for off, _, free in self.patterns)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return tuple(Piece.of(off, gens) for off, gens in self.canonical)

    @cached_property
    def line(self) -> CarrierLine | None:
        """The carrier line of the union of the pattern pieces, None off a
        line (`_carrier_line` of the canonical forms)."""
        return _carrier_line(self.canonical)

    @cached_property
    def vertices(self) -> np.ndarray:
        vs = np.vstack([geometry.piece_vertices(p) for p in self.pieces])
        return np.unique(np.round(vs, 10), axis=0)

    def nearest(self, x) -> tuple[float, np.ndarray]:
        return geometry.union_nearest(self.pieces, x)

    def contains(self, x) -> bool:
        """Is x within the bar t * (1 + |x|) of the set: of its carrier line,
        or else of one of its pieces (`geometry.union_distance`)?"""
        x = np.asarray(x, dtype=float)
        bar = self.tol * (1.0 + math.sqrt(x.dot(x)))
        if self.line is not None:
            return self.line.distance(x) <= bar
        return geometry.union_distance(self.pieces, x, within=bar) is None

    def is_singleton(self) -> bool:
        vs = self.vertices
        span = np.max(vs, axis=0) - np.min(vs, axis=0)
        return bool(np.all(span <= self.tol * (1.0 + np.max(np.abs(vs)))))

    def acceptances(self, y) -> dict[str, float]:
        """Acceptances of the agent's bids that realise the demand point y.

        The pattern combinations are tried in build order, each with one
        box-constrained least squares over its free bids (a bid whose range
        has zero width is fixed at lo).  The first combination that reaches y
        within 1e-12 wins, otherwise the one with the least error; so when
        two surplus-maximal patterns give the same bundle, the first built
        is chosen.  Every result is a best response at the set's prices.
        """
        from scipy.optimize import lsq_linear  # imported at first use: see `equilab`
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


def demand_set(priced: PricedMarket, i: int) -> DemandSet:
    """Best surplus and exact demand set of agent i of a priced market.

    The factors are read off the priced arrays: each curve's demand
    interval along its hour's row of one identity matrix, then the kept
    patterns of each component, as (offset, fixed, free) with the bundle of
    the fixed blocks.  An agent on one of the priced market's lines gets its
    carrier line from the priced arrays (`PricedMarket.carrier_lines`).
    """
    cm = priced.market.compiled
    curves = range(cm.curve_start[i], cm.curve_start[i + 1])
    axes = np.eye(cm.K)
    factors = [((np.zeros(cm.K), (), tuple(
        (cm.curves[c].bid_id, axes[cm.curve_hour[c]], *priced.curve_interval[c])
        for c in curves)),)]
    for k in range(cm.component_start[i], cm.component_start[i + 1]):
        factors.append(tuple(_pattern_factor(cm, priced.classes, cm.components[k], z)
                             for z in priced.kept[k]))
    ds = DemandSet(priced.tol, priced.best_surplus[i], tuple(factors))
    line = priced.carrier_lines[i]
    if line is not None:
        vars(ds)["line"] = line                    # the cached property, filled in
    return ds


def _carrier_line(shapes) -> CarrierLine | None:
    """The carrier line of pieces given as canonical (offset, generators)
    forms, None off a line.

    The line runs from the first offset along the first nonzero direction:
    a generator, else an offset's difference from the first offset.  The
    test stops at the first direction that leaves the line by more than
    1e-9 * (1 + the longest).
    """
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


def _pattern_factor(cm: CompiledMarket, classes: list, comp: tuple, z: tuple):
    """(offset, fixed, free) of one pattern of a component: the bundle of its
    fixed blocks, their (bid_id, acceptance) (off 0, in the money 1, out of
    the money mar), and the (bid_id, q, mar, 1) of its active at-the-money
    blocks."""
    offset = np.zeros(cm.K)
    fixed = []
    free = []
    for j, zi in zip(comp, z):
        b = cm.blocks[j]
        if not zi:
            fixed.append((b.bid_id, 0.0))
        elif classes[j] == _IN:
            offset += cm.block_q[j]
            fixed.append((b.bid_id, 1.0))
        elif classes[j] == _AT:
            free.append((b.bid_id, cm.block_q[j], b.mar, 1.0))
        else:
            offset += b.mar * cm.block_q[j]
            fixed.append((b.bid_id, b.mar))
    return offset, tuple(fixed), tuple(free)


def agent_best_surplus(agent: Agent, lam, tol: float | None = None) -> float:
    """max over the agent's feasible set of u(x) - lam.x (closed form)."""
    lam = np.asarray(lam, dtype=float)
    return PricedMarket(Market(lam.size, (agent,)), lam, tol).best_surplus[0]


# ---------------------------------------------------------------------------
# Nonconvexity measure

def nonconvexity(demand: DemandSet, norm: str = DEFAULT_NORM, probes=()) -> float:
    """Largest distance from a hull point of the demand set back to the set.

    Exact for a set on a carrier line (`DemandSet.line`): the largest
    half-gap between its intervals, or the larger distance of a
    caller-supplied probe point (which must lie in the hull), measured on
    the pieces.
    Otherwise the value is the maximum over a candidate family of hull
    points: piece corners, pairwise closest-approach midpoints, and the
    probes.  That family is not exhaustive once the set spans two or more
    dimensions, so the value is then a lower bound on the measure: two
    at-the-money all-or-nothing blocks in one exclusive group, at q=(1, 0)
    and q=(1/2, sqrt(3)/2), demand {0, q1, q2}, and the family gives 0.5
    where the circumcenter of that triangle lies 1/sqrt(3) ~ 0.577 from the
    set.

    The value is the first maximal candidate distance, each distance the
    `min` over the pieces in order (`geometry.union_distance`).  The
    candidates are taken in order: the corners piece by piece, each
    projected on its own piece first (which holds it, so usually that one
    projection decides), then the midpoints, each from its pair's first
    piece, then the probes.  A candidate stops, and is not the first
    maximum, as soon as a piece is no farther than the largest distance
    before it, and one not stopped takes its minimum in piece order, so
    the float, signed zeros included, is the one the full max-min loop
    returns.
    """
    line = demand.line
    candidates = []
    if line is not None:
        worst = line.gap_radius() * vector_norm(line.unit, norm)
    elif len(demand.pieces) == 1 and not probes:
        return 0.0
    else:
        worst = -math.inf
        pieces = demand.pieces
        candidates = [(i, v) for i, piece in enumerate(pieces)
                      for v in geometry.piece_vertices(piece)]
        for (i, a), (_, b) in itertools.combinations(enumerate(pieces), 2):
            _, pa, pb = geometry.closest_pair(a, b)
            candidates.append((i, 0.5 * (pa + pb)))
    candidates.extend((0, x) for x in probes)
    for first, x in candidates:
        d = geometry.union_distance(demand.pieces, x, norm, within=worst, first=first)
        if d is not None:
            worst = d
    return worst


@dataclass(frozen=True)
class NonconvexStats:
    """Count and ranking of demand nonconvexity across agents."""

    count: int                  # agents with a nonconvex demand set
    top: tuple[float, ...]      # largest measures, descending, zero-padded
    per_agent: tuple[float, ...]

    @property
    def top_sum(self) -> float:
        return ordered_sum(self.top)
