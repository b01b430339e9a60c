"""Market, agents, and the two bid formats.

Sign convention: quantities are signed, positive = buy, negative = sell.  A
market has K commodities ("hours"); an agent holds hourly curve bids (divisible,
concave value) and block bids (indivisible profiles with a minimum acceptance
ratio).  An agent's feasible set is the product of its per-bid acceptance sets
restricted by exclusive groups (at most one member accepted), parent/child
links (child active only if parent active) and loops (partners all-or-nothing
together).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .curves import CurveError, CurveShapeError, canonical_steps

MAR_FLOOR = 0.01


@dataclass(frozen=True)
class HourlyCurveBid:
    """Divisible per-hour bid given by (price, quantity) breakpoints."""

    bid_id: str
    hour: int
    points: tuple[tuple[float, float], ...]
    mode: str = "stepwise"

    @cached_property
    def steps(self):
        return canonical_steps(self.points, self.mode)


@dataclass(frozen=True)
class BlockBid:
    """Indivisible profile bid.

    `price` is the money for the *full* profile (negative for sells: the
    least total revenue at which the seller accepts).  Acceptance ratio lives
    in {0} union [mar, 1].
    """

    bid_id: str
    price: float
    quantity: tuple[float, ...]
    mar: float = 1.0
    group: str | None = None
    parent: str | None = None
    loop: str | None = None

    @cached_property
    def q(self) -> np.ndarray:
        return np.asarray(self.quantity, dtype=float)


@dataclass(frozen=True)
class Agent:
    agent_id: str
    bids: tuple = ()

    @property
    def curve_bids(self) -> tuple[HourlyCurveBid, ...]:
        return tuple(b for b in self.bids if isinstance(b, HourlyCurveBid))

    @property
    def block_bids(self) -> tuple[BlockBid, ...]:
        return tuple(b for b in self.bids if isinstance(b, BlockBid))


@dataclass(frozen=True)
class Market:
    num_commodities: int
    agents: tuple[Agent, ...]
    currency: str = "EUR"
    quantity_unit: str = "MW"
    label: str = ""

    @cached_property
    def bid_index(self) -> dict[str, tuple[Agent, object]]:
        out: dict[str, tuple[Agent, object]] = {}
        for agent in self.agents:
            for bid in agent.bids:
                out[bid.bid_id] = (agent, bid)
        return out

    @cached_property
    def compiled(self) -> CompiledMarket:
        return CompiledMarket(self)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    bid_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_market(market: Market) -> ValidationReport:
    """Structural checks; returns diagnostics instead of raising.

    Covers commodity count, agent and bid id uniqueness (per-agent outputs
    are keyed by agent id), curve shape (monotone prices / quantities, hour
    range, finite numbers), block dimensions, MAR bounds, and group/link/loop
    reference integrity: a group, parent or loop partner lies within one
    agent, and loops are the only permitted cycles.
    """
    out: list[Violation] = []
    if market.num_commodities < 1:
        out.append(Violation("bad-dimension", "market needs at least one commodity"))
    if not market.agents:
        out.append(Violation("no-agents", "market has no agents"))

    agent_ids: set[str] = set()
    seen: dict[str, str] = {}
    for agent in market.agents:
        if agent.agent_id in agent_ids:
            out.append(Violation("duplicate-agent-id",
                                 f"agent id {agent.agent_id!r} used more than once"))
        agent_ids.add(agent.agent_id)
        for bid in agent.bids:
            if bid.bid_id in seen:
                out.append(Violation("duplicate-bid-id",
                                     f"bid id {bid.bid_id!r} used more than once",
                                     (bid.bid_id,)))
            seen[bid.bid_id] = agent.agent_id

    blocks: dict[str, BlockBid] = {}
    owner: dict[str, str] = {}
    for agent in market.agents:
        for bid in agent.bids:
            if isinstance(bid, HourlyCurveBid):
                _check_curve(market, bid, out)
            elif isinstance(bid, BlockBid):
                blocks[bid.bid_id] = bid
                owner[bid.bid_id] = agent.agent_id
                _check_block(market, bid, out)

    for bid in blocks.values():
        for ref, code in ((bid.parent, "bad-parent"), (bid.loop, "bad-loop")):
            if ref is not None and ref not in blocks:
                out.append(Violation(code, f"{bid.bid_id}: reference {ref!r} "
                                     "does not name a block bid", (bid.bid_id,)))
            elif ref is not None and owner[ref] != owner[bid.bid_id]:
                out.append(Violation(code, f"{bid.bid_id}: reference {ref!r} "
                                     "belongs to another agent", (bid.bid_id,)))
    group_owner: dict[str, str] = {}
    for bid in blocks.values():
        if bid.group is not None:
            if group_owner.setdefault(bid.group, owner[bid.bid_id]) != owner[bid.bid_id]:
                out.append(Violation("bad-group", f"{bid.bid_id}: group {bid.group!r} "
                                     "belongs to another agent", (bid.bid_id,)))
    for bid in blocks.values():
        if bid.loop is not None and bid.loop in blocks:
            partner = blocks[bid.loop]
            if partner.bid_id == bid.bid_id or partner.loop != bid.bid_id:
                out.append(Violation("bad-loop", f"loop {bid.bid_id}<->{bid.loop} "
                                     "is not a mutual pair", (bid.bid_id,)))
    # Parent chains must be acyclic (loops above are the only 2-cycles).
    for bid in blocks.values():
        hops, cur = 0, bid
        while cur.parent is not None and cur.parent in blocks:
            cur = blocks[cur.parent]
            hops += 1
            if cur.bid_id == bid.bid_id or hops > len(blocks):
                out.append(Violation("link-cycle",
                                     f"parent chain through {bid.bid_id} cycles",
                                     (bid.bid_id,)))
                break
    return ValidationReport(tuple(out))


def _check_curve(market: Market, bid: HourlyCurveBid, out: list[Violation]) -> None:
    if not 0 <= bid.hour < market.num_commodities:
        out.append(Violation("bad-hour", f"{bid.bid_id}: hour {bid.hour} outside "
                             f"0..{market.num_commodities - 1}", (bid.bid_id,)))
    if not all(math.isfinite(p) and math.isfinite(q) for p, q in bid.points):
        out.append(Violation("non-finite", f"{bid.bid_id}: non-finite breakpoint",
                             (bid.bid_id,)))
        return
    try:
        bid.steps
    except CurveShapeError as exc:
        side = "buy" if any(q > 0 for _, q in bid.points) else "sell"
        kind = "non-concave buy curve" if side == "buy" else "non-convex sell curve"
        out.append(Violation("bad-curve", f"{bid.bid_id}: {kind} ({exc})",
                             (bid.bid_id,)))
    except CurveError as exc:                  # an unknown mode or no points
        out.append(Violation("bad-curve", f"{bid.bid_id}: {exc}", (bid.bid_id,)))


def _check_block(market: Market, bid: BlockBid, out: list[Violation]) -> None:
    if len(bid.quantity) != market.num_commodities:
        out.append(Violation("bad-dimension", f"{bid.bid_id}: profile has "
                             f"{len(bid.quantity)} entries, expected "
                             f"{market.num_commodities}", (bid.bid_id,)))
    if not (math.isfinite(bid.price) and all(math.isfinite(v) for v in bid.quantity)):
        out.append(Violation("non-finite", f"{bid.bid_id}: non-finite entry",
                             (bid.bid_id,)))
    if not MAR_FLOOR <= bid.mar <= 1.0:
        out.append(Violation("bad-mar", f"{bid.bid_id}: minimum acceptance ratio "
                             f"{bid.mar} outside [{MAR_FLOOR}, 1]", (bid.bid_id,)))


@dataclass(frozen=True)
class Allocation:
    """Per-bid acceptances for a whole market.

    Blocks store the acceptance ratio, curves the signed quantity taken.
    """

    acceptances: Mapping[str, float] = field(default_factory=dict)

    def __getitem__(self, bid_id: str) -> float:
        return self.acceptances[bid_id]

    def bundles(self, market: Market) -> np.ndarray:
        """Every agent's bundle (row i: agent i), read-only."""
        return market.compiled.bundles(self.acceptances)


# ---------------------------------------------------------------------------
# Indicator patterns

def block_components(blocks: tuple[BlockBid, ...]) -> list[tuple[int, ...]]:
    """Indices of blocks connected through groups, links, or loops."""
    n = len(blocks)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    by_id = {b.bid_id: i for i, b in enumerate(blocks)}
    by_group: dict[str, int] = {}
    for i, b in enumerate(blocks):
        if b.group is not None:
            if b.group in by_group:
                union(i, by_group[b.group])
            by_group[b.group] = i
        if b.parent is not None and b.parent in by_id:
            union(i, by_id[b.parent])
        if b.loop is not None and b.loop in by_id:
            union(i, by_id[b.loop])
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [tuple(sorted(v)) for _, v in sorted(comps.items())]


def pattern_feasible(blocks: tuple[BlockBid, ...], z: tuple[int, ...],
                     by_id: dict[str, int] | None = None) -> bool:
    """Is the indicator assignment consistent with groups, links, loops?

    Couplings are scoped to `blocks`: a parent or loop partner outside them
    is ignored.  `by_id` maps each bid id to its index in `blocks`; it is
    built here when not given.
    """
    if by_id is None:
        by_id = {b.bid_id: i for i, b in enumerate(blocks)}
    groups: dict[str, int] = {}
    for i, b in enumerate(blocks):
        if z[i]:
            if b.group is not None:
                groups[b.group] = groups.get(b.group, 0) + 1
                if groups[b.group] > 1:
                    return False
            if b.parent is not None and b.parent in by_id and not z[by_id[b.parent]]:
                return False
        if b.loop is not None and b.loop in by_id and z[i] != z[by_id[b.loop]]:
            return False
    return True


LONE_PATTERNS = ((0,), (1,))


def iter_patterns(blocks: tuple[BlockBid, ...]) -> tuple[tuple[int, ...], ...]:
    """All feasible indicator patterns, in ascending bitmask order.  Every
    lone block shares `LONE_PATTERNS`: it has nothing to violate."""
    if len(blocks) == 1:
        return LONE_PATTERNS
    by_id = {b.bid_id: i for i, b in enumerate(blocks)}
    return tuple(z for z in itertools.product((0, 1), repeat=len(blocks))
                 if pattern_feasible(blocks, z, by_id))


# ---------------------------------------------------------------------------
# Compiled form

class CompiledMarket:
    """A market in arrays, built once and cached on it (`Market.compiled`).

    Blocks and curves are numbered in market order (agent by agent, bids in
    their order), and so are the welfare LP columns: one per block, one per
    curve step.  Per block: its q row, price, mar and column.  Per linked
    component (`block_components` of each agent, in order): its owner
    (`component_owner`), block numbers and feasible indicator patterns,
    enumerated here once per market.  Per curve: owner (`curve_owner`), hour
    and its step table in curve order.  The block couplings, scoped to the
    agent as the components are: `groups`, each exclusive group's member
    block numbers, groups sorted by group id (a group id reused by another
    agent names another group); `parent` and `loop`, per block the block
    number of its parent and of its loop partner among its agent's blocks,
    or -1.  The arrays:

    - `block_table`, one row per block: price, mar, |price|, then its q;
    - `step_table`, one row per step: price, signed width (positive buys),
      |price|, width, lo, hi, and the end nearer zero (lo buys, hi sells);
      `step_index` rows: hour, column, curve;
    - `curve_table`, one row per curve: the lo and hi of its range, and
      1 + max(|lo|, |hi|), the scale of its tolerance;
    - `bid_index` rows: owner and value (block j as j, curve c as ~c) of
      each bid, in market order.

    `linked_components` lists the components of more than one block; a
    lone block's patterns are `LONE_PATTERNS`, off then on.  An agent with
    one block j (every seller of the Monte Carlo study) skips the component
    search: its component is (j,), and its parent and loop partner are j
    where the bid names its own id, else -1, as the search finds them.
    `demand.PricedMarket` prices every agent in one pass of loops over
    these tables.  `values`, `bundles_of` and `columns_accepted` sum over a
    curve's steps and an agent's bids for all owners at once with
    `np.add.at` or `np.bincount`, which add in index order; the owners are
    listed in the order of the one-owner loops, so every sum adds in that
    loop's order.  At K = 1 `bundles_of` is that loop: the bids in market
    order, each added to its agent's total from 0.0, the sums `np.add.at`
    makes without its per-call cost.
    """

    __slots__ = ("K", "num_agents", "num_columns", "blocks", "curves", "components",
                 "patterns", "linked_components", "curve_start", "component_start",
                 "curve_hour", "block_table", "block_col", "step_table", "curve_table",
                 "step_index", "bid_index", "curve_owner", "component_owner", "groups",
                 "parent", "loop")

    def __init__(self, market: Market):
        K = market.num_commodities
        self.K = K
        blocks: list[BlockBid] = []
        curves: list[HourlyCurveBid] = []
        components: list[tuple[int, ...]] = []
        patterns: list[tuple[tuple[int, ...], ...]] = []
        linked: list[int] = []
        block_rows, block_col, step_rows, step_hour, step_col = [], [], [], [], []
        curve_rows, step_curve = [], []
        bid_value, bid_owner = [], []                      # curve c as ~c
        curve_owner, component_owner = [], []
        curve_start, component_start = [0], [0]
        groups: dict[tuple[str, int], list[int]] = {}
        self.parent, self.loop = parent, loop = [], []
        col = 0
        for i, agent in enumerate(market.agents):
            first_block = len(blocks)
            for bid in agent.bids:
                bid_owner.append(i)
                if isinstance(bid, BlockBid):
                    if len(bid.quantity) != K:
                        raise ValueError(f"{bid.bid_id}: profile has {len(bid.quantity)} "
                                         f"entries, expected {K}")
                    bid_value.append(len(blocks))
                    blocks.append(bid)
                    block_rows += (bid.price, bid.mar, abs(bid.price), *bid.quantity)
                    block_col.append(col)
                    col += 1
                    continue
                c = len(curves)
                bid_value.append(~c)
                curve_owner.append(i)
                lo = hi = 0.0                         # its range holds 0
                for step in bid.steps:
                    s_lo, s_hi, price = step.lo, step.hi, step.price
                    buy, width = s_lo >= 0.0, s_hi - s_lo
                    step_rows += (price, width if buy else -width, abs(price), width,
                                  s_lo, s_hi, s_lo if buy else s_hi)
                    step_hour.append(bid.hour)
                    step_col.append(col)
                    step_curve.append(c)
                    col += 1
                    lo, hi = min(lo, s_lo), max(hi, s_hi)
                curve_rows += (lo, hi, 1.0 + max(-lo, hi))
                curves.append(bid)
            if len(blocks) == first_block + 1:
                # A lone block: its component is itself, and only its own id
                # can name a parent or loop partner among its agent's blocks.
                b = blocks[first_block]
                parent.append(first_block if b.parent == b.bid_id else -1)
                loop.append(first_block if b.loop == b.bid_id else -1)
                if b.group is not None:
                    groups.setdefault((b.group, i), []).append(first_block)
                component_owner.append(i)
                components.append((first_block,))
                patterns.append(iter_patterns((b,)))
            elif len(blocks) > first_block:
                mine = blocks[first_block:]
                by_id = {b.bid_id: j for j, b in enumerate(mine, first_block)}
                for j, b in enumerate(mine, first_block):
                    parent.append(by_id.get(b.parent, -1))
                    loop.append(by_id.get(b.loop, -1))
                    if b.group is not None:
                        groups.setdefault((b.group, i), []).append(j)
                for comp in block_components(tuple(mine)):
                    if len(comp) > 1:
                        linked.append(len(components))
                    component_owner.append(i)
                    components.append(tuple([first_block + j for j in comp]))
                    patterns.append(iter_patterns(tuple([mine[j] for j in comp])))
            curve_start.append(len(curves))
            component_start.append(len(components))
        self.num_agents = len(market.agents)
        self.num_columns = col
        self.curve_start, self.component_start = curve_start, component_start
        self.groups = [tuple(members) for _, members in sorted(groups.items())]

        self.blocks = blocks
        self.block_table = np.array(block_rows, dtype=float)
        self.block_table.shape = (len(blocks), K + 3)
        self.block_table.flags.writeable = False
        self.block_col = np.array(block_col, dtype=int)

        self.components = components
        self.patterns = patterns
        self.linked_components = linked

        self.curves = curves
        self.curve_hour = [c.hour for c in curves]
        self.step_table = np.array(step_rows, dtype=float)
        self.step_table.shape = (len(step_curve), 7)
        self.curve_table = np.array(curve_rows, dtype=float)
        self.curve_table.shape = (len(curves), 3)
        self.step_index = np.array((step_hour, step_col, step_curve), dtype=int)
        self.bid_index = np.array((bid_owner, bid_value), dtype=int)
        self.curve_owner = curve_owner
        self.component_owner = component_owner

    @property
    def block_q(self) -> np.ndarray:
        """Row j is block j's q (read-only)."""
        return self.block_table[:, 3:]

    def _accepted(self, acceptances: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """Every block's acceptance ratio and every curve's quantity."""
        return (np.array([acceptances[b.bid_id] for b in self.blocks], dtype=float),
                np.array([acceptances[c.bid_id] for c in self.curves], dtype=float))

    def columns_accepted(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every block's acceptance ratio and every curve's quantity at the
        welfare LP column values x: a curve takes its steps' signed widths
        times their columns, summed in step order."""
        _, step_col, curve = self.step_index
        return (x[self.block_col],
                np.bincount(curve, x[step_col] * self.step_table[:, 1], len(self.curves)))

    def bundles(self, acceptances: Mapping[str, float]) -> np.ndarray:
        """Every agent's net bundle (row i: agent i), summed bid by bid in
        the agent's order.  The array is read-only."""
        return self.bundles_of(*self._accepted(acceptances))

    def bundles_of(self, ratio: np.ndarray, quantity: np.ndarray) -> np.ndarray:
        """`bundles` of every block's ratio and every curve's quantity."""
        if self.K == 1:
            # The sums `np.add.at` makes below: each agent's bids in market
            # order, added to 0.0.
            ratio, quantity = ratio.tolist(), quantity.tolist()
            q = self.block_table[:, 3].tolist()
            total = [0.0] * self.num_agents
            for i, v in zip(*self.bid_index.tolist()):
                total[i] += ratio[v] * q[v] if v >= 0 else quantity[~v]
            x = np.array(total, dtype=float).reshape(-1, 1)
            x.flags.writeable = False
            return x
        owner, value = self.bid_index
        block = value >= 0
        rows = np.zeros((value.size, self.K))
        rows[block] = ratio[:, None] * self.block_q
        rows[~block, self.curve_hour] = quantity
        x = np.zeros((self.num_agents, self.K))
        np.add.at(x, owner, rows)
        x.flags.writeable = False
        return x

    def values(self, acceptances: Mapping[str, float], tol: float) -> np.ndarray:
        """Every agent's total bid value at the acceptances, or -inf where
        they are infeasible within t = tol.

        A block ratio a is off (a <= t) or on (mar - t <= a <= 1 + t), a curve
        quantity lies within t * (1 + max(|lo|, |hi|)) of the curve's range,
        and each linked component's on flags are one of its compiled
        patterns.  A block adds a * price and a curve the integral of its
        marginal price from 0 to its quantity, step by step, each sum in its
        loop's order, so every float is a bid loop's.
        """
        ratio, quantity = self._accepted(acceptances)
        off = ratio <= tol
        block_ok = off | ((self.block_table[:, 1] - tol <= ratio) & (ratio <= 1.0 + tol))
        if self.linked_components:
            on = (block_ok & ~off).tolist()
            for k in self.linked_components:
                comp = self.components[k]
                if tuple(on[j] for j in comp) not in self.patterns[k]:
                    block_ok[comp[0]] = False
        lo, hi, scale = self.curve_table.T
        bar = tol * scale
        curve_ok = (lo - bar <= quantity) & (quantity <= hi + bar)
        # A step adds its price times the part of [0, x] it covers: x
        # clipped to the step, less the step's end nearer zero.
        price, _, _, _, step_lo, step_hi, near = self.step_table.T
        curve = self.step_index[2]
        taken = price * (np.minimum(np.maximum(quantity[curve], step_lo), step_hi) - near)
        terms = np.concatenate((
            np.where(block_ok, ratio * self.block_table[:, 0], -np.inf),
            np.where(curve_ok, np.bincount(curve, taken, len(self.curves)), -np.inf)[::-1]))
        owner, value = self.bid_index
        return np.bincount(owner, terms[value], self.num_agents)   # curve c, as ~c, from the end
