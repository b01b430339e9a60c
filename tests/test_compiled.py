"""The compiled market against the per-agent builds it replaced, byte for byte.

`build_convexified` fills its columns from `Market.compiled`, and
`PricedMarket` prices every agent at once from the same arrays.  Both must
give exactly the floats of the one-agent-at-a-time code kept in
`reference_oracles`: the welfare LP arrays, the dual objective at lambda*,
and at lambda* and at a random price every agent's best surplus, demand-set
factors, carrier line and containment of its LP bundle, the money classes,
and the LP bundles themselves.  Values are compared by their bytes, so a
changed rounding or a flipped zero sign fails.  Coarse power-of-two
tolerances put grid prices exactly on the edges of the at-the-money bands.

`PricedMarket.containment`, the one-pass certificate, is compared flag by
flag with each agent's `DemandSet.contains` on the oracle's demand set: at
lambda* and at a random price, for the LP bundles, random bundles, and
points at the containment bar t * (1 + |x|) and one float step either side
of it: beyond each end of every interval of every line (so also inside the
gap of an at-the-money lone block's two intervals), and at K >= 2 also off
the line in the next hour.

`CompiledMarket.values` is compared the same way with the `agent_value` and
`acceptance_feasible` oracles: at lambda*'s LP allocation, at the exact
welfare allocation, at random balanced allocations, and with one bid moved
to each bound of its feasibility check and one float step either side.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.config import resolve_tol
from equilab.convexify import PricedMarket, build_convexified, solve_lp
from equilab.geometry import ComplexityError
from equilab.model import MAR_FLOOR, Agent, BlockBid, HourlyCurveBid, Market
from equilab.random_markets import SimpleRandomMarketSpec, draw_costs, market_from_costs
from equilab.welfare import solve_welfare

from market_corpus import (cross_agent_parent_market, large_market,
                           random_balanced_allocation, random_market, random_price_vector,
                           split_group_market)
from market_helpers import checked_values
from reference_oracles import (agent_bundle, quantity_range, reference_build_convexified,
                               reference_classify_money, reference_demand_set,
                               reference_dual_value)


def exact(value):
    """A comparable form of `value` that keeps every bit of every float."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex() if value == value else "nan")
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(exact(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, exact(v)) for k, v in value.items()))
    return (type(value).__name__, repr(value))


def outcome(compute):
    """`exact` of what `compute()` returns, or the type of error it raises."""
    try:
        return exact(compute())
    except ComplexityError as exc:
        return ("raises", type(exc).__name__)


def corpus_case(seed, K):
    return random_market(np.random.default_rng((seed, K)), K=K, max_blocks=8)


def split_case(seed, K):
    return split_group_market(np.random.default_rng((seed, K)), K=K)


def monte_carlo_case(seed, n):
    rng = np.random.default_rng(seed)
    spec = SimpleRandomMarketSpec(n, int(rng.integers(0, n + 1)), seed=seed)
    return market_from_costs(spec, draw_costs(spec, int(rng.integers(100))))


seeds = st.integers(0, 2 ** 31 - 1)
markets = st.one_of(
    st.builds(corpus_case, seeds, st.sampled_from((1, 2, 4, 24))),
    st.builds(split_case, seeds, st.sampled_from((1, 2, 4))),
    st.builds(monte_carlo_case, seeds, st.sampled_from((5, 10, 20, 40))),
)

PROGRAM_FIELDS = ("objective", "balance", "a_ub", "b_ub", "lo", "hi")


def compiled_columns(market):
    """The per-bid column maps of `ReferenceProgram`, read off the compiled
    market: block id -> column, curve id -> ((column, signed width), ...)."""
    cm = market.compiled
    _, step_col, curve = cm.step_index
    steps = [[] for _ in cm.curves]
    for col, w, c in zip(step_col.tolist(), cm.step_table[:, 1].tolist(), curve.tolist()):
        steps[c].append((col, w))
    return (dict(zip([b.bid_id for b in cm.blocks], cm.block_col.tolist())),
            {c.bid_id: tuple(cols) for c, cols in zip(cm.curves, steps)})


def assert_priced_like_oracle(priced, bundles):
    market, lam, tol = priced.market, priced.lambda_star, priced.tol
    K = market.num_commodities
    assert exact(vars(priced.money_classes())) == \
        exact(vars(reference_classify_money(market, lam, tol)))
    contains = []
    for i, agent in enumerate(market.agents):
        got, want = priced.demand(i), reference_demand_set(agent, lam, K, tol)
        assert exact(got.best_surplus) == exact(want.best_surplus), (i, "best surplus")
        assert exact(priced.best_surplus[i]) == exact(want.best_surplus), (i, "best surplus")
        assert exact(got.factors) == exact(want.factors), (i, "factors")
        assert outcome(lambda: got.line) == outcome(lambda: want.line), (i, "line")
        contains.append(outcome(lambda: want.contains(bundles[i])))
        assert outcome(lambda: got.contains(bundles[i])) == contains[i], (i, "contains")
    got = outcome(lambda: priced.containment(bundles))
    if ("raises", "ComplexityError") in contains:
        assert got == ("raises", "ComplexityError")
    else:
        assert got == ("list", tuple(contains)), "contains"


@settings(max_examples=300, deadline=None)
@given(markets, seeds, st.sampled_from((None, 0.5, 0.25, 0.125)))
def test_compiled_market_is_byte_identical_to_per_agent_builds(market, seed, tol):
    program, reference = build_convexified(market), reference_build_convexified(market)
    for name in PROGRAM_FIELDS:
        assert exact(getattr(program, name)) == exact(getattr(reference, name)), name
    assert program.compiled is market.compiled
    assert exact(compiled_columns(market)) == exact((reference.block_col, reference.curve_cols))

    dual = solve_lp(market)
    K = market.num_commodities
    bundles = list(dual.lp_bundles())
    assert exact(bundles) == exact([agent_bundle(a, dual.allocation.acceptances, K)
                                    for a in market.agents])
    assert exact(dual.dual_objective) == \
        exact(reference_dual_value(market, dual.lambda_star))

    # the same relaxation priced under `tol`: lambda* does not depend on it
    assert_priced_like_oracle(solve_lp(market, tol), bundles)
    lam = random_price_vector(np.random.default_rng(seed), market)
    assert_priced_like_oracle(PricedMarket(market, lam, tol), bundles)


@pytest.mark.parametrize("i", range(6))
def test_large_market_is_priced_like_per_agent_builds(i):
    # the 12-agent K = 24 markets `equilab clear` meets in the benchmark,
    # which `markets` never draws, at lambda* under two tolerances
    market = large_market(np.random.default_rng((1, i)), 12, 24)
    bundles = list(solve_lp(market).lp_bundles())
    for tol in (None, 0.05):
        assert_priced_like_oracle(solve_lp(market, tol), bundles)


def line_ends(line):
    """Each end of each interval of a carrier line, as (point, direction):
    the end's point and the sign of the unit's largest component, turned
    away from its interval (a point's line takes +1)."""
    h = int(np.argmax(np.abs(line.unit)))
    sign = 1.0 if line.unit[h] >= 0.0 else -1.0
    for lo, hi in line.intervals:
        for end, away in ((lo, -1.0), (hi, 1.0)):
            yield line.origin + end * line.unit, away * sign


def bar_points(priced, bundles):
    """Per agent decided on a line at K = 1, bundles at the bar beyond each
    end of each of its intervals (so also inside the gap of a line of two
    intervals), and one float step either side of each: x with |x - edge| =
    t * (1 + |x|), solved on each side of zero."""
    t = priced.tol
    rows = []
    for i, line in enumerate(priced.carrier_lines):
        if line is None:
            continue
        for point, away in line_ends(line):
            edge = float(point[0])
            for side in (-1.0, 1.0):
                x = (edge + away * t) / (1.0 - away * side * t)
                if x * side < 0.0:
                    continue
                for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
                    row = np.array(bundles, dtype=float)
                    row[i, 0] = v
                    rows.append(row)
    return rows


def hour_bar_points(priced, bundles):
    """Per agent decided on a line at K >= 2, bundles at the bar and one
    float step either side of it, from each end of each interval: along
    the hour of the unit's largest component, away from the interval (so
    also into the gap of a line of two intervals), and both ways along the
    next hour (a point's line takes hour 0).  |x| moves with the point, so
    the bar is found by bisection on floats, as the first float the
    oracle's `contains` leaves out."""
    market, K = priced.market, priced.market.num_commodities
    rows = []
    for i, line in enumerate(priced.carrier_lines):
        if line is None:
            continue
        ref = reference_demand_set(market.agents[i], priced.lambda_star, K, priced.tol)
        h = int(np.argmax(np.abs(line.unit)))
        for point, away in line_ends(line):
            edge = np.array(bundles, dtype=float)
            edge[i] = point
            for hour, direction in ((h, away), ((h + 1) % K, -1.0), ((h + 1) % K, 1.0)):
                def at(v):
                    row = edge.copy()
                    row[i, hour] = v
                    return row
                bar = bar_crossing(lambda v: ref.contains(at(v)[i]), edge[i, hour], direction)
                rows += [at(v) for v in (np.nextafter(bar, -np.inf), bar,
                                         np.nextafter(bar, np.inf))]
    return rows


def bar_crossing(inside, start, direction):
    """The first float from `start`, which is inside, in `direction` that
    `inside` leaves out."""
    step = 1.0 + abs(start)
    while inside(start + direction * step):
        step *= 2.0
    a, b = start, start + direction * step
    while (m := 0.5 * (a + b)) not in (a, b):
        a, b = (m, b) if inside(m) else (a, m)
    return b


def assert_containment_like_contains(priced, bundle_sets):
    market = priced.market
    refs = [reference_demand_set(a, priced.lambda_star, market.num_commodities, priced.tol)
            for a in market.agents]
    decided = {}                       # the oracle's answer per (agent, row bytes)
    for bundles in bundle_sets:
        want = []
        for i, (ref, x) in enumerate(zip(refs, bundles)):
            if (i, x.tobytes()) not in decided:
                decided[i, x.tobytes()] = outcome(lambda: ref.contains(x))
            want.append(decided[i, x.tobytes()])
        for i, flag in enumerate(priced.line_contains(bundles)):
            if flag is not None:
                assert exact(flag) == want[i], (i, "decided")
        got = outcome(lambda: priced.containment(bundles))
        if ("raises", "ComplexityError") in want:
            assert got == ("raises", "ComplexityError")
        else:
            assert got == ("list", tuple(want))
            assert outcome(lambda: priced.containment(bundles)) == got


@settings(max_examples=200, deadline=None)
@given(markets, seeds, st.sampled_from((None, 0.5, 0.25, 0.125)))
def test_one_pass_containment_is_each_agents_contains(market, seed, tol):
    rng = np.random.default_rng(seed)
    dual = solve_lp(market, tol)
    lp_bundles = dual.lp_bundles()
    scale = 1.0 + float(np.max(np.abs(lp_bundles)))
    n, K = lp_bundles.shape
    for priced in (dual, PricedMarket(market, random_price_vector(rng, market), tol)):
        bundle_sets = [lp_bundles, rng.normal(0.0, scale, (n, K)),
                       lp_bundles + rng.normal(0.0, 1e-3 * scale, (n, K))]
        bundle_sets += (bar_points if K == 1 else hour_bar_points)(priced, lp_bundles)
        assert_containment_like_contains(priced, bundle_sets)


def test_containment_bar_is_inclusive():
    # the buyer demands the point 5; at t = 1/2, x = 3 is exactly
    # t * (1 + |x|) = 2 from it, and the next float down is not
    spec = SimpleRandomMarketSpec(6, 3, seed=4)
    market = market_from_costs(spec, draw_costs(spec))
    dual = solve_lp(market, 0.5)
    assert dual.on_line[0] and dual.line_origin[0, 0] == 5.0
    for x, inside in ((3.0, True), (np.nextafter(3.0, 0.0), False)):
        bundles = np.array(dual.lp_bundles())
        bundles[0, 0] = x
        assert dual.line_contains(bundles)[0] is inside
        assert reference_demand_set(market.agents[0], dual.lambda_star, 1, 0.5).contains(
            bundles[0]) is inside


def test_zero_width_curve_folds_into_the_line_origin():
    # a step priced at lambda and narrower than 1e-9 is folded in at its
    # midpoint, as `fold_generators` folds it
    market = Market(1, (Agent("a", (HourlyCurveBid("tiny", 0, ((5.0, 3e-10),)),
                                    HourlyCurveBid("full", 0, ((7.0, 1.0),)))),))
    priced = PricedMarket(market, [5.0])
    ref = reference_demand_set(market.agents[0], priced.lambda_star, 1, priced.tol)
    assert priced.on_line == [True] and priced.line_origin[0, 0] != 1.0
    assert exact(priced.carrier_lines[0]) == exact(ref.line)
    assert_containment_like_contains(priced, bar_points(priced, np.zeros((1, 1))))


LONE_BLOCK_CASES = [
    # (q, mar, fixed curve quantity, intervals on the line)
    ((-2.0,), 0.3, 1.5, 2),              # a seller: a generator, flipped
    ((2.0,), 0.3, 1.5, 2),               # a buyer
    ((-2.0,), 1.0, 0.1, 2),              # mar = 1: two points, the on one folded
    ((-2.0,), 1e-13, 1.5, 1),            # the two intervals meet
    ((1e-10,), 0.5, 1.0, 1),             # no direction: a point
    ((1.5e-9,), 1.0, 1e8, 1),            # a fold lost in the origin: a point
    ((1.0, 2.0), 0.4, 0.75, 2),
    ((-1.0, 0.5), 1.0, 0.75, 2),
    ((0.0, -1.5, 0.5, 2.0), 0.25, 0.75, 2),
    ((0.0, 0.0, 0.0), 0.5, 0.75, 1),
]


@pytest.mark.parametrize("q, mar, fixed, pieces", LONE_BLOCK_CASES)
def test_at_the_money_lone_block_is_on_a_line(q, mar, fixed, pieces):
    # agent a's only freedom is one lone block at the money, next to a
    # fixed curve: it demands origin + ({0} u [mar q, q]) on the block's
    # line, float for float the oracle's line, and is decided on it; b
    # demands an axis segment, and c, with two blocks at the money, is off
    # a line
    K = len(q)
    lam = np.linspace(3.0, 1.5, K)
    price = float(lam @ q) if K > 1 else q[0] * lam[0]
    market = Market(K, (
        Agent("a", (BlockBid("b", price, q, mar=mar),
                    HourlyCurveBid("fixed", K - 1, ((lam[-1] + 2.0, fixed),)))),
        Agent("b", (HourlyCurveBid("w", 0, ((lam[0], -1.0),)),)),
        Agent("c", (BlockBid("c1", price, q, mar=mar), BlockBid("c2", price, q))),
    ))
    priced = PricedMarket(market, lam)
    assert priced.classes == [0, 0, 0]
    assert priced.on_line == [True, True, False]
    for i, line in enumerate(priced.carrier_lines):
        if line is not None:
            ref = reference_demand_set(market.agents[i], lam, K, priced.tol)
            assert exact(line) == exact(ref.line), i
    assert len(priced.carrier_lines[0].intervals) == pieces
    rng = np.random.default_rng(len(q))
    bundles = [np.zeros((3, K)), rng.normal(0.0, 2.0, (3, K))]
    bundles += (bar_points if K == 1 else hour_bar_points)(priced, np.zeros((3, K)))
    assert_containment_like_contains(priced, bundles)


def lone_block_quantities(K):
    """K hours of a block's q, each 0 or of either sign with |q| in
    1e-10..1e3."""
    nonzero = st.tuples(st.sampled_from((1.0, -1.0)), st.floats(-10.0, 3.0)).map(
        lambda t: t[0] * 10.0 ** t[1])
    return st.lists(st.one_of(st.just(0.0), nonzero), min_size=K, max_size=K).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 4, 24)).flatmap(lone_block_quantities),
       st.one_of(st.just(1.0), st.floats(MAR_FLOOR, 1.0),
                 st.floats(1e-16, 1e-11).map(lambda gap: 1.0 - gap)),
       st.one_of(st.floats(0.0, 10.0), st.floats(1e6, 1e8)),
       st.sampled_from((None, 0.05)))
def test_at_the_money_lone_block_line(q, mar, fixed, tol):
    # the line gives the oracle's floats at K = 1 and K >= 2, on both sides
    # of the direction cut-off 1e-9, with hours of q at zero, at mar = 1 and
    # on ranges narrower than 1e-12 (both then folded to a point), and next
    # to a fixed quantity large enough to swallow the fold
    K = len(q)
    lam = np.linspace(3.0, 1.5, K)
    price = float(lam @ q) if K > 1 else q[0] * lam[0]
    market = Market(K, (
        Agent("a", (BlockBid("b", price, q, mar=mar),
                    HourlyCurveBid("fixed", K - 1, ((lam[-1] + 2.0, fixed),)))),
        Agent("s", (HourlyCurveBid("s", 0, ((1.0, -1.0),)),)),
    ))
    priced = PricedMarket(market, lam, tol)
    assert priced.classes == [0] and priced.on_line[0]
    ref = reference_demand_set(market.agents[0], priced.lambda_star, K, priced.tol)
    assert exact(priced.carrier_lines[0]) == exact(ref.line)
    bundles = np.zeros((2, K))
    assert_containment_like_contains(
        priced, bar_points(priced, bundles) if K == 1 else hour_bar_points(priced, bundles))


@settings(max_examples=200, deadline=None)
@given(markets, seeds)
def test_allocation_from_is_byte_identical_to_the_dict_loop(market, seed):
    """The acceptances read off the program's columns, keys in order and
    every float, at the LP vertex and at random points of [0, 1]^n."""
    program, reference = build_convexified(market), reference_build_convexified(market)
    rng = np.random.default_rng(seed)
    n = program.objective.size
    for x in (solve_lp(market).var_values, rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)):
        assert exact(program.allocation_from(x).acceptances) == \
            exact(reference.allocation_from(x).acceptances)

def test_coupling_is_numbered_per_agent():
    # a group id reused by another agent names another group, and a parent
    # in another agent is no parent, as `block_components` scopes them
    market = Market(1, (
        Agent("a", (BlockBid("x", 1.0, (1.0,), group="h"),
                    BlockBid("y", 1.0, (1.0,), parent="x"),
                    BlockBid("z", 1.0, (1.0,), group="h", loop="w"),
                    BlockBid("w", 1.0, (1.0,), loop="z"))),
        Agent("b", (BlockBid("u", 1.0, (1.0,), group="g", parent="y"),
                    BlockBid("v", 1.0, (1.0,), group="h"))),
    ))
    cm = market.compiled
    assert cm.groups == [(4,), (0, 2), (5,)]
    assert cm.parent == [-1, 0, -1, -1, -1, -1]
    assert cm.loop == [-1, -1, 3, 2, -1, -1]
    assert cm.components == [(0, 1, 2, 3), (4,), (5,)]


def bound_acceptances(market, tol):
    """(bid id, acceptance) at each bound a bid's feasibility check applies
    and one float step either side of it: a block at t, mar - t and 1 + t, a
    curve at lo - s and hi + s with s = t * (1 + max(|lo|, |hi|)).  A curve
    is also put at each end of each of its steps."""
    t = resolve_tol(tol)
    for agent in market.agents:
        for bid in agent.bids:
            if isinstance(bid, HourlyCurveBid):
                lo, hi = quantity_range(bid.steps)
                s = t * (1.0 + max(abs(lo), abs(hi)))
                bounds = (lo - s, hi + s, *(v for step in bid.steps
                                            for v in (step.lo, step.hi)))
            else:
                bounds = (t, bid.mar - t, 1.0 + t)
            for bound in bounds:
                for v in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)):
                    yield bid.bid_id, float(v)


value_markets = st.one_of(
    st.builds(corpus_case, seeds, st.sampled_from((1, 2, 4, 24))),
    st.builds(split_case, seeds, st.sampled_from((1, 2, 4))),
    st.just(cross_agent_parent_market()),
)


@settings(max_examples=150, deadline=None)
@given(value_markets, seeds, st.sampled_from((None, 0.5, 0.125)))
def test_values_are_byte_identical_to_the_oracles(market, seed, tol):
    rng = np.random.default_rng(seed)
    dual = solve_lp(market)
    at_lambda = dual.allocation.acceptances
    checked_values(market, at_lambda, tol)
    checked_values(market, solve_welfare(dual).allocation.acceptances, tol)
    for _ in range(3):
        balanced = random_balanced_allocation(market, rng)
        if balanced is not None:
            checked_values(market, balanced.acceptances, tol)
    infeasible = 0
    for bid_id, v in bound_acceptances(market, tol):
        values = checked_values(market, {**at_lambda, bid_id: v}, tol)
        infeasible += float("-inf") in values
    assert infeasible > 0
