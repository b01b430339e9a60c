"""Demand sets, money classes, and the nonconvexity measure."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab import demand, geometry
from equilab.config import vector_norm
from equilab.convexify import PricedMarket, solve_lp
from equilab.demand import agent_best_surplus, nonconvexity
from equilab.geometry import ComplexityError, Piece, merge_intervals, piece_nearest
from equilab.market_io import load_market
from equilab.model import (Agent, BlockBid, HourlyCurveBid, Market, block_components,
                           iter_patterns)

from conftest import FIXTURES
from market_corpus import random_market, random_price_vector
from market_helpers import agent_demand_set
from reference_oracles import (_reference_union_distance, agent_bundle, agent_value,
                               best_surplus, canonical_generators, collinear_model,
                               in_hull, reference_nonconvexity)


def _vertex_set(ds):
    return sorted(tuple(v) for v in ds.vertices)


def test_reference_demand_sets(four_agent_market):
    a1, a2, a3, a4 = four_agent_market.agents
    assert _vertex_set(agent_demand_set(a1, [3.0])) == [(3.0,)]
    assert _vertex_set(agent_demand_set(a2, [3.0])) == [(0.0,)]
    assert _vertex_set(agent_demand_set(a3, [3.0])) == [(-2.0,)]
    assert _vertex_set(agent_demand_set(a4, [3.0])) == [(-2.0,), (0.0,)]


def test_reference_demand_shifts_with_price(four_agent_market):
    a1, a2, a3, a4 = four_agent_market.agents
    # below the buyer's per-unit value the whole block is wanted, above none
    assert _vertex_set(agent_demand_set(a1, [5.0])) == [(0.0,)]
    assert _vertex_set(agent_demand_set(a2, [1.0])) == [(1.0,)]
    assert _vertex_set(agent_demand_set(a3, [0.5])) == [(0.0,)]
    assert _vertex_set(agent_demand_set(a4, [4.0])) == [(-2.0,)]


def test_reference_singletons(four_agent_market):
    flags = [agent_demand_set(a, [3.0]).is_singleton() for a in four_agent_market.agents]
    assert flags == [True, True, True, False]


def test_reference_money_classes(four_agent_market):
    mc = PricedMarket(four_agent_market, [3.0]).money_classes()
    assert mc.classes == {"b1": "in", "c2": "out", "c3": "in", "b4": "at"}
    assert mc.margins["b1"] == pytest.approx(3.0)
    assert mc.margins["b4"] == pytest.approx(0.0)


def test_reference_nonconvexity(four_agent_market):
    stats = PricedMarket(four_agent_market, [3.0]).nonconvex_stats()
    assert stats.count == 1
    assert stats.per_agent == pytest.approx((0.0, 0.0, 0.0, 1.0))
    assert stats.top == pytest.approx((1.0,))
    assert stats.top_sum == pytest.approx(1.0)


def test_block_margin():
    market = Market(1, (Agent("a", (BlockBid("b", 12.0, (3.0,)),)),))
    for lam, margin in (([3.0], 3.0), ([4.0], 0.0)):
        money = PricedMarket(market, lam).money_classes()
        assert money.margins["b"] == pytest.approx(margin)


def test_at_money_block_demand_is_ratio_segment():
    agent = Agent("a", (BlockBid("b", 4.0, (2.0,), mar=0.5),))
    ds = agent_demand_set(agent, [2.0])
    # rejection point plus the ratio segment [0.5, 1] * 2
    assert ds.contains([0.0])
    assert ds.contains([1.0])
    assert ds.contains([2.0])
    assert ds.contains([1.5])
    assert not ds.contains([0.5])
    assert nonconvexity(ds) == pytest.approx(0.5)


def test_two_hour_block_norm_choices():
    agent = Agent("a", (BlockBid("b", 2.0, (1.0, 1.0)),))
    ds = agent_demand_set(agent, [1.0, 1.0])
    assert nonconvexity(ds, norm="l2") == pytest.approx(np.sqrt(2) / 2)
    assert nonconvexity(ds, norm="l1") == pytest.approx(1.0)
    assert nonconvexity(ds, norm="linf") == pytest.approx(0.5)


def test_exclusive_group_demand():
    agent = Agent("a", (
        BlockBid("b1", 3.0, (1.0,), group="g"),
        BlockBid("b2", 6.0, (2.0,), group="g"),
    ))
    # both in the money with equal per-unit margin 2: bigger block wins
    ds = agent_demand_set(agent, [1.0])
    assert _vertex_set(ds) == [(2.0,)]
    # at lam = 4 both are out: demand nothing
    assert _vertex_set(agent_demand_set(agent, [4.0])) == [(0.0,)]


def test_linked_blocks_demand():
    agent = Agent("a", (
        BlockBid("p", 5.0, (1.0,)),
        BlockBid("c", 0.5, (1.0,), parent="p"),
    ))
    # parent profitable, child unprofitable on its own: parent only
    assert _vertex_set(agent_demand_set(agent, [1.0])) == [(1.0,)]
    # child margin positive enough to matter only if parent active
    agent2 = Agent("a", (
        BlockBid("p", 0.5, (1.0,)),
        BlockBid("c", 5.0, (1.0,), parent="p"),
    ))
    # parent loses 0.5 but the pair gains 4: both run
    assert _vertex_set(agent_demand_set(agent2, [1.0])) == [(2.0,)]


def test_hull_contains_midpoints(four_agent_market):
    verts = agent_demand_set(four_agent_market.agents[3], [3.0]).vertices
    assert in_hull([-1.0], verts, 1e-7)
    assert in_hull([-2.0], verts, 1e-7)
    assert not in_hull([0.5], verts, 1e-7)


def test_acceptances_tie_rule_first_in_build_order():
    # a1 needs its parent p; the component {a1, p} is rooted at p, listed
    # after the lone block b, so it is built after b.  a1 and b are at the
    # money with equal bundles.
    agent = Agent("a", (
        BlockBid("a1", 1.0, (1.0,), parent="p"),
        BlockBid("b", 1.0, (1.0,)),
        BlockBid("p", 2.0, (1.0,)),
    ))
    ds = agent_demand_set(agent, [1.0])
    # {b off, a1 on} is built before {b on, a1 off}: the first one wins
    assert ds.acceptances([2.0]) == {"a1": 1.0, "b": 0.0, "p": 1.0}
    assert ds.acceptances([3.0]) == {"a1": 1.0, "b": 1.0, "p": 1.0}
    with pytest.raises(AssertionError):
        ds.acceptances([0.5])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_acceptances_realise_vertices_as_best_responses(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 3))
    market = random_market(rng, K=K, max_blocks=6)
    lam = np.asarray(random_price_vector(rng, market), dtype=float)
    for agent in market.agents:
        best = agent_best_surplus(agent, lam)
        ds = agent_demand_set(agent, lam, K)
        for y in ds.vertices:
            acc = ds.acceptances(y)
            assert agent_bundle(agent, acc, K) == pytest.approx(y, abs=1e-7)
            got = agent_value(agent, acc) - float(lam @ y)
            assert got >= best - 1e-6 * (1.0 + abs(best))


def test_probe_extends_candidates():
    agent = Agent("a", (BlockBid("b", 2.0, (1.0, 1.0)),))
    ds = agent_demand_set(agent, [1.0, 1.0])
    base = nonconvexity(ds)
    probed = nonconvexity(ds, probes=([0.5, 0.5],))
    assert probed >= base - 1e-12


def test_best_surplus_reference(four_agent_market):
    a1, a2, a3, a4 = four_agent_market.agents
    assert agent_best_surplus(a1, [3.0]) == pytest.approx(3.0)
    assert agent_best_surplus(a2, [3.0]) == pytest.approx(0.0)
    assert agent_best_surplus(a3, [3.0]) == pytest.approx(4.0)
    assert agent_best_surplus(a4, [3.0]) == pytest.approx(0.0)


def _closed_form_best_surplus(agent, lam):
    """The best surplus by its own enumeration: curves first, then each block
    component's max over feasible patterns of the sum, in block order, of
    m if m > 0 else mar*m over the active blocks."""
    lam = np.asarray(lam, dtype=float)
    total = 0.0
    for bid in agent.curve_bids:
        total += best_surplus(bid.steps, float(lam[bid.hour]))
    blocks = agent.block_bids
    for comp in block_components(blocks):
        comp_blocks = tuple(blocks[i] for i in comp)
        margins = [float(b.price - lam @ b.q) for b in comp_blocks]
        best = 0.0
        for z in iter_patterns(comp_blocks):
            s = sum((m if m > 0 else b.mar * m)
                    for b, m, zi in zip(comp_blocks, margins, z) if zi)
            best = max(best, s)
        total += best
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_best_surplus_equals_closed_form_exactly(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 4))
    market = random_market(rng, K=K, max_blocks=6)
    for lam in (random_price_vector(rng, market), solve_lp(market).lambda_star):
        for agent in market.agents:
            want = _closed_form_best_surplus(agent, lam)
            assert agent_best_surplus(agent, lam) == want
            assert agent_demand_set(agent, lam, K).best_surplus == want


def _seven_blocks_market():
    # seven independent all-or-nothing blocks at 1 per unit against a seller
    # at 1: every block is at the money, so demand has 2**7 = 128 pieces
    buyer = Agent("a", tuple(BlockBid(f"b{k}", float(k), (float(k),))
                             for k in range(1, 8)))
    seller = Agent("s", (HourlyCurveBid("c1", 0, ((1.0, -100.0),)),))
    return Market(1, (buyer, seller), label="seven-blocks")


def test_best_surplus_never_hits_the_piece_cap():
    market = _seven_blocks_market()
    dual = solve_lp(market)
    assert dual.lambda_star.tolist() == [1.0]
    assert dual.dual_objective == 0.0
    assert [agent_best_surplus(a, dual.lambda_star) for a in market.agents] == [0.0, 0.0]
    assert agent_best_surplus(market.agents[0], [0.5]) == 14.0
    ds = agent_demand_set(market.agents[0], dual.lambda_star)
    assert ds.best_surplus == 0.0
    with pytest.raises(ComplexityError, match="128 demand pieces"):
        ds.pieces


# ---------------------------------------------------------------------------
# Brute-force oracle on grid-priced agents.  Surplus is linear in each curve
# quantity within a step and in each block ratio, so the argmax over step
# endpoints and ratio endpoints is exact.

def _oracle_enumerate(agent, lam, K):
    lam = np.asarray(lam, dtype=float)
    curve_choices = []
    for bid in agent.curve_bids:
        qs = {0.0}
        for s in bid.steps:
            qs.update((s.lo, s.hi))
        curve_choices.append((bid.bid_id, sorted(qs)))
    blocks = agent.block_bids
    best = -np.inf
    argmax = []
    for z in iter_patterns(blocks):
        ratio_choices = [(b.bid_id, [b.mar, 1.0] if zi else [0.0])
                         for b, zi in zip(blocks, z)]
        names = [n for n, _ in curve_choices] + [n for n, _ in ratio_choices]
        pools = [c for _, c in curve_choices] + [c for _, c in ratio_choices]
        for combo in itertools.product(*pools):
            acc = dict(zip(names, combo))
            x = agent_bundle(agent, acc, K)
            s = agent_value(agent, acc) - float(lam @ x)
            if s > best + 1e-12:
                best, argmax = s, [x]
            elif s > best - 1e-12:
                argmax.append(x)
    return best, argmax


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_demand_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=3)
    lam = random_price_vector(rng, market)
    for agent in market.agents:
        best, argmax = _oracle_enumerate(agent, lam, 1)
        assert agent_best_surplus(agent, lam) == pytest.approx(best, abs=1e-8)
        ds = agent_demand_set(agent, lam)
        scale = 1.0 + max(float(np.max(np.abs(ds.vertices))),
                          max(float(np.max(np.abs(x))) for x in argmax))
        # every brute-force argmax lies in the computed demand set
        for x in argmax:
            d, _ = ds.nearest(x)
            assert d <= 1e-7 * scale
        # every demand vertex is a brute-force argmax bundle
        for v in ds.vertices:
            assert min(np.linalg.norm(v - x) for x in argmax) <= 1e-7 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_nonconvexity_properties(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=3)
    lam = random_price_vector(rng, market)
    for agent in market.agents:
        ds = agent_demand_set(agent, lam)
        rho = nonconvexity(ds)
        assert rho >= 0.0
        if len(ds.pieces) == 1:
            assert rho == 0.0
        # measure is bounded by half the vertex-cloud diameter
        vs = ds.vertices
        diam = max(np.linalg.norm(a - b) for a in vs for b in vs) if len(vs) > 1 else 0.0
        assert rho <= 0.5 * diam + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_hull_points_near_measure(seed):
    """Sampled hull points are never farther from demand than the measure."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=1, max_blocks=3)
    lam = random_price_vector(rng, market)
    for agent in market.agents:
        ds = agent_demand_set(agent, lam)
        rho = nonconvexity(ds)
        vs = ds.vertices
        for _ in range(25):
            w = rng.dirichlet(np.ones(len(vs)))
            h = w @ vs
            d, _ = ds.nearest(h)
            assert d <= rho + 1e-7


# ---------------------------------------------------------------------------
# The carrier line against the piece-based oracles

def _oracle_measure(ds, norm, probes=()):
    """The measure of a collinear set taken on its pieces: the largest
    half-gap of `collinear_model`'s intervals merged within 1e-12, and the
    probes' distances to the nearest piece."""
    pieces = ds.pieces
    if len(pieces) == 1 and not probes:
        return 0.0
    _, unit, intervals = collinear_model(pieces)
    merged = merge_intervals(intervals, 1e-12)
    worst = 0.0
    for (_, hi0), (lo1, _) in zip(merged, merged[1:]):
        worst = max(worst, 0.5 * (lo1 - hi0))
    best = worst * vector_norm(unit, norm)
    for x in probes:
        best = max(best, min(piece_nearest(p, x)[0] for p in pieces))
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from((1, 2, 4)))
def test_carrier_line_matches_piece_oracles(seed, K):
    """On every collinear set, at lambda* and at random prices, containment
    gives the verdict of the relative test on the least piece distance, and the
    measure equals the `collinear_model` value exactly."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=K, max_blocks=8)
    dual = solve_lp(market)
    for lam in (dual.lambda_star, np.asarray(random_price_vector(rng, market), dtype=float)):
        for i, agent in enumerate(market.agents):
            ds = agent_demand_set(agent, lam, K)
            assert (ds.line is None) == (collinear_model(ds.pieces) is None)
            if ds.line is None:
                continue
            bundle = dual.lp_bundles()[i]
            for norm in ("l2", "l1", "linf"):
                assert nonconvexity(ds, norm) == _oracle_measure(ds, norm)
            assert (nonconvexity(ds, probes=(bundle,))
                    == _oracle_measure(ds, "l2", probes=(bundle,)))
            vs = ds.vertices
            points = [bundle, *vs, vs[0] + 1e-6 * rng.normal(size=K),
                      *(0.5 * (a + b) for a, b in itertools.combinations(vs, 2))]
            for x in points:
                d = _reference_union_distance(ds.pieces, x, "l2")
                assert ds.contains(x) == (d <= ds.tol * (1.0 + float(np.linalg.norm(x))))


# ---------------------------------------------------------------------------
# The early-stopping union distance against the full max-min loop

def _triangle_agent():
    """Two at-the-money all-or-nothing blocks in one exclusive group at
    q=(1, 0) and q=(1/2, sqrt(3)/2), priced at (1, 1): demand {0, q1, q2}."""
    q2 = (0.5, float(np.sqrt(3.0)) / 2.0)
    return Agent("a", (BlockBid("b1", 1.0, (1.0, 0.0), group="g"),
                       BlockBid("b2", q2[0] + q2[1], q2, group="g"))), [1.0, 1.0]


def _l_shape_agent():
    """Two at-the-money blocks, mar 0.01, in one exclusive group at q=(1, 0)
    and q=(0, 1), priced at (1, 1)."""
    return Agent("a", (BlockBid("b1", 1.0, (1.0, 0.0), mar=0.01, group="g"),
                       BlockBid("b2", 1.0, (0.0, 1.0), mar=0.01, group="g"))), [1.0, 1.0]


def _offset_range_agent():
    """Two at-the-money blocks, mar 0.99, in one exclusive group at
    q=(100, 0) and q=(0, 100): two segments whose ranges exclude 0."""
    return Agent("a", (BlockBid("b1", 99.0, (100.0, 0.0), mar=0.99, group="g"),
                       BlockBid("b2", 99.0, (0.0, 100.0), mar=0.99, group="g"))), [0.99, 0.99]


def test_offset_range_measure_in_every_norm():
    # the l1 and linf distance LPs once capped the residual by the range
    # widths (here 1), which made the LP infeasible at the origin
    agent, lam = _offset_range_agent()
    ds = agent_demand_set(agent, lam)
    assert ds.line is None and len(ds.pieces) == 3
    assert nonconvexity(ds, "l1") == pytest.approx(99.0)
    assert nonconvexity(ds, "linf") == pytest.approx(49.5)
    assert nonconvexity(ds, "l2") == pytest.approx(np.hypot(99.0, 99.0) / 2.0)
    segment = next(p for p in ds.pieces if len(p.units))
    assert geometry.piece_distance(segment, [0.0, 0.0], "l1") == pytest.approx(99.0)
    assert geometry.piece_distance(segment, [0.0, 0.0], "linf") == pytest.approx(99.0)


def _assert_matches_full_loop(ds, probes, rng):
    for norm in ("l2", "l1", "linf"):
        assert repr(nonconvexity(ds, norm)) == repr(reference_nonconvexity(ds, norm))
        assert (repr(nonconvexity(ds, norm, probes=probes))
                == repr(reference_nonconvexity(ds, norm, probes=probes)))
    vs = ds.vertices
    points = [*probes, *vs[:8], vs[0] + 1e-10 * rng.normal(size=vs.shape[1]),
              *(0.5 * (a + b) for a, b in itertools.islice(itertools.combinations(vs, 2), 8))]
    for x in points:
        d_ref = _reference_union_distance(ds.pieces, x, "l2")
        assert repr(geometry.union_distance(ds.pieces, x)) == repr(d_ref)
        bar = ds.tol * (1.0 + float(np.linalg.norm(x)))
        assert ds.contains(x) == (d_ref <= bar)


@pytest.mark.parametrize("make", [_triangle_agent, _l_shape_agent, _offset_range_agent])
def test_measure_and_union_distance_match_full_loop_examples(make):
    agent, lam = make()
    ds = agent_demand_set(agent, lam)
    _assert_matches_full_loop(ds, (np.mean(ds.vertices, axis=0),), np.random.default_rng(0))


def test_containment_reads_the_least_piece_distance():
    # three points: a just inside the bar of x, b just outside it on the
    # other side and nearer 0, c far off.  The nearest point breaks the
    # 1e-12 tie between a and b toward b, which is outside the bar;
    # containment reads the least distance, a's.
    tol = 1e-7
    x = np.array([1.0, 1.0])
    bar = tol * (1.0 + np.sqrt(2.0))
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    points = [x + (bar - 2e-13) * u, x - (bar + 2e-13) * u, np.array([5.0, 0.0])]
    ds = demand.DemandSet(tol, 0.0, ([(p, (), ()) for p in points],))
    assert ds.line is None and len(ds.pieces) == 3
    d, y = ds.nearest(x)
    assert d > bar and y.tobytes() == points[1].tobytes()
    assert ds.contains(x)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from((2, 4, 24)))
def test_measure_and_union_distance_match_full_loop(seed, K):
    """At lambda* and at random prices, the measure in every norm, probed by
    the LP bundle and unprobed, the nearest point and containment are the
    bytes of the full max-min loop."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=K, max_blocks=8)
    dual = solve_lp(market)
    for lam in (dual.lambda_star, np.asarray(random_price_vector(rng, market), dtype=float)):
        for i, agent in enumerate(market.agents):
            ds = agent_demand_set(agent, lam, K)
            if ds.line is None:
                _assert_matches_full_loop(ds, (dual.lp_bundles()[i],), rng)


# ---------------------------------------------------------------------------
# One piece per pattern, and canonical forms

def _grouped_blocks_set(mars, curve: bool):
    """At lam = (1, 1.5), the demand set of one agent with a block at the
    money per entry of `mars` (its minimum acceptance ratio), all with q = (1,
    2) in one exclusive group, and with `curve` a curve at the money in hour
    0 that takes any of [0, 1].  Identical or nested blocks give a piece
    each."""
    bids = [BlockBid(f"b{j}", 4.0, (1.0, 2.0), mar=mar, group="g")
            for j, mar in enumerate(mars)]
    if curve:
        bids.append(HourlyCurveBid("c", 0, ((1.0, 1.0),)))
    return PricedMarket(Market(2, (Agent("a", tuple(bids)),)), [1.0, 1.5]).demand(0)


_GROUPED_MARS = ((1.0, 1.0), (0.25, 0.25), (0.25, 0.5), (0.5, 0.25))


def _constructed_sets():
    return [_grouped_blocks_set(mars, curve) for mars in _GROUPED_MARS
            for curve in (False, True)]


@functools.lru_cache(maxsize=None)
def _corpus_sets() -> tuple:
    """The demand sets at lambda* with more than one pattern of thirty corpus
    markets at each K in 1, 2, 4 and 24."""
    sets = []
    for K in (1, 2, 4, 24):
        for s in range(30):
            dual = solve_lp(random_market(np.random.default_rng((91, s, K)), K=K,
                                          max_blocks=8))
            for i in range(len(dual.market.agents)):
                ds = dual.demand(i)
                try:
                    if len(ds.patterns) > 1:
                        sets.append(ds)
                except ComplexityError:
                    pass
    return tuple(sets)


_GROUPED_POINTS = ((0.1, 0.2), (0.4, 0.75), (0.5, 1.0), (1.5, 1.0))
# Per (all-or-nothing blocks, curve): the measure in l2, l1 and linf, then per
# point of _GROUPED_POINTS its containment, distance and nearest point.  Every
# float is the one the set gave with the inner or repeated block's piece left
# out of its pieces.
_GROUPED_VALUES = {
    (True, False): ((1.1180339887498947, 1.5, 1.0),
                    ((False, 0.223606797749979, [0.0, 0.0]),
                     (False, 0.85, [0.0, 0.0]),
                     (False, 1.118033988749895, [0.0, 0.0]),
                     (False, 1.118033988749895, [1.0, 2.0]))),
    (True, True): ((1.0, 1.0, 1.0),
                   ((False, 0.2, [0.1, 0.0]),
                    (False, 0.75, [0.4, 0.0]),
                    (False, 1.0, [0.5, 0.0]),
                    (False, 1.0, [1.5, 2.0]))),
    (False, False): ((0.2795084971874737, 0.3750000000000001, 0.25000000000000006),
                     ((False, 0.223606797749979, [0.0, 0.0]),
                      (False, 0.022360679774997918, [0.38, 0.76]),
                      (True, 0.0, [0.5, 1.0]),
                      (False, 0.8944271909999159, [0.7, 1.4]))),
    (False, True): ((0.25, 0.25, 0.25),
                    ((False, 0.2, [0.1, 0.0]),
                     (True, 5.551115123125783e-17, [0.4000000000000001, 0.75]),
                     (True, 2.220446049250313e-16, [0.5000000000000002, 1.0]),
                     (True, 0.0, [1.5, 1.0]))),
}


def _piece_bytes(piece) -> tuple:
    return tuple(a.tobytes() for a in (piece.offset, piece.units, piece.lo, piece.hi))


def test_constructed_sets_drop_pieces():
    # no piece is dropped: one piece per pattern in build order (off, b1
    # on, b0 on), also where two blocks are identical or one's piece lies
    # inside the other's; containment, the measure and the nearest point
    # keep their floats
    for mars in _GROUPED_MARS:
        for curve in (False, True):
            ds = _grouped_blocks_set(mars, curve)
            assert len(ds.patterns) == len(ds.pieces) == 3
            assert [_piece_bytes(p) for p in ds.pieces] == \
                [_piece_bytes(Piece.of(off, gens)) for off, gens in ds.canonical]
            off, *blocks = ds.pieces
            assert piece_nearest(off, [0.0, 0.0])[0] == 0.0
            for piece, mar in zip(blocks, reversed(mars)):
                assert piece_nearest(piece, [mar, 2 * mar])[0] <= 1e-12
                assert piece_nearest(piece, [1.0, 2.0])[0] <= 1e-12
            measures, points = _GROUPED_VALUES[min(mars) == 1.0, curve]
            assert tuple(nonconvexity(ds, norm) for norm in ("l2", "l1", "linf")) == measures
            for x, (inside, dist, nearest) in zip(_GROUPED_POINTS, points):
                d, y = ds.nearest(x)
                assert (ds.contains(x), d, y.tolist()) == (inside, dist, nearest)
    # the off-line sets of the K=24 fixture keep one piece per pattern too
    dual = solve_lp(load_market(FIXTURES / "large_k24.json"))
    sets = [ds for ds in dual.demand_sets() if ds.line is None]
    assert sorted(len(ds.pieces) for ds in sets) == [4, 4, 8]
    assert all(len(ds.pieces) == len(ds.patterns) for ds in sets)


def _form_bytes(canonical) -> list:
    return [(np.asarray(offset).tobytes(),
             [(unit.tobytes(), np.array([lo, hi]).tobytes()) for unit, lo, hi in gens])
            for offset, gens in canonical]


def test_canonical_forms_are_each_patterns_canonical_generators():
    # one form per generator, folded per pattern: the bytes of a
    # `canonical_generators` call per pattern
    for ds in _constructed_sets() + list(_corpus_sets()):
        try:
            got = ds.canonical
        except ComplexityError:
            continue
        want = [canonical_generators(off, [g[1:] for g in free])
                for off, _, free in ds.patterns]
        assert _form_bytes(got) == _form_bytes(want)
