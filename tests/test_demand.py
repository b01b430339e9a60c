"""Demand sets, money classes, and the nonconvexity measure."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilab.config import vector_norm
from equilab.convexify import priced_at, solve_lp
from equilab.curves import best_surplus
from equilab.demand import (agent_best_surplus, block_margin, classify_money,
                            demand_set, nonconvexity)
from equilab.geometry import (ComplexityError, merge_intervals, piece_nearest,
                              union_nearest)
from equilab.model import (Agent, BlockBid, HourlyCurveBid, Market, agent_bundle,
                           agent_value, block_components, iter_patterns)

from market_corpus import random_market, random_price_vector
from reference_oracles import collinear_model, in_hull


def _vertex_set(ds):
    return sorted(tuple(v) for v in ds.vertices)


def test_reference_demand_sets(four_agent_market):
    a1, a2, a3, a4 = four_agent_market.agents
    assert _vertex_set(demand_set(a1, [3.0])) == [(3.0,)]
    assert _vertex_set(demand_set(a2, [3.0])) == [(0.0,)]
    assert _vertex_set(demand_set(a3, [3.0])) == [(-2.0,)]
    assert _vertex_set(demand_set(a4, [3.0])) == [(-2.0,), (0.0,)]


def test_reference_demand_shifts_with_price(four_agent_market):
    a1, a2, a3, a4 = four_agent_market.agents
    # below the buyer's per-unit value the whole block is wanted, above none
    assert _vertex_set(demand_set(a1, [5.0])) == [(0.0,)]
    assert _vertex_set(demand_set(a2, [1.0])) == [(1.0,)]
    assert _vertex_set(demand_set(a3, [0.5])) == [(0.0,)]
    assert _vertex_set(demand_set(a4, [4.0])) == [(-2.0,)]


def test_reference_singletons(four_agent_market):
    flags = [demand_set(a, [3.0]).is_singleton() for a in four_agent_market.agents]
    assert flags == [True, True, True, False]


def test_reference_money_classes(four_agent_market):
    mc = classify_money(four_agent_market, [3.0])
    assert mc.classes == {"b1": "in", "c2": "out", "c3": "in", "b4": "at"}
    assert mc.margins["b1"] == pytest.approx(3.0)
    assert mc.margins["b4"] == pytest.approx(0.0)


def test_reference_nonconvexity(four_agent_market):
    stats = priced_at(four_agent_market, [3.0]).nonconvex_stats()
    assert stats.count == 1
    assert stats.per_agent == pytest.approx((0.0, 0.0, 0.0, 1.0))
    assert stats.top == pytest.approx((1.0,))
    assert stats.top_sum == pytest.approx(1.0)


def test_block_margin():
    bid = BlockBid("b", 12.0, (3.0,))
    assert block_margin(bid, np.array([3.0])) == pytest.approx(3.0)
    assert block_margin(bid, np.array([4.0])) == pytest.approx(0.0)


def test_at_money_block_demand_is_ratio_segment():
    agent = Agent("a", (BlockBid("b", 4.0, (2.0,), mar=0.5),))
    ds = demand_set(agent, [2.0])
    # rejection point plus the ratio segment [0.5, 1] * 2
    assert ds.contains([0.0])
    assert ds.contains([1.0])
    assert ds.contains([2.0])
    assert ds.contains([1.5])
    assert not ds.contains([0.5])
    assert nonconvexity(ds) == pytest.approx(0.5)


def test_two_hour_block_norm_choices():
    agent = Agent("a", (BlockBid("b", 2.0, (1.0, 1.0)),))
    ds = demand_set(agent, [1.0, 1.0])
    assert nonconvexity(ds, norm="l2") == pytest.approx(np.sqrt(2) / 2)
    assert nonconvexity(ds, norm="l1") == pytest.approx(1.0)
    assert nonconvexity(ds, norm="linf") == pytest.approx(0.5)


def test_exclusive_group_demand():
    agent = Agent("a", (
        BlockBid("b1", 3.0, (1.0,), group="g"),
        BlockBid("b2", 6.0, (2.0,), group="g"),
    ))
    # both in the money with equal per-unit margin 2: bigger block wins
    ds = demand_set(agent, [1.0])
    assert _vertex_set(ds) == [(2.0,)]
    # at lam = 4 both are out: demand nothing
    assert _vertex_set(demand_set(agent, [4.0])) == [(0.0,)]


def test_linked_blocks_demand():
    agent = Agent("a", (
        BlockBid("p", 5.0, (1.0,)),
        BlockBid("c", 0.5, (1.0,), parent="p"),
    ))
    # parent profitable, child unprofitable on its own: parent only
    assert _vertex_set(demand_set(agent, [1.0])) == [(1.0,)]
    # child margin positive enough to matter only if parent active
    agent2 = Agent("a", (
        BlockBid("p", 0.5, (1.0,)),
        BlockBid("c", 5.0, (1.0,), parent="p"),
    ))
    # parent loses 0.5 but the pair gains 4: both run
    assert _vertex_set(demand_set(agent2, [1.0])) == [(2.0,)]


def test_hull_contains_midpoints(four_agent_market):
    verts = demand_set(four_agent_market.agents[3], [3.0]).vertices
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
    ds = demand_set(agent, [1.0])
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
        ds = demand_set(agent, lam, K)
        for y in ds.vertices:
            acc = ds.acceptances(y)
            assert agent_bundle(agent, acc, K) == pytest.approx(y, abs=1e-7)
            got = agent_value(agent, acc) - float(lam @ y)
            assert got >= best - 1e-6 * (1.0 + abs(best))


def test_probe_extends_candidates():
    agent = Agent("a", (BlockBid("b", 2.0, (1.0, 1.0)),))
    ds = demand_set(agent, [1.0, 1.0])
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
        margins = [block_margin(b, lam) for b in comp_blocks]
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
            assert demand_set(agent, lam, K).best_surplus == want


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
    ds = demand_set(market.agents[0], dual.lambda_star)
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
        ds = demand_set(agent, lam)
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
        ds = demand_set(agent, lam)
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
        ds = demand_set(agent, lam)
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
    """The measure of a collinear set as it was taken on the deduplicated
    pieces: the largest half-gap of `collinear_model`'s intervals merged
    within 1e-12, and the probes' distances to the nearest piece."""
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
    gives the verdict of the relative test on the nearest piece, and the
    measure equals the `collinear_model` value exactly."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, K=K, max_blocks=8)
    dual = solve_lp(market)
    for lam in (dual.lambda_star, np.asarray(random_price_vector(rng, market), dtype=float)):
        for i, agent in enumerate(market.agents):
            ds = demand_set(agent, lam, K)
            assert (ds.line is None) == (collinear_model(ds.pieces) is None)
            if ds.line is None:
                continue
            bundle = dual.lp_bundle(i)
            for norm in ("l2", "l1", "linf"):
                assert nonconvexity(ds, norm) == _oracle_measure(ds, norm)
            assert (nonconvexity(ds, probes=(bundle,))
                    == _oracle_measure(ds, "l2", probes=(bundle,)))
            vs = ds.vertices
            points = [bundle, *vs, vs[0] + 1e-6 * rng.normal(size=K),
                      *(0.5 * (a + b) for a, b in itertools.combinations(vs, 2))]
            for x in points:
                d, _ = union_nearest(ds.pieces, x)
                assert ds.contains(x) == (d <= ds.tol * (1.0 + float(np.linalg.norm(x))))
